"""CoNLL bracket-format export/import for coreference partitions.

Files contain one block per evaluation unit:

    #begin document (<unit_id>); part 000
    doc_id 0 token_index token_text coref
    ...
    #end document

with a blank line between documents. The coref column marks cluster spans
with `(id`, `id)` and `(id)`; `-` means no span starts or ends there.
Cluster ids are integers, unique across the whole file, so clusters that
span units survive a round trip.

Same-cluster spans in one document must nest or be disjoint: two identical
spans, or partially overlapping spans, in the same cluster cannot be
expressed in bracket notation and raise ``InvariantError``.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Iterable, Mapping, Sequence

from .corpus import (
    Document,
    InvariantError,
    Mention,
    Partition,
    SchemaError,
    read_lines,
    write_text,
)

_MARK = re.compile(r"\(([0-9]+)\)|\(([0-9]+)|([0-9]+)\)")


def _spans_representable(cluster_id, spans: list[tuple[int, int]]) -> None:
    spans = sorted(spans)
    for i, (s1, e1) in enumerate(spans):
        for s2, e2 in spans[i + 1 :]:
            if (s1, e1) == (s2, e2) or (s1 < s2 <= e1 < e2):
                raise InvariantError(
                    f"cluster {cluster_id}: spans ({s1},{e1}) and ({s2},{e2}) "
                    "overlap in a way bracket notation cannot express"
                )


def _doc_token_texts(
    doc_id: str,
    spans: list[tuple[int, int, int]],
    documents: Mapping[str, Document] | None,
) -> list[str]:
    if documents is not None and doc_id in documents:
        return [t.text for t in documents[doc_id].tokens]
    length = max((end for _, end, _ in spans), default=-1) + 1
    return ["-"] * length


def write_partition_conll(
    path,
    mentions: Sequence[Mention],
    partition: Partition,
    documents: Mapping[str, Document] | None = None,
    units: Mapping[str, Iterable[str]] | None = None,
) -> None:
    """Write one partition as a CoNLL coreference file."""
    by_id = {m.mention_id: m for m in mentions}
    missing = partition.mentions() - by_id.keys()
    if missing:
        raise SchemaError(f"partition references unknown mentions: {sorted(missing)[:5]}")

    # (doc_id -> [(start, end, cluster_id)]) for mentions in the partition
    doc_spans: dict[str, list[tuple[int, int, int]]] = defaultdict(list)
    for cid, cluster in enumerate(partition.clusters):
        per_doc: dict[str, list[tuple[int, int]]] = defaultdict(list)
        for mid in sorted(cluster):
            m = by_id[mid]
            per_doc[m.doc_id].append((m.start_token, m.end_token))
        for doc_id, spans in per_doc.items():
            _spans_representable(cid, spans)
            doc_spans[doc_id].extend((s, e, cid) for s, e in spans)

    if units is None:
        units = {"corpus": sorted(doc_spans)}

    lines = []
    for unit_id in sorted(units):
        lines.append(f"#begin document ({unit_id}); part 000")
        doc_ids = sorted(set(units[unit_id]))
        for d, doc_id in enumerate(doc_ids):
            if d:
                lines.append("")
            spans = doc_spans.get(doc_id, [])
            texts = _doc_token_texts(doc_id, spans, documents)
            starts: dict[int, list[tuple[int, int]]] = defaultdict(list)
            ends: dict[int, list[tuple[int, int]]] = defaultdict(list)
            singles: dict[int, list[int]] = defaultdict(list)
            for s, e, cid in spans:
                if s == e:
                    singles[s].append(cid)
                else:
                    starts[s].append((e, cid))
                    ends[e].append((s, cid))
            for t, text in enumerate(texts):
                # inner spans open after and close before outer ones
                marks = [f"({cid}" for _, cid in sorted(starts.get(t, []), reverse=True)]
                marks += [f"({cid})" for cid in sorted(singles.get(t, []))]
                marks += [f"{cid})" for _, cid in sorted(ends.get(t, []), reverse=True)]
                coref = "".join(marks) or "-"
                lines.append(f"{doc_id} 0 {t} {text} {coref}")
        lines.append("#end document")
    write_text(path, ("\n".join(lines), "\n"))


def export_conll(
    mentions: Sequence[Mention],
    key: Partition,
    response: Partition,
    path,
    documents: Mapping[str, Document] | None = None,
    units: Mapping[str, Iterable[str]] | None = None,
) -> tuple[str, str]:
    """Write `<path>.key.conll` and `<path>.response.conll`; returns the paths."""
    key_path, response_path = f"{path}.key.conll", f"{path}.response.conll"
    write_partition_conll(key_path, mentions, key, documents, units)
    write_partition_conll(response_path, mentions, response, documents, units)
    return key_path, response_path


def read_conll_spans(path) -> list[tuple[str, int, int, int]]:
    """Parse a CoNLL coreference file into (doc_id, start, end, cluster_id)."""
    results = []
    open_spans: dict[int, list[int]] = defaultdict(list)
    current_doc = None
    lineno = 0

    def check_closed(lineno):
        dangling = {cid: st for cid, st in open_spans.items() if st}
        if dangling:
            raise SchemaError(
                f"{path}:{lineno}: unclosed span(s) for cluster(s) "
                f"{sorted(dangling)} in document {current_doc!r}"
            )

    for lineno, line in read_lines(path):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("#begin document") or line.startswith("#end document"):
            check_closed(lineno)
            current_doc = None
            continue
        parts = line.split()
        if len(parts) < 5:
            raise SchemaError(f"{path}:{lineno}: expected 5 columns, got {len(parts)}")
        doc_id, coref = parts[0], parts[-1]
        try:
            if not (parts[2].isascii() and parts[2].isdigit()):  # int() takes "١", "_", "+"
                raise ValueError
            token_index = int(parts[2])
        except ValueError:  # also more digits than int() converts
            raise SchemaError(f"{path}:{lineno}: bad token index {parts[2]!r}") from None
        if doc_id != current_doc:
            check_closed(lineno)
            current_doc = doc_id
        if coref == "-":
            continue
        pos = 0
        for match in _MARK.finditer(coref):
            if match.start() != pos:
                raise SchemaError(f"{path}:{lineno}: bad coref column {coref!r}")
            pos = match.end()
            single, op, close = match.groups()
            try:
                cid = int(single or op or close)
            except ValueError:  # more digits than int() converts
                raise SchemaError(f"{path}:{lineno}: bad cluster id in {coref!r}") from None
            if single is not None:
                results.append((doc_id, token_index, token_index, cid))
            elif op is not None:
                open_spans[cid].append(token_index)
            elif not open_spans[cid]:
                raise SchemaError(
                    f"{path}:{lineno}: closing bracket for cluster {cid} "
                    "without a matching opening"
                )
            else:
                results.append((doc_id, open_spans[cid].pop(), token_index, cid))
        if pos != len(coref):
            raise SchemaError(f"{path}:{lineno}: bad coref column {coref!r}")
    check_closed(lineno)
    return results


def import_partition_conll(path, mentions: Sequence[Mention] | None = None) -> Partition:
    """Rebuild a Partition from a CoNLL file.

    With `mentions`, spans are mapped back to the matching mention ids (a
    span that matches no mention, or more than one, is an error); without,
    members are synthesized as `"doc_id:start-end"` strings.
    """
    ids_of = None
    if mentions is not None:
        ids_of = defaultdict(set)
        for m in mentions:
            ids_of[m.span()].add(m.mention_id)
    clusters: dict[int, set] = defaultdict(set)
    for doc_id, start, end, cid in read_conll_spans(path):
        if ids_of is None:
            member = f"{doc_id}:{start}-{end}"
        else:
            ids = ids_of.get((doc_id, start, end), ())
            if len(ids) != 1:
                span, ids = f"{path}: span ({doc_id!r}, {start}, {end})", sorted(ids)
                if not ids:
                    raise SchemaError(f"{span} matches no known mention")
                raise InvariantError(f"{span} matches mentions {ids[0]!r} and {ids[1]!r}")
            (member,) = ids
        clusters[cid].add(member)
    return Partition(clusters.values())
