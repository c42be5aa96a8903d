"""Corpus data model and JSON I/O: documents, mentions, coreference partitions.

The on-disk corpus is a single JSON object:

    {"documents": [{"doc_id", "topic_id", "subtopic_id",
                    "tokens": [{"sentence", "text"}, ...]}, ...],
     "mentions":  [{"mention_id", "doc_id", "start_token", "end_token",
                    "type", "head_lemma"?, "score"?}, ...],
     "clusters":  [[mention_id, ...], ...],
     "split":     "train" | "validation" | "test"}        # optional

Token indices are document-global positions (0-based, contiguous); mention
spans are inclusive token ranges. Mentions listed in no cluster are treated
as singleton clusters, so gold singletons may be written either way.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter, methodcaller
from types import MappingProxyType

MENTION_TYPES = ("event", "entity")
SPLITS = ("train", "validation", "test")
# the largest score magnitude an input file may hold, so that average-link's
# sums of up to 1e100 combined scores (three scores each) stay finite
SCORE_BOUND = 1e200


class CorpusError(Exception):
    """Base class for corpus and partition input problems."""


class SchemaError(CorpusError):
    """Malformed input: bad JSON, missing fields, wrong types."""


class InvariantError(CorpusError):
    """Well-formed input that violates a data invariant."""


@dataclass(frozen=True)
class Token:
    doc_id: str
    sentence_index: int
    token_index: int
    text: str


@dataclass(frozen=True)
class Document:
    doc_id: str
    topic_id: str
    subtopic_id: str
    tokens: tuple[Token, ...]

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class Mention:
    """A typed token span. `start_token`/`end_token` are inclusive."""

    mention_id: str
    doc_id: str
    start_token: int
    end_token: int
    mention_type: str
    head_lemma: str | None = None
    mention_score: float | None = None

    def span(self) -> tuple[str, int, int]:
        """Identity key used to match mentions across partitions."""
        return (self.doc_id, self.start_token, self.end_token)

    def width(self) -> int:
        return self.end_token - self.start_token + 1


class Partition:
    """Disjoint, non-empty clusters over mention identifiers.

    Clusters are stored in a canonical order (sorted by member list), so two
    partitions with the same clusters compare equal regardless of input order.
    The error for a shared member names the smallest one, whatever the hash
    seed or the order of the input.
    """

    __slots__ = ("clusters", "mention_index")

    def __init__(self, clusters: Iterable[Iterable] = ()):
        sets = [frozenset(c) for c in clusters]
        if not all(sets):
            raise InvariantError("partition contains an empty cluster")
        if sum(map(len, sets)) != len(frozenset().union(*sets)):
            shared = min(m for m, n in Counter(chain.from_iterable(sets)).items() if n > 1)
            raise InvariantError(f"mention {shared!r} appears in more than one cluster")
        # disjoint sets sort by their member lists as by their smallest members
        sets.sort(key=min)
        self.clusters: tuple[frozenset, ...] = tuple(sets)
        self.mention_index: dict = {m: i for i, c in enumerate(self.clusters) for m in c}

    def mentions(self) -> frozenset:
        return frozenset(self.mention_index)

    def restricted_to(self, keep: Iterable) -> "Partition":
        """Intersect every cluster with `keep`; empty remnants are dropped."""
        keep = set(keep)
        return Partition(c & keep for c in self.clusters if c & keep)

    def __len__(self) -> int:
        return len(self.clusters)

    def __iter__(self) -> Iterator[frozenset]:
        return iter(self.clusters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.clusters == other.clusters

    def __hash__(self) -> int:
        return hash(self.clusters)

    def __repr__(self) -> str:
        return f"Partition({[sorted(c) for c in self.clusters]})"


@dataclass(frozen=True)
class Corpus:
    """A validated corpus, never mutated after construction (`documents`
    is a read-only copy). `_memo` holds what `harness` derives from it
    alone, plus one response slot: the tau-free part of the last
    `build_response` call, which serves a later call with the same inputs
    at that tau or above (a lower tau rebuilds it) and keeps that call's
    score table alive. `==`, `repr` and `dataclasses.replace` ignore it."""

    documents: Mapping[str, Document]
    gold_mentions: tuple[Mention, ...]
    gold_partition: Partition
    split: str = "test"
    _memo: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "documents", MappingProxyType(dict(self.documents)))
        if self.split not in SPLITS:
            raise SchemaError(f"unknown split {self.split!r}; expected one of {SPLITS}")
        seen = set()
        for m in self.gold_mentions:
            if m.mention_id in seen:
                raise InvariantError(f"duplicate mention_id {m.mention_id!r}")
            seen.add(m.mention_id)
            _check_mention(m, self.documents)
        if self.gold_partition.mentions() != seen:
            missing = sorted(seen - self.gold_partition.mentions())
            extra = sorted(self.gold_partition.mentions() - seen)
            raise InvariantError(
                "gold partition does not cover the mention set exactly "
                f"(unclustered: {missing[:5]}, unknown: {extra[:5]})"
            )

    def mentions_of_type(self, mention_type: str) -> list[Mention]:
        """Gold mentions of one type, or all of them for `"all"`."""
        if mention_type == "all":
            return list(self.gold_mentions)
        if mention_type not in MENTION_TYPES:
            raise SchemaError(f"unknown mention type {mention_type!r}")
        return [m for m in self.gold_mentions if m.mention_type == mention_type]

    def token_count(self, doc_ids: Iterable[str]) -> int:
        return sum(len(self.documents[d]) for d in doc_ids)


def _check_mention(m: Mention, documents: Mapping[str, Document]) -> None:
    if m.mention_type not in MENTION_TYPES:
        raise SchemaError(
            f"mention {m.mention_id!r}: unknown type {m.mention_type!r}"
        )
    doc = documents.get(m.doc_id)
    if doc is None:
        raise InvariantError(
            f"mention {m.mention_id!r} references unknown document {m.doc_id!r}"
        )
    if not (0 <= m.start_token <= m.end_token):
        raise InvariantError(
            f"mention {m.mention_id!r}: bad span "
            f"({m.start_token}, {m.end_token})"
        )
    if m.end_token >= len(doc):
        raise InvariantError(
            f"mention {m.mention_id!r}: end_token {m.end_token} outside "
            f"document {m.doc_id!r} ({len(doc)} tokens)"
        )


def filter_singletons(partition: Partition) -> Partition:
    """Drop size-1 clusters. Idempotent; never invents or splits clusters."""
    return Partition(c for c in partition.clusters if len(c) >= 2)


# --- JSON files ---------------------------------------------------------------
# Every JSON/JSONL read goes through read_json or read_jsonl (text lines,
# CoNLL included, through read_lines), every write through write_text.


def read_json(path, parse):
    """Decode the JSON object in file `path` and return `parse(object)`.

    Undecodable input, a top level that is not an object, and every
    CorpusError that `parse` raises become errors prefixed with `path`.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise SchemaError(
                f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
            ) from e
        except (ValueError, RecursionError) as e:
            raise _undecodable(path, e) from e
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: top level must be an object")
    try:
        return parse(data)
    except CorpusError as e:
        raise type(e)(f"{path}: {e}") from e


_scan_once = json.JSONDecoder().scan_once


def read_jsonl(path) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for each non-blank line of JSONL file
    `path`, streaming. Undecodable lines and lines that are not objects
    raise SchemaError prefixed with `path:line`.

    A line that is one JSON value followed only by JSON whitespace is
    decoded by the scanner `json.loads` uses, one Python frame less per
    line; every other line takes `json.loads`, so results and messages are
    those of `json.loads` on each line.
    """
    for lineno, line in read_lines(path):
        try:
            obj, end = _scan_once(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        # not str.isspace: "\x0c" after a value is "Extra data" to json.loads
        if end < 0 or line[end:].strip(" \t\n\r"):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise SchemaError(f"{path}:{lineno}: invalid JSON: {e.msg}") from e
            except (ValueError, RecursionError) as e:
                raise _undecodable(f"{path}:{lineno}", e) from e
        if not isinstance(obj, dict):
            raise SchemaError(f"{path}:{lineno}: expected an object")
        yield lineno, obj


def read_lines(path) -> Iterator[tuple[int, str]]:
    """Yield (line number, line) for each line of UTF-8 text file `path`,
    streaming. Bytes that are not UTF-8 raise SchemaError prefixed with
    `path`."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as e:
            # raised while reading ahead, so the line is not known
            raise _undecodable(path, e) from e


def _undecodable(where: str, e: Exception) -> SchemaError:
    """A decoding failure other than bad JSON syntax: bytes that are not
    UTF-8, nesting deeper than the parser's stack, over-long integers."""
    if isinstance(e, RecursionError):
        return SchemaError(f"{where}: invalid JSON: nested too deeply")
    if isinstance(e, UnicodeDecodeError):
        return SchemaError(f"{where}: not UTF-8 text: {e.reason}")
    return SchemaError(f"{where}: {e}")


def write_text(path, chunks: Iterable[str]) -> None:
    """Write `chunks` to file `path`, or to stdout when `path` is None or
    empty (as an unset --output is)."""
    if not path:
        sys.stdout.writelines(chunks)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)


def write_json(path, data) -> None:
    """Write `data` as JSON indented by 2 plus a newline, to file `path`,
    or to stdout when `path` is None."""
    write_text(path, (json.dumps(data, indent=2), "\n"))


def write_jsonl(path, rows: Iterable) -> None:
    """Write one JSON line per row, to file `path` or to stdout when `path`
    is None."""
    write_text(path, (json.dumps(row) + "\n" for row in rows))


_REQUIRED = object()
_KINDS = {str: "a string", int: "an integer", float: "a number", bool: "true or false",
          list: "a list", dict: "an object"}


def _expect_object(obj, where: str) -> None:
    if not isinstance(obj, Mapping):
        raise SchemaError(f"{where}: expected an object")


def _require(obj: Mapping, key: str, kind: type, where: str, default=_REQUIRED):
    """Field `key` of `obj` (a Mapping) as exactly a `kind`; an int also
    reads as a float, and is out of range beyond the float range. `where`
    names `obj` in messages ("" for a file's top level). A field with a
    `default` may be absent or null."""
    value = obj.get(key)
    if value is None and default is not _REQUIRED:
        return default
    if type(value) is kind:
        return value
    if kind is float and type(value) is int:
        if abs(value) <= sys.float_info.max:  # exact for an int of any size
            return float(value)
        problem = "out of range"
    else:
        problem = "missing field" if key not in obj else f"expected {_KINDS[kind]}"
    raise SchemaError(f"{where}.{key}: {problem}" if where else f"{key}: {problem}")


def mention_from_json(obj: Mapping, where: str = "mention") -> Mention:
    _expect_object(obj, where)
    return Mention(
        mention_id=_require(obj, "mention_id", str, where),
        doc_id=_require(obj, "doc_id", str, where),
        start_token=_require(obj, "start_token", int, where),
        end_token=_require(obj, "end_token", int, where),
        mention_type=_require(obj, "type", str, where),
        head_lemma=_require(obj, "head_lemma", str, where, None),
        mention_score=_require(obj, "score", float, where, None),
    )


def mention_to_json(m: Mention) -> dict:
    obj = {
        "mention_id": m.mention_id,
        "doc_id": m.doc_id,
        "start_token": m.start_token,
        "end_token": m.end_token,
        "type": m.mention_type,
    }
    if m.head_lemma is not None:
        obj["head_lemma"] = m.head_lemma
    if m.mention_score is not None:
        obj["score"] = m.mention_score
    return obj


def _bounded_score(value, prefix: str) -> float:
    """A JSON number as a float of magnitude at most SCORE_BOUND; else a
    `SchemaError` that reads `prefix` and what is wrong."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{prefix} must be a number")
    if isinstance(value, float) and not math.isfinite(value):
        raise SchemaError(f"{prefix} must be finite")
    if abs(value) > SCORE_BOUND:  # exact for an int of any size
        raise SchemaError(f"{prefix} out of range")
    return float(value)


def _mention_table(rows: list, scored: bool = False, finite: bool = True) -> dict[str, Mention]:
    """A `mentions` list as mentions by id, in list order; ids are unique.
    With `scored` (corpus and candidate files), a finite score must be at
    most SCORE_BOUND in magnitude, and with `finite` a score must be finite."""
    table: dict[str, Mention] = {}
    for i, obj in enumerate(rows):
        m = mention_from_json(obj, f"mentions[{i}]")
        score = m.mention_score
        if scored and score is not None and (finite or math.isfinite(score)):
            _bounded_score(score, f"mentions[{i}].score:")
        if m.mention_id in table:
            raise InvariantError(f"duplicate mention_id {m.mention_id!r}")
        table[m.mention_id] = m
    return table


_ROW_FIELDS = tuple(map(itemgetter, ("mention_id", "doc_id", "type", "start_token", "end_token")))
_LEMMA, _SCORE = methodcaller("get", "head_lemma", ""), methodcaller("get", "score", 0.0)


def _partition_columns(data: Mapping) -> tuple | None:
    """A partition file as flat columns: the members in file order, the
    clusters' lengths, and with a mention table (else None) each member's
    row and the rows' doc ids, starts and ends. None when a check that
    `load_partition_file` makes may fail: each is a type test over a whole
    column, stricter than `_require`."""
    clusters, rows = data.get("clusters"), data.get("mentions")
    if type(clusters) is not list or type(rows) not in (list, type(None)):
        return None
    if not {*map(type, clusters)} <= {list} or not all(clusters):
        return None
    members, lengths = list(chain.from_iterable(clusters)), list(map(len, clusters))
    if not {*map(type, members)} <= {str}:
        return None
    if rows is None:
        return members, lengths, None
    try:
        ids, docs, kinds, starts, ends = (list(map(field, rows)) for field in _ROW_FIELDS)
    except (KeyError, TypeError):  # a missing field, or a row that is no object
        return None
    index = dict(zip(ids, range(len(ids)))) if {*map(type, ids)} <= {str} else {}
    if (len(index) == len(ids) and all(map(index.__contains__, members))
            and {*map(type, chain(docs, kinds))} <= {str}
            and {*map(type, chain(starts, ends))} <= {int}
            # a row of the five fields above has no optional field to check
            and ({*map(len, rows)} <= {5} or {*map(type, map(_LEMMA, rows))} <= {str}
                 and {*map(type, map(_SCORE, rows))} <= {float})):
        return members, lengths, (list(map(index.__getitem__, members)), docs, starts, ends)
    return None


def _clusters(data: Mapping, known: Mapping | None) -> list[list[str]]:
    """The `clusters` field: lists of string mention ids, each of them a key
    of `known` unless `known` is None."""
    clusters = _require(data, "clusters", list, "")
    for c, ids in enumerate(clusters):
        if not isinstance(ids, list) or not all(isinstance(m, str) for m in ids):
            raise SchemaError(f"clusters[{c}]: expected a list of mention ids")
        if known is not None:
            unknown = [m for m in ids if m not in known]
            if unknown:
                raise SchemaError(f"clusters[{c}]: unknown mentions {unknown[:5]}")
    return clusters


def _document_from_json(obj: Mapping, where: str) -> Document:
    _expect_object(obj, where)
    doc_id = _require(obj, "doc_id", str, where)
    tokens = _require(obj, "tokens", list, where)
    parsed = []
    for t, tok in enumerate(tokens):
        twhere = f"{where}.tokens[{t}]"
        _expect_object(tok, twhere)
        sentence = _require(tok, "sentence", int, twhere)
        text = _require(tok, "text", str, twhere)
        if sentence < 0:
            raise SchemaError(f"{twhere}.sentence: negative sentence index")
        if not text:
            raise SchemaError(f"{twhere}.text: empty token text")
        parsed.append(Token(doc_id, sentence, t, text))
    return Document(
        doc_id=doc_id,
        topic_id=_require(obj, "topic_id", str, where),
        subtopic_id=_require(obj, "subtopic_id", str, where),
        tokens=tuple(parsed),
    )


def _corpus_from_json(data: Mapping) -> Corpus:
    documents: dict[str, Document] = {}
    for d, obj in enumerate(_require(data, "documents", list, "")):
        doc = _document_from_json(obj, f"documents[{d}]")
        if doc.doc_id in documents:
            raise InvariantError(f"duplicate doc_id {doc.doc_id!r}")
        documents[doc.doc_id] = doc
    mentions = _mention_table(_require(data, "mentions", list, ""), scored=True)
    clusters = _clusters(data, mentions)
    clustered = {m for ids in clusters for m in ids}
    # unlisted mentions become singletons
    clusters.extend([m] for m in mentions if m not in clustered)
    return Corpus(
        documents=documents,
        gold_mentions=tuple(mentions.values()),
        gold_partition=Partition(clusters),
        split=_require(data, "split", str, "", "test"),
    )


def load_corpus(path) -> Corpus:
    """Read a corpus JSON file, validating schema and data invariants."""
    return read_json(path, _corpus_from_json)


def save_corpus(corpus: Corpus, path) -> None:
    """Write a corpus JSON file; `load_corpus` of the result is identical."""
    write_json(path, {
        "documents": [
            {
                "doc_id": doc.doc_id,
                "topic_id": doc.topic_id,
                "subtopic_id": doc.subtopic_id,
                "tokens": [
                    {"sentence": t.sentence_index, "text": t.text}
                    for t in doc.tokens
                ],
            }
            for doc in corpus.documents.values()
        ],
        "mentions": [mention_to_json(m) for m in corpus.gold_mentions],
        "clusters": [sorted(c) for c in corpus.gold_partition.clusters],
        "split": corpus.split,
    })


def load_partition_file(path) -> tuple[Partition, list[Mention] | None]:
    """Read {"mentions"?: [...], "clusters": [[mention_id, ...], ...]}."""

    def parse(data: Mapping) -> tuple[Partition, list[Mention] | None]:
        rows = _require(data, "mentions", list, "", None)
        mentions = None if rows is None else _mention_table(rows)
        return Partition(_clusters(data, mentions)), None if rows is None else [*mentions.values()]

    return read_json(path, parse)


def save_partition_file(
    path, partition: Partition, mentions: Sequence[Mention] | None = None
) -> None:
    """Write a partition file, with a mention table when `mentions` is
    given; `path` None writes to stdout."""
    data: dict = {}
    if mentions is not None:
        data["mentions"] = [mention_to_json(m) for m in mentions]
    data["clusters"] = [sorted(c) for c in partition.clusters]
    write_json(path, data)


def load_candidates(path) -> list[Mention]:
    """Read candidate mentions: {"mentions": [...]} with the corpus schema;
    a score that is not finite is left to `prune_spans`, which names it."""
    return list(read_json(path, lambda data: _mention_table(
        _require(data, "mentions", list, ""), scored=True, finite=False)).values())
