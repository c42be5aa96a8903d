"""The JSONL inputs of `cdcoref cluster`: non-finite mention scores and
fuzzed score and mention-score rows.

A NaN mention score compares false both ways, so a ranking that let one
through would depend on the order of the candidates; it is rejected, with
the same error in every order. Fuzzed rows must end as exit code 0, 1 or 2,
never as a traceback.
"""

import contextlib
import io
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcoref import Mention, SchemaError, prune_spans, read_mention_scores, read_score_file
from cdcoref.cli import main
from conftest import toy_corpus_data, write_json

MENTIONS = toy_corpus_data()["mentions"]
IDS = [m["mention_id"] for m in MENTIONS]


def run(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def write_lines(path, rows) -> str:
    """One line per row: an object as JSON (NaN and Infinity as their
    literals), a string as it is."""
    path.write_text("".join((r if isinstance(r, str) else json.dumps(r)) + "\n" for r in rows),
                    encoding="utf-8")
    return str(path)


def score_rows():
    """Within-document pairs of the toy corpus on a coarse grid."""
    return [{"m1": a["mention_id"], "m2": b["mention_id"], "score": (i % 5) / 4}
            for i, (a, b) in enumerate((a, b) for a in MENTIONS for b in MENTIONS
                                       if a["doc_id"] == b["doc_id"]
                                       and a["mention_id"] < b["mention_id"])]


def mention_score_rows():
    return [{"mention_id": m, "score": (i % 7 - 3) / 2} for i, m in enumerate(IDS)]


def candidates():
    return [{**m, "score": (i % 3) / 2} for i, m in enumerate(MENTIONS)]


def cluster_argv(tmp_path, scores, mention_scores, cands, gold=False) -> list:
    argv = ["cluster", "--corpus", write_json(tmp_path / "corpus.json", toy_corpus_data()),
            "--scores", write_lines(tmp_path / "scores.jsonl", scores), "--tau", "1.0",
            "--mention-scores", write_lines(tmp_path / "ms.jsonl", mention_scores)]
    if gold:
        return argv + ["--gold-mentions"]
    return argv + ["--lambda", "0.5", "--type", "event",
                   "--candidates", write_json(tmp_path / "cands.json", {"mentions": cands})]


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_mention_score_is_a_located_error(tmp_path, literal):
    path = tmp_path / "ms.jsonl"
    path.write_text('{"mention_id": "a", "score": 1.0}\n'
                    f'{{"mention_id": "b", "score": {literal}}}\n', encoding="utf-8")
    with pytest.raises(SchemaError, match=f"^{path}:2: score must be finite$"):
        read_mention_scores(path)


@pytest.mark.parametrize("literal, problem", [
    ("Infinity", "must be finite"), ("NaN", "must be finite"), ("1e999", "must be finite"),
    ("1" + "0" * 400, "out of range"), ("-" + "9" * 400, "out of range"),
], ids=["Infinity", "NaN", "1e999", "400 digits", "minus 400 digits"])
def test_non_finite_default_is_a_located_error(tmp_path, literal, problem):
    path = tmp_path / "scores.jsonl"
    path.write_text(f'{{"default": {literal}}}\n{{"m1": "a", "m2": "b", "score": 0.5}}\n',
                    encoding="utf-8")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}:1: default {problem}$"):
        read_score_file(path)


@pytest.mark.parametrize("literal", ["-Infinity", "-1e999"])
def test_minus_infinity_default_is_never_merge(tmp_path, literal):
    path = tmp_path / "scores.jsonl"
    path.write_text(f'{{"default": {literal}}}\n{{"m1": "a", "m2": "b", "score": 0.5}}\n',
                    encoding="utf-8")
    table = read_score_file(path)
    assert table.default == float("-inf") and list(table.items()) == [(("a", "b"), 0.5)]


def test_infinite_default_fails_at_its_line_in_a_run(tmp_path):
    scores = write_lines(tmp_path / "scores.jsonl", ['{"default": Infinity}', *score_rows()])
    argv = ["cluster", "--corpus", write_json(tmp_path / "corpus.json", toy_corpus_data()),
            "--scores", scores, "--tau", "0.5", "--gold-mentions", "--type", "event"]
    assert run(argv) == (1, f"error: {scores}:1: default must be finite\n")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_prune_spans_rejects_a_non_finite_score_in_every_order(bad):
    scores = [0.5, 2.0, bad, 1.0, -1.0, bad]
    cands = [Mention(f"c{k}", "d", k, k, "event", mention_score=s) for k, s in enumerate(scores)]
    rng = random.Random(3)
    messages = set()
    for _ in range(30):
        with pytest.raises(SchemaError) as info:
            prune_spans(rng.sample(cands, len(cands)), 0.5, 6)
        messages.add(str(info.value))
    assert messages == {f"candidate 'c2': mention score must be finite, got {bad!r}"}


def test_missing_score_names_the_smallest_candidate_in_every_order():
    cands = [Mention(m, "d", k, k, "event") for k, m in enumerate(["q", "b", "x"])]
    for order in (cands, cands[::-1]):
        with pytest.raises(SchemaError, match="^candidate 'b' has no mention score$"):
            prune_spans(order, 0.5, 6)


@pytest.mark.parametrize("where", ["mention score file", "candidates file"])
def test_nan_mention_score_gives_one_error_in_every_candidate_order(tmp_path, where):
    mention_scores, cands = mention_score_rows(), candidates()
    if where == "mention score file":
        mention_scores[2] = {**mention_scores[2], "score": float("nan")}
        expected = f"error: {tmp_path / 'ms.jsonl'}:3: score must be finite\n"
    else:
        # a candidate that the mention score file does not override
        mention_scores = mention_scores[:2]
        cands[4] = {**cands[4], "score": float("nan")}
        expected = f"error: candidate {IDS[4]!r}: mention score must be finite, got nan\n"
    rng = random.Random(5)
    outcomes = {run(cluster_argv(tmp_path, score_rows(), mention_scores,
                                 rng.sample(cands, len(cands)))) for _ in range(8)}
    assert outcomes == {(1, expected)}


# --- fuzzed JSONL rows ----------------------------------------------------------

DELETE = object()
values = (st.just(DELETE) | st.sampled_from(IDS + ["", "x"]) | st.none() | st.booleans()
          | st.integers() | st.floats() | st.text(max_size=4)
          | st.lists(st.integers(), max_size=2))
RAW_LINES = ["", "   ", "\t", "[1]", "null", "{", '{"default": NaN}', '{"default": Infinity}',
             '{"m1": "e1", "m2": "e1", "score": 1.0}', '{"score": NaN, "m1": "e1", "m2": "e2"}',
             '{"mention_id": "e1", "score": -Infinity}']
SCORE_FIELDS = ["m1", "m2", "score", "default", "comment"]
MENTION_SCORE_FIELDS = ["mention_id", "score", "comment"]
mutations = st.tuples(st.sampled_from(["field", "header", "raw", "self pair", "copy"]),
                      st.integers(0, 40), st.integers(0, 4), values, st.sampled_from(RAW_LINES))


def mutated(rows, fields, mutation):
    """`rows` with one change: a field set or deleted, a header row, a raw
    line, a row that pairs an id with itself, or a copied row inserted."""
    kind, i, j, value, raw = mutation
    rows = [dict(r) if isinstance(r, dict) else r for r in rows]
    at = i % (len(rows) + 1)
    target = rows[at % len(rows)] if rows else None
    if kind == "field" and isinstance(target, dict):
        if value is DELETE:
            target.pop(fields[j % len(fields)], None)
        else:
            target[fields[j % len(fields)]] = value
    elif kind == "header":
        rows.insert(at, {"default": None if value is DELETE else value})
    elif kind == "raw":
        rows.insert(at, raw)
    elif kind == "self pair" and isinstance(target, dict):
        target["m2" if "m2" in target else "mention_id"] = target.get("m1", "e1")
    elif kind == "copy" and target is not None:
        rows.insert(at, target)
    return rows


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cluster_fuzz")


@settings(max_examples=300, deadline=None)
@given(st.lists(mutations, max_size=3), st.lists(mutations, max_size=3), st.booleans())
def test_fuzzed_jsonl_inputs_never_raise(fuzz_dir, score_changes, mention_changes, gold):
    scores, mention_scores = score_rows(), mention_score_rows()
    for change in score_changes:
        scores = mutated(scores, SCORE_FIELDS, change)
    for change in mention_changes:
        mention_scores = mutated(mention_scores, MENTION_SCORE_FIELDS, change)
    code, err = run(cluster_argv(fuzz_dir, scores, mention_scores, candidates(), gold))
    assert code in (0, 1, 2)
    assert "Traceback" not in err
