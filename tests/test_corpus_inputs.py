"""The corpus, candidates and CoNLL inputs, fuzzed.

A fuzzed corpus file goes through every subcommand that reads `--corpus`,
and a fuzzed candidates file through `cluster` and `pipeline`; each run
ends as exit code 0, 1 or 2, never as a traceback. The library readers,
`load_corpus`, `load_candidates` and `import_partition_conll`, raise only
`SchemaError` or `InvariantError`.
"""

import contextlib
import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcoref import (
    InvariantError,
    SchemaError,
    import_partition_conll,
    load_corpus,
    write_partition_conll,
)
from cdcoref.corpus import load_candidates
from conftest import toy_corpus_data, write_json
from test_cluster_inputs import run, write_lines
from test_partition_files import DELETE, json_values, put

DATA = toy_corpus_data()
IDS = [m["mention_id"] for m in DATA["mentions"]]
# every gold mention carries a score, which the mention score file
# overrides for every other one
CORPUS = {**DATA, "mentions": [{**m, "score": (i % 5 - 2) / 2}
                               for i, m in enumerate(DATA["mentions"])]}
CANDIDATES = {"mentions": [*({**m, "score": (i % 3) / 2} for i, m in enumerate(DATA["mentions"])),
                           {"mention_id": "c1", "doc_id": "a1", "start_token": 2,
                            "end_token": 3, "type": "event", "score": 0.25}]}


def library_call(call, *args):
    """`call(*args)`, with the two errors that a bad input may raise."""
    with contextlib.suppress(SchemaError, InvariantError):
        call(*args)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """The score and mention score files every run reads."""
    directory = tmp_path_factory.mktemp("corpus_fuzz")
    write_lines(directory / "scores.jsonl",
                [{"m1": a, "m2": b, "score": (len(a + b) * k % 5) / 4}
                 for k, a in enumerate(IDS) for b in IDS if a < b])
    write_lines(directory / "ms.jsonl", [{"mention_id": m, "score": 0.5} for m in IDS[::2]])
    return directory


# --- mutations of JSON files --------------------------------------------------------

# values that a field could hold, so that examples also get past the checks
# and reach clustering and scoring: known ids, documents, offsets, types
plausible = st.sampled_from(IDS[:3] + ["a1", "b1", "T1", "s1", "x", "", "event", "entity",
                                       "test", "train"])
fuzz_values = (st.just(DELETE) | plausible | st.integers(-2, 12) | st.sampled_from([0.5, -1.0])
               | json_values)
TOP_FIELDS = ["documents", "mentions", "clusters", "split", "comment"]
DOC_FIELDS = ["doc_id", "topic_id", "subtopic_id", "tokens", "comment"]
TOKEN_FIELDS = ["sentence", "text", "comment"]
ROW_FIELDS = ["mention_id", "doc_id", "start_token", "end_token", "type", "head_lemma",
              "score", "comment"]
KINDS = ["document", "top", "doc", "doc field", "token", "token field", "row", "row field",
         "copy row", "cluster", "member", "add member"]
mutations = st.tuples(st.sampled_from(KINDS), st.integers(0, 9), st.integers(0, 9),
                      st.integers(0, 9), fuzz_values)


def item(container, i):
    """Item `i`, wrapping, of a non-empty list; else None."""
    return container[i % len(container)] if isinstance(container, list) and container else None


def mutated(data, mutation):
    """`data` with one change to a top-level field, a document, a token, a
    mention row, a cluster or a member, or the whole file replaced."""
    kind, i, j, k, value = mutation
    if kind == "document":
        return {} if value is DELETE else value
    data = copy.deepcopy(data)
    if not isinstance(data, dict):
        return data
    docs, rows, clusters = data.get("documents"), data.get("mentions"), data.get("clusters")
    doc = item(docs, i)
    tokens = doc.get("tokens") if isinstance(doc, dict) else None
    if kind == "top":
        put(data, TOP_FIELDS[i % len(TOP_FIELDS)], value)
    elif kind == "doc":
        put(docs, i, value)
    elif kind == "doc field":
        put(doc, DOC_FIELDS[j % len(DOC_FIELDS)], value)
    elif kind == "token":
        put(tokens, j, value)
    elif kind == "token field":
        put(item(tokens, j), TOKEN_FIELDS[k % len(TOKEN_FIELDS)], value)
    elif kind == "row":
        put(rows, i, value)
    elif kind in ("row field", "copy row") and isinstance(rows, list) and rows:
        target = item(rows, i)
        if kind == "copy row":
            rows.append(target := copy.deepcopy(target))
        put(target, ROW_FIELDS[j % len(ROW_FIELDS)], value)
    elif kind == "cluster":
        put(clusters, i, value)
    elif kind == "member":
        put(item(clusters, i), j, value)
    elif kind == "add member" and isinstance(item(clusters, i), list) and value is not DELETE:
        item(clusters, i).append(value)
    return data


def corpus_runs(directory, corpus) -> list:
    """A command line per subcommand that reads `--corpus`."""
    scores = str(directory / "scores.jsonl")
    config = write_json(directory / "run.json", {
        "corpus": corpus, "scores": scores, "mention_scores": str(directory / "ms.jsonl"),
        "unit_level": "predicted_topic", "doc_threshold": 0.2, "mention_type": "all",
        "clustering": {"tau": 0.5, "lambda": 1.0, "gold_mention_mode": False},
    })
    return [
        ["cluster", "--corpus", corpus, "--scores", scores, "--tau", "0.5", "--gold-mentions"],
        ["topics", "--corpus", corpus, "--threshold", "0.2"],
        ["baseline", "--corpus", corpus, "--kind", "head-lemma",
         "--output", str(directory / "baseline.json")],
        ["export-pairs", "--corpus", corpus, "--ratio", "2", "--type", "event"],
        ["pipeline", "--config", config, "--json"],
    ]


def test_unfuzzed_files_run(fuzz_dir):
    corpus = write_json(fuzz_dir / "corpus.json", CORPUS)
    for argv in corpus_runs(fuzz_dir, corpus):
        assert run(argv) == (0, "")
    for argv in candidate_runs(fuzz_dir, write_json(fuzz_dir / "cands.json", CANDIDATES)):
        assert run(argv) == (0, "")


# export-pairs warns when every gold cluster is a singleton
@pytest.mark.filterwarnings("ignore:no positive pairs")
@settings(max_examples=150, deadline=None)
@given(st.lists(mutations, min_size=1, max_size=3))
def test_fuzzed_corpus_file_never_raises(fuzz_dir, changes):
    data = CORPUS
    for change in changes:
        data = mutated(data, change)
    corpus = write_json(fuzz_dir / "corpus.json", data)
    library_call(load_corpus, corpus)
    for argv in corpus_runs(fuzz_dir, corpus):
        code, err = run(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err


def candidate_runs(directory, cands) -> list:
    """`cluster` and `pipeline` on predicted mentions from `cands`."""
    corpus = write_json(directory / "toy.json", CORPUS)
    scores, mention_scores = str(directory / "scores.jsonl"), str(directory / "ms.jsonl")
    config = write_json(directory / "predicted.json", {
        "corpus": corpus, "scores": scores, "mention_scores": mention_scores,
        "candidates": cands, "unit_level": "gold_topic", "mention_source": "predicted",
        "clustering": {"tau": 0.5, "lambda": 0.5},
    })
    return [
        ["cluster", "--corpus", corpus, "--scores", scores, "--mention-scores", mention_scores,
         "--candidates", cands, "--tau", "0.5", "--lambda", "0.5", "--type", "event"],
        ["pipeline", "--config", config, "--json"],
    ]


@settings(max_examples=150, deadline=None)
@given(st.lists(mutations, min_size=1, max_size=3))
def test_fuzzed_candidates_file_never_raises(fuzz_dir, changes):
    data = CANDIDATES
    for change in changes:
        data = mutated(data, change)
    cands = write_json(fuzz_dir / "cands.json", data)
    library_call(load_candidates, cands)
    for argv in candidate_runs(fuzz_dir, cands):
        code, err = run(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err


# --- CoNLL files ---------------------------------------------------------------------

COREF = st.sampled_from(["-", "(0)", "(1", "1)", "(0)(1", "2)(3)", "((1)", "(1)x", ")", "(",
                         "(-1)", "(٣)", "(" + "9" * 5000 + ")", "9" * 5000 + ")"])
RAW_LINES = st.sampled_from(["", "#begin document (x); part 000", "#end document",
                             "a1 0 1", "a1 0 x strike (0)", "a1 0 99 strike (0)",
                             "b1 0 " + "1" * 5000 + " strike -", "\x00 \x00 \x00 \x00 \x00"])
line_mutations = st.tuples(
    st.sampled_from(["delete", "copy", "raw", "column", "coref"]), st.integers(0, 60),
    st.integers(0, 6), COREF | st.text(max_size=6), RAW_LINES,
)


@pytest.fixture(scope="module")
def conll_lines(tmp_path_factory):
    """The toy gold partition as CoNLL lines, one document per topic."""
    directory = tmp_path_factory.mktemp("conll")
    corpus = load_corpus(write_json(directory / "toy.json", DATA))
    path = directory / "gold.conll"
    units = {"T1": ["a1", "a2"], "T2": ["b1"]}
    write_partition_conll(path, corpus.gold_mentions, corpus.gold_partition,
                          corpus.documents, units)
    return path.read_text(encoding="utf-8").splitlines(), corpus.gold_mentions


@settings(max_examples=300, deadline=None)
@given(st.lists(line_mutations, min_size=1, max_size=4))
def test_fuzzed_conll_file_raises_only_input_errors(fuzz_dir, conll_lines, changes):
    lines, mentions = conll_lines
    lines = list(lines)
    for kind, i, j, value, raw in changes:
        at = i % (len(lines) + 1)
        if kind == "raw":
            lines.insert(at, raw)
        elif not lines:
            continue
        elif kind == "delete":
            del lines[at % len(lines)]
        elif kind == "copy":
            lines.insert(at, lines[at % len(lines)])
        else:
            parts = lines[at % len(lines)].split(" ")
            parts[-1 if kind == "coref" else j % len(parts)] = value
            lines[at % len(lines)] = " ".join(parts)
    path = fuzz_dir / "fuzzed.conll"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    library_call(import_partition_conll, path)
    library_call(import_partition_conll, path, mentions)
