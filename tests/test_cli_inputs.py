"""File inputs and outputs of the command line.

Every malformed input file or config field ends as exit code 1 or 2 with a
message that names the file (and line, for JSONL), never as a traceback.
Each writer prints to stdout exactly what it writes to an --output file,
less the mention table that cluster and baseline files carry.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcoref import load_corpus, write_score_file
from cdcoref.cli import main
from conftest import toy_corpus_data, write_json
from helpers import lemma_score_table


def write_inputs(directory) -> dict:
    """The toy corpus plus every file a pipeline or cluster run can read;
    candidates are the gold mentions at score 1.0, and the mention score
    file overrides e1 to 7.0."""
    data = toy_corpus_data()
    corpus = write_json(directory / "toy.json", data)
    scores = directory / "scores.jsonl"
    write_score_file(scores, lemma_score_table(load_corpus(corpus).gold_mentions))
    cands = write_json(
        directory / "cands.json", {"mentions": [{**m, "score": 1.0} for m in data["mentions"]]}
    )
    mention_scores = directory / "ms.jsonl"
    mention_scores.write_text('{"mention_id": "e1", "score": 7.0}\n', encoding="utf-8")
    key = write_json(directory / "key.json", {"mentions": data["mentions"], "clusters": data["clusters"]})
    return {
        "corpus": corpus,
        "scores": str(scores),
        "candidates": cands,
        "mention_scores": str(mention_scores),
        "key": key,
        "response": write_json(directory / "resp.json", {"clusters": [["e1", "e2"]]}),
    }


@pytest.fixture
def inputs(tmp_path):
    return write_inputs(tmp_path)


def predicted_cluster_argv(paths: dict) -> list:
    return [
        "cluster",
        "--corpus", paths["corpus"],
        "--scores", paths["scores"],
        "--mention-scores", paths["mention_scores"],
        "--candidates", paths["candidates"],
        "--tau", "0.5",
        "--lambda", "1.0",
        "--type", "event",
    ]


PREDICTED_CONFIG = {
    "corpus": "toy.json",
    "scores": "scores.jsonl",
    "mention_scores": "ms.jsonl",
    "candidates": "cands.json",
    "unit_level": "corpus",
    "mention_source": "predicted",
    "mention_type": "event",
    "clustering": {"tau": 0.5, "lambda": 1.0},
}


def without(argv: list, option: str) -> list:
    k = argv.index(option)
    return argv[:k] + argv[k + 2:]


# (cluster command line made from the predicted one, the matching fields
# over PREDICTED_CONFIG); the first is the predicted run itself
VARIANTS = [
    (lambda argv: argv, {}),
    (
        lambda argv: without(without(argv, "--candidates"), "--mention-scores")
        + ["--gold-mentions"],
        {"mention_source": "gold", "candidates": None, "mention_scores": None},
    ),
    # at tau 0.95 the sigmoid keeps e3 apart; unsquashed scores merge all
    (
        lambda argv: argv + ["--sigmoid", "--tau", "0.95"],
        {"sigmoid": True, "clustering": {"tau": 0.95, "lambda": 1.0}},
    ),
    (lambda argv: without(argv, "--mention-scores"), {"mention_scores": None}),
    (lambda argv: argv + ["--type", "all"], {"mention_type": "all"}),
]


def test_pipeline_and_cluster_write_identical_response_files(tmp_path, inputs):
    for k, (argv, fields) in enumerate(VARIANTS):
        cluster, pipeline = tmp_path / f"cluster{k}.json", f"pipeline{k}.json"
        assert main(argv(predicted_cluster_argv(inputs)) + ["--output", str(cluster)]) == 0
        config = {**PREDICTED_CONFIG, **fields, "output": pipeline}
        assert main(["pipeline", "--config", write_json(tmp_path / "run.json", config)]) == 0
        assert (tmp_path / pipeline).read_bytes() == cluster.read_bytes()
    # the pipeline once wrote the candidate file's stale score (1.0) for e1
    assert b'"score": 7.0' in (tmp_path / "cluster0.json").read_bytes()


def test_gold_run_response_file_records_the_mention_score_file(tmp_path, inputs):
    argv = ["cluster", "--corpus", inputs["corpus"], "--scores", inputs["scores"],
            "--tau", "0.5", "--lambda", "1.0", "--type", "event", "--gold-mentions"]
    plain, cluster = tmp_path / "plain.json", tmp_path / "cluster.json"
    assert main(argv + ["--output", str(plain)]) == 0
    assert main(argv + ["--mention-scores", inputs["mention_scores"],
                        "--output", str(cluster)]) == 0
    config = {**PREDICTED_CONFIG, "mention_source": "gold", "candidates": None,
              "output": "pipeline.json"}
    assert main(["pipeline", "--config", write_json(tmp_path / "run.json", config)]) == 0
    assert (tmp_path / "pipeline.json").read_bytes() == cluster.read_bytes()
    with_scores, without_scores = (json.loads(p.read_text()) for p in (cluster, plain))
    # gold-mention mode adds no span score, so the clusters do not move
    assert with_scores["clusters"] == without_scores["clusters"]
    scores = {m["mention_id"]: m.get("score") for m in with_scores["mentions"]}
    assert scores.pop("e1") == 7.0 and set(scores.values()) == {None}
    assert all("score" not in m for m in without_scores["mentions"])


@pytest.mark.parametrize(
    "option, message",
    [
        (["--lambda", "0"], "prune_ratio must lie in (0, 1]"),
        (["--max-span-width", "0"], "max_span_width must be at least 1"),
        (["--tau", "nan"], "merge_threshold must be finite"),
        # as for `pipeline`, the options make a config, which is checked
        # before any input file is read
        (["--lambda", "0", "--corpus", "missing.json"], "prune_ratio must lie in (0, 1]"),
    ],
    ids=["lambda", "max-span-width", "tau", "option-before-file"],
)
def test_cluster_option_out_of_range_is_input_error(tmp_path, inputs, option, message):
    option = [str(tmp_path / a) if a == "missing.json" else a for a in option]
    assert run_captured(predicted_cluster_argv(inputs) + option) == (1, f"error: {message}\n")


def test_cluster_empty_scores_path_is_input_error(inputs):
    argv = predicted_cluster_argv(inputs)
    argv[argv.index("--scores") + 1] = ""
    code, err = run_captured(argv)
    assert code == 1
    assert err.endswith("cdcoref cluster: error: argument --scores: must name a file\n")
    assert "Traceback" not in err


def test_pipeline_config_empty_scores_path_means_no_file(tmp_path, inputs):
    # an empty optional path in a config means no file: with no score
    # rows every mention stays a singleton
    config = {**PREDICTED_CONFIG, "scores": "", "output": "out.json"}
    assert main(["pipeline", "--config", write_json(tmp_path / "run.json", config)]) == 0
    clusters = json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))["clusters"]
    assert clusters and all(len(c) == 1 for c in clusters)


# --- stdout bytes -------------------------------------------------------------

EVENT_CLUSTERS = """\
{
  "clusters": [
    [
      "e1",
      "e2",
      "e4",
      "e5",
      "e6",
      "e7"
    ],
    [
      "e3"
    ]
  ]
}
"""

TOPICS = """\
{
  "clusters": [
    [
      "a1",
      "a2"
    ],
    [
      "b1"
    ]
  ],
  "threshold": 0.1
}
"""

PAIRS = """\
{"m1": "e1", "m2": "e2", "label": 1}
{"m1": "e4", "m2": "e5", "label": 1}
{"m1": "e6", "m2": "e7", "label": 1}
{"m1": "e3", "m2": "e6", "label": 0}
{"m1": "e3", "m2": "e7", "label": 0}
{"m1": "e2", "m2": "e3", "label": 0}
"""


@pytest.mark.parametrize(
    "command, args, stdout",
    [
        ("cluster", ["--tau", "0.5", "--gold-mentions", "--type", "event"], EVENT_CLUSTERS),
        ("topics", ["--threshold", "0.1"], TOPICS),
        ("baseline", ["--kind", "head-lemma", "--type", "event"], EVENT_CLUSTERS),
        ("export-pairs", ["--type", "event", "--ratio", "1"], PAIRS),
    ],
)
def test_stdout_bytes_match_the_output_file(tmp_path, inputs, capsys, command, args, stdout):
    argv = [command, "--corpus", inputs["corpus"], *args]
    if command == "cluster":
        argv += ["--scores", inputs["scores"]]
    assert main(argv) == 0
    assert capsys.readouterr().out == stdout
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == 0
    written = out.read_text(encoding="utf-8")
    if command in ("cluster", "baseline"):
        # cluster lists the mentions cluster by cluster, baseline in corpus order
        order = "e1 e2 e4 e5 e6 e7 e3" if command == "cluster" else "e1 e2 e3 e4 e5 e6 e7"
        data = json.loads(written)
        assert [m["mention_id"] for m in data.pop("mentions")] == order.split()
        written = json.dumps(data, indent=2) + "\n"
    assert written == stdout


# --- malformed input files ----------------------------------------------------

# file slot -> (command line with BAD in the slot, whether the file is JSONL)
SLOTS = {
    "corpus": (["cluster", "--corpus", "BAD", "--scores", "scores", "--tau", "0.5",
                "--gold-mentions"], False),
    "key": (["evaluate", "--key", "BAD", "--response", "response"], False),
    "response": (["evaluate", "--key", "key", "--response", "BAD"], False),
    "candidates": (["cluster", "--corpus", "corpus", "--scores", "scores",
                    "--candidates", "BAD", "--tau", "0.5"], False),
    "config": (["pipeline", "--config", "BAD"], False),
    "scores": (["cluster", "--corpus", "corpus", "--scores", "BAD", "--tau", "0.5",
                "--gold-mentions"], True),
    "mention_scores": (["cluster", "--corpus", "corpus", "--scores", "scores",
                        "--mention-scores", "BAD", "--candidates", "candidates",
                        "--tau", "0.5"], True),
}

# content -> (bytes, message for a JSON file, message for a JSONL file)
BAD_CONTENT = {
    "deep nesting": (b"[" * 100000, "{p}: invalid JSON: nested too deeply",
                     "{p}:1: invalid JSON: nested too deeply"),
    "not UTF-8": (b'{"x": "\xff"}\n', "{p}: not UTF-8 text", "{p}: not UTF-8 text"),
    "bad syntax": (b'{"x": ]}\n', "{p}: invalid JSON at line 1, column 7",
                   "{p}:1: invalid JSON"),
    "not an object": (b"[1]\n", "{p}: top level must be an object",
                      "{p}:1: expected an object"),
}


def run_captured(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("content", sorted(BAD_CONTENT))
@pytest.mark.parametrize("slot", sorted(SLOTS))
def test_undecodable_file_is_located_input_error(tmp_path, inputs, slot, content):
    argv, jsonl = SLOTS[slot]
    data, json_message, jsonl_message = BAD_CONTENT[content]
    bad = tmp_path / "bad_input"
    bad.write_bytes(data)
    code, err = run_captured([str(bad) if a == "BAD" else inputs.get(a, a) for a in argv])
    assert code == 1
    assert (jsonl_message if jsonl else json_message).format(p=bad) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "row, message",
    [
        ('{"mention_id": 5, "score": 1.0}', "ms.jsonl:1: mention_id must be a string"),
        ('{"mention_id": "e1", "score": %s}' % ("9" * 400), "ms.jsonl:1: score out of range"),
    ],
)
def test_bad_mention_score_rows(tmp_path, inputs, row, message):
    (tmp_path / "ms.jsonl").write_text(row + "\n", encoding="utf-8")
    code, err = run_captured(predicted_cluster_argv(inputs))
    assert code == 1
    assert message in err
    assert "Traceback" not in err


def test_duplicate_candidate_error_names_the_file(tmp_path, inputs):
    mention = {"doc_id": "a1", "start_token": 0, "end_token": 0, "type": "event", "score": 1.0}
    cands = write_json(tmp_path / "cands.json", {
        "mentions": [{**mention, "mention_id": "c"}, {**mention, "mention_id": "c"}]
    })
    code, err = run_captured(predicted_cluster_argv(inputs))
    assert code == 2
    assert f"{cands}: duplicate mention_id 'c'" in err


# --- pipeline config fields ---------------------------------------------------

BASE_CONFIG = {
    "corpus": "toy.json",
    "scores": "scores.jsonl",
    "unit_level": "predicted_topic",
    "doc_threshold": 0.1,
    "mention_type": "event",
    "clustering": {"tau": 0.5, "lambda": 0.5},
}


def with_field(config: dict, field: str, value) -> dict:
    config = json.loads(json.dumps(config))
    if field.startswith("clustering."):
        config["clustering"][field.split(".", 1)[1]] = value
    else:
        config[field] = value
    return config


@pytest.mark.parametrize(
    "field, value, expected",
    [
        ("clustering.tau", "0.5", "a number"),
        ("clustering.lambda", "0.5", "a number"),
        ("doc_threshold", "0.1", "a number"),
        ("clustering.max_span_width", "10", "an integer"),
        ("clustering.max_span_width", 10.0, "an integer"),
        ("corpus", 5, "a string"),
        ("scores", ["scores.jsonl"], "a string"),
        ("sigmoid", "false", "true or false"),
        ("clustering.gold_mention_mode", "false", "true or false"),
        ("clustering", [0.5, 0.5], "an object"),
        ("unit_level", 1, "a string"),
    ],
)
def test_config_field_of_wrong_type_is_input_error(tmp_path, inputs, field, value, expected):
    config = write_json(tmp_path / "run.json", with_field(BASE_CONFIG, field, value))
    code, err = run_captured(["pipeline", "--config", config])
    assert code == 1
    assert f"{config}: {field}: expected {expected}" in err
    assert "Traceback" not in err


def test_base_config_runs(tmp_path, inputs):
    config = write_json(tmp_path / "run.json", BASE_CONFIG)
    assert run_captured(["pipeline", "--config", config]) == (0, "")


def pipeline_stdout(capsys, config: dict, path, *flags) -> str:
    assert main(["pipeline", "--config", write_json(path, config), *flags]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_a_tau_list_prints_each_run(tmp_path, inputs, capsys, flags):
    # tau 0.5 merges the lemma pairs, 1.5 none
    single = {tau: pipeline_stdout(capsys, with_field(BASE_CONFIG, "clustering.tau", tau),
                                   tmp_path / "run.json", *flags) for tau in (0.5, 1.5)}
    assert single[0.5] != single[1.5]
    one = with_field(BASE_CONFIG, "clustering.tau", [0.5])
    assert pipeline_stdout(capsys, one, tmp_path / "run.json", *flags) == single[0.5]
    taus = [1.5, 0.5, 1.5]
    out = pipeline_stdout(capsys, with_field(BASE_CONFIG, "clustering.tau", taus),
                          tmp_path / "run.json", *flags)
    if flags:
        assert json.loads(out) == [{"tau": t, **json.loads(single[t])} for t in taus]
    else:
        assert out == "\n".join(f"tau {t}\n{single[t]}" for t in taus)


@pytest.mark.parametrize(
    "taus, output, message",
    [
        ([], None, "clustering.tau: expected at least one tau"),
        ([0.5, "0.6"], None, "clustering.tau.1: expected a number"),
        ([0.5, 0.6], "out.json", "output: needs a single clustering.tau"),
    ],
)
def test_a_bad_tau_list_is_input_error(tmp_path, inputs, taus, output, message):
    config = {**with_field(BASE_CONFIG, "clustering.tau", taus), "output": output}
    path = write_json(tmp_path / "run.json", config)
    code, err = run_captured(["pipeline", "--config", path])
    assert (code, err) == (1, f"error: {path}: {message}\n")
    assert not (tmp_path / "out.json").exists()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    write_inputs(directory)
    return directory


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
INPUT_NAMES = ["toy.json", "scores.jsonl", "cands.json", "ms.jsonl", "missing.json", ""]
PATH_FIELDS = {"corpus", "scores", "mention_scores", "candidates", "output"}
# valid values per field, so that examples also get past the field checks
FIELD_VALUES = {
    "corpus": st.sampled_from(INPUT_NAMES),
    "scores": st.sampled_from(INPUT_NAMES),
    "mention_scores": st.sampled_from(INPUT_NAMES),
    "candidates": st.sampled_from(INPUT_NAMES),
    "output": st.sampled_from(["out.json", ""]),
    "unit_level": st.sampled_from(["gold_subtopic", "gold_topic", "predicted_topic", "corpus"]),
    "mention_source": st.sampled_from(["gold", "predicted"]),
    "singleton_policy": st.sampled_from(["included", "omitted"]),
    "mention_type": st.sampled_from(["event", "entity", "all"]),
    "doc_threshold": st.floats(0, 1),
    "sigmoid": st.booleans(),
    "clustering": st.fixed_dictionaries({"tau": st.floats(-2, 2), "lambda": st.floats(0.1, 1)}),
    "clustering.tau": st.floats(-2, 9),
    "clustering.lambda": st.floats(0, 1),
    "clustering.gold_mention_mode": st.booleans(),
    "clustering.max_span_width": st.integers(0, 20),
}


def field_values(field: str):
    # a path field takes no arbitrary string, so that no example reads or
    # writes outside the fuzz directory
    if field in PATH_FIELDS:
        return FIELD_VALUES[field] | json_values.filter(lambda v: not isinstance(v, str))
    return FIELD_VALUES[field] | json_values


@settings(max_examples=200, deadline=None)
@given(
    st.sets(st.sampled_from(sorted(FIELD_VALUES)), min_size=1, max_size=4).flatmap(
        lambda fields: st.fixed_dictionaries({f: field_values(f) for f in sorted(fields)})
    )
)
def test_fuzzed_config_fields_never_raise(fuzz_dir, changes):
    config = {**BASE_CONFIG, "candidates": "cands.json", "mention_scores": "ms.jsonl"}
    for field, value in changes.items():
        if field.startswith("clustering.") and not isinstance(config.get("clustering"), dict):
            config["clustering"] = {}
        config = with_field(config, field, value)
    path = fuzz_dir / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, err = run_captured(["pipeline", "--config", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
