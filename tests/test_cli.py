"""Command-line interface: subcommands, output shapes, exit codes."""

import json
import subprocess
import sys

import pytest

from cdcoref import load_partition_file, write_score_file
from cdcoref.cli import main
from conftest import write_json
from helpers import lemma_score_table


@pytest.fixture
def partition_files(tmp_path):
    def mention(mid, pos):
        return {
            "mention_id": mid,
            "doc_id": "d",
            "start_token": pos,
            "end_token": pos,
            "type": "event",
        }

    key = {
        "mentions": [mention("k1", 0), mention("k2", 1), mention("k3", 2)],
        "clusters": [["k1", "k2"], ["k3"]],
    }
    resp = {
        "mentions": [mention("r1", 0), mention("r2", 1), mention("r3", 2)],
        "clusters": [["r1", "r2"], ["r3"]],
    }
    return (
        write_json(tmp_path / "key.json", key),
        write_json(tmp_path / "resp.json", resp),
    )


class TestEvaluateCommand:
    def test_text_report(self, partition_files, capsys):
        key, resp = partition_files
        assert main(["evaluate", "--key", key, "--response", resp]) == 0
        out = capsys.readouterr().out
        assert "MUC" in out and "CoNLL" in out
        assert "singletons included" in out
        assert "100.0" in out

    def test_json_report(self, partition_files, capsys):
        key, resp = partition_files
        assert main(["evaluate", "--key", key, "--response", resp, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["conll_f1"] == pytest.approx(100.0)
        assert data["singleton_policy"] == "included"

    def test_singleton_flag(self, partition_files, capsys):
        key, resp = partition_files
        code = main(
            ["evaluate", "--key", key, "--response", resp, "--singletons", "omit", "--json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["singleton_policy"] == "omitted"

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code = main(
            ["evaluate", "--key", str(tmp_path / "nope.json"), "--response", str(tmp_path / "nope.json")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_is_input_error(self, tmp_path, partition_files, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        assert main(["evaluate", "--key", str(bad), "--response", partition_files[1]]) == 1
        assert "error:" in capsys.readouterr().err

    def test_ambiguous_spans_are_invariant_error(self, tmp_path, partition_files, capsys):
        # two clusters claim the same span: well-formed file, broken data
        clash = {
            "mentions": [
                {"mention_id": "a", "doc_id": "d", "start_token": 0, "end_token": 0, "type": "event"},
                {"mention_id": "b", "doc_id": "d", "start_token": 0, "end_token": 0, "type": "entity"},
            ],
            "clusters": [["a"], ["b"]],
        }
        path = write_json(tmp_path / "clash.json", clash)
        assert main(["evaluate", "--key", partition_files[0], "--response", path]) == 2
        assert "ambiguous" in capsys.readouterr().err

    def test_duplicate_mention_ids_are_invariant_error(self, tmp_path, capsys):
        # were the second "a" to replace the first, the key would read
        # {a@5, b} and the response's correct a@0/b link would score MUC 0
        def mention(mid, pos):
            return {"mention_id": mid, "doc_id": "d", "start_token": pos,
                    "end_token": pos, "type": "event"}

        key = write_json(tmp_path / "key.json", {
            "mentions": [mention("a", 0), mention("a", 5), mention("b", 1)],
            "clusters": [["a", "b"]],
        })
        resp = write_json(tmp_path / "resp.json", {
            "mentions": [mention("x", 0), mention("y", 1)],
            "clusters": [["x", "y"]],
        })
        assert main(["evaluate", "--key", key, "--response", resp]) == 2
        err = capsys.readouterr().err
        assert f"{key}: duplicate mention_id 'a'" in err
        assert "Traceback" not in err


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert main(["evaluate", "--nope"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "evaluate" in capsys.readouterr().out


class TestClusterCommand:
    @pytest.fixture
    def score_file(self, tmp_path, toy_corpus):
        path = tmp_path / "scores.jsonl"
        write_score_file(path, lemma_score_table(toy_corpus.gold_mentions))
        return str(path)

    def test_stdout_clusters(self, toy_corpus_file, score_file, capsys):
        code = main(
            [
                "cluster",
                "--corpus", toy_corpus_file,
                "--scores", score_file,
                "--tau", "0.5",
                "--gold-mentions",
                "--type", "event",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert ["e1", "e2", "e4", "e5", "e6", "e7"] in data["clusters"]
        assert ["e3"] in data["clusters"]

    def test_output_file(self, tmp_path, toy_corpus_file, score_file):
        out = tmp_path / "response.json"
        code = main(
            [
                "cluster",
                "--corpus", toy_corpus_file,
                "--scores", score_file,
                "--tau", "0.5",
                "--gold-mentions",
                "--type", "entity",
                "--output", str(out),
            ]
        )
        assert code == 0
        partition, mentions = load_partition_file(out)
        assert [sorted(c) for c in partition.clusters] == [["n1", "n2", "n3"]]
        assert {m.mention_id for m in mentions} == {"n1", "n2", "n3"}

    def test_predicted_mode_without_candidates_fails(self, toy_corpus_file, score_file, capsys):
        code = main(
            ["cluster", "--corpus", toy_corpus_file, "--scores", score_file, "--tau", "0.5"]
        )
        assert code == 1
        assert "candidate" in capsys.readouterr().err

    def test_duplicate_candidate_ids_are_invariant_error(
        self, tmp_path, toy_corpus_file, score_file, capsys
    ):
        cand = {
            "mentions": [
                {"mention_id": "c", "doc_id": "a1", "start_token": 0, "end_token": 0,
                 "type": "event", "score": 1.0},
                {"mention_id": "c", "doc_id": "a1", "start_token": 1, "end_token": 1,
                 "type": "event", "score": 2.0},
            ]
        }
        path = write_json(tmp_path / "cands.json", cand)
        code = main(
            [
                "cluster",
                "--corpus", toy_corpus_file,
                "--scores", score_file,
                "--tau", "0.5",
                "--candidates", str(path),
            ]
        )
        assert code == 2
        assert "duplicate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, message",
        [
            ('{"m1": 1, "m2": "e2", "score": 0.5}', "m1 and m2"),
            ('{"m1": "e1", "m2": "e2", "score": "0.5"}', "score must be a number"),
            ('{"m1": "e1", "m2": "e2", "score": true}', "score must be a number"),
        ],
    )
    def test_bad_score_rows_are_input_errors(
        self, tmp_path, toy_corpus_file, capsys, row, message
    ):
        path = tmp_path / "scores.jsonl"
        path.write_text(row + "\n")
        code = main(
            [
                "cluster",
                "--corpus", toy_corpus_file,
                "--scores", str(path),
                "--tau", "0.5",
                "--gold-mentions",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"scores.jsonl:1: {message}" in err
        assert "Traceback" not in err


class TestTopicsCommand:
    def test_stdout(self, toy_corpus_file, capsys):
        assert main(["topics", "--corpus", toy_corpus_file, "--threshold", "0.1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["clusters"] == [["a1", "a2"], ["b1"]]
        assert data["threshold"] == 0.1

    def test_output_file(self, tmp_path, topic_corpus_file):
        out = tmp_path / "topics.json"
        code = main(
            ["topics", "--corpus", topic_corpus_file, "--threshold", "0.1", "--output", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["clusters"]) == 2


class TestBaselineCommand:
    def test_head_lemma(self, example_corpus_file, example_corpus, capsys):
        code = main(
            ["baseline", "--corpus", example_corpus_file, "--kind", "head-lemma"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        got = {frozenset(c) for c in data["clusters"]}
        want = {frozenset(c) for c in example_corpus.gold_partition.clusters}
        assert got == want

    def test_singleton(self, example_corpus_file, capsys):
        code = main(
            ["baseline", "--corpus", example_corpus_file, "--kind", "singleton", "--type", "event"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert all(len(c) == 1 for c in data["clusters"])
        assert len(data["clusters"]) == 10

    def test_output_file(self, tmp_path, example_corpus_file):
        out = tmp_path / "baseline.json"
        code = main(
            [
                "baseline",
                "--corpus", example_corpus_file,
                "--kind", "head-lemma",
                "--output", str(out),
            ]
        )
        assert code == 0
        partition, mentions = load_partition_file(out)
        assert len(partition) == 7
        assert len(mentions) == 10


class TestExportPairsCommand:
    def test_stdout_rows(self, toy_corpus_file, capsys):
        code = main(
            ["export-pairs", "--corpus", toy_corpus_file, "--type", "event", "--ratio", "1"]
        )
        assert code == 0
        rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        positives = [(r["m1"], r["m2"]) for r in rows if r["label"] == 1]
        assert positives == [("e1", "e2"), ("e4", "e5"), ("e6", "e7")]
        assert sum(1 for r in rows if r["label"] == 0) == 3

    def test_deterministic_output_file(self, tmp_path, toy_corpus_file):
        out1, out2 = tmp_path / "p1.jsonl", tmp_path / "p2.jsonl"
        for out in (out1, out2):
            code = main(
                [
                    "export-pairs",
                    "--corpus", toy_corpus_file,
                    "--seed", "7",
                    "--output", str(out),
                ]
            )
            assert code == 0
        assert out1.read_text() == out2.read_text()


class TestPipelineCommand:
    def test_config_run(self, tmp_path, toy_corpus, toy_corpus_file, capsys):
        write_score_file(
            tmp_path / "scores.jsonl", lemma_score_table(toy_corpus.gold_mentions)
        )
        (tmp_path / "corpus.json").write_text(
            open(toy_corpus_file, encoding="utf-8").read()
        )
        config = write_json(
            tmp_path / "run.json",
            {
                "corpus": "corpus.json",
                "scores": "scores.jsonl",
                "unit_level": "gold_subtopic",
                "mention_type": "event",
                "singleton_policy": "omitted",
            },
        )
        assert main(["pipeline", "--config", config, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["conll_f1"] == pytest.approx(100.0)

    def test_missing_config(self, tmp_path, capsys):
        assert main(["pipeline", "--config", str(tmp_path / "no.json")]) == 1


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cdcoref.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "evaluate" in proc.stdout
