"""`cdcoref pipeline` and `cdcoref cluster` output that depends on neither
hash seed nor input order.

Each command runs under PYTHONHASHSEED 0 and 1, on inputs written as
generated and again with documents, mentions, candidates, clusters,
cluster members, score rows and mention score rows shuffled. Reports,
stdout and response files must be the same bytes every time.
"""

import json
import random

from conftest import write_json
from helpers import run_cli

VOCABULARY = [
    "union strike steel talks wage offer vote plant",
    "fire blaze crew smoke tower alarm rescue street",
    "quake tremor city damage aid shelter coast wave",
]
LEMMAS = ["strike", "offer", "quit", "blaze", "talk", "vote"]


def generated_inputs(rng):
    """Three topics of two subtopics of two documents. Gold clusters stay
    inside a topic; candidates are the gold spans plus random ones, some
    sharing a span, one per document also at the same score; score rows name each within-topic pair at most once,
    on a coarse grid, so tied averages are common."""
    documents, mentions, clusters, candidates, scores = [], [], [], [], []
    for t, words in enumerate(VOCABULARY):
        words = words.split()
        gold, cands = [], []
        for doc in (f"t{t}s{s}d{d}" for s in range(2) for d in range(2)):
            documents.append({
                "doc_id": doc, "topic_id": f"T{t}", "subtopic_id": f"T{t}/{doc[3]}",
                "tokens": [{"sentence": 0, "text": rng.choice(words)} for _ in range(20)],
            })
            for k, start in enumerate(rng.sample(range(19), 6)):
                gold.append({
                    "mention_id": f"{doc}m{k}", "doc_id": doc, "start_token": start,
                    "end_token": start + rng.randrange(2),
                    "type": rng.choice(["event", "entity"]), "head_lemma": rng.choice(LEMMAS),
                })
            spans = [(m["start_token"], m["end_token"]) for m in gold if m["doc_id"] == doc]
            spans += [(s, s + rng.randrange(3)) for s in rng.sample(range(18), 5)]
            for start, end in spans:
                cands.append({
                    "mention_id": f"c{len(candidates) + len(cands)}", "doc_id": doc,
                    "start_token": start, "end_token": end,
                    "type": rng.choice(["event", "entity"]), "score": rng.randrange(-4, 5) / 4,
                })
            # a second candidate on the last span, at the same score
            cands.append({**cands[-1], "mention_id": f"c{len(candidates) + len(cands)}"})
        groups = {}
        for m in gold:
            groups.setdefault(rng.randrange(len(gold) // 2), []).append(m["mention_id"])
        mentions += gold
        clusters += groups.values()
        candidates += cands
        for side in (gold, cands):
            ids = [m["mention_id"] for m in side]
            for i, a in enumerate(ids):
                for b in ids[i + 1:]:
                    if rng.random() < 0.7:
                        scores.append({"m1": a, "m2": b, "score": rng.randrange(-2, 5) / 4})
    mention_scores = [{"mention_id": m["mention_id"], "score": rng.randrange(-4, 5) / 4}
                      for m in rng.sample(candidates, len(candidates) // 3)]
    return {
        "corpus": {"documents": documents, "mentions": mentions, "clusters": clusters},
        "candidates": {"mentions": candidates},
        "scores": scores,
        "mention_scores": mention_scores,
    }


def shuffled(inputs, rng):
    def sample(items):
        return rng.sample(items, len(items))

    corpus = inputs["corpus"]
    return {
        "corpus": {
            "documents": sample(corpus["documents"]),
            "mentions": sample(corpus["mentions"]),
            "clusters": sample([sample(c) for c in corpus["clusters"]]),
        },
        "candidates": {"mentions": sample(inputs["candidates"]["mentions"])},
        # each pair is named once, so either order of its ids means the same
        "scores": sample([{"m1": r["m2"], "m2": r["m1"], "score": r["score"]}
                          if rng.random() < 0.5 else r for r in inputs["scores"]]),
        "mention_scores": sample(inputs["mention_scores"]),
    }


def write_inputs(directory, inputs):
    directory.mkdir()
    write_json(directory / "corpus.json", inputs["corpus"])
    write_json(directory / "cands.json", inputs["candidates"])
    for name in ("scores", "mention_scores"):
        (directory / f"{name}.jsonl").write_text(
            "".join(json.dumps(row) + "\n" for row in inputs[name]), encoding="utf-8")


PIPELINES = [
    {"unit_level": "gold_topic", "mention_type": "event",
     "clustering": {"tau": 0.25, "lambda": 0.4}},
    {"unit_level": "predicted_topic", "doc_threshold": 0.05, "singleton_policy": "omitted",
     "clustering": {"tau": 0.0, "lambda": 0.4}},
    {"unit_level": "corpus", "mention_source": "predicted", "candidates": "cands.json",
     "mention_scores": "mention_scores.jsonl", "sigmoid": True,
     "clustering": {"tau": 0.8, "lambda": 0.5, "max_span_width": 2}},
    {"unit_level": "gold_subtopic", "mention_source": "predicted", "candidates": "cands.json",
     "mention_type": "entity", "clustering": {"tau": 0.5, "lambda": 1.0}},
]
CLUSTERS = [
    ["--tau", "0.25", "--gold-mentions"],
    ["--tau", "0.0", "--gold-mentions", "--type", "entity", "--sigmoid"],
    ["--tau", "0.5", "--candidates", "cands.json", "--mention-scores", "mention_scores.jsonl",
     "--lambda", "0.6"],
    ["--tau", "1.0", "--candidates", "cands.json", "--type", "event", "--max-span-width", "1"],
]


def argvs_and_outputs(directory):
    argvs, outputs = [], []
    for k, fields in enumerate(PIPELINES):
        config = {"corpus": "corpus.json", "scores": "scores.jsonl",
                  "output": f"pipeline{k}.json", **fields}
        argvs.append(["pipeline", "--config", write_json(directory / f"run{k}.json", config),
                      "--json"])
        outputs.append(directory / f"pipeline{k}.json")
    for k, args in enumerate(CLUSTERS):
        args = [str(directory / a) if a.endswith(("json", "jsonl")) else a for a in args]
        cluster = ["cluster", "--corpus", str(directory / "corpus.json"),
                   "--scores", str(directory / "scores.jsonl"), *args]
        argvs += [cluster, cluster + ["--output", str(directory / f"cluster{k}.json")]]
        outputs.append(directory / f"cluster{k}.json")
    return argvs, outputs


def test_pipeline_and_cluster_output_depends_on_neither_hash_seed_nor_input_order(tmp_path):
    rng = random.Random(12)
    inputs = generated_inputs(rng)
    write_inputs(tmp_path / "plain", inputs)
    write_inputs(tmp_path / "shuffled", shuffled(inputs, rng))
    plain, plain_outputs = argvs_and_outputs(tmp_path / "plain")
    mixed, mixed_outputs = argvs_and_outputs(tmp_path / "shuffled")

    seen = []
    for hash_seed in (0, 1):
        runs = run_cli(plain + mixed, hash_seed)
        files = [path.read_bytes() for path in plain_outputs + mixed_outputs]
        half = len(runs) // 2
        assert runs[:half] == runs[half:]
        assert files[:len(plain_outputs)] == files[len(plain_outputs):]
        seen.append((runs, files))
    assert seen[0] == seen[1]

    runs, files = seen[0]
    assert all(code == 0 and not err for code, _, err in runs)
    # the reports, and the clusters of each cluster run without --output
    printed = runs[:len(PIPELINES)] + runs[len(PIPELINES):len(plain):2]
    assert all(out for _, out, _ in printed)
    # every response merges something, so the order of merges is exercised
    for written in files:
        assert any(len(c) > 1 for c in json.loads(written)["clusters"])
