#!/usr/bin/env python3
"""Seeded input generator for the cdcoref benchmark.

Writes ECB+-shaped synthetic inputs for one input family into a directory.
It uses only the standard library and never imports cdcoref: the program
under test sees nothing but the files written here. The same
(family, size, seed) always gives byte-identical files.

Families:
  predicted  corpus.json, candidates.json, mention_scores.jsonl, scores.jsonl
             (every within-topic pair of event candidates, pruned ones too)
  gold       corpus.json, scores.jsonl (every within-topic pair of gold event
             mentions, on a coarse 0.05 grid so that average-link ties occur)
  files      key.json plus response_<i>.json: split, merge, twinless and
             mixed perturbations of the key

Usage: python3 gen.py --family gold --seed 3 --out DIR [--size smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import random

# Corpus shape per family and size. Tokens per unit drive the pruning budget
# (floor(lambda * tokens) spans survive) and mentions per unit drive the
# quadratic linkage cost, so these are the knobs that set an operation's cost.
SIZES = {
    "predicted": {
        "full": dict(topics=3, subtopics=2, docs=2, doc_tokens=200,
                     events=14, entities=10, distractors=54),
        "smoke": dict(topics=2, subtopics=1, docs=2, doc_tokens=60,
                      events=4, entities=3, distractors=6),
    },
    "gold": {
        "full": dict(topics=8, subtopics=2, docs=7, doc_tokens=200,
                     events=5, entities=4, distractors=0),
        "smoke": dict(topics=3, subtopics=2, docs=2, doc_tokens=60,
                      events=4, entities=2, distractors=0),
    },
    "files": {
        "full": dict(mentions=3000, docs=100, responses=4),
        "smoke": dict(mentions=120, docs=6, responses=4),
    },
}

SENTENCE_LEN = 20
COMMON_WORDS = 400
TOPIC_WORDS = 80
SUBTOPIC_WORDS = 60
PAIR_GRID = 0.05
MAX_CLUSTER = 30


def pareto_sizes(total: int) -> list[int]:
    """Cluster sizes from Pareto(1.3) quantiles, capped at MAX_CLUSTER:
    about 60% of clusters are singletons. The quantiles are taken at a fixed
    low-discrepancy sequence rather than drawn, so every seed gets the same
    sizes and the work per operation does not swing with the heavy tail."""
    sizes, k = [], 0
    while total > 0:
        u = k * 0.6180339887498949 % 1.0
        size = min(total, MAX_CLUSTER, int((1.0 - u) ** (-1 / 1.3)))
        sizes.append(size)
        total -= size
        k += 1
    return sizes


def cluster(rng: random.Random, ids: list[str]) -> list[list[str]]:
    """Split `ids` into clusters of Pareto sizes, members chosen by `rng`."""
    ids = list(ids)
    rng.shuffle(ids)
    out, pos = [], 0
    for size in pareto_sizes(len(ids)):
        out.append(sorted(ids[pos : pos + size]))
        pos += size
    return out


def free_spans(rng, doc_tokens, used, count, max_width):
    """`count` spans not yet in `used` (a set of (start, end)), marked used."""
    spans = []
    while len(spans) < count:
        width = 1 if rng.random() < 0.7 else rng.randint(2, max_width)
        start = rng.randrange(0, doc_tokens - width + 1)
        span = (start, start + width - 1)
        if span not in used:
            used.add(span)
            spans.append(span)
    return spans


def make_corpus(rng: random.Random, shape: dict) -> tuple[dict, dict]:
    """Topics -> subtopics -> documents, with gold event and entity mentions.

    Documents of one subtopic draw a share of their words from a subtopic
    vocabulary and a share from a topic vocabulary, so TF-IDF cosine groups
    them back roughly by subtopic. Gold clusters stay inside a subtopic and
    have Pareto sizes. Also returns, per document, the set of spans already
    taken, so candidate generation never gives one span two types.
    """
    documents, mentions, clusters, used_spans = [], [], [], {}
    common = [f"w{i}" for i in range(COMMON_WORDS)]
    for t in range(shape["topics"]):
        topic_words = [f"t{t}x{i}" for i in range(TOPIC_WORDS)]
        for s in range(shape["subtopics"]):
            sub_words = [f"s{t}x{s}x{i}" for i in range(SUBTOPIC_WORDS)]
            events, entities = [], []
            for d in range(shape["docs"]):
                doc_id = f"t{t}s{s}d{d}"
                tokens = []
                for i in range(shape["doc_tokens"]):
                    r = rng.random()
                    pool = common if r < 0.5 else topic_words if r < 0.75 else sub_words
                    tokens.append({"sentence": i // SENTENCE_LEN, "text": rng.choice(pool)})
                documents.append({
                    "doc_id": doc_id, "topic_id": f"t{t}",
                    "subtopic_id": f"t{t}s{s}", "tokens": tokens,
                })
                used = used_spans[doc_id] = set()
                for kind, count, bucket in (
                    ("event", shape["events"], events),
                    ("entity", shape["entities"], entities),
                ):
                    for start, end in free_spans(rng, shape["doc_tokens"], used, count, 3):
                        mid = f"m{len(mentions)}"
                        mentions.append({
                            "mention_id": mid, "doc_id": doc_id,
                            "start_token": start, "end_token": end, "type": kind,
                            "head_lemma": tokens[end]["text"],
                        })
                        bucket.append(mid)
            clusters += cluster(rng, events) + cluster(rng, entities)
    corpus = {"documents": documents, "mentions": mentions,
              "clusters": sorted(clusters), "split": "test"}
    return corpus, used_spans


def topic_of(doc_id: str) -> str:
    return doc_id.split("s", 1)[0]


def subtopic_of(doc_id: str) -> str:
    return doc_id.split("d", 1)[0]


def within_topic_pairs(items):
    """Every unordered pair of (id, doc_id) items that share a topic."""
    by_topic: dict[str, list] = {}
    for mid, doc in items:
        by_topic.setdefault(topic_of(doc), []).append((mid, doc))
    for topic in sorted(by_topic):
        group = by_topic[topic]
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                yield a, b


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))
        fh.write("\n")


def write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def gen_gold(rng, shape, out) -> dict:
    corpus, _ = make_corpus(rng, shape)
    write_json(os.path.join(out, "corpus.json"), corpus)
    cluster_of = {m: i for i, c in enumerate(corpus["clusters"]) for m in c}
    events = [(m["mention_id"], m["doc_id"]) for m in corpus["mentions"]
              if m["type"] == "event"]

    def rows():
        for (a, da), (b, db) in within_topic_pairs(events):
            if cluster_of[a] == cluster_of[b]:
                mean = 0.75
            elif subtopic_of(da) == subtopic_of(db):
                mean = 0.45
            else:
                mean = 0.3
            score = min(1.0, max(0.0, rng.gauss(mean, 0.15)))
            yield {"m1": a, "m2": b, "score": round(round(score / PAIR_GRID) * PAIR_GRID, 2)}

    n_rows = 0
    with open(os.path.join(out, "scores.jsonl"), "w", encoding="utf-8") as fh:
        for row in rows():
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")
            n_rows += 1
    return {"documents": len(corpus["documents"]),
            "tokens": sum(len(d["tokens"]) for d in corpus["documents"]),
            "gold_mentions": len(corpus["mentions"]),
            "event_mentions": len(events), "score_rows": n_rows}


def gen_predicted(rng, shape, out) -> dict:
    """Candidates are the gold spans (each with its gold type) plus event-typed
    distractor spans; gold events score higher on average but the two score
    distributions overlap, so pruning drops some gold and keeps some noise."""
    corpus, used_spans = make_corpus(rng, shape)
    write_json(os.path.join(out, "corpus.json"), corpus)
    cluster_of = {m: i for i, c in enumerate(corpus["clusters"]) for m in c}
    candidates, mention_scores, gold_of = [], [], {}
    for m in corpus["mentions"]:
        cid = f"c{len(candidates)}"
        gold_of[cid] = m["mention_id"]
        candidates.append({k: m[k] for k in ("doc_id", "start_token", "end_token", "type")}
                          | {"mention_id": cid})
        mean = 1.0 if m["type"] == "event" else 0.0
        mention_scores.append({"mention_id": cid, "score": round(rng.gauss(mean, 0.8), 4)})
    for doc in corpus["documents"]:
        doc_id = doc["doc_id"]
        for start, end in free_spans(rng, len(doc["tokens"]), used_spans[doc_id],
                                     shape["distractors"], 6):
            cid = f"c{len(candidates)}"
            candidates.append({"mention_id": cid, "doc_id": doc_id, "start_token": start,
                               "end_token": end, "type": "event"})
            mention_scores.append({"mention_id": cid, "score": round(rng.gauss(-0.3, 0.8), 4)})
    write_json(os.path.join(out, "candidates.json"), {"mentions": candidates})
    write_jsonl(os.path.join(out, "mention_scores.jsonl"), mention_scores)
    events = [(c["mention_id"], c["doc_id"]) for c in candidates if c["type"] == "event"]

    def rows():
        for (a, _), (b, _) in within_topic_pairs(events):
            ga, gb = gold_of.get(a), gold_of.get(b)
            mean = 0.5 if ga is not None and gb is not None and cluster_of[ga] == cluster_of[gb] else -1.0
            yield {"m1": a, "m2": b, "score": round(rng.gauss(mean, 0.7), 3)}

    n_rows = 0
    with open(os.path.join(out, "scores.jsonl"), "w", encoding="utf-8") as fh:
        for row in rows():
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")
            n_rows += 1
    return {"documents": len(corpus["documents"]),
            "tokens": sum(len(d["tokens"]) for d in corpus["documents"]),
            "gold_mentions": len(corpus["mentions"]),
            "candidates": len(candidates), "event_candidates": len(events),
            "score_rows": n_rows}


def gen_files(rng, shape, out) -> dict:
    """A key partition with a mention table, about half its mentions
    singletons, plus responses that split, merge, drop and add mentions.
    Response mention ids differ from key ids, so scoring matches on spans."""
    n, docs = shape["mentions"], shape["docs"]
    used = {d: set() for d in range(docs)}
    spans = []
    for i in range(n):
        d = i % docs
        spans.append((f"d{d}",) + free_spans(rng, 2000, used[d], 1, 3)[0])
    singles = n // 2
    ids = [f"k{i}" for i in range(n)]
    clusters = [[m] for m in ids[:singles]] + cluster(rng, ids[singles:])
    mention_of = dict(zip(ids, spans))

    def mention_table(members):
        return [{"mention_id": mid, "doc_id": doc, "start_token": s, "end_token": e,
                 "type": "event"} for mid, (doc, s, e) in sorted(members.items())]

    write_json(os.path.join(out, "key.json"),
               {"mentions": mention_table(mention_of), "clusters": sorted(clusters)})

    def respond(kind: str):
        resp = [list(c) for c in clusters]
        if kind in ("split", "mixed"):
            out_clusters = []
            for c in resp:
                if len(c) > 1 and rng.random() < 0.4:
                    cut = rng.randint(1, len(c) - 1)
                    out_clusters += [c[:cut], c[cut:]]
                else:
                    out_clusters.append(c)
            resp = out_clusters
        if kind in ("merge", "mixed"):
            rng.shuffle(resp)
            out_clusters = []
            for c in resp:
                if out_clusters and rng.random() < 0.25:
                    out_clusters[-1] = out_clusters[-1] + c
                else:
                    out_clusters.append(c)
            resp = out_clusters
        members = {mid: mention_of[mid] for c in resp for mid in c}
        if kind in ("twinless", "mixed"):
            dropped = set(rng.sample(sorted(members), n // 10))
            resp = [[m for m in c if m not in dropped] for c in resp]
            resp = [c for c in resp if c]
            for m in dropped:
                del members[m]
            for j in range(n // 10):
                d = rng.randrange(docs)
                doc, s, e = (f"d{d}",) + free_spans(rng, 2000, used[d], 1, 3)[0]
                mid = f"x{j}"
                members[mid] = (doc, s, e)
                if rng.random() < 0.5 or not resp:
                    resp.append([mid])
                else:
                    resp[rng.randrange(len(resp))].append(mid)
        # response ids are renamed so only span identity links them to the key
        rename = {mid: f"r{i}" for i, mid in enumerate(sorted(members))}
        return {"mentions": mention_table({rename[m]: sp for m, sp in members.items()}),
                "clusters": sorted(sorted(rename[m] for m in c) for c in resp)}

    kinds = ["split", "merge", "twinless", "mixed"]
    for i in range(shape["responses"]):
        write_json(os.path.join(out, f"response_{i}.json"), respond(kinds[i % len(kinds)]))
    return {"key_mentions": n, "key_singletons": singles, "key_clusters": len(clusters),
            "responses": shape["responses"]}


GENERATORS = {"predicted": gen_predicted, "gold": gen_gold, "files": gen_files}


def generate(family: str, size: str, seed: int, out: str) -> dict:
    """Write one family's inputs into `out`; returns its size summary."""
    os.makedirs(out, exist_ok=True)
    rng = random.Random(f"{family}:{size}:{seed}")
    sizes = GENERATORS[family](rng, SIZES[family][size], out)
    write_json(os.path.join(out, "sizes.json"), sizes)
    return sizes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--family", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.family, args.size, args.seed, args.out)


if __name__ == "__main__":
    main()
