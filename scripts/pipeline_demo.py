#!/usr/bin/env python3
"""End-to-end demo: corpus file, lemma scores, clustering at every unit level.

Generates a three-document corpus (two topics about strikes, one of them a
lookalike about an unrelated air strike), writes it plus a pairwise lemma
score file into --out, then runs the full pipeline at each evaluation unit
level and prints the resulting scores. Finer units win here: the corpus was
built so that lemma matching is exact inside subtopics but over-merges
across them.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import combinations
from pathlib import Path

from cdcoref import (
    EvalConfig,
    ScoreTable,
    evaluation_units,
    load_corpus,
    run_pipeline,
    save_partition_file,
    write_score_file,
)

CORPUS = {
    "documents": [
        {
            "doc_id": "a1",
            "topic_id": "T1",
            "subtopic_id": "s1",
            "tokens": [
                {"sentence": 0, "text": w}
                for w in "union strike spreads as steel strike halts offer".split()
            ],
        },
        {
            "doc_id": "a2",
            "topic_id": "T1",
            "subtopic_id": "s2",
            "tokens": [
                {"sentence": 0, "text": w}
                for w in "union strike spreads as steel strike stops work".split()
            ],
        },
        {
            "doc_id": "b1",
            "topic_id": "T2",
            "subtopic_id": "s3",
            "tokens": [
                {"sentence": 0, "text": w}
                for w in "air strike hits union while second strike looms".split()
            ],
        },
    ],
    "mentions": [
        {"mention_id": mid, "doc_id": doc, "start_token": pos, "end_token": pos,
         "type": mtype, "head_lemma": lemma}
        for mid, doc, pos, mtype, lemma in [
            ("e1", "a1", 1, "event", "strike"),
            ("e2", "a1", 5, "event", "strike"),
            ("e3", "a1", 7, "event", "offer"),
            ("e4", "a2", 1, "event", "strike"),
            ("e5", "a2", 5, "event", "strike"),
            ("e6", "b1", 1, "event", "strike"),
            ("e7", "b1", 6, "event", "strike"),
            ("n1", "a1", 0, "entity", "union"),
            ("n2", "a2", 0, "entity", "union"),
            ("n3", "b1", 3, "entity", "union"),
        ]
    ],
    "clusters": [["e1", "e2"], ["e4", "e5"], ["e6", "e7"], ["n1", "n2"]],
}

UNIT_LEVELS = ("gold_subtopic", "gold_topic", "predicted_topic", "corpus")


def lemma_scores(mentions) -> ScoreTable:
    """1.0 for every pair of mentions with the same case-folded head lemma,
    0.0 for every other pair."""
    lemma = {m.mention_id: m.head_lemma.casefold() for m in mentions}
    return ScoreTable({(a, b): float(lemma[a] == lemma[b]) for a, b in combinations(lemma, 2)})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("demo_run"),
                        help="directory for generated artifacts")
    parser.add_argument("--type", choices=("event", "entity", "all"), default="event")
    parser.add_argument("--singletons", choices=("include", "omit"), default="omit")
    parser.add_argument("--doc-threshold", type=float, default=0.1,
                        help="cosine threshold for predicted topics")
    args = parser.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    corpus_path = args.out / "corpus.json"
    corpus_path.write_text(json.dumps(CORPUS, indent=2) + "\n", encoding="utf-8")
    corpus = load_corpus(corpus_path)

    scores = lemma_scores(corpus.gold_mentions)
    write_score_file(args.out / "scores.jsonl", scores)

    policy = {"include": "included", "omit": "omitted"}[args.singletons]
    print(f"mention type: {args.type}, singletons {policy}\n")
    summary = []
    for level in UNIT_LEVELS:
        config = EvalConfig(
            unit_level=level,
            mention_type=args.type,
            singleton_policy=policy,
            doc_threshold=args.doc_threshold if level == "predicted_topic" else None,
        )
        units = evaluation_units(corpus, config)
        response, report = run_pipeline(corpus, config, scores)
        out_path = args.out / f"response_{level}.json"
        by_id = {m.mention_id: m for m in corpus.gold_mentions}
        members = [by_id[mid] for c in response.clusters for mid in sorted(c)]
        save_partition_file(out_path, response, members)

        print(f"{level}: {len(units)} unit(s) "
              f"{[sorted(docs) for _, docs in units]}")
        print("  " + report.to_text().replace("\n", "\n  "))
        print(f"  response written to {out_path}\n")
        summary.append((level, report.conll_f1))

    width = max(len(level) for level, _ in summary)
    print("summary (CoNLL F1)")
    for level, score in summary:
        print(f"  {level.ljust(width)}  {score:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
