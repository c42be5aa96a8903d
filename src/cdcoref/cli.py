"""Command-line interface.

Subcommands: evaluate, cluster, topics, baseline, export-pairs, pipeline.
Exit codes: 0 on success, 1 on input errors, 2 on data invariant violations.
Reports go to stdout as aligned text; --json switches to machine format.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .baselines import head_lemma_baseline, singleton_baseline
from .clustering import generate_training_pairs, write_training_pairs
from .corpus import InvariantError, CorpusError, load_corpus
from .harness import (
    MENTION_TYPE_CHOICES,
    _config_from_json,
    _load_inputs,
    build_response,
    response_members,
    run_evaluation,
    run_sweep_from_config,
    save_partition_file,
)
from .topics import group_documents, write_topics

_POLICIES = {"include": "included", "omit": "omitted"}


def _print_report(report, as_json: bool) -> None:
    print(report.to_json() if as_json else report.to_text())


def _cmd_evaluate(args) -> int:
    report = run_evaluation(args.key, args.response, _POLICIES[args.singletons])
    _print_report(report, args.json)
    return 0


def _file_path(value: str) -> str:
    # a config reads an empty optional path as "no file"; a required one
    # must name a file
    if not value:
        raise argparse.ArgumentTypeError("must name a file")
    return value


def _cmd_cluster(args) -> int:
    # the pipeline's config path at corpus level, so the two cannot drift
    raw = {
        "corpus": args.corpus,
        "scores": args.scores,
        "mention_scores": args.mention_scores,
        "candidates": args.candidates,
        "output": args.output,
        "unit_level": "corpus",
        "mention_source": "gold" if args.gold_mentions else "predicted",
        "mention_type": args.type,
        "clustering": {
            "tau": args.tau,
            "lambda": args.prune_lambda,
            "max_span_width": args.max_span_width,
        },
        "sigmoid": args.sigmoid,
    }
    [config], paths = _config_from_json(raw, "")
    corpus, *inputs = _load_inputs(paths)
    response, mentions = build_response(corpus, config, *inputs)
    # stdout gets the clusters only; a response file carries the mentions
    members = response_members(response, mentions) if paths["output"] else None
    save_partition_file(paths["output"], response, members)
    return 0


def _cmd_topics(args) -> int:
    corpus = load_corpus(args.corpus)
    docs = [corpus.documents[d] for d in sorted(corpus.documents)]
    clusters = group_documents(docs, args.threshold)
    write_topics(args.output, clusters, args.threshold)
    return 0


def _cmd_baseline(args) -> int:
    corpus = load_corpus(args.corpus)
    mentions = corpus.mentions_of_type(args.type)
    if args.kind == "singleton":
        partition = singleton_baseline(mentions)
    else:
        partition = head_lemma_baseline(mentions)
    save_partition_file(args.output, partition, mentions if args.output else None)
    return 0


def _cmd_export_pairs(args) -> int:
    corpus = load_corpus(args.corpus)
    mentions = corpus.mentions_of_type(args.type)
    gold = corpus.gold_partition.restricted_to(m.mention_id for m in mentions)
    pairs = generate_training_pairs(gold, args.ratio, args.seed)
    write_training_pairs(args.output, pairs)
    return 0


def _cmd_pipeline(args) -> int:
    runs = run_sweep_from_config(args.config)
    if len(runs) == 1:
        _print_report(runs[0][2], args.json)
    elif args.json:
        print(json.dumps([{"tau": tau, **report.to_dict()} for tau, _, report in runs], indent=2))
    else:
        print("\n\n".join(f"tau {tau!r}\n{report.to_text()}" for tau, _, report in runs))
    return 0


def _evaluate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--key", required=True, help="key partition JSON file")
    p.add_argument("--response", required=True, help="response partition JSON file")
    p.add_argument("--singletons", choices=("include", "omit"), default="include")
    p.add_argument("--json", action="store_true", help="machine-readable report")


def _cluster_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True)
    p.add_argument("--scores", required=True, type=_file_path, help="pairwise score JSONL file")
    p.add_argument("--mention-scores", help="per-mention score JSONL file")
    p.add_argument("--tau", type=float, required=True, help="merge stop threshold")
    p.add_argument(
        "--lambda",
        dest="prune_lambda",
        type=float,
        default=0.4,
        help="fraction of tokens kept as candidate spans",
    )
    p.add_argument("--gold-mentions", action="store_true")
    p.add_argument("--type", choices=MENTION_TYPE_CHOICES, default="all")
    p.add_argument("--candidates", help="candidate mentions JSON (predicted mode)")
    p.add_argument("--max-span-width", type=int, default=15)
    p.add_argument("--sigmoid", action="store_true", help="logistic transform on scores")
    p.add_argument("--output", help="partition JSON output path (default stdout)")


def _topics_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--output")


def _baseline_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True)
    p.add_argument("--kind", choices=("singleton", "head-lemma"), required=True)
    p.add_argument("--type", choices=MENTION_TYPE_CHOICES, default="all")
    p.add_argument("--output")


def _export_pairs_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True)
    p.add_argument("--ratio", type=int, default=20, help="negatives per positive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--type", choices=MENTION_TYPE_CHOICES, default="all")
    p.add_argument("--output")


def _pipeline_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True)
    p.add_argument("--json", action="store_true")


# name: (summary, arguments, handler), in the order that --help lists them
_SUBCOMMANDS = {
    "evaluate": ("score a response partition against a key", _evaluate_arguments, _cmd_evaluate),
    "cluster": ("cluster corpus mentions by pairwise score", _cluster_arguments, _cmd_cluster),
    "topics": ("cluster documents into topics by tf-idf cosine", _topics_arguments, _cmd_topics),
    "baseline": ("deterministic baseline partitions", _baseline_arguments, _cmd_baseline),
    "export-pairs": (
        "labeled training pairs from gold clusters", _export_pairs_arguments, _cmd_export_pairs
    ),
    "pipeline": ("full run from a JSON config file", _pipeline_arguments, _cmd_pipeline),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdcoref",
        description="Cross-document coreference evaluation and clustering toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, arguments, handler) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=summary)
        arguments(p)
        p.set_defaults(func=handler)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built once per process: argparse reads the help
    width when it prints, not when it builds."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as e:
        # argparse exits 2 on usage errors; report those as input errors (1)
        # and keep 2 reserved for data invariant violations
        return 0 if e.code == 0 else 1
    try:
        return args.func(args)
    except InvariantError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (CorpusError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
