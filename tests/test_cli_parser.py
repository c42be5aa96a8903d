"""The command line's help and usage errors, word for word.

`main` parses with one parser per process, `_parser()`; these texts,
recorded from a fresh `build_parser()`, hold it to the same words.
Help goes to stdout with exit 0, and a usage error to stderr with exit 1.
The width is fixed at 80 columns, which argparse reads from COLUMNS.
"""

import pytest

import cdcoref.cli
from cdcoref.cli import _parser, build_parser, main

TEXTS = [
    (['--help'], 0, 'out', """\
usage: cdcoref [-h]
               {evaluate,cluster,topics,baseline,export-pairs,pipeline} ...

Cross-document coreference evaluation and clustering toolkit

positional arguments:
  {evaluate,cluster,topics,baseline,export-pairs,pipeline}
    evaluate            score a response partition against a key
    cluster             cluster corpus mentions by pairwise score
    topics              cluster documents into topics by tf-idf cosine
    baseline            deterministic baseline partitions
    export-pairs        labeled training pairs from gold clusters
    pipeline            full run from a JSON config file

options:
  -h, --help            show this help message and exit
"""),
    (['evaluate', '--help'], 0, 'out', """\
usage: cdcoref evaluate [-h] --key KEY --response RESPONSE
                        [--singletons {include,omit}] [--json]

options:
  -h, --help            show this help message and exit
  --key KEY             key partition JSON file
  --response RESPONSE   response partition JSON file
  --singletons {include,omit}
  --json                machine-readable report
"""),
    (['cluster', '--help'], 0, 'out', """\
usage: cdcoref cluster [-h] --corpus CORPUS --scores SCORES
                       [--mention-scores MENTION_SCORES] --tau TAU
                       [--lambda PRUNE_LAMBDA] [--gold-mentions]
                       [--type {event,entity,all}] [--candidates CANDIDATES]
                       [--max-span-width MAX_SPAN_WIDTH] [--sigmoid]
                       [--output OUTPUT]

options:
  -h, --help            show this help message and exit
  --corpus CORPUS
  --scores SCORES       pairwise score JSONL file
  --mention-scores MENTION_SCORES
                        per-mention score JSONL file
  --tau TAU             merge stop threshold
  --lambda PRUNE_LAMBDA
                        fraction of tokens kept as candidate spans
  --gold-mentions
  --type {event,entity,all}
  --candidates CANDIDATES
                        candidate mentions JSON (predicted mode)
  --max-span-width MAX_SPAN_WIDTH
  --sigmoid             logistic transform on scores
  --output OUTPUT       partition JSON output path (default stdout)
"""),
    (['topics', '--help'], 0, 'out', """\
usage: cdcoref topics [-h] --corpus CORPUS --threshold THRESHOLD
                      [--output OUTPUT]

options:
  -h, --help            show this help message and exit
  --corpus CORPUS
  --threshold THRESHOLD
  --output OUTPUT
"""),
    (['baseline', '--help'], 0, 'out', """\
usage: cdcoref baseline [-h] --corpus CORPUS --kind {singleton,head-lemma}
                        [--type {event,entity,all}] [--output OUTPUT]

options:
  -h, --help            show this help message and exit
  --corpus CORPUS
  --kind {singleton,head-lemma}
  --type {event,entity,all}
  --output OUTPUT
"""),
    (['export-pairs', '--help'], 0, 'out', """\
usage: cdcoref export-pairs [-h] --corpus CORPUS [--ratio RATIO] [--seed SEED]
                            [--type {event,entity,all}] [--output OUTPUT]

options:
  -h, --help            show this help message and exit
  --corpus CORPUS
  --ratio RATIO         negatives per positive
  --seed SEED
  --type {event,entity,all}
  --output OUTPUT
"""),
    (['pipeline', '--help'], 0, 'out', """\
usage: cdcoref pipeline [-h] --config CONFIG [--json]

options:
  -h, --help       show this help message and exit
  --config CONFIG
  --json
"""),
    (['nope'], 1, 'err', """\
usage: cdcoref [-h]
               {evaluate,cluster,topics,baseline,export-pairs,pipeline} ...
cdcoref: error: argument command: invalid choice: 'nope' (choose from 'evaluate', 'cluster', 'topics', 'baseline', 'export-pairs', 'pipeline')
"""),
    ([], 1, 'err', """\
usage: cdcoref [-h]
               {evaluate,cluster,topics,baseline,export-pairs,pipeline} ...
cdcoref: error: the following arguments are required: command
"""),
    (['evaluate'], 1, 'err', """\
usage: cdcoref evaluate [-h] --key KEY --response RESPONSE
                        [--singletons {include,omit}] [--json]
cdcoref evaluate: error: the following arguments are required: --key, --response
"""),
    (['cluster', '--corpus', 'c.json'], 1, 'err', """\
usage: cdcoref cluster [-h] --corpus CORPUS --scores SCORES
                       [--mention-scores MENTION_SCORES] --tau TAU
                       [--lambda PRUNE_LAMBDA] [--gold-mentions]
                       [--type {event,entity,all}] [--candidates CANDIDATES]
                       [--max-span-width MAX_SPAN_WIDTH] [--sigmoid]
                       [--output OUTPUT]
cdcoref cluster: error: the following arguments are required: --scores, --tau
"""),
    (['evaluate', '--key', 'k', '--response', 'r', '--bogus'], 1, 'err', """\
usage: cdcoref [-h]
               {evaluate,cluster,topics,baseline,export-pairs,pipeline} ...
cdcoref: error: unrecognized arguments: --bogus
"""),
    (['export-pairs', '--corpus', 'c', '--ratio', 'x'], 1, 'err', """\
usage: cdcoref export-pairs [-h] --corpus CORPUS [--ratio RATIO] [--seed SEED]
                            [--type {event,entity,all}] [--output OUTPUT]
cdcoref export-pairs: error: argument --ratio: invalid int value: 'x'
"""),
]


@pytest.mark.parametrize("argv, code, stream, text", TEXTS, ids=[" ".join(t[0]) or "(none)" for t in TEXTS])
def test_help_and_usage_errors_word_for_word(argv, code, stream, text, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == code
    captured = capsys.readouterr()
    assert getattr(captured, stream) == text
    assert getattr(captured, "err" if stream == "out" else "out") == ""


@pytest.mark.parametrize("argv", [
    ["evaluate", "--key", "k.json", "--response", "r.json", "--singletons", "omit", "--json"],
    ["cluster", "--corpus", "c.json", "--scores", "s.jsonl", "--tau", "0.5", "--lambda", "0.3",
     "--gold-mentions", "--type", "event", "--max-span-width", "4", "--sigmoid"],
    ["topics", "--corpus", "c.json", "--threshold", "0.1"],
    ["baseline", "--corpus", "c.json", "--kind", "head-lemma", "--output", "o.json"],
    ["export-pairs", "--corpus", "c.json", "--ratio", "3", "--seed", "7", "--type", "entity"],
    ["pipeline", "--config", "run.json"],
])
def test_a_subcommand_parses_as_under_the_full_parser(argv):
    assert vars(_parser().parse_args(argv)) == vars(build_parser().parse_args(argv))


def test_main_builds_the_parser_once_per_process(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(cdcoref.cli, "build_parser",
                        lambda: built.append(1) or build_parser())
    _parser.cache_clear()
    try:
        for argv in (["--help"], ["evaluate", "--help"], ["nope"]):
            main(argv)
    finally:
        _parser.cache_clear()
    capsys.readouterr()
    assert built == [1]


def test_help_follows_the_width_at_each_call(monkeypatch, capsys):
    # the one parser formats each text at the COLUMNS of its own call
    for columns in ("80", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        assert main(["evaluate", "--help"]) == 0
        got = capsys.readouterr().out
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--help"])
        assert got == capsys.readouterr().out
    assert got != TEXTS[1][3]
