"""`cdcoref evaluate` on partition files: reports and errors against the
object path, and output that depends on neither hash seed nor input order.

`run_evaluation` scores two files with no `Mention` or `Partition` built;
`object_evaluation` below is the path it replaced: `load_partition_file`,
`partition_on_spans` and `evaluate`.
"""

import itertools
import json
import os
import random
import subprocess
import sys

import pytest

from cdcoref import (
    InvariantError,
    Partition,
    evaluate,
    load_partition_file,
    partition_on_spans,
    run_evaluation,
)
from conftest import write_json

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
POLICIES = ("included", "omitted")


def object_evaluation(key_path, response_path, policy):
    key, key_mentions = load_partition_file(key_path)
    response, response_mentions = load_partition_file(response_path)
    if key_mentions is not None and response_mentions is not None:
        key = partition_on_spans(key, key_mentions)
        response = partition_on_spans(response, response_mentions)
    return evaluate(key, response, policy)


def outcome(score, *args):
    """The report as JSON, or the type and message of the error raised."""
    try:
        return score(*args).to_json()
    except Exception as e:  # noqa: BLE001 - the comparison is the point
        return type(e).__name__, str(e)


def row(mid, doc, start, end=None, **fields):
    return {"mention_id": mid, "doc_id": doc, "start_token": start,
            "end_token": start if end is None else end, "type": "event", **fields}


KEY_ROWS = [row("k1", "d1", 0), row("k2", "d1", 3, 4), row("k3", "d2", 1),
            row("k4", "d2", 5), row("k5", "d2", 7), row("k6", "d3", 0),
            row("k7", "d3", 2, head_lemma="run", score=0.5)]
KEY_CLUSTERS = [["k1", "k2", "k3"], ["k4"], ["k5", "k6"], ["k7"]]
RESPONSE_ROWS = [row("r1", "d1", 0), row("r2", "d2", 1), row("r3", "d2", 5),
                 row("r4", "d2", 7), row("r5", "d3", 2), row("r6", "d1", 3, 4),
                 row("r7", "d3", 9)]
RESPONSE_CLUSTERS = [["r1", "r2"], ["r3", "r4", "r5"], ["r6"], ["r7"]]
KEY = {"mentions": KEY_ROWS, "clusters": KEY_CLUSTERS}
RESPONSE = {"mentions": RESPONSE_ROWS, "clusters": RESPONSE_CLUSTERS}
# raw ids that the two sides share, for files without mention tables
SHARED_IDS = {"clusters": [["k1", "k2"], ["k3", "k4", "k5"], ["k6"], ["x"]]}


def with_rows(data, *changes):
    """`data` with mention rows replaced, added (index None) or removed
    (row None)."""
    rows = list(data["mentions"])
    for index, new in changes:
        if index is None:
            rows.append(new)
        elif new is None:
            del rows[index]
        else:
            rows[index] = new
    return {**data, "mentions": rows}


def with_clusters(data, clusters):
    return {**data, "clusters": clusters}


def key_clash(data):
    # a second id on k4's span, in k5's cluster
    return with_clusters(with_rows(data, (None, row("k8", "d2", 5))),
                         [["k1", "k2", "k3"], ["k4"], ["k5", "k6", "k8"], ["k7"]])


def response_clash(data):
    return with_clusters(with_rows(data, (None, row("r8", "d1", 0))),
                         RESPONSE_CLUSTERS + [["r8"]])


BAD_KEY = with_rows(KEY, (1, row("k2", "d1", True)))
BAD_RESPONSE = with_clusters(RESPONSE, RESPONSE_CLUSTERS + [["nope"]])

CASES = {
    "both tables": (KEY, RESPONSE),
    "neither table": ({"clusters": KEY_CLUSTERS}, SHARED_IDS),
    "key table only": (KEY, SHARED_IDS),
    "response table only": (SHARED_IDS, RESPONSE),
    "no clusters": ({"mentions": [], "clusters": []}, RESPONSE),
    "id repeated in a cluster": (
        with_clusters(KEY, [["k1", "k2", "k1", "k3"], ["k4"], ["k5", "k6", "k6"], ["k7"]]),
        RESPONSE),
    "shared span in a cluster": (
        with_clusters(with_rows(KEY, (None, row("k8", "d2", 7))),
                      [["k1", "k2", "k3"], ["k4"], ["k5", "k6", "k8"], ["k7"]]),
        with_clusters(with_rows(RESPONSE, (None, row("r8", "d1", 3, 4))),
                      [["r1", "r2"], ["r3", "r4", "r5"], ["r6", "r8"], ["r7"]])),
    "table row in no cluster": (with_rows(KEY, (None, row("k9", "d9", 0))), RESPONSE),
    "empty cluster": (with_clusters(KEY, KEY_CLUSTERS + [[]]), RESPONSE),
    "empty cluster without table": ({"clusters": [["a"], []]}, SHARED_IDS),
    "id in two clusters": (with_clusters(KEY, [["k1", "k2"], ["k2", "k3"]]), RESPONSE),
    "id in two clusters without table": (
        {"clusters": [["alpha", "beta", "gamma", "delta"], ["delta", "gamma", "beta", "alpha"]]},
        SHARED_IDS),
    "bool start": (BAD_KEY, RESPONSE),
    "bool end": (with_rows(KEY, (0, row("k1", "d1", 0, False))), RESPONSE),
    "int score": (with_rows(KEY, (0, row("k1", "d1", 0, score=2))), RESPONSE),
    "huge int score": (with_rows(KEY, (0, row("k1", "d1", 0, score=10**400))), RESPONSE),
    "string score": (with_rows(KEY, (0, row("k1", "d1", 0, score="1"))), RESPONSE),
    "null optional fields": (
        with_rows(KEY, (0, row("k1", "d1", 0, head_lemma=None, score=None))), RESPONSE),
    "int head lemma": (with_rows(KEY, (0, row("k1", "d1", 0, head_lemma=3))), RESPONSE),
    "start and end outside int64": (
        with_rows(KEY, (0, row("k1", "d1", 2**70, 2**70 + 1))),
        with_rows(RESPONSE, (0, row("r1", "d1", 2**70, 2**70 + 1)))),
    "negative start": (with_rows(KEY, (0, row("k1", "d1", -2**70))), RESPONSE),
    "missing field": (with_rows(KEY, (2, {"mention_id": "k3", "doc_id": "d2"})), RESPONSE),
    "null id": (with_rows(KEY, (2, row(None, "d2", 1))), RESPONSE),
    "row not an object": (with_rows(KEY, (2, ["k3", "d2", 1, 1])), RESPONSE),
    "row a string": (with_rows(KEY, (2, "k3")), RESPONSE),
    "mentions not a list": ({"mentions": {"k1": 1}, "clusters": KEY_CLUSTERS}, RESPONSE),
    "clusters missing": ({"mentions": KEY_ROWS}, RESPONSE),
    "cluster not a list": (with_clusters(KEY, [["k1"], "k2"]), RESPONSE),
    "cluster id not a string": (with_clusters(KEY, [["k1", 2]]), RESPONSE),
    "duplicate mention_id": (with_rows(KEY, (None, row("k3", "d9", 9))), RESPONSE),
    "duplicate before a bad row": (
        with_rows(KEY, (None, row("k3", "d9", 9)), (None, row("k9", "d9", True))), RESPONSE),
    "unknown ids in a cluster": (KEY, BAD_RESPONSE),
    "span ambiguity in the key": (key_clash(KEY), RESPONSE),
    "span ambiguity in the response": (KEY, response_clash(RESPONSE)),
    "span ambiguity without the other table": (key_clash(KEY), SHARED_IDS),
    # errors on several sides: the key file, then the response file, then
    # the key's spans, then the response's
    "bad key and bad response": (BAD_KEY, BAD_RESPONSE),
    "bad response and key span ambiguity": (key_clash(KEY), BAD_RESPONSE),
    "span ambiguity on both sides": (key_clash(KEY), response_clash(RESPONSE)),
}


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_run_evaluation_matches_the_object_path(tmp_path, case, policy):
    key_data, response_data = CASES[case]
    key = write_json(tmp_path / "key.json", key_data)
    response = write_json(tmp_path / "response.json", response_data)
    expected = outcome(object_evaluation, key, response, policy)
    assert outcome(run_evaluation, key, response, policy) == expected
    assert outcome(run_evaluation, response, key, policy) == outcome(
        object_evaluation, response, key, policy)


def test_errors_name_the_first_failing_step(tmp_path):
    # pins the order that the parity table compares
    def error(case):
        key_data, response_data = CASES[case]
        key = write_json(tmp_path / "key.json", key_data)
        response = write_json(tmp_path / "response.json", response_data)
        return outcome(run_evaluation, key, response, "included")

    assert error("bad key and bad response") == (
        "SchemaError", f"{tmp_path / 'key.json'}: mentions[1].start_token: expected an integer")
    assert error("bad response and key span ambiguity") == (
        "SchemaError", f"{tmp_path / 'response.json'}: clusters[4]: unknown mentions ['nope']")
    kind, message = error("span ambiguity on both sides")
    assert kind == "InvariantError"
    assert message == ("span identity is ambiguous across clusters: "
                       "mention ('d2', 5, 5) appears in more than one cluster")
    assert error("id in two clusters without table") == (
        "InvariantError",
        f"{tmp_path / 'key.json'}: mention 'alpha' appears in more than one cluster")


def test_unknown_policy_is_raised_after_the_files_are_read(tmp_path):
    key = write_json(tmp_path / "key.json", KEY)
    response = write_json(tmp_path / "response.json", RESPONSE)
    assert outcome(run_evaluation, key, response, "bogus") == outcome(
        object_evaluation, key, response, "bogus")
    bad = write_json(tmp_path / "bad.json", BAD_KEY)
    assert outcome(run_evaluation, bad, response, "bogus")[0] == "SchemaError"


class Salted:
    """A name whose hash depends on a salt, so that set iteration order
    varies with the salt as str order varies with PYTHONHASHSEED."""

    def __init__(self, name, salt):
        self.name, self.salt = name, salt

    def __hash__(self):
        return hash((self.salt, self.name))

    def __eq__(self, other):
        return self.name == other.name

    def __lt__(self, other):
        return self.name < other.name

    def __repr__(self):
        return repr(self.name)


def test_duplicate_message_names_a_fixed_member():
    names = ["alpha", "beta", "gamma", "delta"]
    orders = set()
    for salt in range(40):
        clusters = [[Salted(n, salt) for n in names], [Salted(n, salt) for n in names[::-1]],
                    [Salted("omega", salt)]]
        orders.add(tuple(m.name for m in frozenset(clusters[0])))
        with pytest.raises(InvariantError) as info:
            Partition(clusters)
        assert str(info.value) == "mention 'alpha' appears in more than one cluster"
    assert len(orders) > 1  # the salts did reorder the sets


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_duplicate_message_names_the_smallest_shared_member(order):
    # "a" is smallest overall but in one cluster only; "c" and "q" are shared
    clusters = [["q", "b"], ["a", "c"], ["c", "q", "z"]]
    with pytest.raises(InvariantError, match="^mention 'c' appears in more than one cluster$"):
        Partition([clusters[i] for i in order])
    # an empty cluster is reported first, as before
    with pytest.raises(InvariantError, match="empty cluster"):
        Partition([clusters[i] for i in order] + [[]])


def shuffled(data, rng):
    clusters = [rng.sample(c, len(c)) for c in data["clusters"]]
    out = {"clusters": rng.sample(clusters, len(clusters))}
    if "mentions" in data:
        out["mentions"] = rng.sample(data["mentions"], len(data["mentions"]))
    return out


def generated_pair(rng, n=80):
    """A key and a response, each over 3n/4 of the same n spans, so with
    shared and twinless spans; each has singletons and, in one cluster, a
    second id on one span."""
    spans = [(f"d{i % 4}", i, i + i % 3) for i in range(n)]

    def side(prefix, picked):
        rows, groups = [], {}
        for k, span in enumerate(picked):
            rows.append(row(f"{prefix}{k}", *span))
            groups.setdefault(rng.randrange(len(picked) // 2), []).append(f"{prefix}{k}")
        # a second id on one span, in the same cluster
        first = next(iter(groups.values()))
        rows.append(row(f"{prefix}dup", *picked[int(first[0][1:])]))
        first.append(f"{prefix}dup")
        return {"mentions": rows, "clusters": list(groups.values())}

    return (side("k", rng.sample(spans, n * 3 // 4)), side("r", rng.sample(spans, n * 3 // 4)))


RUNNER = """
import contextlib, io, json, sys
from cdcoref.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


def run_cli(argvs, hash_seed):
    """[exit code, stdout, stderr] of `cdcoref` for each argv, in one
    interpreter started with PYTHONHASHSEED=hash_seed."""
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, json.dumps(argvs)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONHASHSEED": str(hash_seed),
             "PYTHONPATH": os.pathsep.join(p for p in path if p)},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_evaluate_output_depends_on_neither_hash_seed_nor_input_order(tmp_path):
    rng = random.Random(11)
    key, response = generated_pair(rng)
    files = {}
    for variant in ("plain", "shuffled"):
        for name, data in (("key", key), ("response", response)):
            data = shuffled(data, rng) if variant == "shuffled" else data
            files[variant, name] = write_json(tmp_path / f"{variant}_{name}.json", data)
            # the same clusters over raw ids that name the spans, so the
            # two files share ids
            span_id = {r["mention_id"]: "{doc_id}/{start_token}/{end_token}".format(**r)
                       for r in data["mentions"]}
            ids = {"clusters": [[span_id[m] for m in c] for c in data["clusters"]]}
            files[variant, name + "_ids"] = write_json(tmp_path / f"{variant}_{name}_ids.json", ids)
    evaluations = [
        (variant, (key_file, response_file), flag)
        for variant in ("plain", "shuffled")
        for key_file, response_file in (("key", "response"), ("key_ids", "response_ids"))
        for flag in ("include", "omit")
    ]
    argvs = [["evaluate", "--key", files[v, k], "--response", files[v, r], "--singletons", f,
              "--json"] for v, (k, r), f in evaluations]
    duplicate = write_json(tmp_path / "duplicate.json", {
        "clusters": [["alpha", "beta", "gamma", "delta"], ["delta", "gamma", "beta", "alpha"]]})
    ambiguous = write_json(tmp_path / "ambiguous.json", key_clash(KEY))
    argvs += [["evaluate", "--key", duplicate, "--response", files["plain", "response_ids"]],
              ["evaluate", "--key", ambiguous, "--response", files["plain", "response"]]]

    runs = run_cli(argvs, 0)
    assert run_cli(argvs, 1) == runs
    reports = runs[:len(evaluations)]
    assert all(code == 0 and not err for code, _, err in reports)
    half = len(evaluations) // 2
    assert [out for _, out, _ in reports[:half]] == [out for _, out, _ in reports[half:]]
    assert reports[0][1] != reports[1][1]  # the two policies do score differently
    assert runs[-2] == [2, "", f"error: {duplicate}: mention 'alpha' appears in more than "
                               "one cluster\n"]
    assert runs[-1][:2] == [2, ""] and "ambiguous" in runs[-1][2]
