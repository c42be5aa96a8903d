"""Acceptance gate: eight checks, one printed PASS/FAIL line each.

Each check pins its tolerance next to the assertion. The expected numbers in
the worked-example table were derived by hand from the metric definitions;
the randomized checks compare against independent oracle implementations
(exhaustive search, full rescans) from helpers.py.

Check 8 asserts that removing singletons strictly lowers the mention- and
entity-based scores whenever singletons are present. The worked example
itself refutes that as a universal rule: a response that omits all gold
singletons stops being punished for them once they leave the key, so its
scores rise. The check is kept faithful to the stated property rather than
weakened to fit, and therefore fails; see the assertion message for the
counterexamples.
"""

import functools
import random
import sys
import time

import pytest

from cdcoref import (
    Mention,
    Partition,
    average_link,
    b_cubed,
    ceaf_e,
    cluster_documents,
    conll_f1,
    evaluate,
    filter_singletons,
    head_lemma_baseline,
    import_partition_conll,
    lea,
    load_corpus,
    load_partition_file,
    muc,
    optimal_alignment,
    save_corpus,
    save_partition_file,
    tfidf_vectors,
    write_partition_conll,
)
from conftest import (
    ACCEPTANCE_VERDICTS,
    GOLD_CLUSTERS,
    LINK_SYSTEM_CLUSTERS,
    SPAN_SYSTEM_CLUSTERS,
    link_system_data,
    span_system_data,
    write_json,
)
from helpers import (
    brute_force_average_link,
    dyadic_score_table,
    exhaustive_alignment_total,
    lemma_score_table,
    mention_clusters,
    random_partition_pair,
    random_same_universe_pair,
    score_lookup,
    score_matrix,
)


def _announce(ok: bool, label: str) -> None:
    line = ("PASS " if ok else "FAIL ") + label
    # recorded for the end-of-run summary; the direct print shows under -s
    ACCEPTANCE_VERDICTS.append(line)
    print(line)


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                _announce(False, label)
                raise
            _announce(True, label)

        return run

    return wrap


GOLD = Partition(GOLD_CLUSTERS)
SPAN_SYSTEM = Partition(SPAN_SYSTEM_CLUSTERS)
LINK_SYSTEM = Partition(LINK_SYSTEM_CLUSTERS)

# Hand-derived one-decimal scores for the two worked-example systems.
# Layout: metric -> (recall, precision, f1); conll -> f1.
GOLDEN_TABLE = {
    ("span_system", "included"): {
        "muc": (100.0, 60.0, 75.0),
        "b_cubed": (100.0, 63.3, 77.6),
        "ceaf_e": (66.7, 93.3, 77.8),
        "lea": (90.0, 56.0, 69.0),
        "conll": 76.8,
    },
    ("span_system", "omitted"): {
        "muc": (100.0, 60.0, 75.0),
        "b_cubed": (100.0, 36.1, 53.1),
        "ceaf_e": (33.3, 66.7, 44.4),
        "lea": (100.0, 26.7, 42.1),
        "conll": 57.5,
    },
    ("link_system", "included"): {
        "muc": (100.0, 75.0, 85.7),
        "b_cubed": (60.0, 66.7, 63.2),
        "ceaf_e": (25.7, 60.0, 36.0),
        "lea": (50.0, 57.1, 53.3),
        "conll": 61.6,
    },
    ("link_system", "omitted"): {
        "muc": (100.0, 75.0, 85.7),
        "b_cubed": (100.0, 72.2, 83.9),
        "ceaf_e": (90.0, 90.0, 90.0),
        "lea": (100.0, 66.7, 80.0),
        "conll": 86.5,
    },
}

SYSTEMS = {"span_system": SPAN_SYSTEM, "link_system": LINK_SYSTEM}


@criterion("criterion 1: worked-example score table reproduces to one decimal in <1s")
def test_criterion_1_worked_example_scores():
    start = time.perf_counter()
    reports = {
        (name, policy): evaluate(GOLD, system, policy)
        for name, system in SYSTEMS.items()
        for policy in ("included", "omitted")
    }
    elapsed = time.perf_counter() - start

    for key, expected in GOLDEN_TABLE.items():
        report = reports[key]
        got = {
            "muc": report.muc,
            "b_cubed": report.b_cubed,
            "ceaf_e": report.ceaf_e,
            "lea": report.lea,
        }
        for metric, (r, p, f) in (
            (m, v) for m, v in expected.items() if m != "conll"
        ):
            for shown, want in zip(
                (got[metric].recall, got[metric].precision, got[metric].f1), (r, p, f)
            ):
                # match at display precision: one decimal, tolerance 5e-2
                assert abs(round(shown, 1) - want) < 5e-2, (
                    f"{key} {metric}: got {shown:.4f}, expected {want}"
                )
        assert abs(round(report.conll_f1, 1) - expected["conll"]) < 5e-2, (
            f"{key} conll: got {report.conll_f1:.4f}, expected {expected['conll']}"
        )
    assert elapsed < 1.0, f"scoring took {elapsed:.3f}s"


@criterion("criterion 2: metric invariants hold on 1500 randomized partition pairs")
def test_criterion_2_randomized_metric_invariants():
    rng = random.Random(104729)
    tol = 1e-9

    for _ in range(1200):
        key, resp = random_partition_pair(rng)
        reports = {}
        for a, b, side in ((key, resp, "fwd"), (resp, key, "rev")):
            m, b3, ce, le = muc(a, b), b_cubed(a, b), ceaf_e(a, b), lea(a, b)
            reports[side] = (m, b3, ce, le)
            for prf in (m, b3, ce, le):
                for v in (prf.recall, prf.precision, prf.f1):
                    assert 0.0 - tol <= v <= 100.0 + tol
        # swapping key and response swaps recall and precision
        for fwd, rev in zip(reports["fwd"], reports["rev"]):
            assert abs(fwd.recall - rev.precision) < tol
            assert abs(fwd.precision - rev.recall) < tol
            assert abs(fwd.f1 - rev.f1) < tol
        # link scores ignore singleton clusters on either side
        assert muc(key, resp) == muc(filter_singletons(key), resp)
        assert muc(key, resp) == muc(key, filter_singletons(resp))
        # the summary score is the unweighted mean of the three F1 scores
        report = evaluate(key, resp)
        want = conll_f1(report.muc.f1, report.b_cubed.f1, report.ceaf_e.f1)
        assert abs(report.conll_f1 - want) < tol
        assert abs(
            want - (report.muc.f1 + report.b_cubed.f1 + report.ceaf_e.f1) / 3.0
        ) < tol

    for _ in range(300):
        key, _ = random_same_universe_pair(rng)
        # a partition scored against itself is perfect
        self_report = evaluate(key, key)
        if any(len(c) > 1 for c in key):
            assert abs(self_report.muc.f1 - 100.0) < tol
        assert abs(self_report.b_cubed.f1 - 100.0) < tol
        assert abs(self_report.ceaf_e.f1 - 100.0) < tol
        assert abs(self_report.lea.f1 - 100.0) < tol
        # an all-singleton response is pure but recovers no links
        singletons = Partition([m] for m in key.mentions())
        included = evaluate(key, singletons)
        assert abs(included.b_cubed.precision - 100.0) < tol
        assert included.muc == muc(key, filter_singletons(singletons))
        assert included.muc.f1 == 0.0
        omitted = evaluate(key, singletons, singleton_policy="omitted")
        for prf in (omitted.muc, omitted.b_cubed, omitted.ceaf_e, omitted.lea):
            assert prf.f1 == 0.0


@criterion("criterion 3: cluster alignment matches exhaustive search on 300 instances")
def test_criterion_3_alignment_vs_exhaustive_search():
    rng = random.Random(1299709)
    tol = 1e-9

    for _ in range(150):
        rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
        matrix = [[rng.random() for _ in range(cols)] for _ in range(rows)]
        pairs = optimal_alignment(matrix)
        total = sum(matrix[i][j] for i, j in pairs)
        assert len(pairs) == min(rows, cols)
        assert len({i for i, _ in pairs}) == len(pairs)
        assert len({j for _, j in pairs}) == len(pairs)
        assert abs(total - exhaustive_alignment_total(matrix)) < tol

    for _ in range(150):
        key, resp = random_same_universe_pair(rng, max_mentions=7)
        report = ceaf_e(key, resp)
        if not key.clusters or not resp.clusters:
            assert report.recall == report.precision == report.f1 == 0.0
            continue
        # rebuild the similarity matrix and search it exhaustively
        sim = [
            [2.0 * len(k & r) / (len(k) + len(r)) for r in resp.clusters]
            for k in key.clusters
        ]
        best = exhaustive_alignment_total(sim)
        assert abs(report.recall - 100.0 * best / len(key.clusters)) < tol
        assert abs(report.precision - 100.0 * best / len(resp.clusters)) < tol


@criterion("criterion 4: clustering trace matches full-rescan oracle on 500 score tables")
def test_criterion_4_clustering_vs_rescan_oracle():
    rng = random.Random(15485863)

    for _ in range(500):
        n = rng.randrange(1, 7)
        ids = [f"m{i}" for i in range(n)]
        scores = dyadic_score_table(rng, ids)
        threshold = rng.randrange(-16, 25) / 16
        got_clusters, got_merges = average_link(ids, score_matrix(scores, sorted(ids)), threshold)
        want_clusters, want_merges = brute_force_average_link(
            ids, score_lookup(scores), threshold
        )
        assert got_clusters == want_clusters
        assert len(got_merges) == len(want_merges)
        for got, (a, b, avg) in zip(got_merges, want_merges):
            assert {got.left, got.right} == {a, b}
            # dyadic scores keep both routes bit-exact; compare with == on purpose
            assert got.score == avg
        # raising the threshold only refines the clustering
        higher, _ = average_link(ids, score_matrix(scores, sorted(ids)), threshold + 0.5)
        for cluster in higher:
            assert any(cluster <= coarse for coarse in got_clusters)


@criterion("criterion 5: lemma-score clustering equals head-lemma baseline on 200 draws")
def test_criterion_5_lemma_clustering_equals_baseline():
    rng = random.Random(32452843)
    lemmas = ["strike", "Strike", "offer", "quit", "blaze"]

    for _ in range(200):
        n = rng.randrange(1, 11)
        mentions = [
            Mention(f"m{i}", f"doc{rng.randrange(3)}", i, i, "event",
                    head_lemma=rng.choice(lemmas))
            for i in range(n)
        ]
        ids = sorted(m.mention_id for m in mentions)
        scores = score_matrix(lemma_score_table(mentions), ids)
        clustered = mention_clusters(mentions, scores, 0.5)[0]
        assert clustered == head_lemma_baseline(mentions)


@criterion("criterion 6: topic clustering recovers two vocabulary-disjoint topics")
def test_criterion_6_topic_segmentation(topic_corpus):
    docs = [topic_corpus.documents[d] for d in sorted(topic_corpus.documents)]
    clusters = cluster_documents(tfidf_vectors(docs), 0.1)
    gold_topics = {
        frozenset(d.doc_id for d in docs if d.topic_id == topic)
        for topic in ("TA", "TB")
    }
    assert set(clusters) == gold_topics
    assert len(clusters) == 2


@criterion("criterion 7: corpus JSON and bracket-format round trips are lossless")
def test_criterion_7_round_trips(
    tmp_path, example_corpus, toy_corpus, topic_corpus
):
    for i, corpus in enumerate((example_corpus, toy_corpus, topic_corpus)):
        out = tmp_path / f"corpus{i}.json"
        save_corpus(corpus, out)
        again = load_corpus(out)
        assert again.documents == corpus.documents
        assert again.gold_mentions == corpus.gold_mentions
        assert again.gold_partition == corpus.gold_partition
        assert again.split == corpus.split

    # partition files, with and without mention tables
    for j, data in enumerate(
        (span_system_data(True), link_system_data(True), span_system_data(False))
    ):
        path = write_json(tmp_path / f"part{j}.json", data)
        partition, mentions = load_partition_file(path)
        back = tmp_path / f"part{j}_back.json"
        save_partition_file(back, partition, mentions)
        partition2, mentions2 = load_partition_file(back)
        assert partition2 == partition
        assert mentions2 == mentions

    # bracket format, one block per subtopic so a cluster crosses blocks
    units = {"t1a": ["d1"], "t1b": ["d2"]}
    for k, partition in enumerate((example_corpus.gold_partition, SPAN_SYSTEM)):
        path = tmp_path / f"conll{k}.conll"
        write_partition_conll(
            path, example_corpus.gold_mentions, partition,
            example_corpus.documents, units,
        )
        assert import_partition_conll(path, example_corpus.gold_mentions) == partition


@criterion(
    "criterion 8: omitting singletons strictly lowers mention/entity scores "
    "while link scores hold (refuted by the worked example; kept faithful)"
)
def test_criterion_8_singleton_omission_strictly_lowers_scores():
    # claimed: whenever singletons are present on either side, scoring without
    # them strictly lowers B3 and CEAFe F1 and leaves MUC F1 unchanged
    cases = [
        ("span_system", GOLD, SPAN_SYSTEM),
        ("link_system", GOLD, LINK_SYSTEM),
        (
            "minimal pair",
            Partition([["a"], ["b"], ["c", "d"]]),
            Partition([["a"], ["b", "c", "d"]]),
        ),
    ]
    tol = 1e-9
    violations = []
    for name, key, resp in cases:
        has_singletons = any(len(c) == 1 for c in key) or any(
            len(c) == 1 for c in resp
        )
        assert has_singletons
        included = evaluate(key, resp, "included")
        omitted = evaluate(key, resp, "omitted")
        assert abs(included.muc.f1 - omitted.muc.f1) < tol
        for metric in ("b_cubed", "ceaf_e"):
            with_s = getattr(included, metric).f1
            without = getattr(omitted, metric).f1
            if not without < with_s:
                violations.append(
                    f"{name}: {metric} F1 {with_s:.1f} -> {without:.1f} "
                    "did not drop when singletons were omitted"
                )

    rng = random.Random(49979687)
    for _ in range(300):
        key, resp = random_partition_pair(rng)
        assert muc(key, resp) == muc(
            filter_singletons(key), filter_singletons(resp)
        )

    assert not violations, (
        "a response that omits gold singletons is punished for them only while "
        "they stay in the key, so its scores rise without them: "
        + "; ".join(violations)
    )


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
