"""`cdcoref evaluate`'s coded path against the object path on valid files.

Hypothesis draws valid key and response files: mention tables on both
sides, on one side or on neither; ids repeated and spans shared inside a
cluster; twinless rows and rows in no cluster; negative, zero and large
offsets inside int64; many documents, with ids that sort apart from their
spans. Every such pair must take the coded path, build the very overlap
table that the object path builds, and print the same report bytes, under
both singleton policies and in both file orders.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcoref import load_partition_file, partition_on_spans, run_evaluation
from cdcoref.corpus import _partition_columns, read_json
from cdcoref.harness import _coded_table
from cdcoref.metrics import _Overlap
from conftest import write_json
from test_partition_files import POLICIES, object_evaluation

OFFSETS = st.integers(-3, 3) | st.sampled_from([-2**63, -2**62, 2**62, 2**63 - 1])
NAMES = st.text(alphabet="ab\x00é9", min_size=1, max_size=3)
# optional fields, valid ones only, and a field that no reader knows
EXTRAS = st.fixed_dictionaries({}, optional={
    "head_lemma": st.text(max_size=2), "score": st.floats(), "comment": st.integers()})


@st.composite
def side(draw, spans, names, has_table):
    """One file over `spans`: span i gets the ids names[2i] (and, listed as
    a second id on the same span, names[2i + 1]), in cluster 0-3 or in
    none; a mention table holds the rows of clustered spans and of some
    others."""
    rows, clusters = [], {}
    for i, (doc, start, end) in enumerate(spans):
        group = draw(st.integers(-1, 3))
        ids = names[2 * i:2 * i + draw(st.integers(1, 2))]
        if has_table and (group >= 0 or draw(st.booleans())):
            rows += [{"mention_id": m, "doc_id": doc, "start_token": start, "end_token": end,
                      "type": "event", **draw(EXTRAS)} for m in ids]
        if group >= 0:
            clusters.setdefault(group, []).extend(ids + draw(st.lists(st.sampled_from(ids),
                                                                      max_size=1)))
    data = {"clusters": draw(st.permutations([draw(st.permutations(c))
                                              for c in clusters.values()]))}
    if has_table:
        data["mentions"] = draw(st.permutations(rows))
    return data


@st.composite
def valid_pair(draw):
    n = draw(st.integers(0, 10))
    docs = draw(st.lists(NAMES, min_size=1, max_size=12, unique=True))
    spans = draw(st.lists(st.tuples(st.sampled_from(docs), OFFSETS, OFFSETS),
                          min_size=n, max_size=n, unique=True))
    tables = draw(st.sampled_from(["both", "key", "response", "neither"]))
    names = draw(st.lists(NAMES, min_size=2 * n, max_size=2 * n, unique=True))
    # with both tables, matching is on spans alone, so the ids may differ
    other = draw(st.lists(NAMES, min_size=2 * n, max_size=2 * n, unique=True)) \
        if tables == "both" else names
    return (draw(side(spans, names, tables in ("both", "key"))),
            draw(side(spans, other, tables in ("both", "response"))))


def object_table(key_path, response_path, policy):
    """The overlap table that `evaluate` builds on the object path."""
    key, key_mentions = load_partition_file(key_path)
    response, response_mentions = load_partition_file(response_path)
    if key_mentions is not None and response_mentions is not None:
        key = partition_on_spans(key, key_mentions)
        response = partition_on_spans(response, response_mentions)
    least = 2 if policy == "omitted" else 1
    return _Overlap.of_clusters([c for c in key if len(c) >= least],
                                [c for c in response if len(c) >= least])


@settings(max_examples=250, deadline=None)
@given(valid_pair())
def test_coded_path_matches_the_object_path_on_valid_files(tmp_path_factory, pair):
    directory = tmp_path_factory.mktemp("coded")
    paths = [write_json(directory / f"{name}.json", data)
             for name, data in zip(("key", "response"), pair)]
    for key, response in (paths, paths[::-1]):
        for policy in POLICIES:
            table = _coded_table(read_json(key, _partition_columns),
                                 read_json(response, _partition_columns), policy == "omitted")
            assert table is not None
            expected = object_table(key, response, policy)
            for name in _Overlap.__slots__:
                got, want = getattr(table, name), getattr(expected, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), name
            assert run_evaluation(key, response, policy).to_json() == \
                object_evaluation(key, response, policy).to_json()
