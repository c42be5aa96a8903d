"""The array-backed ScoreTable against its dict oracle, the per-line JSONL
decode contract, and the memory and bytes of score files."""

import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from cdcoref import SchemaError, ScoreTable, read_score_file, write_score_file
from cdcoref.clustering import _PairRows
from cdcoref.corpus import read_jsonl
from helpers import DictScoreTable

INF = float("inf")
IDS = ["a", "b", "c", "d", "e"]
FOREIGN = ["", "z", "aa"]

finite = st.floats(allow_nan=False, allow_infinity=False)
defaults = st.one_of(st.just(-INF), finite)


@st.composite
def pair_rows(draw, bad: bool = False):
    """(m1, m2, score) rows over a few ids, so pairs repeat in both orders;
    with `bad`, self-pairs and non-finite scores too."""
    ids = st.sampled_from(IDS)
    score = st.one_of(finite, st.sampled_from([INF, -INF, math.nan])) if bad else finite
    rows = draw(st.lists(st.tuples(ids, ids, score), max_size=25))
    return rows if bad else [(a, b, s) for a, b, s in rows if a != b]


def from_rows(rows, default=-INF) -> ScoreTable:
    """A table built from (m1, m2, score) rows as `read_score_file` builds
    one, so rows may repeat a pair or be bad in any order."""
    return ScoreTable._from_rows(_PairRows(rows), default)


def raised(build):
    """(type, message) of what `build()` raises, or None."""
    try:
        build()
    except Exception as e:  # noqa: BLE001 - the comparison is the point
        return type(e), str(e)
    return None


class TestAgainstDictOracle:
    @settings(max_examples=200, deadline=None)
    @given(rows=pair_rows(), default=defaults, data=st.data())
    def test_same_lookups_items_and_matrices(self, rows, default, data):
        entries = {(a, b): s for a, b, s in rows}
        for table, oracle in (
            (from_rows(rows, default), DictScoreTable.from_pairs(rows, default)),
            (ScoreTable(entries, default), DictScoreTable(entries, default)),
        ):
            assert len(table) == len(oracle)
            assert list(table.items()) == sorted(oracle.items())
            assert table.default == oracle.default
            ids = data.draw(st.lists(st.sampled_from(IDS + FOREIGN), unique=True, max_size=8))
            for some in (ids, sorted(ids), []):
                position = {x: k for k, x in enumerate(some)}
                want = [
                    (position[a], position[b], s)
                    for (a, b), s in sorted(oracle.items())
                    if a in position and b in position
                ]
                i, j, scores = table.pairs(some)
                assert list(zip(i.tolist(), j.tolist(), scores.tolist())) == want

    @settings(max_examples=200, deadline=None)
    @given(rows=pair_rows(bad=True), default=defaults)
    def test_same_first_error(self, rows, default):
        entries = {(a, b): s for a, b, s in rows}
        assert raised(lambda: from_rows(rows, default)) == raised(
            lambda: DictScoreTable.from_pairs(rows, default)
        )
        assert raised(lambda: ScoreTable(entries, default)) == raised(
            lambda: DictScoreTable(entries, default)
        )

    def test_first_bad_row_raises_and_its_score_before_its_ids(self):
        with pytest.raises(ValueError, match="self-pair"):
            from_rows([("a", "b", 0.5), ("c", "c", 1.0), ("a", "d", INF)])
        with pytest.raises(ValueError, match=r"\('a', 'd'\) must be finite, got inf"):
            from_rows([("a", "b", 0.5), ("a", "d", INF), ("c", "c", 1.0)])
        with pytest.raises(ValueError, match=r"\('c', 'c'\) must be finite, got nan"):
            from_rows([("a", "b", 0.5), ("c", "c", math.nan)])

    def test_later_reversed_duplicate_wins(self):
        table = from_rows([("b", "a", 0.1), ("a", "c", 0.3), ("a", "b", 0.9)])
        assert list(table.items()) == [(("a", "b"), 0.9), (("a", "c"), 0.3)]

    def test_unconvertible_score_raises_like_float(self):
        assert raised(lambda: from_rows([("a", "b", "x")])) == (
            ValueError, "could not convert string to float: 'x'")
        assert list(from_rows([("a", "b", "0.5")]).items()) == [(("a", "b"), 0.5)]


class TestScoreFileErrors:
    @settings(max_examples=100, deadline=None)
    @given(rows=pair_rows(bad=True))
    def test_first_bad_row_as_the_oracle_reports_it(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("scores") / "scores.jsonl"
        # non-finite scores are written as Infinity / NaN, which json reads back
        write_lines(path, [json.dumps({"m1": a, "m2": b, "score": s}) for a, b, s in rows])
        error = raised(lambda: DictScoreTable.from_pairs(rows))
        if error is None:
            assert list(read_score_file(path).items()) == sorted(
                DictScoreTable.from_pairs(rows).items())
        else:
            with pytest.raises(SchemaError) as e:
                read_score_file(path)
            assert str(e.value) == f"{path}: {error[1]}"

    def test_row_errors_come_before_value_errors(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        write_lines(path, ['{"m1": "a", "m2": "a", "score": 1}', '{"m1": "a", "score": 1}'])
        with pytest.raises(SchemaError, match=r"scores.jsonl:2: missing field 'm2'"):
            read_score_file(path)

    def test_score_too_large_for_a_float(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        write_lines(path, ['{"m1": "a", "m2": "b", "score": 1e999}',
                           '{"m1": "a", "m2": "c", "score": %s}' % ("9" * 400)])
        with pytest.raises(SchemaError, match=r"\('a', 'b'\) must be finite, got inf"):
            read_score_file(path)
        write_lines(path, ['{"m1": "a", "m2": "c", "score": %s}' % ("9" * 400),
                           '{"m1": "b", "m2": "b", "score": 1}'])
        with pytest.raises(SchemaError, match="int too large to convert to float"):
            read_score_file(path)


def write_lines(path, lines, end="\n"):
    path.write_bytes("".join(line + end for line in lines).encode("utf-8"))


ROW = '{"m1": "a", "m2": "b", "score": 0.5}'


class TestJsonlDecodeContract:
    """Every line decodes as `json.loads(line)` would, blank lines skipped."""

    @pytest.fixture(params=["read_jsonl", "read_score_file"])
    def read(self, request):
        if request.param == "read_jsonl":
            return lambda path: list(read_jsonl(path))
        return read_score_file

    def test_objects_split_across_lines_are_rejected(self, tmp_path, read):
        # a bulk decode of the joined lines would read three objects here
        path = tmp_path / "rows.jsonl"
        write_lines(path, [ROW + ROW.replace('"b"', '"c"'), '{"m1": "b",',
                           ' "m2": "c", "score": 1}'])
        with pytest.raises(SchemaError, match=r"rows.jsonl:1: invalid JSON: Extra data"):
            read(path)

    def test_form_feed_after_a_row_is_extra_data(self, tmp_path, read):
        path = tmp_path / "rows.jsonl"
        write_lines(path, [ROW, ROW + "\x0c"])
        with pytest.raises(SchemaError, match=r"rows.jsonl:2: invalid JSON: Extra data"):
            read(path)

    def test_crlf_rows_load(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        write_lines(path, [ROW, ROW.replace('"b"', '"c"') + " \t"], end="\r\n")
        assert [n for n, _ in read_jsonl(path)] == [1, 2]
        assert dict(read_score_file(path).items()) == {("a", "b"): 0.5, ("a", "c"): 0.5}

    def test_blank_and_whitespace_only_lines_are_skipped(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        write_lines(path, ["", ROW, "   ", "\t", "\x0c", " ", "  " + ROW])
        assert [n for n, _ in read_jsonl(path)] == [2, 7]
        assert len(read_score_file(path)) == 1

    def test_rows_equal_json_loads(self, tmp_path):
        lines = [ROW, ' {"x": [1, 2.5, "\\u00e9"], "y": null}', '{"n": 1e999, "z": NaN}']
        path = tmp_path / "rows.jsonl"
        write_lines(path, lines)
        rows = [obj for _, obj in read_jsonl(path)]
        assert rows[:2] == [{"m1": "a", "m2": "b", "score": 0.5},
                            {"x": [1, 2.5, "é"], "y": None}]
        assert rows[2]["n"] == INF and math.isnan(rows[2]["z"])


def test_score_file_holds_at_most_64_bytes_per_row(tmp_path):
    ids = [f"m{i}" for i in range(201)]
    rows = [(a, b) for k, a in enumerate(ids) for b in ids[k + 1:]][:20000]
    path = tmp_path / "scores.jsonl"
    write_lines(path, [f'{{"m1": "{a}", "m2": "{b}", "score": {k % 97 / 8}}}'
                       for k, (a, b) in enumerate(rows)])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = read_score_file(path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(table) == 20000
    assert held <= 64 * len(table), f"{held / len(table):.1f} B/row"


def test_coding_rows_peaks_under_30_bytes_per_row():
    # ranking, keying, sorting and de-duplicating the rows holds at most
    # three row-length int64 arrays (24 B/row) and a mask at once; every
    # pair is distinct, so the finished table is as large as it gets
    rng = random.Random(5)
    ids = [f"m{i}" for i in range(450)]
    pairs = [(a, b) if rng.random() < 0.5 else (b, a)
             for k, a in enumerate(ids) for b in ids[k + 1:]]
    rng.shuffle(pairs)
    rows = _PairRows((a, b, k % 97 / 8) for k, (a, b) in enumerate(pairs))
    tracemalloc.start()
    try:
        _, keys, _ = rows.coded()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(keys) == len(pairs) == 101025
    assert peak <= 30 * len(pairs), f"{peak / len(pairs):.1f} B/row"


def test_written_bytes_are_pinned(tmp_path):
    table = from_rows(
        [("m10", "m2", 0.1 + 0.2), ("b", "a", 1), ("a", "b", -0.5), ("é", "a", 1e-300),
         ("m2", "b", -2.75), ("Z", "m10", 123456789.125)],
        default=0.25,
    )
    expected = (
        '{"default": 0.25}\n'
        '{"m1": "Z", "m2": "m10", "score": 123456789.125}\n'
        '{"m1": "a", "m2": "b", "score": -0.5}\n'
        '{"m1": "a", "m2": "\\u00e9", "score": 1e-300}\n'
        '{"m1": "b", "m2": "m2", "score": -2.75}\n'
        '{"m1": "m10", "m2": "m2", "score": 0.30000000000000004}\n'
    )
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    write_score_file(first, table)
    write_score_file(second, read_score_file(first))
    assert first.read_text(encoding="utf-8") == expected
    assert second.read_bytes() == first.read_bytes()
