"""CoNLL bracket-format writer and reader."""

import pytest

from cdcoref import (
    InvariantError,
    Mention,
    Partition,
    SchemaError,
    export_conll,
    import_partition_conll,
    read_conll_spans,
    write_partition_conll,
)
from conftest import LINK_SYSTEM_CLUSTERS


def _round_trip(tmp_path, mentions, partition, documents=None, units=None):
    path = tmp_path / "part.conll"
    write_partition_conll(path, mentions, partition, documents, units)
    return path, import_partition_conll(path, mentions)


class TestWriter:
    def test_single_token_marks(self, tmp_path, example_corpus):
        path = tmp_path / "gold.conll"
        write_partition_conll(
            path,
            example_corpus.gold_mentions,
            example_corpus.gold_partition,
            example_corpus.documents,
        )
        text = path.read_text()
        assert text.startswith("#begin document (corpus); part 000\n")
        assert text.rstrip().endswith("#end document")
        # token text comes from the documents, width-1 spans use (id)
        assert "d1 0 1 board (" in text
        # blank separator line between the two documents of the unit
        assert "\n\nd2 0 0 firing" in text

    def test_multi_token_span_brackets(self, tmp_path):
        mentions = [
            Mention("long", "d", 1, 3, "event"),
            Mention("short", "d", 5, 5, "event"),
        ]
        part = Partition([["long", "short"]])
        path = tmp_path / "p.conll"
        write_partition_conll(path, mentions, part)
        rows = [l.split() for l in path.read_text().splitlines() if l and not l.startswith("#")]
        coref = {int(r[2]): r[4] for r in rows}
        assert coref[1] == "(0"
        assert coref[2] == "-"
        assert coref[3] == "0)"
        assert coref[5] == "(0)"

    def test_nested_spans_order_inner_inside_outer(self, tmp_path):
        # cluster ids follow sorted member lists: "a" (outer) gets 0
        mentions = [
            Mention("a", "d", 0, 2, "event"),
            Mention("b", "d", 0, 1, "event"),
        ]
        part = Partition([["a"], ["b"]])
        path = tmp_path / "p.conll"
        write_partition_conll(path, mentions, part)
        rows = [l.split() for l in path.read_text().splitlines() if l and not l.startswith("#")]
        coref = {int(r[2]): r[4] for r in rows}
        # the longer span opens first and closes last
        assert coref[0] == "(0(1"
        assert coref[1] == "1)"
        assert coref[2] == "0)"
        assert import_partition_conll(path, mentions) == part

    def test_unknown_partition_member_rejected(self, tmp_path):
        with pytest.raises(SchemaError, match="unknown mentions"):
            write_partition_conll(tmp_path / "p.conll", [], Partition([["m"]]))

    def test_duplicate_span_in_cluster_unrepresentable(self, tmp_path):
        mentions = [
            Mention("m1", "d", 0, 1, "event"),
            Mention("m2", "d", 0, 1, "entity"),
        ]
        with pytest.raises(InvariantError, match="bracket notation"):
            write_partition_conll(tmp_path / "p.conll", mentions, Partition([["m1", "m2"]]))

    def test_crossing_spans_in_cluster_unrepresentable(self, tmp_path):
        mentions = [
            Mention("m1", "d", 0, 2, "event"),
            Mention("m2", "d", 1, 3, "event"),
        ]
        with pytest.raises(InvariantError, match="bracket notation"):
            write_partition_conll(tmp_path / "p.conll", mentions, Partition([["m1", "m2"]]))

    def test_crossing_spans_fine_in_different_clusters(self, tmp_path):
        mentions = [
            Mention("m1", "d", 0, 2, "event"),
            Mention("m2", "d", 1, 3, "event"),
        ]
        part = Partition([["m1"], ["m2"]])
        _, again = _round_trip(tmp_path, mentions, part)
        assert again == part


class TestRoundTrip:
    def test_gold_partition(self, tmp_path, example_corpus):
        _, again = _round_trip(
            tmp_path,
            example_corpus.gold_mentions,
            example_corpus.gold_partition,
            example_corpus.documents,
        )
        assert again == example_corpus.gold_partition

    def test_cluster_crossing_units_keeps_identity(self, tmp_path, example_corpus):
        # one block per document; gold cluster {F, G} spans both blocks
        units = {"t1a": ["d1"], "t1b": ["d2"]}
        path, again = _round_trip(
            tmp_path,
            example_corpus.gold_mentions,
            example_corpus.gold_partition,
            example_corpus.documents,
            units,
        )
        assert again == example_corpus.gold_partition
        text = path.read_text()
        assert "#begin document (t1a); part 000" in text
        assert "#begin document (t1b); part 000" in text

    def test_without_mention_table_synthesizes_span_ids(self, tmp_path):
        mentions = [
            Mention("x", "docA", 2, 4, "event"),
            Mention("y", "docA", 6, 6, "event"),
        ]
        part = Partition([["x", "y"]])
        path = tmp_path / "p.conll"
        write_partition_conll(path, mentions, part)
        anon = import_partition_conll(path)
        assert anon == Partition([["docA:2-4", "docA:6-6"]])


class TestExportPair:
    def test_writes_key_and_response_files(self, tmp_path, example_corpus):
        resp = Partition(
            [c for c in LINK_SYSTEM_CLUSTERS if "Z" not in c]
            + [["A"], ["B"], ["C"], ["D"]]
        )
        key_path, resp_path = export_conll(
            example_corpus.gold_mentions,
            example_corpus.gold_partition,
            resp,
            tmp_path / "eval",
            example_corpus.documents,
        )
        assert key_path.endswith(".key.conll")
        assert resp_path.endswith(".response.conll")
        assert import_partition_conll(key_path, example_corpus.gold_mentions) == (
            example_corpus.gold_partition
        )
        assert import_partition_conll(resp_path, example_corpus.gold_mentions) == resp


class TestReader:
    def test_span_list(self, tmp_path):
        path = tmp_path / "p.conll"
        path.write_text(
            "#begin document (u); part 000\n"
            "d 0 0 a (3\n"
            "d 0 1 b (5)\n"
            "d 0 2 c 3)\n"
            "#end document\n"
        )
        assert sorted(read_conll_spans(path)) == [("d", 0, 2, 3), ("d", 1, 1, 5)]

    def test_non_utf8_bytes_are_schema_error(self, tmp_path):
        path = tmp_path / "p.conll"
        path.write_bytes(b"#begin document (u); part 000\nd 0 0 caf\xe9 (3)\n#end document\n")
        with pytest.raises(SchemaError, match=f"^{path}: not UTF-8 text"):
            read_conll_spans(path)
        with pytest.raises(SchemaError, match=f"^{path}: not UTF-8 text"):
            import_partition_conll(path)

    def test_unclosed_span_at_block_end(self, tmp_path):
        path = tmp_path / "p.conll"
        path.write_text(
            "#begin document (u); part 000\n"
            "d 0 0 a (3\n"
            "#end document\n"
        )
        with pytest.raises(SchemaError, match="unclosed"):
            read_conll_spans(path)

    def test_unclosed_span_at_document_change(self, tmp_path):
        path = tmp_path / "p.conll"
        path.write_text(
            "#begin document (u); part 000\n"
            "d1 0 0 a (3\n"
            "d2 0 0 b 3)\n"
            "#end document\n"
        )
        with pytest.raises(SchemaError, match="unclosed"):
            read_conll_spans(path)

    def test_close_without_open(self, tmp_path):
        path = tmp_path / "p.conll"
        path.write_text("#begin document (u); part 000\nd 0 0 a 7)\n#end document\n")
        with pytest.raises(SchemaError, match="matching opening"):
            read_conll_spans(path)

    def test_garbled_coref_column(self, tmp_path):
        path = tmp_path / "p.conll"
        path.write_text("#begin document (u); part 000\nd 0 0 a (x)\n#end document\n")
        with pytest.raises(SchemaError, match="coref column"):
            read_conll_spans(path)

    @pytest.mark.parametrize("mark", ["({})", "({}", "{})"])
    def test_cluster_id_too_long_for_int_is_schema_error(self, tmp_path, mark):
        # int() refuses more than 4300 digits with a bare ValueError
        coref = mark.format("9" * 5000)
        path = tmp_path / "p.conll"
        path.write_text(f"#begin document (u); part 000\nd 0 0 a {coref}\n#end document\n")
        with pytest.raises(SchemaError, match=r"p\.conll:2: bad cluster id in '\(?9{5000}\)?'$"):
            read_conll_spans(path)

    def test_short_row(self, tmp_path):
        path = tmp_path / "p.conll"
        path.write_text("#begin document (u); part 000\nd 0 0 -\n#end document\n")
        with pytest.raises(SchemaError, match="columns"):
            read_conll_spans(path)

    def test_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "p.conll"
        path.write_text("#begin document (u); part 000\nd 0 zero a -\n#end document\n")
        with pytest.raises(SchemaError, match=r"p\.conll:2"):
            read_conll_spans(path)

    def test_unknown_span_with_mention_table(self, tmp_path):
        path = tmp_path / "p.conll"
        path.write_text("#begin document (u); part 000\nd 0 0 a (1)\n#end document\n")
        with pytest.raises(SchemaError, match="matches no known mention"):
            import_partition_conll(path, [Mention("m", "d", 5, 5, "event")])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "p.conll"
        path.write_text("")
        assert read_conll_spans(path) == []
