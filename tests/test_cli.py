import json

import pytest

from idstab.cli import main
from idstab.codec import decode_graph6
from idstab.families import book, complete_bipartite, path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_graph6(self, capsys):
        code, out, _ = run(capsys, "gen", "path:7")
        assert code == 0
        assert decode_graph6(out.strip()) == path(7)

    def test_edgelist(self, capsys):
        code, out, _ = run(capsys, "gen", "kbip:2,2", "--format", "edgelist")
        assert code == 0
        assert out == "4 4\n0 2\n0 3\n1 2\n1 3\n"

    def test_bad_spec_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "cycle:2")
        assert code == 2 and "error" in err


class TestInvariants:
    def test_gamma_i_with_witness(self, capsys, tmp_path):
        f = tmp_path / "g.g6"
        f.write_text("FhCGG\n")  # P7
        code, out, _ = run(capsys, "gamma-i", "--in", str(f), "--witness")
        assert code == 0
        assert out == "3\t0,2,5\n"

    def test_multiple_graphs_one_line_each(self, capsys, tmp_path):
        from idstab.codec import encode_graph6
        from idstab.families import complete, cycle

        f = tmp_path / "many.g6"
        f.write_text(encode_graph6(cycle(5)) + "\n" + encode_graph6(complete(4)) + "\n")
        code, out, _ = run(capsys, "alpha", "--in", str(f))
        assert code == 0
        assert out == "2\n1\n"

    def test_edgelist_input(self, capsys, tmp_path):
        f = tmp_path / "g.el"
        f.write_text("3 2\n0 1\n1 2\n")
        code, out, _ = run(capsys, "gamma", "--in", str(f), "--format", "edgelist")
        assert code == 0 and out == "1\n"

    def test_gamma_of_null_graph_is_input_error(self, capsys, tmp_path):
        f = tmp_path / "null.g6"
        f.write_text("?\n")
        code, _, err = run(capsys, "gamma", "--in", str(f))
        assert code == 2 and "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "gamma-i", "--in", "/nonexistent.g6")
        assert code == 2


class TestStability:
    def test_value(self, capsys, tmp_path):
        from idstab.codec import encode_graph6

        f = tmp_path / "g.g6"
        f.write_text(encode_graph6(complete_bipartite(3, 2)) + "\n")
        code, out, _ = run(capsys, "stability", "--in", str(f))
        assert code == 0 and out == "1\n"

    def test_undefined_direction_up(self, capsys, tmp_path):
        from idstab.codec import encode_graph6
        from idstab.families import complete

        f = tmp_path / "k3.g6"
        f.write_text(encode_graph6(complete(3)) + "\n")
        code, out, _ = run(capsys, "stability", "--in", str(f), "--direction", "up", "--witness")
        assert code == 0 and out == "undefined\t-\t-\n"

    def test_witness_columns(self, capsys, tmp_path):
        from idstab.codec import encode_graph6

        f = tmp_path / "b4.g6"
        f.write_text(encode_graph6(book(4)) + "\n")
        code, out, _ = run(capsys, "stability", "--in", str(f), "--witness")
        assert code == 0 and out == "2\t2,3\t4->3\n"


class TestOp:
    def test_lex_of_specs(self, capsys):
        code, out, _ = run(capsys, "op", "lex", "kbip:1,1", "kbip:1,1")
        assert code == 0
        g = decode_graph6(out.strip())
        assert g.order == 4 and g.edge_count == 6  # K4

    def test_complement_unary(self, capsys):
        code, out, _ = run(capsys, "op", "complement", "complete:4")
        assert code == 0
        assert decode_graph6(out.strip()).edge_count == 0

    def test_complement_refuses_second_operand(self, capsys):
        code, _, err = run(capsys, "op", "complement", "path:3", "path:3")
        assert code == 2

    def test_binary_needs_two(self, capsys):
        code, _, err = run(capsys, "op", "join", "path:3")
        assert code == 2

    def test_file_operand(self, capsys, tmp_path):
        from idstab.codec import encode_graph6

        f = tmp_path / "p2.g6"
        f.write_text(encode_graph6(path(2)) + "\n")
        code, out, _ = run(capsys, "op", "union", str(f), "path:3")
        assert code == 0
        assert decode_graph6(out.strip()).order == 5

    def test_edgelist_operand_is_sniffed(self, capsys, tmp_path):
        f = tmp_path / "p2.el"
        f.write_text("2 1\n0 1\n")
        code, out, _ = run(capsys, "op", "join", str(f), "path:2")
        assert code == 0
        assert decode_graph6(out.strip()).edge_count == 6  # K4

    @pytest.mark.parametrize("content", ["", "\n  \n", "A_\nBw\n"])
    def test_operand_must_hold_one_graph(self, capsys, tmp_path, content):
        f = tmp_path / "operand.g6"
        f.write_text(content)
        code, _, err = run(capsys, "op", "join", str(f), "path:2")
        assert code == 2 and "error" in err


class TestTable:
    def test_paths_table(self, capsys):
        code, out, _ = run(capsys, "table", "paths", "--max-n", "8")
        assert code == 0
        assert out.splitlines()[0] == "n\tst_id"
        rows = dict(line.split("\t") for line in out.splitlines()[1:])
        assert rows == {"2": "2", "3": "1", "4": "1", "5": "2", "6": "1", "7": "1", "8": "2"}

    def test_cycles_table_starts_at_3(self, capsys):
        code, out, _ = run(capsys, "table", "cycles", "--max-n", "5")
        assert code == 0
        assert out == "n\tst_id\n3\t3\n4\t1\n5\t2\n"

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run(capsys, "table", "paths", "--max-n", "12")
        _, out2, _ = run(capsys, "table", "paths", "--max-n", "12")
        assert out1 == out2

    @pytest.mark.parametrize(
        "family,max_n", [("paths", "-3"), ("paths", "1"), ("cycles", "2"), ("cycles", "0")]
    )
    def test_max_n_below_first_order_is_usage_error(self, capsys, family, max_n):
        code, out, err = run(capsys, "table", family, "--max-n", max_n)
        assert code == 2 and out == ""
        assert f"--max-n {max_n}" in err

    def test_max_n_at_first_order(self, capsys):
        assert run(capsys, "table", "paths", "--max-n", "2")[1] == "n\tst_id\n2\t2\n"
        assert run(capsys, "table", "cycles", "--max-n", "3")[1] == "n\tst_id\n3\t3\n"


class TestAudit:
    def test_violations_exit_1_and_report(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "audit",
            "--claims",
            "C18",
            "--exhaustive-n",
            "2",
            "--pairs",
            "--report",
            str(report),
        )
        assert code == 1
        assert "C18:" in out and "violated=6" in out
        doc = json.loads(report.read_text())
        assert doc["schema_version"] == 1
        assert doc["claims"][0]["counts"]["violated"] == 6

    def test_clean_audit_exits_0(self, capsys):
        code, out, _ = run(capsys, "audit", "--claims", "C3,C4", "--family-max", "10")
        assert code == 0 and "violations: 0" in out

    def test_all_claims_filtered_by_corpus_kind(self, capsys):
        code, out, _ = run(capsys, "audit", "--claims", "all", "--exhaustive-n", "3")
        assert code in (0, 1)
        assert "C2:" in out and "C17:" not in out

    def test_unknown_claim_is_usage_error(self, capsys):
        code, _, err = run(capsys, "audit", "--claims", "C99", "--exhaustive-n", "3")
        assert code == 2

    def test_pairs_with_family_rejected(self, capsys):
        code, _, err = run(capsys, "audit", "--claims", "C23", "--family-max", "4", "--pairs")
        assert code == 2

    @pytest.mark.parametrize("value", ["0", "-2", "8"])
    def test_bad_exhaustive_order_names_range(self, capsys, value):
        code, _, err = run(capsys, "audit", "--claims", "C26", "--exhaustive-n", value)
        assert code == 2
        assert f"1 <= n_max <= 7, got {value}" in err

    def test_kind_mismatch_is_usage_error(self, capsys):
        code, _, err = run(capsys, "audit", "--claims", "C17", "--exhaustive-n", "3")
        assert code == 2

    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_bad_thread_count_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("IDSTAB_THREADS", value)
        code, _, err = run(capsys, "audit", "--claims", "C26", "--exhaustive-n", "2")
        assert code == 2 and "IDSTAB_THREADS" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["table", "paths"])  # --max-n missing
    assert err.value.code == 2
