import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import idstab
from idstab.cli import main
from idstab.codec import decode_graph6
from idstab.families import book, complete_bipartite, path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_module(*argv):
    """``python -m idstab *argv`` in a process of its own."""
    src = str(Path(idstab.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run(
        [sys.executable, "-m", "idstab", *argv], env=env, capture_output=True, text=True, timeout=60
    )


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

    def test_python_dash_m(self):
        done = run_module("gen", "path:3")
        assert (done.returncode, done.stdout, done.stderr) == (0, "Bg\n", "")


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

    def test_value_alone_builds_no_witness(self, capsys, monkeypatch, tmp_path):
        def no_witness(*args):
            raise AssertionError("the witness pass ran")

        monkeypatch.setattr(idstab.solver, "_lexmin_cover", no_witness)
        f = tmp_path / "g.g6"
        f.write_text("FhCGG\n?\n")  # P7 and the null graph
        code, out, _ = run(capsys, "gamma-i", "--in", str(f))
        assert (code, out) == (0, "3\n0\n")
        f.write_text("?\n")
        for invariant, what in (("gamma", "domination"), ("alpha", "independence")):
            code, out, err = run(capsys, invariant, "--in", str(f))
            assert (code, out) == (2, "")
            assert err == f"error: {what} number of the null graph is undefined\n"

    @pytest.mark.parametrize("argv", [[], ["--in", "-"]])
    def test_stdin_skips_blank_lines_and_header(self, capsys, monkeypatch, argv):
        monkeypatch.setattr("sys.stdin", io.StringIO("\n>>graph6<<FhCGG\n\n"))  # P7
        code, out, _ = run(capsys, "gamma-i", *argv, "--witness")
        assert code == 0 and out == "3\t0,2,5\n"


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

    def test_stdin(self, capsys, monkeypatch):
        from idstab.codec import encode_graph6

        monkeypatch.setattr("sys.stdin", io.StringIO(encode_graph6(book(4)) + "\n"))
        code, out, _ = run(capsys, "stability", "--in", "-", "--witness")
        assert code == 0 and out == "2\t2,3\t4->3\n"

    def test_decrease_witness_golden(self, capsys, tmp_path):
        # friendship F3 (gamma_i = 1), a dense G(15) with st_down = 5, a sparse G(24, 0.2)
        f = tmp_path / "down.g6"
        f.write_text(
            "F{eCG\n"
            "NihwuR\\H~|Cy]SgVsOw\n"
            "W_KOWG@C_?G_@`??OAOA_FHgH_y??_@P?E@??B??m?G@YK_\n"
        )
        code, out, _ = run(capsys, "stability", "--in", str(f), "--direction", "down", "--witness")
        assert code == 0
        assert out == "7\t0,1,2,3,4,5,6\t1->0\n5\t0,3,6,7,8\t2->1\n2\t0,2\t6->5\n"

    @pytest.mark.parametrize(
        "spec,direction,line",
        [
            ("cycle:63", "down", "3\t0,1,2\t21->20"),
            ("cycle:63", "any", "3\t0,1,2\t21->20"),
            ("gfriend:5,12", "down", "2\t2,3\t13->12"),
            ("gfriend:5,12", "any", "1\t0\t13->24"),
            ("book:12", "down", "2\t2,3\t12->11"),
            ("book:12", "any", "2\t2,3\t12->11"),
            ("petersen", "down", "3\t0,1,2\t3->2"),
            ("petersen", "any", "3\t0,1,2\t3->2"),
            ("book:7", "up", "8\t0,3,5,7,9,11,13,15\t7->8"),
            ("kbip:8,7", "up", "7\t8,9,10,11,12,13,14\t7->8"),
            ("petersen", "up", "6\t0,1,3,7,8,9\t3->4"),
            ("cycle:20", "up", "4\t0,2,4,6\t7->8"),
        ],
    )
    def test_family_certificate_golden(self, capsys, monkeypatch, spec, direction, line):
        # idstab gen SPEC | idstab stability --direction D --witness, as CI pins it
        code, text, _ = run(capsys, "gen", spec)
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(capsys, "stability", "--direction", direction, "--witness")
        assert code == 0 and out == line + "\n"


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

    def test_stdin_operand(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("A_\n"))  # P2
        code, out, _ = run(capsys, "op", "join", "-", "path:2")
        assert code == 0
        assert decode_graph6(out.strip()).edge_count == 6  # K4

    @pytest.mark.parametrize("token", ["path:0", "pth:3", "gfriend:2,3"])
    def test_bad_spec_operand_fails_as_a_spec(self, capsys, token):
        _, _, spec_err = run(capsys, "gen", token)
        for argv in ([token, "path:3"], ["path:3", token]):
            code, _, err = run(capsys, "op", "join", *argv)
            assert code == 2 and err == spec_err and "cannot read" not in err

    def test_missing_operand_file_reads_as_unreadable(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.g6")
        for argv in ([missing, "path:3"], ["path:3", missing]):
            code, _, err = run(capsys, "op", "join", *argv)
            assert code == 2 and err.startswith(f"error: cannot read {missing}")
            assert "family" not in err

    def test_bare_family_name_operand(self, capsys):
        code, out, _ = run(capsys, "op", "union", "petersen", "path:2")
        assert code == 0 and decode_graph6(out.strip()).edge_count == 16

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

    @pytest.mark.parametrize("family", ["paths", "cycles"])
    def test_max_n_above_order_cap_is_usage_error(self, capsys, family):
        code, out, err = run(capsys, "table", family, "--max-n", "66")
        assert code == 2 and out == ""
        assert "--max-n 66" in err

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

    def test_failed_oracle_recheck_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(idstab.oracles, "oracle_gamma_i", lambda g: 99)
        code, out, err = run(capsys, "audit", "--claims", "C9", "--exhaustive-n", "2")
        assert code == 3 and out == ""
        assert err.startswith("internal error: C9 violation failed oracle re-verification at @: ")

    def test_unwritable_report_is_usage_error(self, capsys, monkeypatch, tmp_path):
        def audit(*args, **kwargs):
            raise AssertionError("the audit started")

        monkeypatch.setattr(idstab.auditor, "run_audit", audit)  # the path fails first
        report = tmp_path / "missing" / "report.json"
        argv = ["audit", "--claims", "C26", "--exhaustive-n", "2", "--report", str(report)]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write report {report}")

    def test_corpus_file_lines_reach_report_as_given(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text("\n>>graph6<<C^\n\n  Bw  \n\n")  # the diamond, then K3
        report = tmp_path / "report.json"
        argv = ["audit", "--corpus", str(corpus), "--report", str(report)]
        code, out, _ = run(capsys, *argv, "--claims", "C8,C9")
        assert code == 1 and "violated @ >>graph6<<C^:" in out
        doc = json.loads(report.read_text())
        assert doc["stats"]["instances"] == 2
        found = {b["claim"]: [v["instance"] for v in b["violations"]] for b in doc["claims"]}
        assert found == {"C8": [">>graph6<<C^"], "C9": ["Bw"]}

        code, _, _ = run(capsys, *argv, "--claims", "C18", "--pairs")
        assert code == 1
        lines = (">>graph6<<C^", "Bw")
        doc = json.loads(report.read_text())
        found = [v["instance"] for v in doc["claims"][0]["violations"]]
        assert found == [f"{a},{b}" for a in lines for b in lines]  # C18 fails on every pair

    @pytest.mark.parametrize("content", [None, "", "\n  \n"])
    def test_unreadable_or_empty_corpus_is_usage_error(self, capsys, tmp_path, content):
        corpus = tmp_path / "corpus.g6"
        if content is not None:
            corpus.write_text(content)
        code, out, err = run(capsys, "audit", "--claims", "C2", "--corpus", str(corpus))
        assert code == 2 and out == "" and str(corpus) in err

    def test_malformed_corpus_fails_before_auditing(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text("Bw\nB!\n")
        code, out, err = run(capsys, "audit", "--claims", "C2", "--corpus", str(corpus))
        assert code == 2 and out == "" and "graph6" in err

    def test_null_graph_line_audits_to_completion(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text("?\nA_\n")
        argv = ["audit", "--claims", "all", "--corpus", str(corpus)]
        code, out, err = run(capsys, *argv)
        assert code == 1 and err == ""  # C9 fails at 2K_1
        assert "C2: holds=1 violated=0 inapplicable=1" in out
        code, out, err = run(capsys, *argv, "--pairs")
        assert code == 1 and err == ""
        assert "C17: holds=1 violated=0 inapplicable=3" in out

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
        assert code == 2 and "need a graph corpus" in err

    def test_family_max_at_order_cap(self, capsys):
        code, out, _ = run(capsys, "audit", "--claims", "C1", "--family-max", "64")
        assert code == 0 and "violations: 0" in out

    @pytest.mark.parametrize("value", ["0", "65"])
    def test_bad_family_max_names_range(self, capsys, value):
        code, out, err = run(capsys, "audit", "--claims", "C1", "--family-max", value)
        assert code == 2 and out == ""
        assert f"1 <= max_param <= 64, got {value}" in err

    @pytest.mark.parametrize("value", ["0", "-2", "8"])
    def test_bad_exhaustive_order_names_range(self, capsys, value):
        code, _, err = run(capsys, "audit", "--claims", "C26", "--exhaustive-n", value)
        assert code == 2
        assert f"1 <= n_max <= 7, got {value}" in err

    def test_kind_mismatch_is_usage_error(self, capsys):
        code, _, err = run(capsys, "audit", "--claims", "C17", "--exhaustive-n", "3")
        assert code == 2

    def test_worker_count_changes_no_output(self, capsys, tmp_path):
        # the CLI audits with one worker; a two-worker audit gives the same bytes
        report = tmp_path / "report.json"
        argv = ["audit", "--claims", "all", "--exhaustive-n", "5", "--report", str(report)]
        code, _, _ = run(capsys, *argv)
        claims = [c.id for c in idstab.claim_registry() if c.instance_kind == "graph"]
        two = idstab.run_audit(claims, idstab.ExhaustiveCorpus(5), threads=2)
        assert code == 1 and report.read_text() == two.to_json() + "\n"

    def test_audit_runs_in_process(self, capsys, monkeypatch, tmp_path):
        def pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(idstab.auditor, "ProcessPoolExecutor", pool)
        report = tmp_path / "report.json"
        argv = ["audit", "--claims", "all", "--exhaustive-n", "3", "--pairs"]
        code, out, err = run(capsys, *argv, "--report", str(report))
        assert code == 1 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e17e012ee295a1d7cf7e718b9b99849330c8fa38207b0142d05c6eed653df378"
        )
        assert hashlib.sha256(report.read_bytes()).hexdigest() == (
            "d5541954e7805ec964adaaecd39d891ec70a2603d4bc13b4f8cbb0061a0b176e"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["--claims", "C99", "--exhaustive-n", "3"],
            ["--claims", "all", "--exhaustive-n", "8"],
            ["--claims", "C17", "--exhaustive-n", "3"],
            ["--claims", "C17", "--exhaustive-n", "5", "--pairs"],
        ],
        ids=["unknown-claim", "order-cap", "kind-mismatch", "pair-operand-cap"],
    )
    def test_usage_error_keeps_an_earlier_report(self, capsys, tmp_path, argv):
        report = tmp_path / "report.json"
        report.write_text("earlier report\n")
        code, out, _ = run(capsys, "audit", *argv, "--report", str(report))
        assert code == 2 and out == ""
        assert report.read_text() == "earlier report\n"
        report.unlink()  # nor does it leave a file where there was none
        code, out, _ = run(capsys, "audit", *argv, "--report", str(report))
        assert code == 2 and out == ""
        assert not report.exists()

    @pytest.mark.parametrize(
        "mode,digest",
        [
            ("strict", "27134250bbf30543e5e3b0e51b9376432ee3baadceb2ea7361b9fbbf2db0e81f"),
            ("restricted", "2af23bb0344bdf6412c821872fd3c081c922a9e12f97f1f7eca89835928489d0"),
        ],
        ids=["strict", "restricted"],
    )
    def test_pinned_exhaustive_6_report(self, capsys, tmp_path, mode, digest):
        # every labeled graph of order 1..6: the largest pinned report
        report = tmp_path / "report.json"
        argv = ["audit", "--claims", "all", "--exhaustive-n", "6", "--mode", mode]
        code, out, err = run(capsys, *argv, "--report", str(report))
        assert code == 1 and err == ""
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["table", "paths"])  # --max-n missing
    assert err.value.code == 2


class TestUndecodableInput:
    """A file that is not UTF-8 is an input error, as a missing one is: one
    ``error: cannot read`` line and exit code 2, not a traceback and the
    exit code 1 of an audit with violations."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["gamma-i", "--in", "{f}"],
            ["op", "join", "path:2", "{f}"],
            ["audit", "--claims", "C2", "--corpus", "{f}"],
        ],
    )
    def test_file(self, capsys, tmp_path, argv):
        f = tmp_path / "bad.g6"
        f.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, *(arg.format(f=f) for arg in argv))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read {f}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["gamma-i"], ["op", "union", "-", "path:2"]])
    def test_stdin(self, capsys, monkeypatch, argv):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe"), encoding="utf-8", errors="strict")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot read -: ") and err.count("\n") == 1

    def test_corpus_in_a_process(self, tmp_path):
        f = tmp_path / "bad.g6"
        f.write_bytes(b"\xff\xfe")
        done = run_module("audit", "--claims", "all", "--corpus", str(f))
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith(f"error: cannot read {f}: ") and done.stderr.count("\n") == 1
