import json

import pytest

from idstab import auditor, errors
from idstab.auditor import (
    CLAIM_IDS,
    ExhaustiveCorpus,
    FamilyCorpus,
    Graph6Corpus,
    PairCorpus,
    _Toolkit,
    claim_registry,
    enumerate_labeled_graphs,
    evaluate_claim,
    get_claim,
    run_audit,
)
from idstab.codec import encode_graph6
from idstab.families import FamilySpec, complete, cycle, empty, path
from idstab.ops import disjoint_union


class TestRegistry:
    def test_all_claims_present(self):
        assert CLAIM_IDS == tuple(f"C{i}" for i in range(1, 27))
        for claim in claim_registry():
            assert claim.statement
            assert claim.instance_kind in ("graph", "pair", "family")

    def test_unknown_claim(self):
        with pytest.raises(errors.UnknownClaim):
            get_claim("C99")

    def test_case_insensitive_lookup(self):
        assert get_claim("c7").id == "C7"


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_labeled_graphs(3)) == 8
        assert sum(1 for _ in enumerate_labeled_graphs(4)) == 64
        assert sum(1 for _ in enumerate_labeled_graphs(5)) == 1024

    def test_edge_mask_order(self):
        graphs = list(enumerate_labeled_graphs(3))
        assert graphs[0].edge_count == 0
        assert sorted(graphs[1].edges()) == [(0, 1)]  # mask 1 = first pair (0,1)
        assert sorted(graphs[2].edges()) == [(0, 2)]

    def test_guard(self):
        with pytest.raises(errors.CorpusTooLarge):
            list(enumerate_labeled_graphs(8))
        with pytest.raises(errors.CorpusTooLarge):
            list(enumerate_labeled_graphs(0))


class TestEvaluateClaim:
    def test_c1_path_12(self):
        out = evaluate_claim("C1", FamilySpec("path", (12,)))
        assert out.status == "holds" and out.lhs_value == 4 == out.rhs_value

    def test_c18_refuted_at_k2_k2(self):
        out = evaluate_claim("C18", (complete(2), complete(2)))
        assert out.status == "violated"
        assert out.lhs_value == 4 and out.rhs_value == 2
        assert out.oracle_check == "full"
        assert out.certificate["st_witness"] == [0, 1, 2, 3]

    def test_c20_refuted_at_k2_k2(self):
        out = evaluate_claim("C20", (complete(2), complete(2)))
        assert out.status == "violated" and out.lhs_value == 4 and out.rhs_value == 2

    def test_c21_refuted_at_2k1_2k1(self):
        out = evaluate_claim("C21", (empty(2), empty(2)))
        assert out.status == "violated"
        assert out.lhs_value == 2 and out.rhs_value == 4
        assert out.oracle_check == "full"

    def test_c9_strict_refuted_at_2k1(self):
        out = evaluate_claim("C9", empty(2))
        assert out.status == "violated"
        assert out.lhs_value == 1 and out.rhs_value == -1
        assert out.oracle_check == "full"

    def test_c9_restricted_skips_isolates(self):
        assert evaluate_claim("C9", empty(2), mode="restricted").status == "inapplicable"

    def test_c2_holds_on_c7(self):
        out = evaluate_claim("C2", cycle(7))
        assert out.status == "holds" and out.lhs_value == 1 and out.rhs_value == 3

    def test_c14_pinned_reading_refuted_at_2k2(self):
        g = disjoint_union(path(2), path(2))
        out = evaluate_claim("C14", g)
        assert out.status == "violated"
        assert out.lhs_value == 2 and out.rhs_value == [2, 2]
        assert out.oracle_check == "full"

    def test_c26_iff_small(self):
        assert evaluate_claim("C26", complete(4)).status == "holds"
        assert evaluate_claim("C26", path(4)).status == "holds"

    def test_instance_kind_mismatch(self):
        with pytest.raises(errors.InstanceKindMismatch):
            evaluate_claim("C2", (path(2), path(2)))
        with pytest.raises(errors.InstanceKindMismatch):
            evaluate_claim("C17", path(2))
        with pytest.raises(errors.InstanceKindMismatch):
            evaluate_claim("C3", path(3))

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            evaluate_claim("C2", path(2), mode="lenient")


class TestRunAudit:
    def test_c3_over_paths_2_to_16(self):
        corpus = FamilyCorpus(tuple(FamilySpec("path", (n,)) for n in range(2, 17)))
        report = run_audit(["C3"], corpus, threads=1)
        counts = report.claims[0]["counts"]
        assert counts == {"holds": 15, "violated": 0, "inapplicable": 0}

    def test_identities_hold_on_small_pairs(self):
        report = run_audit(["C17", "C19"], PairCorpus(ExhaustiveCorpus(2)), threads=1)
        for block in report.claims:
            assert block["counts"]["violated"] == 0
            assert block["counts"]["holds"] == 9

    def test_violations_are_oracle_checked_and_sorted(self):
        report = run_audit(["C18", "C22"], PairCorpus(ExhaustiveCorpus(2)), threads=1)
        insts = []
        for block in report.claims:
            for viol in block["violations"]:
                assert viol["oracle"] == "full"
                insts.append((block["claim"], viol["instance"]))
        assert insts == sorted(insts, key=lambda t: (int(t[0][1:]), t[1]))
        assert report.violation_count > 0

    def test_deterministic_and_parallel_equal(self):
        cases = [
            (["C2", "C6", "C26"], ExhaustiveCorpus(4)),
            (None, PairCorpus(ExhaustiveCorpus(2))),
            (None, FamilyCorpus.default_grid(5)),
            # a header line and a long order prefix must reach the report as given
            (None, Graph6Corpus((">>graph6<<C^", "~??D~{"))),
        ]
        for claims, corpus in cases:
            if claims is None:
                claims = [c.id for c in claim_registry() if c.instance_kind == corpus.kind()]
            a = run_audit(claims, corpus, threads=1)
            b = run_audit(claims, corpus, threads=1)
            c = run_audit(claims, corpus, threads=2)
            assert a.to_json() == b.to_json() == c.to_json()
            lines = {text for text, _ in corpus.instances()}
            found = {v["instance"] for block in a.claims for v in block["violations"]}
            assert found <= lines, corpus.describe()
        assert found == {">>graph6<<C^", "~??D~{"}  # the last case: C8 and C9 fail there

    def test_each_instance_decoded_once(self, monkeypatch):
        texts = tuple(encode_graph6(g) for n in (1, 2, 3, 4) for g in enumerate_labeled_graphs(n))
        calls = []
        real = auditor.decode_graph6

        def counting(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(auditor, "decode_graph6", counting)
        claims = [c.id for c in claim_registry() if c.instance_kind == "graph"]
        assert len(claims) == 14
        run_audit(claims, Graph6Corpus(texts), threads=1)
        assert len(calls) == len(texts)

    def test_threads_env_var(self, monkeypatch):
        monkeypatch.setenv("IDSTAB_THREADS", "2")
        a = run_audit(["C26"], ExhaustiveCorpus(3))
        monkeypatch.setenv("IDSTAB_THREADS", "1")
        b = run_audit(["C26"], ExhaustiveCorpus(3))
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_bad_threads_env_var(self, monkeypatch, value):
        monkeypatch.setenv("IDSTAB_THREADS", value)
        with pytest.raises(errors.BadThreadCount):
            run_audit(["C26"], ExhaustiveCorpus(2))

    @pytest.mark.parametrize("threads", [0, -3])
    def test_bad_threads_argument(self, threads):
        with pytest.raises(ValueError):
            run_audit(["C26"], ExhaustiveCorpus(2), threads=threads)

    def test_report_schema(self, tmp_path):
        report = run_audit(["C18"], PairCorpus(ExhaustiveCorpus(2)), threads=1)
        doc = json.loads(report.to_json())
        assert doc["schema_version"] == 1
        assert doc["mode"] == "strict"
        assert set(doc["claims"][0]) == {
            "claim",
            "statement",
            "restricted_note",
            "counts",
            "violations",
        }
        viol = doc["claims"][0]["violations"][0]
        assert set(viol) == {"instance", "lhs", "rhs", "witness", "oracle"}
        assert doc["stats"]["instances"] == 9

    def test_corpus_claim_mismatch(self):
        with pytest.raises(errors.BadCorpusSource):
            run_audit(["C17"], ExhaustiveCorpus(3), threads=1)
        with pytest.raises(errors.BadCorpusSource):
            run_audit(["C2"], FamilyCorpus.default_grid(4), threads=1)
        with pytest.raises(errors.BadCorpusSource):
            run_audit([], ExhaustiveCorpus(3), threads=1)

    def test_corpus_caps(self):
        with pytest.raises(errors.CorpusTooLarge):
            run_audit(["C2"], ExhaustiveCorpus(8), threads=1)
        with pytest.raises(errors.CorpusTooLarge, match=r"1 <= n_max <= 7, got 0"):
            run_audit(["C2"], ExhaustiveCorpus(0), threads=1)
        with pytest.raises(errors.CorpusTooLarge):
            run_audit(["C17"], PairCorpus(ExhaustiveCorpus(5)), threads=1)

    def test_graph6_corpus(self, tmp_path):
        f = tmp_path / "corpus.g6"
        f.write_text("\n".join(encode_graph6(g) for g in (path(4), cycle(5), complete(3))) + "\n")
        corpus = Graph6Corpus.from_file(f)
        report = run_audit(["C2", "C26"], corpus, threads=1)
        assert report.stats["instances"] == 3
        assert report.violation_count == 0

    def test_pairs_over_graph6_corpus(self, tmp_path):
        f = tmp_path / "base.g6"
        f.write_text(encode_graph6(path(2)) + "\n" + encode_graph6(empty(2)) + "\n")
        report = run_audit(["C17"], PairCorpus(Graph6Corpus.from_file(f)), threads=1)
        assert report.stats["instances"] == 4
        assert report.violation_count == 0
        big = tmp_path / "big.g6"
        big.write_text(encode_graph6(path(5)) + "\n")
        with pytest.raises(errors.CorpusTooLarge):
            run_audit(["C17"], PairCorpus(Graph6Corpus.from_file(big)), threads=1)

    def test_graph6_corpus_errors(self, tmp_path):
        with pytest.raises(errors.BadCorpusSource):
            Graph6Corpus.from_file(tmp_path / "missing.g6")
        f = tmp_path / "empty.g6"
        f.write_text("\n")
        with pytest.raises(errors.BadCorpusSource):
            Graph6Corpus.from_file(f)

    def test_restricted_mode_guards_families(self):
        grid = FamilyCorpus(
            tuple(FamilySpec("friendship", (n,)) for n in range(1, 5))
            + tuple(FamilySpec("star", (m,)) for m in range(1, 5))
        )
        strict = run_audit(["C23", "C25"], grid, threads=1)
        restricted = run_audit(["C23", "C25"], grid, mode="restricted", threads=1)
        strict_viol = {
            (b["claim"], v["instance"]) for b in strict.claims for v in b["violations"]
        }
        assert ("C25", "friend:1") in strict_viol
        assert ("C23", "star:1") in strict_viol
        assert all(b["counts"]["violated"] == 0 for b in restricted.claims)


class TestOracleAbort:
    def test_mismatch_aborts(self, monkeypatch):
        # a solver that lies about gamma_i of joins must be caught by the oracle
        real = _Toolkit.gamma_i

        def lying(self, g):
            val = real(self, g)
            return val + 1 if g.order == 4 else val

        monkeypatch.setattr(_Toolkit, "gamma_i", lying)
        with pytest.raises(errors.InternalAuditError):
            run_audit(["C17"], PairCorpus(ExhaustiveCorpus(2)), threads=1)


def test_default_family_grid_shape():
    grid = FamilyCorpus.default_grid(6)
    kinds = {spec.kind for spec in grid.specs}
    assert kinds == {
        "path",
        "cycle",
        "star",
        "double_star",
        "complete_bipartite",
        "friendship",
        "gen_friendship",
        "book",
    }
    assert all(spec.order() <= 64 for spec in grid.specs)
    with pytest.raises(errors.BadCorpusSource):
        FamilyCorpus.default_grid(0)
