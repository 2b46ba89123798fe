import dataclasses
import hashlib
import itertools
import json
import random

import pytest

from idstab import auditor, errors, oracles
from idstab.auditor import (
    ExhaustiveCorpus,
    FamilyCorpus,
    Graph6Corpus,
    PairCorpus,
    _Toolkit,
    claim_registry,
    enumerate_labeled_graphs,
    get_claim,
    run_audit,
)
from idstab.codec import decode_graph6, encode_graph6, graph6_edge_mask
from idstab.core import Graph, build_graph, upper_triangle_pairs
from idstab.families import FamilySpec, complete, cycle, empty, path, star
from idstab.oracles import oracle_gamma_i
from idstab.ops import disjoint_union

from conftest import random_graph


class TestRegistry:
    def test_all_claims_present(self):
        assert tuple(c.id for c in claim_registry()) == tuple(f"C{i}" for i in range(1, 27))
        for claim in claim_registry():
            assert claim.statement
            assert claim.instance_kind in ("graph", "pair", "family")

    def test_unknown_claim(self):
        with pytest.raises(errors.UnknownClaim):
            get_claim("C99")

    def test_case_insensitive_lookup(self):
        assert get_claim("c7").id == "C7"

    def test_claim_id_that_is_not_a_string(self):
        with pytest.raises(errors.UnknownClaim, match="no claim 2"):
            get_claim(2)
        with pytest.raises(errors.UnknownClaim):
            run_audit([2], ExhaustiveCorpus(2), threads=1)


class _ReadsBelow(_Toolkit):
    """st_id and gamma_i read as -order, below every right-hand side."""

    def st_any(self, g):
        return -g.order

    def gamma_i(self, g):
        return -g.order


class TestRelations:
    # no pinned report holds an equality claim that fails from below, so check that side here
    EQUALITIES = ["C1", "C3", "C4", "C17", "C18", "C19", "C20", "C21", "C22", "C23", "C24", "C25"]
    BOUNDS = ["C2", "C6", "C7", "C8", "C9"]

    def test_equalities_fail_and_bounds_hold_from_below(self):
        instances = {
            "graph": [star(3), cycle(5)],
            "pair": [(path(2), path(3)), (cycle(3), empty(2))],
            "family": [
                FamilySpec(kind, params)
                for kind, params in [
                    ("path", (5,)),
                    ("cycle", (5,)),
                    ("star", (3,)),
                    ("friendship", (2,)),
                    ("gen_friendship", (4, 2)),
                    ("book", (3,)),
                ]
            ],
        }
        kit = _ReadsBelow()
        for cid in self.EQUALITIES + self.BOUNDS:
            claim = get_claim(cid)
            outcomes = [claim.evaluate(x, kit, "strict") for x in instances[claim.instance_kind]]
            applicable = [ev.holds for ev in outcomes if ev.applicable]
            assert applicable, cid
            assert set(applicable) == {cid in self.BOUNDS}, cid


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
        # the one order check, shared with ExhaustiveCorpus, names the value
        with pytest.raises(errors.CorpusTooLarge, match=r"1 <= n_max <= 7, got 8"):
            enumerate_labeled_graphs(8)
        with pytest.raises(errors.CorpusTooLarge, match=r"1 <= n_max <= 7, got 0"):
            enumerate_labeled_graphs(0)


def _one_line(g) -> Graph6Corpus:
    return Graph6Corpus((encode_graph6(g),))


def _outcome(cid, corpus, mode="strict"):
    """Claim *cid* over a one-instance corpus, through ``run_audit``: its
    status, and the report's entry (lhs, rhs, witness, oracle) of a violation."""
    (block,) = run_audit([cid], corpus, mode, threads=1).claims
    assert sum(block["counts"].values()) == 1
    (status,) = [s for s, n in block["counts"].items() if n]
    return status, (block["violations"] or [None])[0]


def _reading(cid, instance):
    """``(status, lhs, rhs)`` of *cid* on *instance*, which the report gives
    only for violations."""
    return auditor._verdict(get_claim(cid).evaluate(instance, _Toolkit(), "strict"))


class TestEvaluateClaim:
    """Single claims on single instances, each audited as a one-line corpus."""

    def test_c1_path_12(self):
        spec = FamilySpec("path", (12,))
        assert _outcome("C1", FamilyCorpus((spec,))) == ("holds", None)
        assert _reading("C1", spec) == ("holds", 4, 4)

    def test_c18_refuted_at_k2_k2(self):
        status, out = _outcome("C18", PairCorpus(_one_line(complete(2))))
        assert status == "violated"
        assert out["instance"] == "A_,A_"
        assert out["lhs"] == 4 and out["rhs"] == 2
        assert out["oracle"] == "full"
        assert out["witness"]["st_witness"] == [0, 1, 2, 3]

    def test_c20_refuted_at_k2_k2(self):
        status, out = _outcome("C20", PairCorpus(_one_line(complete(2))))
        assert status == "violated" and out["lhs"] == 4 and out["rhs"] == 2

    def test_c21_refuted_at_2k1_2k1(self):
        status, out = _outcome("C21", PairCorpus(_one_line(empty(2))))
        assert status == "violated"
        assert out["lhs"] == 2 and out["rhs"] == 4
        assert out["oracle"] == "full"

    def test_c9_strict_refuted_at_2k1(self):
        status, out = _outcome("C9", _one_line(empty(2)))
        assert status == "violated"
        assert out["lhs"] == 1 and out["rhs"] == -1
        assert out["oracle"] == "full"

    def test_c9_restricted_skips_isolates(self):
        assert _outcome("C9", _one_line(empty(2)), mode="restricted") == ("inapplicable", None)

    def test_c2_holds_on_c7(self):
        assert _outcome("C2", _one_line(cycle(7))) == ("holds", None)
        assert _reading("C2", cycle(7)) == ("holds", 1, 3)

    def test_c14_pinned_reading_refuted_at_2k2(self):
        g = disjoint_union(path(2), path(2))
        status, out = _outcome("C14", _one_line(g))
        assert status == "violated"
        assert out["lhs"] == 2 and out["rhs"] == [2, 2]
        assert out["oracle"] == "full"

    def test_c26_iff_small(self):
        assert _outcome("C26", _one_line(complete(4))) == ("holds", None)
        assert _outcome("C26", _one_line(path(4))) == ("holds", None)

    def test_no_claim_applies_to_the_null_graph(self):
        # "?" is the null graph: of the pairs over "?" and "A_" (K_2), all but
        # "A_,A_" have an empty operand
        corpora = {"graph": Graph6Corpus(("?",)), "pair": PairCorpus(Graph6Corpus(("?", "A_")))}
        for kind, corpus in corpora.items():
            claims = [c.id for c in claim_registry() if c.instance_kind == kind]
            for block in run_audit(claims, corpus, threads=1).claims:
                assert block["counts"]["inapplicable"] == (1 if kind == "graph" else 3), block

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode must be 'strict' or 'restricted'"):
            run_audit(["C2"], _one_line(path(2)), mode="lenient", threads=1)


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
        # 360 shuffled lines: order-7 graphs, whose orbits are met off their least mask,
        # duplicated lines and graphs of order <= 5
        rng = random.Random(17)
        pairs = list(upper_triangle_pairs(7))
        order_7 = [
            encode_graph6(build_graph(7, [e for e in pairs if rng.random() < 0.4]))
            for _ in range(40)
        ]
        small = [encode_graph6(g) for n in (1, 2, 3, 4) for g in enumerate_labeled_graphs(n)]
        small += [encode_graph6(g) for g in itertools.islice(enumerate_labeled_graphs(5), 0, None, 5)]
        mixed = order_7 + small + order_7[:10] + small[:30]
        rng.shuffle(mixed)
        cases = [
            (["C2", "C6", "C26"], ExhaustiveCorpus(4)),
            (None, ExhaustiveCorpus(5)),  # 1,099 instances
            (None, Graph6Corpus(tuple(mixed))),
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

    def test_null_graph_lines_are_inapplicable(self):
        claims = [c.id for c in claim_registry() if c.instance_kind == "graph"]
        with_null = Graph6Corpus(("?", "A_", "?"))
        report = run_audit(claims, with_null, threads=1)
        alone = run_audit(claims, Graph6Corpus(("A_",)), threads=1)
        for block, base in zip(report.claims, alone.claims):
            counts = dict(base["counts"], inapplicable=base["counts"]["inapplicable"] + 2)
            assert block["counts"] == counts, block["claim"]
            assert block["violations"] == base["violations"]
        assert report.to_json() == run_audit(claims, with_null, threads=2).to_json()

    def test_claims_in_registry_order_once_each(self):
        report = run_audit(["C26", "c2", "C2"], ExhaustiveCorpus(3), threads=1)
        assert [block["claim"] for block in report.claims] == ["C2", "C26"]

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
        report = run_audit(claims, Graph6Corpus(texts), threads=1)
        # at most once: the first line of each class, and every line of a
        # class that violates a claim; the rest are only counted
        assert calls == _materialized(texts, report)
        assert 18 < len(calls) < len(texts)  # 18 classes of order 1..4

    @pytest.mark.parametrize("threads", [0, -3, 2.5, "2", True])
    def test_bad_threads_argument(self, threads):
        with pytest.raises(ValueError, match="threads must be a positive integer"):
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
        with pytest.raises(errors.BadCorpusSource, match="not one string"):
            run_audit("C26", ExhaustiveCorpus(2), threads=1)  # not the ids "C", "2", "6"

    def test_claim_ids_that_are_no_sequence(self):
        with pytest.raises(errors.BadCorpusSource, match="go in a sequence, not None"):
            run_audit(None, ExhaustiveCorpus(2), threads=1)

    def test_corpus_that_is_no_corpus(self):
        for bad in (None, ["A_"], "A_"):
            with pytest.raises(errors.BadCorpusSource, match="not a corpus"):
                run_audit(["C2"], bad, threads=1)

    def test_corpus_caps(self):
        with pytest.raises(errors.CorpusTooLarge):
            run_audit(["C2"], ExhaustiveCorpus(8), threads=1)
        with pytest.raises(errors.CorpusTooLarge, match=r"1 <= n_max <= 7, got 0"):
            run_audit(["C2"], ExhaustiveCorpus(0), threads=1)
        for bad in (True, 3.0, "3", None):  # True would audit order 1 as "order 1..True"
            with pytest.raises(errors.CorpusTooLarge, match=rf"got {bad!r}"):
                ExhaustiveCorpus(bad)
        with pytest.raises(errors.CorpusTooLarge):
            run_audit(["C17"], PairCorpus(ExhaustiveCorpus(5)), threads=1)

    def test_pair_operand_refused_before_the_rest_is_built(self, monkeypatch):
        # refused when the pair corpus is built: no operand is built and no
        # class key is looked up, so no class table is allocated
        base = Graph6Corpus((encode_graph6(path(4)), encode_graph6(path(5)), "A_"))
        built = []
        real_mask, real_decode = auditor.mask_graph, auditor.decode_graph6
        monkeypatch.setattr(auditor, "mask_graph", lambda n, m: built.append(n) or real_mask(n, m))
        monkeypatch.setattr(auditor, "decode_graph6", lambda t: built.append(t) or real_decode(t))
        monkeypatch.setattr(auditor, "_CLASS_TABLES", {})
        for corpus in (ExhaustiveCorpus(7), base):
            with pytest.raises(errors.CorpusTooLarge, match="at order 4"):
                PairCorpus(corpus)
        assert built == []
        assert auditor._CLASS_TABLES == {}

    def test_graph6_corpus(self, tmp_path, monkeypatch):
        f = tmp_path / "corpus.g6"
        f.write_text("\n".join(encode_graph6(g) for g in (path(4), cycle(5), complete(3))) + "\n")
        calls = []
        real = auditor.decode_graph6
        monkeypatch.setattr(auditor, "decode_graph6", lambda text: calls.append(text) or real(text))
        corpus = Graph6Corpus.from_file(f)
        assert calls == []  # from_file checks each line without decoding it
        report = run_audit(["C2", "C26"], corpus, threads=1)
        assert report.stats["instances"] == 3
        assert report.violation_count == 0
        assert len(calls) == 3  # the audit decodes each class's first line

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

    def test_malformed_corpora_fail_at_construction(self):
        with pytest.raises(errors.BadCorpusSource, match="need a graph corpus, not a FamilyCorpus"):
            PairCorpus(FamilyCorpus.default_grid(2))  # it has no graphs to pair
        with pytest.raises(errors.BadCorpusSource, match="not one string"):
            Graph6Corpus("Bw")  # would read as the two lines "B" and "w"
        with pytest.raises(errors.BadCorpusSource, match="specs go in a sequence, not one string"):
            FamilyCorpus("path:3")
        for specs in (("path:3",), (FamilySpec("path", (3,)), None)):
            with pytest.raises(errors.BadCorpusSource, match="specs must each be a FamilySpec"):
                FamilyCorpus(specs)
        for lines in ((1, 2), ("Bw", None), ("Bw", b"A_")):
            with pytest.raises(errors.BadCorpusSource, match="graph6 lines must each be a str"):
                Graph6Corpus(lines)
        corpus = Graph6Corpus(line for line in ("Bw", "A_"))  # a generator, checked and kept
        assert corpus.graphs == ("Bw", "A_")
        assert run_audit(["C2"], corpus, threads=1).stats["instances"] == 2

    @pytest.mark.parametrize("bad", [None, 7])
    def test_corpus_of_no_sequence_fails_at_construction(self, bad):
        # both raised a bare TypeError before, while PairCorpus(None) raised this
        with pytest.raises(errors.BadCorpusSource, match=f"lines go in a sequence, not {bad!r}"):
            Graph6Corpus(bad)
        with pytest.raises(errors.BadCorpusSource, match=f"specs go in a sequence, not {bad!r}"):
            FamilyCorpus(bad)

    def test_family_corpus_from_a_generator_audits_every_spec(self):
        # the check used to read the generator, and the audit then raised a bare TypeError
        corpus = FamilyCorpus(FamilySpec("path", (n,)) for n in range(2, 6))
        report = run_audit(["C3"], corpus, threads=1)
        assert report.stats["instances"] == 4
        assert corpus.specs == tuple(FamilySpec("path", (n,)) for n in range(2, 6))

    def test_family_corpus_from_a_list_is_the_tuple_form(self):
        spec = FamilySpec("path", (3,))
        listed, tupled = FamilyCorpus([spec]), FamilyCorpus((spec,))
        assert listed == tupled and hash(listed) == hash(tupled)  # a kept list was unhashable

    def test_malformed_line_fails_when_the_corpus_is_built(self, tmp_path):
        lines = ("Bw", "B!", "A_")
        f = tmp_path / "corpus.g6"
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(errors.MalformedGraph6, match="character '!'"):
            Graph6Corpus.from_file(f)
        with pytest.raises(errors.MalformedGraph6, match="character '!'"):
            Graph6Corpus(lines)  # built directly, as an API caller builds it

    def test_each_line_read_once_when_the_corpus_is_built(self, monkeypatch):
        lines = tuple(encode_graph6(g) for n in (1, 2, 3) for g in enumerate_labeled_graphs(n))
        calls = []
        real = auditor.graph6_edge_mask
        monkeypatch.setattr(auditor, "graph6_edge_mask", lambda t: calls.append(t) or real(t))
        corpus = Graph6Corpus(lines)
        assert calls == list(lines)
        calls.clear()
        graph_claims = [c.id for c in claim_registry() if c.instance_kind == "graph"]
        run_audit(graph_claims, corpus, threads=1)
        run_audit(["C17", "C20"], PairCorpus(corpus), threads=1)
        assert calls == []
        # the lines as read are no part of the corpus's identity
        same = Graph6Corpus(list(lines))
        object.__setattr__(same, "_masks", ())
        assert same == corpus and hash(same) == hash(corpus)
        assert repr(same) == repr(corpus) == f"Graph6Corpus(graphs={lines!r}, label='graph6 corpus')"

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


class TestMemoBound:
    def test_capped_memo_writes_the_same_report(self, monkeypatch):
        claims = [c.id for c in claim_registry() if c.instance_kind == "graph"]
        expected = run_audit(claims, ExhaustiveCorpus(4), threads=1).to_json()
        sizes = []
        real = auditor._memo

        def watched(cache, g, *args):
            got = real(cache, g, *args)
            sizes.append(len(cache))
            return got

        monkeypatch.setattr(auditor, "_MEMO_CAP", 4)
        monkeypatch.setattr(auditor, "_memo", watched)
        assert run_audit(claims, ExhaustiveCorpus(4), threads=1).to_json() == expected
        assert max(sizes) == 4

    def test_class_keys_stay_apart_from_adj_keys(self):
        # untagged, the null graph's class key (0, 0) would be 2K_1's adj
        kit = _Toolkit()
        assert kit.gamma_i(Graph(0)) == 0
        assert kit.gamma_i(build_graph(2, [])) == 2


def _plain_blocks(claim_ids, corpus, mode: str) -> list[dict]:
    """``run_audit``'s claim blocks as an audit without isomorphism classes
    writes them: every claim runs on every instance of ``instances()``, with
    a toolkit of the instance's own, so that no value comes from another
    labelling."""
    blocks = []
    for claim in map(get_claim, claim_ids):
        counts = dict.fromkeys(("holds", "violated", "inapplicable"), 0)
        found = []
        for text, g in corpus.instances():
            ev = claim.evaluate(g, _Toolkit(), mode)
            status, lhs, rhs = auditor._verdict(ev)
            counts[status] += 1
            if status == "violated":
                cert = ev.cert()
                oracle = auditor._verify_violation(claim, text, g, lhs, rhs, cert, mode)
                found.append(dict(instance=text, lhs=lhs, rhs=rhs, witness=cert, oracle=oracle))
        blocks.append(
            {
                "claim": claim.id,
                "statement": claim.statement,
                "restricted_note": claim.restricted_note,
                "counts": counts,
                "violations": sorted(found, key=lambda v: v["instance"]),
            }
        )
    return blocks


def _materialized(texts, report) -> list[str]:
    """The lines of a graph audit of *texts* (order <= 7) that get a graph,
    in corpus order: the first line of each class, and every line of a class
    that violates a claim."""
    key = {text: auditor._class_key(*graph6_edge_mask(text)) for text in texts}
    violating = {key[v["instance"]] for block in report.claims for v in block["violations"]}
    firsts: dict = {}
    for text in texts:
        firsts.setdefault(key[text], text)
    return [text for text in texts if firsts[key[text]] == text or key[text] in violating]


def _orbit_minimum(n: int, mask: int) -> int:
    """The least edge mask over all n! relabellings of *mask*."""
    pairs = list(upper_triangle_pairs(n))
    bit = {pair: 1 << p for p, pair in enumerate(pairs)}
    best = mask
    for perm in itertools.permutations(range(n)):
        image = 0
        for p, (i, j) in enumerate(pairs):
            if mask >> p & 1:
                image |= bit[tuple(sorted((perm[i], perm[j])))]
        best = min(best, image)
    return best


_GRAPH_CLAIMS = [c.id for c in claim_registry() if c.instance_kind == "graph"]
_PAIR_CLAIMS = [c.id for c in claim_registry() if c.instance_kind == "pair"]


def _in_process_pool(jobs: list, chunksizes: list) -> type:
    """A stand-in for ``ProcessPoolExecutor`` that runs the re-checks it is
    sent in-process, and records them in *jobs* and their chunk size in
    *chunksizes*."""

    class InProcessPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items, chunksize):
            assert fn is auditor._recheck
            jobs.extend(items)
            chunksizes.append(chunksize)
            return map(fn, jobs)

    return InProcessPool


def _pair_key(text: str) -> tuple:
    """The class pair of a pair corpus line ``"a,b"``: the class keys of its
    operands."""
    return tuple(auditor._class_key(*graph6_edge_mask(part)) for part in text.split(","))


class TestIsomorphismClasses:
    def test_keys_are_brute_force_canonical_forms(self):
        for n in range(1, 6):
            for mask in range(1 << n * (n - 1) // 2):
                assert auditor._class_key(n, mask) == (n, _orbit_minimum(n, mask)), (n, mask)
        rng = random.Random(7)
        for mask in rng.sample(range(1 << 21), 6):  # orbits first met off their least
            least = _orbit_minimum(7, mask)
            assert auditor._class_key(7, mask) == auditor._class_key(7, least) == (7, least), mask

    @pytest.mark.slow
    def test_class_counts_and_table_bound(self):
        # unlabeled graphs of order 1..7, OEIS A000088
        keys = [
            {auditor._class_key(n, m) for m in range(1 << n * (n - 1) // 2)} for n in range(1, 8)
        ]
        assert [len(k) for k in keys] == [1, 2, 4, 11, 34, 156, 1044]
        for n in range(1, 8):
            assert len(auditor._CLASS_TABLES[n]) <= 1 << (n * (n - 1) // 2)

    @pytest.mark.parametrize("mode", ["strict", "restricted"])
    def test_exhaustive_audit_equals_a_plain_audit(self, mode, monkeypatch):
        corpus = ExhaustiveCorpus(5)
        built = []
        real = auditor.mask_graph
        monkeypatch.setattr(auditor, "mask_graph", lambda n, m: built.append((n, m)) or real(n, m))
        report = run_audit(_GRAPH_CLAIMS, corpus, mode, threads=1)
        # graphs are built for each class's first member and the members of
        # classes that violate a claim, once each
        named = [encode_graph6(real(n, m)) for n, m in built]
        texts = [text for text, _ in corpus.instances()]
        assert named == _materialized(texts, report)
        assert 52 < len(named) < 1099  # 52 classes of order 1..5
        assert report.claims == _plain_blocks(_GRAPH_CLAIMS, corpus, mode)

    def test_graph6_audit_equals_a_plain_audit(self):
        rng = random.Random(21)
        lines = [text for text, _ in itertools.islice(ExhaustiveCorpus(5).instances(), 0, None, 3)]
        lines = [f">>graph6<<{t}" if i % 7 == 0 else t for i, t in enumerate(lines)]
        lines += lines[:40] + ["G~~^vS"]  # duplicates, and one order-8 line past the classes
        for g in (random_graph(rng, 7) for _ in range(4)):  # order 7, three labellings each
            for _ in range(3):
                perm = rng.sample(range(7), 7)
                relabelled = build_graph(7, [(perm[u], perm[v]) for u, v in g.edges()])
                lines.append(encode_graph6(relabelled))
        rng.shuffle(lines)
        corpus = Graph6Corpus(tuple(lines))
        report = run_audit(_GRAPH_CLAIMS, corpus, threads=1)
        assert report.claims == _plain_blocks(_GRAPH_CLAIMS, corpus, "strict")
        found = {(b["claim"], v["instance"]) for b in report.claims for v in b["violations"]}
        assert ("C8", "G~~^vS") in found
        assert sum(cid == "C9" and text[0] == "F" for cid, text in found) == 3  # one order-7 class
        assert any(text.startswith(">>graph6<<") for _, text in found)

    @pytest.mark.parametrize("mode", ["strict", "restricted"])
    def test_every_graph_claim_is_constant_on_classes(self, mode):
        seen: dict = {}
        for text, g in ExhaustiveCorpus(5).instances():
            key = auditor._class_key(*graph6_edge_mask(text))
            kit = _Toolkit()  # a shared one would read every labelling's values off its class
            for cid in _GRAPH_CLAIMS:
                ev = get_claim(cid).evaluate(g, kit, mode)
                reading = (ev.applicable, ev.holds, ev.lhs, ev.rhs)
                first = seen.setdefault((cid, key), (reading, g))
                assert first[0] == reading, (cid, encode_graph6(first[1]), encode_graph6(g))

    def test_label_dependent_claim_aborts(self, monkeypatch):
        def by_label(g, kit, mode):
            # violated exactly when vertex 0 has a neighbour: K_1 + K_2 reads
            # violated as labelled "B_" or "BO" and holds as "BG"
            return auditor._Eval(True, not g.adj[0], g.degree(0), 0, lambda: {})

        claim = dataclasses.replace(get_claim("C2"), evaluate=by_label)
        monkeypatch.setitem(auditor._REGISTRY, "C2", claim)
        with pytest.raises(errors.InternalAuditError, match="isomorphism invariant at BG"):
            run_audit(["C2"], ExhaustiveCorpus(3), threads=1)

    def test_class_path_bounds_stability_solves(self, monkeypatch):
        calls = []
        real = auditor.stability.stability
        monkeypatch.setattr(auditor.stability, "stability", lambda g: calls.append(g) or real(g))
        run_audit(_GRAPH_CLAIMS, ExhaustiveCorpus(5), threads=1)
        # 1,099 when every labelled graph is solved, 293 with G - v and the
        # complements solved once per labelling
        assert len(calls) <= 260

    def test_pool_path_bounds_stability_solves(self, monkeypatch):
        # the pool gets the oracle re-checks and nothing else, so two workers
        # solve exactly what one does; there is one re-check per violating
        # (claim, class), of the class's first member in the corpus
        jobs, chunksizes = [], []
        calls = []
        real = auditor.stability.stability
        monkeypatch.setattr(auditor.stability, "stability", lambda g: calls.append(g) or real(g))
        one = run_audit(_GRAPH_CLAIMS, ExhaustiveCorpus(5), threads=1)
        solves = len(calls)
        calls.clear()
        monkeypatch.setattr(auditor, "ProcessPoolExecutor", _in_process_pool(jobs, chunksizes))
        two = run_audit(_GRAPH_CLAIMS, ExhaustiveCorpus(5), threads=2)
        assert len(calls) == solves
        texts = [text for text, _ in ExhaustiveCorpus(5).instances()]
        order = {text: i for i, text in enumerate(texts)}
        firsts: dict = {}
        for block in one.claims:
            for v in sorted(block["violations"], key=lambda v: order[v["instance"]]):
                key = auditor._class_key(*graph6_edge_mask(v["instance"]))
                firsts.setdefault((block["claim"], key), v["instance"])
        assert sorted((cid, text) for cid, text, *_ in jobs) == sorted(
            (cid, text) for (cid, _), text in firsts.items()
        )
        assert len(jobs) < one.violation_count
        assert chunksizes == [-(-len(jobs) // 8)]
        assert two.to_json() == one.to_json()

    def test_later_member_solved_on_its_own_labels(self, monkeypatch):
        # K_1 + K_2 violates C9 (st_id 1 > n + 1 - 2 gamma_i = 0); let the
        # solver misread st_id on its last labelling only, "BG" (mask 4)
        real = auditor.stability.stability

        def lying(g):
            cert = real(g)
            return dataclasses.replace(cert, value=cert.value + 1) if g.adj == (0, 4, 2) else cert

        monkeypatch.setattr(auditor.stability, "stability", lying)
        assert auditor._class_key(3, 4) == (3, 1)  # its class's first member is "B_"
        with pytest.raises(errors.InternalAuditError, match="not an isomorphism invariant at BG"):
            run_audit(_GRAPH_CLAIMS, ExhaustiveCorpus(4), threads=1)

    def test_class_rechecks_stay_below_the_oracle_caps(self):
        # a violating class shares its first member's oracle verdict because
        # every re-check at order <= _CLASS_MAX_ORDER, of G, each G - v and
        # the complement, is "full"
        assert auditor._CLASS_MAX_ORDER <= oracles.ORACLE_STABILITY_MAX_ORDER
        assert auditor._CLASS_MAX_ORDER <= oracles.ORACLE_MAX_ORDER
        report = run_audit(_GRAPH_CLAIMS, Graph6Corpus(("F^~~w", "F????")), threads=1)
        assert report.stats["oracle_full"] == report.violation_count == 2  # C8 and C9

    def test_order_8_audit_builds_no_order_7_class_table(self, monkeypatch):
        monkeypatch.setattr(auditor, "_CLASS_TABLES", dict(auditor._CLASS_TABLES))
        auditor._CLASS_TABLES.pop(7, None)
        report = run_audit(_GRAPH_CLAIMS, Graph6Corpus(("G~~^vS",)), threads=1)
        assert report.violation_count > 0  # C8, so certificates and re-checks ran too
        assert 7 not in auditor._CLASS_TABLES


class TestPairClasses:
    @pytest.mark.parametrize("mode", ["strict", "restricted"])
    def test_every_pair_claim_is_constant_on_class_pairs(self, mode):
        seen: dict = {}
        for text, pair in PairCorpus(ExhaustiveCorpus(3)).instances():
            kit = _Toolkit()  # a shared one would read every labelling's values off its class
            for cid in _PAIR_CLAIMS:
                ev = get_claim(cid).evaluate(pair, kit, mode)
                reading = (ev.applicable, ev.holds, ev.lhs, ev.rhs)
                first = seen.setdefault((cid, _pair_key(text)), (reading, text))
                assert first[0] == reading, (cid, first[1], text)
        assert len(seen) == 6 * 7 * 7  # the 121 pairs fall in 49 class pairs

    def test_label_dependent_claim_aborts(self, monkeypatch):
        def by_label(pair, kit, mode):
            # violated exactly when vertex 0 of the first operand has a
            # neighbour: K_1 + K_2 reads violated as "B_" and holds as "BG"
            g = pair[0]
            return auditor._Eval(True, not g.adj[0], g.degree(0), 0, lambda: {})

        claim = dataclasses.replace(get_claim("C17"), evaluate=by_label)
        monkeypatch.setitem(auditor._REGISTRY, "C17", claim)
        with pytest.raises(errors.InternalAuditError, match="isomorphism invariant at BG,B_: "):
            run_audit(["C17"], PairCorpus(Graph6Corpus(("B_", "BG"))), threads=1)

    def test_graph6_pair_audit_equals_a_plain_audit(self):
        # K_1 + K_2 in all three labellings, P_3 under a header, P_4 in two
        # labellings, duplicated lines and the null graph
        p4 = [encode_graph6(build_graph(4, edges)) for edges in ([(0, 1), (1, 2), (2, 3)],
                                                                  [(2, 0), (0, 3), (3, 1)])]
        lines = ("B_", "?", "BO", "Bw", ">>graph6<<Bw", p4[0], "BG", "B_", p4[1])
        corpus = PairCorpus(Graph6Corpus(lines))
        report = run_audit(_PAIR_CLAIMS, corpus, threads=1)
        assert report.claims == _plain_blocks(_PAIR_CLAIMS, corpus, "strict")
        # the coronas P_4 o P_3 (order 16) pass the stability oracle's cap, so
        # each labelling's verdict reads its own certificate
        partial = {
            (b["claim"], v["instance"])
            for b in report.claims
            for v in b["violations"]
            if v["oracle"] == "partial"
        }
        assert partial == {("C22", f"{a},{b}") for a in p4 for b in ("Bw", ">>graph6<<Bw")}

    def test_pair_corpus_queues_one_job_per_violation(self, monkeypatch):
        # a product can pass the stability oracle's cap, where a re-check
        # reads the violation's own certificate, so no job is shared
        jobs, chunksizes = [], []
        monkeypatch.setattr(auditor, "ProcessPoolExecutor", _in_process_pool(jobs, chunksizes))
        corpus = PairCorpus(ExhaustiveCorpus(3))
        report = run_audit(_PAIR_CLAIMS, corpus, threads=2)
        violations = [(b["claim"], v["instance"]) for b in report.claims for v in b["violations"]]
        assert sorted((cid, text) for cid, text, *_ in jobs) == sorted(violations)
        assert len(jobs) == len(violations) == report.violation_count
        assert report.to_json() == run_audit(_PAIR_CLAIMS, corpus, threads=1).to_json()

    def test_holding_class_pairs_are_evaluated_once(self, monkeypatch):
        # each class pair's first member runs every claim; a later member
        # runs only the claims its class pair violates
        calls: dict = {}

        def counted(claim):
            def evaluate(instance, kit, mode):
                if isinstance(kit, _Toolkit):  # not an oracle re-check
                    calls[claim.id] = calls.get(claim.id, 0) + 1
                return claim.evaluate(instance, kit, mode)

            return dataclasses.replace(claim, evaluate=evaluate)

        registry = {cid: counted(claim) for cid, claim in auditor._REGISTRY.items()}
        monkeypatch.setattr(auditor, "_REGISTRY", registry)
        report = run_audit(_PAIR_CLAIMS, PairCorpus(ExhaustiveCorpus(3)), threads=1)
        for block in report.claims:
            texts = [v["instance"] for v in block["violations"]]
            cells = {_pair_key(text) for text in texts}
            assert calls[block["claim"]] == 49 + len(texts) - len(cells), block["claim"]
        assert sum(calls.values()) < 6 * 121

    def test_order_5_operand_refused_before_its_class_table(self, monkeypatch):
        tables = {n: table for n, table in auditor._CLASS_TABLES.items() if n <= 4}
        monkeypatch.setattr(auditor, "_CLASS_TABLES", tables)
        with pytest.raises(errors.CorpusTooLarge, match="at order 4"):
            run_audit(_PAIR_CLAIMS, PairCorpus(ExhaustiveCorpus(7)), threads=1)
        assert 1 <= max(auditor._CLASS_TABLES) <= 4


class TestOracleAbort:
    def test_mismatch_aborts(self, monkeypatch):
        # a solver that lies about gamma_i of joins must be caught by the oracle
        real = _Toolkit.gamma_i

        def lying(self, g):
            val = real(self, g)
            return val + 1 if g.order == 4 else val

        monkeypatch.setattr(_Toolkit, "gamma_i", lying)
        for threads in (1, 2):  # 2: the re-check fails in a real process pool
            with pytest.raises(errors.InternalAuditError, match="oracle re-verification"):
                run_audit(["C17"], PairCorpus(ExhaustiveCorpus(2)), threads=threads)

    def test_abort_names_the_line_as_given(self, monkeypatch):
        # K_1 violates C9 (st_id 1 > n + 1 - 2 gamma_i = 0); the message names
        # its corpus line, not the line re-encoded as "@"
        monkeypatch.setattr(oracles, "oracle_gamma_i", lambda g: 99)
        with pytest.raises(errors.InternalAuditError, match="at >>graph6<<@: "):
            run_audit(["C9"], Graph6Corpus((">>graph6<<@",)), threads=1)

    # C4 on cycle:14 is past the stability oracle's cap, so only the
    # certificate's gamma_i facts can be re-checked; gamma_i(C_14) is 5
    def test_refuted_certificate_fact_aborts(self):
        cert = {"gamma_i_checks": [[encode_graph6(cycle(14)), 4]]}
        claim, spec = get_claim("C4"), FamilySpec("cycle", (14,))
        with pytest.raises(errors.InternalAuditError, match=r"= 5, certificate says 4$"):
            auditor._verify_violation(claim, spec.to_text(), spec, 3, 1, cert, "strict")

    def test_fact_past_the_oracle_cap_is_skipped(self):
        assert path(30).order > oracles.ORACLE_MAX_ORDER
        cert = {"gamma_i_checks": [[encode_graph6(path(30)), 4]]}
        claim, spec = get_claim("C4"), FamilySpec("cycle", (14,))
        verdict = auditor._verify_violation(claim, spec.to_text(), spec, 3, 1, cert, "strict")
        assert verdict == "unavailable"


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


def test_default_family_grid_pinned():
    # the count and the sha256 of every spec's text, in grid order
    specs = FamilyCorpus.default_grid(64).specs
    text = "\n".join(spec.to_text() for spec in specs)
    assert len(specs) == 2445
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "331e30a107bce16ee0abf5175e6725d317b0d91a410d471d93071ee114c4c23b"
    )


def test_default_family_grid_at_order_cap():
    specs = FamilyCorpus.default_grid(64).specs
    texts = {spec.to_text() for spec in specs}
    assert "path:64" in texts and "star:63" in texts and "star:64" not in texts
    assert max(spec.order() for spec in specs) == 64
    for bad in (0, 65, True, 2.0):
        with pytest.raises(errors.BadCorpusSource, match=rf"1 <= max_param <= 64, got {bad!r}"):
            FamilyCorpus.default_grid(bad)


_ST_KEYS = ["st_witness", "base_gamma_i", "new_gamma_i", "gamma_i_checks"]
_PAYLOAD_KEYS = {
    "C1": ["graph_gamma_i_witness", "gamma_i_checks"],
    "C2": _ST_KEYS,
    "C3": _ST_KEYS,
    "C4": _ST_KEYS,
    "C5": _ST_KEYS + ["deleted_vertex", "st_after_deletion"],
    "C6": _ST_KEYS,
    "C7": _ST_KEYS + ["induced_star"],
    "C8": _ST_KEYS,
    "C9": _ST_KEYS + ["gamma_i"],
    "C10": _ST_KEYS,
    "C11": _ST_KEYS + ["gamma_i"],
    "C12": ["graph_gamma_i_witness", "gamma_i_checks", "gamma"],
    "C13": ["gamma_witness"],
    "C14": _ST_KEYS + ["gamma_i", "matched_k"],
    "C15": _ST_KEYS + ["gamma_i"],
    "C16": _ST_KEYS + ["complement_st_witness"],
    "C17": ["join_gamma_i_witness", "gamma_i_checks"],
    "C18": _ST_KEYS,
    "C19": ["product_gamma_i_witness", "gamma_i_checks"],
    "C20": _ST_KEYS,
    "C21": ["corona_gamma_i_witness", "gamma_i_checks"],
    "C22": _ST_KEYS,
    "C23": _ST_KEYS,
    "C24": ["graph_gamma_i_witness", "gamma_i_checks"],
    "C25": _ST_KEYS,
    "C26": _ST_KEYS + ["complete"],
}


class TestCertificateBuilders:
    def test_every_builder_runs_and_checks_out(self):
        # most claims never fail on a small corpus, so call the builders on holding outcomes too
        base = [g for _, g in ExhaustiveCorpus(3).instances()]
        instances = {
            "graph": [g for _, g in ExhaustiveCorpus(5).instances()],
            "pair": [(a, b) for a in base for b in base],
            "family": [s for s in FamilyCorpus.default_grid(16).specs if s.order() <= 16],
        }
        kit = _Toolkit()
        oracle: dict[str, int] = {}
        for claim in claim_registry():
            built = 0
            for instance in instances[claim.instance_kind]:
                ev = claim.evaluate(instance, kit, "strict")
                if not ev.applicable:
                    continue
                cert = ev.cert()
                assert list(cert) == _PAYLOAD_KEYS[claim.id], claim.id
                for g6, value in cert.get("gamma_i_checks", []):
                    if g6 not in oracle:
                        oracle[g6] = oracle_gamma_i(decode_graph6(g6))
                    assert oracle[g6] == value, (claim.id, instance, g6)
                built += 1
            assert built > 0, claim.id

    def test_builders_run_once_per_violation(self, monkeypatch):
        calls = []

        def counted(claim):
            def evaluate(instance, kit, mode):
                ev = claim.evaluate(instance, kit, mode)
                if ev.cert is not None:
                    build = ev.cert
                    ev.cert = lambda: calls.append(claim.id) or build()
                return ev

            return dataclasses.replace(claim, evaluate=evaluate)

        registry = {cid: counted(claim) for cid, claim in auditor._REGISTRY.items()}
        monkeypatch.setattr(auditor, "_REGISTRY", registry)
        for corpus in (ExhaustiveCorpus(4), PairCorpus(ExhaustiveCorpus(2))):
            calls.clear()
            claims = [c.id for c in claim_registry() if c.instance_kind == corpus.kind()]
            report = run_audit(claims, corpus, threads=1)
            assert report.violation_count > 0
            assert sorted(calls) == sorted(
                b["claim"] for b in report.claims for _ in b["violations"]
            )


# sha256 of run_audit(<every claim of the corpus kind>, corpus, mode, threads=1).to_json()
_REPORT_DIGESTS = [
    (
        lambda: ExhaustiveCorpus(5),
        "strict",
        "812a55206a5e98e68f2c79c0260de670cf4915a6e3eea15bd13b8313eabb3670",
    ),
    (
        lambda: ExhaustiveCorpus(5),
        "restricted",
        "135ec6a913bf92330e1789d6786cc48559b1a500017c8bb7070003a216e093cf",
    ),
    (
        lambda: PairCorpus(ExhaustiveCorpus(3)),
        "strict",
        "4619fc852ef27d9a0db9ea51db3f5fe6d0233b2fb32f89eb88d3f37228c0571d",
    ),
    (
        lambda: PairCorpus(ExhaustiveCorpus(3)),
        "restricted",
        "dd7ef8db5ef2da64e3ab747226646b7f5738421998ea4cc5119ab469116d6aa6",
    ),
    (
        lambda: FamilyCorpus.default_grid(9),
        "strict",
        "8f54403339ce19634cda89d9263e70bd605e974889128c02fd5744af612883cd",
    ),
    (
        lambda: FamilyCorpus.default_grid(9),
        "restricted",
        "b90321841dd9b36c32477909c4e75205bb1bb4a5f6ab9e7fe747a6e1747368c4",
    ),
]


# the C22 corona of C? and Bw has order 16, past the stability oracle, so its
# violation is checked "partial"; no other pinned report reaches that path
_PARTIAL_ORACLE_DIGEST = "e543e3892179ca7f998d6198aeeb56414be3a9eaca1658191466c16ba2dbe3ef"


@pytest.mark.parametrize(
    "make_corpus,mode,digest",
    _REPORT_DIGESTS,
    ids=[f"{kind}-{mode}" for kind in ("n5", "pairs3", "grid9") for mode in ("strict", "restricted")],
)
def test_pinned_report_digest(make_corpus, mode, digest):
    corpus = make_corpus()
    claims = [c.id for c in claim_registry() if c.instance_kind == corpus.kind()]
    report = run_audit(claims, corpus, mode, threads=1)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("threads", [1, 2])
def test_pinned_partial_oracle_digest(threads):
    claims = [c.id for c in claim_registry() if c.instance_kind == "pair"]
    report = run_audit(claims, PairCorpus(Graph6Corpus(("C?", "Bw"))), threads=threads)
    oracle = {k: v for k, v in report.stats.items() if k.startswith("oracle_")}
    assert oracle == {"oracle_full": 8, "oracle_partial": 1, "oracle_unavailable": 0}
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == _PARTIAL_ORACLE_DIGEST
