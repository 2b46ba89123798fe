"""Acceptance suite: every criterion as one test, with its stated budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion, including the measured runtime.
"""

import random
import time

import pytest

from idstab import (
    Direction,
    ExhaustiveCorpus,
    FamilyCorpus,
    FamilySpec,
    PairCorpus,
    VertexSet,
    decode_graph6,
    encode_graph6,
    gamma_i_value,
    oracle_gamma_i,
    run_audit,
    stability,
)
from idstab.auditor import _OracleToolkit, _Toolkit, get_claim
from idstab.cli import main
from idstab.families import (
    book,
    complete,
    complete_bipartite,
    cycle,
    double_star,
    empty,
    friendship,
    gen_friendship,
    path,
    star,
)
from idstab.stability import oracle_stability

from conftest import all_graphs, random_graph, stability_sweep


def _stamp(label, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{label} took {elapsed:.1f}s (budget {budget}s)"
    print(f"ACCEPTANCE {label}: PASS ({elapsed:.1f}s, budget {budget}s)")


def _path_st(n):
    return 2 if n % 3 == 2 else 1


def _cycle_st(n):
    return {0: 3, 1: 1, 2: 2}[n % 3]


def test_criterion_01_path_formula():
    t0 = time.perf_counter()
    for n in range(2, 17):
        assert stability(path(n)).value == _path_st(n), f"P_{n}"
    _stamp("1 path-formula", t0, 10)


def test_criterion_02_cycle_formula():
    t0 = time.perf_counter()
    for n in range(3, 17):
        assert stability(cycle(n)).value == _cycle_st(n), f"C_{n}"
    _stamp("2 cycle-formula", t0, 30)


def test_criterion_03_gamma_i_closed_forms():
    t0 = time.perf_counter()
    for n in range(1, 31):
        assert gamma_i_value(path(n)) == (n + 2) // 3, f"P_{n}"
    for n in range(3, 31):
        assert gamma_i_value(cycle(n)) == (n + 2) // 3, f"C_{n}"
    _stamp("3 gamma-i-closed-forms", t0, 5)


def test_criterion_04_families():
    t0 = time.perf_counter()
    for n in range(1, 9):
        assert stability(complete(n)).value == n, f"K_{n}"
    for m in range(2, 7):
        assert stability(star(m)).value == 1, f"K_1,{m}"
    for a in range(1, 5):
        for b in range(1, 5):
            assert stability(double_star(a, b)).value == 1, f"dstar {a},{b}"
    for n in range(2, 6):
        for m in range(n, 6):
            assert stability(complete_bipartite(m, n)).value == 1, f"K_{m},{n}"
    for n in range(2, 6):
        assert stability(friendship(n)).value == 1, f"F_{n}"
    for q in (4, 5, 6):
        for n in range(2, 4):
            assert stability(gen_friendship(q, n)).value == 1, f"F_{q},{n}"
    for n in range(1, 6):
        assert gamma_i_value(friendship(n)) == 1
    for q in (4, 5, 6):
        for n in range(1, 4):
            assert gamma_i_value(gen_friendship(q, n)) == n + 1
    for n in range(2, 7):
        assert gamma_i_value(book(n)) == n, f"B_{n} gamma_i"
        assert stability(book(n)).value == 2, f"B_{n} st"
    _stamp("4 families", t0, 120)


def test_criterion_05_solver_oracle_equivalence():
    t0 = time.perf_counter()
    from idstab.auditor import enumerate_labeled_graphs

    for g in enumerate_labeled_graphs(6):
        assert gamma_i_value(g) == oracle_gamma_i(g)
    rng = random.Random(20260809)
    for _ in range(500):
        g = random_graph(rng, 12)
        assert gamma_i_value(g) == oracle_gamma_i(g)
    for g in all_graphs(5):
        assert tuple(stability(g, d).value for d in Direction) == oracle_stability(g)
    rng = random.Random(20260810)
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 10))
        assert tuple(stability(g, d).value for d in Direction) == oracle_stability(g)
    _stamp("5 solver-oracle-equivalence", t0, 600)


BOUND_CLAIMS = ["C2", "C5", "C6", "C7", "C8", "C10", "C11", "C13", "C15", "C16"]


@pytest.mark.slow
def test_criterion_06_bound_audit():
    t0 = time.perf_counter()
    corpus = ExhaustiveCorpus(6)
    report = run_audit(BOUND_CLAIMS, corpus, mode="restricted")
    for block in report.claims:
        for viol in block["violations"]:
            assert viol["oracle"] == "full", (block["claim"], viol["instance"])
    # spot-recompute a deterministic 1% sample of the held entries with the oracles
    exact_kit, oracle_kit = _Toolkit(), _OracleToolkit()
    claims = [get_claim(cid) for cid in BOUND_CLAIMS]
    checked = 0
    for idx, (g6, g) in enumerate(corpus.instances()):
        if idx % 100:
            continue
        for claim in claims:
            ev = claim.evaluate(g, exact_kit, "restricted")
            if not (ev.applicable and ev.holds):
                continue
            ov = claim.evaluate(g, oracle_kit, "restricted")
            assert (ov.applicable, ov.holds, ov.lhs, ov.rhs) == (True, True, ev.lhs, ev.rhs), (
                claim.id,
                g6,
            )
            checked += 1
    assert checked > 0
    print(f"  bound audit: {report.stats}, spot-checked {checked} held entries")
    _stamp("6 bound-audit", t0, 1800)


def test_criterion_07_certified_refutations():
    t0 = time.perf_counter()
    report = run_audit(["C18", "C20", "C21"], PairCorpus(ExhaustiveCorpus(2)))
    found = {
        (block["claim"], viol["instance"]): viol
        for block in report.claims
        for viol in block["violations"]
    }
    k2 = encode_graph6(complete(2))
    e2 = encode_graph6(empty(2))
    viol = found[("C18", f"{k2},{k2}")]
    assert viol["lhs"] == 4 and viol["rhs"] == 2 and viol["oracle"] == "full"
    viol = found[("C20", f"{k2},{k2}")]
    assert viol["lhs"] == 4 and viol["rhs"] == 2 and viol["oracle"] == "full"
    viol = found[("C21", f"{e2},{e2}")]
    assert viol["lhs"] == 2 and viol["rhs"] == 4 and viol["oracle"] == "full"
    strict = run_audit(["C9"], ExhaustiveCorpus(2), mode="strict")
    viols = {v["instance"]: v for b in strict.claims for v in b["violations"]}
    assert e2 in viols
    assert viols[e2]["lhs"] == 1 and viols[e2]["rhs"] == -1
    assert viols[e2]["oracle"] == "full"
    _stamp("7 certified-refutations", t0, 120)


def test_criterion_08_identity_audit():
    t0 = time.perf_counter()
    report = run_audit(["C17", "C19"], PairCorpus(ExhaustiveCorpus(3)))
    for block in report.claims:
        assert block["counts"]["violated"] == 0
        assert block["counts"]["holds"] == 121  # (1 + 2 + 8)^2 ordered pairs
    _stamp("8 identity-audit", t0, 600)


@pytest.mark.slow
def test_criterion_09_totality_and_complete_iff():
    t0 = time.perf_counter()
    for g, (st, down, up), _ in stability_sweep():
        assert st.defined and down.defined
        assert st.value <= g.order
        assert st.value == min(c.value for c in (down, up) if c.defined)
        assert (st.value == g.order) == g.is_complete()
    report = run_audit(["C26"], ExhaustiveCorpus(6))
    assert report.violation_count == 0
    _stamp("9 totality-and-complete-iff", t0, 1800)


def test_criterion_10_codec_and_table(capsys):
    t0 = time.perf_counter()
    for g in all_graphs(6):
        assert decode_graph6(encode_graph6(g)) == g
    assert main(["table", "paths", "--max-n", "16"]) == 0
    first = capsys.readouterr().out
    assert main(["table", "paths", "--max-n", "16"]) == 0
    second = capsys.readouterr().out
    assert first == second
    rows = dict(line.split("\t") for line in first.splitlines()[1:])
    assert rows == {str(n): str(_path_st(n)) for n in range(2, 17)}
    with capsys.disabled():
        _stamp("10 codec-and-table", t0, 120)
