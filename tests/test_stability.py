import importlib
import hashlib
import random
from itertools import combinations

import pytest

from idstab import VertexSet, delete_vertices, errors
from idstab.codec import decode_graph6
from idstab.families import (
    book,
    complete,
    complete_bipartite,
    cycle,
    empty,
    friendship,
    path,
    star,
)
from idstab.ops import disjoint_union
from idstab.solver import _closed_rows, _gamma_i_in, gamma_i_value
from idstab.stability import (
    Direction,
    StabilityCertificate,
    _hitting_masks,
    _lexmin_left_out,
    oracle_stability,
    stability,
    stability_triple,
)

from conftest import all_graphs, random_graph

# the package rebinds ``idstab.stability`` to the function
stability_module = importlib.import_module("idstab.stability")
solver_module = importlib.import_module("idstab.solver")

_CHANGES = {
    Direction.ANY: lambda base, val: val != base,
    Direction.DECREASE: lambda base, val: val < base,
    Direction.INCREASE: lambda base, val: val > base,
}


def _count_solves(monkeypatch):
    """Wrap every solver entry that the stability module binds, except the
    row builder and the packing walk, which solve nothing; return the list
    that each call of one appends its name to.  A solve entry added later is
    counted too."""
    calls = []

    def counting(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)

        return wrapped

    entries = [
        (name, fn)
        for name, fn in vars(stability_module).items()
        if callable(fn) and getattr(fn, "__module__", None) == solver_module.__name__
        and name not in ("_closed_rows", "_packing_pick")
    ]
    assert entries, "the stability module binds no solver entry"
    for name, fn in entries:
        monkeypatch.setattr(stability_module, name, counting(name, fn))
    return calls


def _subset_masks(n, k):
    """The k-subsets of range(n) as masks, in lexicographic order."""
    for combo in combinations(range(n), k):
        yield sum(1 << v for v in combo)


def _plain_scan(g, direction):
    """The plain removal scan: every k-subset in lexicographic order, each
    removal solved, nothing skipped."""
    closed = _closed_rows(g)
    full = g.full_mask
    base = _gamma_i_in(closed, full)[0]
    changes = _CHANGES[direction]
    for k in range(1, g.order + 1):
        for mask in _subset_masks(g.order, k):
            val = _gamma_i_in(closed, full & ~mask)[0]
            if changes(base, val):
                return StabilityCertificate(base, direction, k, VertexSet(mask), val)
    return StabilityCertificate(base, direction, None, None, None)


class TestStabilityExamples:
    def test_path_8(self):
        assert stability(path(8)).value == 2

    def test_cycle_9(self):
        assert stability(cycle(9)).value == 3

    def test_complete_5(self):
        cert = stability(complete(5))
        assert cert.value == 5
        assert cert.witness.members() == (0, 1, 2, 3, 4)
        assert cert.new_gamma_i == 0

    def test_complete_bipartite_3_2(self):
        assert stability(complete_bipartite(3, 2)).value == 1

    def test_book_4_page_witness(self):
        cert = stability(book(4))
        assert cert.value == 2
        # the first page's two non-spine vertices
        assert cert.witness.members() == (2, 3)
        assert cert.base_gamma_i == 4 and cert.new_gamma_i == 3

    def test_path_6_increase_at_support_vertex(self):
        cert = stability(path(6), Direction.INCREASE)
        assert cert.value == 1
        assert cert.witness.members() == (1,)
        assert cert.new_gamma_i == cert.base_gamma_i + 1

    def test_complete_increase_undefined(self):
        cert = stability(complete(3), Direction.INCREASE)
        assert not cert.defined
        assert cert.value is None and cert.witness is None and cert.new_gamma_i is None

    def test_cycle_8_decrease_adjacent_pair(self):
        cert = stability(cycle(8), Direction.DECREASE)
        assert cert.value == 2
        u, v = cert.witness.members()
        assert (cycle(8).adj[u] >> v) & 1

    def test_two_k2(self):
        assert stability(disjoint_union(path(2), path(2))).value == 2

    def test_string_direction_accepted(self):
        assert stability(path(5), "decrease").value == 2

    def test_null_rejected(self):
        with pytest.raises(errors.EmptyGraph):
            stability(empty(0))


class TestWitnessContract:
    def test_witness_separates_gamma_i(self, rng):
        graphs = [random_graph(rng, rng.randint(2, 9)) for _ in range(25)]
        for g in graphs:
            for direction in Direction:
                cert = stability(g, direction)
                if not cert.defined:
                    continue
                assert len(cert.witness) == cert.value
                sub, _ = delete_vertices(g, cert.witness)
                assert gamma_i_value(sub) == cert.new_gamma_i
                if direction is Direction.DECREASE:
                    assert cert.new_gamma_i < cert.base_gamma_i
                elif direction is Direction.INCREASE:
                    assert cert.new_gamma_i > cert.base_gamma_i
                else:
                    assert cert.new_gamma_i != cert.base_gamma_i

    def test_minimality_by_scan(self, rng):
        # every strictly smaller subset fails the direction's condition
        for _ in range(10):
            g = random_graph(rng, rng.randint(2, 7))
            base = gamma_i_value(g)
            cert = stability(g)
            for mask in range(1, 1 << g.order):
                if mask.bit_count() < cert.value:
                    sub, _ = delete_vertices(g, VertexSet(mask))
                    assert gamma_i_value(sub) == base


class TestOracleStability:
    def test_p5_cross_check(self):
        triple = oracle_stability(path(5))
        assert triple == (2, 2, 2)
        assert triple[0] == stability(path(5), Direction.ANY).value
        assert triple[1] == stability(path(5), Direction.DECREASE).value
        assert triple[2] == stability(path(5), Direction.INCREASE).value

    def test_k4(self):
        assert oracle_stability(complete(4)) == (4, 4, None)

    def test_k1(self):
        assert oracle_stability(complete(1)) == (1, 1, None)

    def test_guard(self):
        with pytest.raises(errors.TooLargeForOracle):
            oracle_stability(empty(13))

    def test_null_rejected(self):
        with pytest.raises(errors.EmptyGraph):
            oracle_stability(empty(0))


def _triple_values(g):
    t = stability_triple(g)
    return (
        t.any.value,
        t.decrease.value,
        t.increase.value,
    )


def _assert_agrees_with_oracle(g):
    expected = oracle_stability(g)
    assert _triple_values(g) == expected
    assert tuple(stability(g, d).value for d in Direction) == expected


def _unpruned_certificate(g, direction):
    """Every k-subset in lexicographic order, nothing skipped."""
    base = gamma_i_value(g)
    for k in range(1, g.order + 1):
        for combo in combinations(range(g.order), k):
            sub, _ = delete_vertices(g, VertexSet.of(combo))
            val = gamma_i_value(sub)
            if _CHANGES[direction](base, val):
                return StabilityCertificate(base, direction, k, VertexSet.of(combo), val)
    return StabilityCertificate(base, direction, None, None, None)


def _assert_seeded_certificates_unpruned():
    rng = random.Random(0x5CA9)
    for _ in range(40):
        g = random_graph(rng, rng.randint(7, 11))
        for direction in Direction:
            assert stability(g, direction) == _unpruned_certificate(g, direction)


class TestAgreementWithOracle:
    def test_exhaustive_order_4(self):
        for g in all_graphs(4):
            _assert_agrees_with_oracle(g)

    def test_random_up_to_order_8(self, rng):
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 8))
            assert _triple_values(g) == oracle_stability(g)

    @pytest.mark.slow
    def test_exhaustive_order_6(self):
        # stability_triple is the three calls (test_triple_matches_single_calls)
        # and runs on every graph here in test_criterion_09
        for g in all_graphs(6):
            assert tuple(stability(g, d).value for d in Direction) == oracle_stability(g)


class TestMinRule:
    """"any" is the first directed witness at the smaller size, with the plain
    scan's certificate: value, witness and new gamma_i."""

    @pytest.mark.slow
    def test_exhaustive_order_6(self):
        # where st_down == st_up >= 2 the first witness wins; some ties go each way
        raised_first = set()
        for g in all_graphs(6):
            cert = stability(g)
            assert cert == _plain_scan(g, Direction.ANY)
            if cert.value >= 2:
                down, up = (stability(g, d).value for d in (Direction.DECREASE, Direction.INCREASE))
                if down == up:
                    raised_first.add(cert.new_gamma_i > cert.base_gamma_i)
        assert raised_first == {False, True}

    def test_seeded_order_7_to_14(self):
        rng = random.Random(0xA41)
        for _ in range(300):
            g = random_graph(rng, rng.randint(7, 14))
            assert stability(g) == _plain_scan(g, Direction.ANY)

    @pytest.mark.parametrize(
        "text,down,up,first",
        [
            # P5 as 4-1-2-3-0: the decrease witness {0, 3} comes before {1, 3}
            ("DLO", (0, 3), (1, 3), Direction.DECREASE),
            # P5 as 4-0-2-1-3: the increase witness {0, 1} comes before {0, 4}
            ("DY_", (0, 4), (0, 1), Direction.INCREASE),
        ],
        ids=["decrease-first", "increase-first"],
    )
    def test_tie_goes_to_the_first_witness(self, text, down, up, first):
        g = decode_graph6(text)
        directed = {d: stability(g, d) for d in (Direction.DECREASE, Direction.INCREASE)}
        assert [(c.value, c.witness.members()) for c in directed.values()] == [(2, down), (2, up)]
        winner = directed[first]
        expected = StabilityCertificate(2, Direction.ANY, 2, winner.witness, winner.new_gamma_i)
        assert stability(g) == expected

    def test_book_10_stops_at_the_decrease_witness(self, monkeypatch):
        # st_down = 2 and st_up = 11: unbounded, the increase scan takes about a
        # minute here; bounded, it stops at once, since the first 2-set that
        # meets every gamma_i-set is the decrease witness {2, 3} itself
        solves = _count_solves(monkeypatch)
        g = book(10)
        cert = stability(g)
        assert (cert.value, cert.witness.members(), cert.new_gamma_i) == (2, (2, 3), 9)
        # gamma_i of G, the n single removals, the gamma_i-set walk and the
        # witness's new gamma_i
        assert len(solves) <= g.order + 4


class TestPruningRules:
    def test_seeded_certificates_match_unpruned_scan(self):
        _assert_seeded_certificates_unpruned()

    def test_partial_family_is_sound(self, monkeypatch):
        # one known gamma_i-set and one learned pair prune less but must skip
        # nothing that matches
        monkeypatch.setattr(stability_module, "GAMMA_I_FAMILY_CAP", 1)
        _assert_seeded_certificates_unpruned()
        # the cap binds: uncapped, book(5) takes 99 solves, and 1,787 here
        solves = _count_solves(monkeypatch)
        g = book(5)
        assert stability(g, Direction.INCREASE) == _plain_scan(g, Direction.INCREASE)
        assert len(solves) > 1_000

    def test_hitting_masks_filter_subset_order(self):
        family = [0b000110, 0b101000, 0b010011]
        meets = [0] * 6
        for i, d in enumerate(family):
            for v in VertexSet(d):
                meets[v] |= 1 << i
        for k in range(1, 7):
            expected = [m for m in _subset_masks(6, k) if all(m & d for d in family)]
            assert list(_hitting_masks(6, k, meets)) == expected

    def test_decrease_from_gamma_i_one_removes_everything(self):
        for g in (complete(4), friendship(3), complete_bipartite(1, 5)):
            cert = stability(g, Direction.DECREASE)
            assert cert.base_gamma_i == 1
            assert cert.value == g.order and cert.new_gamma_i == 0

    def test_pinned_g24_increase(self):
        # the full scan solves about 1.3M removals here; the witness is the one it returns
        g = decode_graph6("W^h~JUyqmJ[b~ahPd]wMUMn_{JEd~QGb]GiPZc{UYAdi^Ep")
        cert = stability(g, Direction.INCREASE)
        assert cert.value == 9
        assert cert.witness.members() == (0, 1, 2, 3, 5, 9, 10, 13, 18)
        assert (cert.base_gamma_i, cert.new_gamma_i) == (3, 4)


class TestNoGoodRule:
    """The increase scan skips every removal that a learned pair rules out,
    and still gives the plain scan's certificate."""

    @pytest.mark.slow
    def test_exhaustive_order_6(self):
        for g in all_graphs(6):
            assert stability(g, Direction.INCREASE) == _plain_scan(g, Direction.INCREASE)

    @pytest.mark.parametrize(
        "g,base,value,witness,new,bound",
        [
            # 882 solves; 23,204 with the gamma_i-set walk alone
            (book(7), 7, 8, (0, 3, 5, 7, 9, 11, 13, 15), 8, 970),
            # 129 solves; 16,131 with the gamma_i-set walk alone
            (complete_bipartite(8, 7), 7, 7, (8, 9, 10, 11, 12, 13, 14), 8, 142),
        ],
        ids=["book7", "kbip8-7"],
    )
    def test_hub_graphs_take_few_solves(self, monkeypatch, g, base, value, witness, new, bound):
        solves = _count_solves(monkeypatch)
        cert = stability(g, Direction.INCREASE)
        expected = StabilityCertificate(base, Direction.INCREASE, value, VertexSet.of(witness), new)
        assert cert == expected
        assert len(solves) <= bound

    def test_seeded_sparse_digest(self, monkeypatch):
        # Many removal solves on these graphs open the value search's packing
        # gate, above which the child order decides which optimal picks a
        # solve returns, and so which no-goods the increase scan learns.  The
        # certificates of all three directions were pinned while the children
        # there were still tried in ascending order.
        gated = []
        cover_min = solver_module._cover_min

        def counting(closed, comp, cap, *args):
            gated.append(comp.bit_count() > 2 * cap)
            return cover_min(closed, comp, cap, *args)

        monkeypatch.setattr(solver_module, "_cover_min", counting)
        rng = random.Random(0x5A25)
        lines = []
        for _ in range(20):
            g = random_graph(rng, rng.randint(14, 24), rng.uniform(0.05, 0.25))
            for d in Direction:
                cert = stability(g, d)
                witness = cert.witness.members() if cert.defined else None
                lines.append(f"{d.value} {cert.value} {witness} {cert.new_gamma_i}")
        assert sum(gated) >= 200
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "a0aea0fdf9cc203069a19ce466619b99c924aa0a0188b6c37f0870e3952bab21"


def _least_left_out(g):
    """gamma_i of g, and the (size, sorted members)-least V - N[D] over the
    independent sets D of at most gamma_i - 1 vertices, as a mask: a subset
    filter that shares no code with the left-out search.  The sets D come
    by size, so the first D that leaves nothing out gives gamma_i."""
    closed = [row | (1 << v) for v, row in enumerate(g.adj)]
    keys = []  # (size, sorted members, mask) of each V - N[D] with fewer picks
    for size in range(g.order + 1):
        level = []
        for combo in combinations(range(g.order), size):
            if any(g.adj[u] >> v & 1 for u, v in combinations(combo, 2)):
                continue
            out = g.full_mask
            for v in combo:
                out &= ~closed[v]
            level.append((out.bit_count(), VertexSet(out).members(), out))
        if any(not out for *_, out in level):
            return size, min(keys)[2]
        keys += level
    raise AssertionError("some maximal independent set dominates every graph")


def _assert_left_out_matches_reference(g):
    """For every k below the least left-out set's size the search finds
    nothing, and at that size it finds that set."""
    base, least = _least_left_out(g)
    closed = _closed_rows(g)
    for k in range(1, least.bit_count()):
        assert _lexmin_left_out(closed, g.full_mask, base - 1, k) == 0
    assert _lexmin_left_out(closed, g.full_mask, base - 1, least.bit_count()) == least


def _searched_decrease(g):
    """The single removals, then the left-out search for k = 2, 3, ..., as
    ``stability`` finds a decrease witness when gamma_i is not 1."""
    closed = _closed_rows(g)
    full = g.full_mask
    base = _gamma_i_in(closed, full)[0]
    for v in range(g.order):
        val = _gamma_i_in(closed, full & ~(1 << v))[0]
        if val < base:
            return StabilityCertificate(base, Direction.DECREASE, 1, VertexSet(1 << v), val)
    for k in range(2, g.order + 1):
        out = _lexmin_left_out(closed, full, base - 1, k)
        if out:
            new = _gamma_i_in(closed, full & ~out)[0]
            return StabilityCertificate(base, Direction.DECREASE, k, VertexSet(out), new)
    raise AssertionError("removing every vertex always decreases gamma_i")


class TestDecreaseSearch:
    """The left-out search gives the plain scan's certificate: value, witness
    and new gamma_i."""

    @pytest.mark.slow
    def test_exhaustive_order_6(self):
        for g in all_graphs(6):
            assert stability(g, Direction.DECREASE) == _plain_scan(g, Direction.DECREASE)

    def test_seeded_order_7_to_13(self):
        rng = random.Random(0xDEC5)
        for _ in range(300):
            g = random_graph(rng, rng.randint(7, 13))
            assert stability(g, Direction.DECREASE) == _plain_scan(g, Direction.DECREASE)

    @pytest.mark.parametrize(
        "n,p,seed",
        [(30, 0.1, 0), (30, 0.1, 1), (30, 0.1, 2), (40, 0.1, 0), (40, 0.1, 1), (40, 0.1, 2), (24, 0.2, 1)],
    )
    def test_seeded_sparse(self, n, p, seed):
        g = random_graph(random.Random(seed), n, p)
        assert stability(g, Direction.DECREASE) == _plain_scan(g, Direction.DECREASE)

    @pytest.mark.slow
    def test_left_out_search_exhaustive_order_6(self):
        # every k up to st_down, also on graphs where a single removal lowers
        # gamma_i, which ``stability`` answers without the search
        searched = 0
        for g in all_graphs(6):
            if gamma_i_value(g) >= 2:
                _assert_left_out_matches_reference(g)
                searched += 1
        assert searched == 28_263

    def test_left_out_search_seeded_order_7_to_12(self):
        rng = random.Random(0x1EF7)
        for _ in range(300):
            g = random_graph(rng, rng.randint(7, 12))
            if gamma_i_value(g) >= 2:
                _assert_left_out_matches_reference(g)

    def test_cycle_8_adjacent_pair(self):
        g = cycle(8)
        cert = StabilityCertificate(3, Direction.DECREASE, 2, VertexSet.of([0, 1]), 2)
        assert stability(g, Direction.DECREASE) == cert
        closed = _closed_rows(g)
        # two picks leave at least two vertices of C8 undominated; D = {3, 6} leaves {0, 1}
        assert _lexmin_left_out(closed, g.full_mask, 2, 1) == 0
        assert _lexmin_left_out(closed, g.full_mask, 2, 2) == 0b11

    def test_left_out_branch_bans_its_neighbourhood(self, monkeypatch):
        # the packing walk runs once per node that passes the covering bound
        # and leaves some open vertex within the pool's reach; without the
        # ban on N[u], picks may dominate a left-out u, and this graph takes
        # 124 such walks instead of 46
        walks = []
        packing_pick = stability_module._packing_pick

        def counting(*args):
            walks.append(args)
            return packing_pick(*args)

        monkeypatch.setattr(stability_module, "_packing_pick", counting)
        stability(random_graph(random.Random(1), 24, 0.2), Direction.DECREASE)
        assert len(walks) <= 46

    @pytest.mark.parametrize(
        "g",
        [complete(1), complete(20), star(30), friendship(6)],
        ids=["K1", "K20", "star30", "friendship6"],
    )
    def test_gamma_i_one_answers_at_once(self, g, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return _lexmin_left_out(*args)

        monkeypatch.setattr(stability_module, "_lexmin_left_out", counting)
        cert = stability(g, Direction.DECREASE)
        assert not calls
        expected = StabilityCertificate(1, Direction.DECREASE, g.order, VertexSet(g.full_mask), 0)
        assert cert == expected
        if g.order <= 13:
            assert _plain_scan(g, Direction.DECREASE) == expected
        else:  # the plain scan visits all 2^n - 1 removals here; the searched one has no shortcut
            assert _searched_decrease(g) == expected


class TestInvariants:
    def test_min_rule_and_cap(self):
        for g in all_graphs(5):
            t = stability_triple(g)
            defined = [c.value for c in (t.decrease, t.increase) if c.defined]
            assert t.any.value == min(defined)
            assert t.any.value <= g.order

    def test_complete_equality(self):
        for n in range(1, 9):
            assert stability(complete(n)).value == n

    def test_triple_matches_single_calls(self, rng):
        for _ in range(10):
            g = random_graph(rng, rng.randint(2, 7))
            t = stability_triple(g)
            assert t.any == stability(g, Direction.ANY)
            assert t.decrease == stability(g, Direction.DECREASE)
            assert t.increase == stability(g, Direction.INCREASE)

    def test_deletion_relation_order_5(self):
        # st(G) <= st(G - v) + 1 for every vertex
        for g in all_graphs(5):
            if g.order < 2:
                continue
            st = stability(g).value
            for v in range(g.order):
                sub, _ = delete_vertices(g, VertexSet.of([v]))
                assert st <= stability(sub).value + 1
