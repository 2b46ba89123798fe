import random
import sys
from itertools import combinations, islice

import pytest

from idstab import VertexSet, build_graph, classify_set, errors, solver
from idstab.core import component_masks
from idstab.families import (
    book,
    complete,
    cycle,
    empty,
    gen_friendship,
    path,
    petersen,
    star,
)
from idstab.ops import disjoint_union, join, lexicographic
from idstab.oracles import _brute_gamma
from idstab.solver import (
    _INFEASIBLE,
    _closed_rows,
    _cover_cap,
    _cover_min,
    _covers,
    _packing,
    alpha,
    alpha_value,
    enumerate_maximal_independent_sets,
    gamma,
    gamma_i,
    gamma_i_value,
    gamma_value,
    max_induced_star,
    oracle_gamma_i,
)

from conftest import all_graphs, brute_alpha, brute_gamma, brute_gamma_i, random_graph


class TestGammaI:
    def test_path_7(self):
        assert gamma_i(path(7)).value == 3

    def test_complete(self):
        for n in range(1, 9):
            cert = gamma_i(complete(n))
            assert cert.value == 1 and cert.witness.members() == (0,)

    def test_book_3(self):
        assert gamma_i(book(3)).value == 3

    def test_flower_4_2(self):
        assert gamma_i(gen_friendship(4, 2)).value == 3

    def test_null_graph_convention(self):
        cert = gamma_i(empty(0))
        assert cert.value == 0 and cert.witness.members() == ()

    def test_witness_reverifies(self, rng):
        for g in list(all_graphs(4)) + [random_graph(rng, rng.randint(5, 10)) for _ in range(30)]:
            cert = gamma_i(g)
            assert len(cert.witness) == cert.value
            assert classify_set(g, cert.witness).maximal_independent

    def test_witness_is_lexicographically_first(self):
        for g in all_graphs(4):
            opts = [
                VertexSet(m).members()
                for m in range(1 << g.order)
                if classify_set(g, VertexSet(m)).maximal_independent
            ]
            k = min(len(o) for o in opts)
            assert gamma_i(g).witness.members() == min(o for o in opts if len(o) == k)


class TestGamma:
    def test_star(self):
        cert = gamma(star(5))
        assert cert.value == 1 and cert.witness.members() == (0,)

    def test_frozen_small_values(self):
        # brute subset filter agrees and pins the literals
        assert brute_gamma(cycle(6)) == 2 and gamma(cycle(6)).value == 2
        assert brute_gamma(path(5)) == 2 and gamma(path(5)).value == 2

    def test_agrees_with_brute_force(self, rng):
        for g in all_graphs(4):
            assert gamma(g).value == brute_gamma(g)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 9))
            cert = gamma(g)
            assert cert.value == brute_gamma(g)
            flags = classify_set(g, cert.witness)
            assert flags.dominating

    def test_null_rejected(self):
        with pytest.raises(errors.EmptyGraph):
            gamma(empty(0))


class TestAlpha:
    def test_examples(self):
        assert alpha(cycle(5)).value == 2
        assert alpha(complete(7)).value == 1
        assert alpha(empty(6)).value == 6

    def test_agrees_with_brute_force(self, rng):
        for g in all_graphs(4):
            assert alpha(g).value == brute_alpha(g)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 10))
            cert = alpha(g)
            assert cert.value == brute_alpha(g)
            assert classify_set(g, cert.witness).independent

    def test_witness_is_lexicographically_first(self):
        # a subset filter: the smallest sorted member list among the maximum independent sets
        rng = random.Random(0xA1F)
        graphs = list(all_graphs(5)) + [random_graph(rng, rng.randint(7, 12)) for _ in range(60)]
        for g in graphs:
            value = brute_alpha(g)
            first = min(
                VertexSet(mask).members()
                for mask in range(1 << g.order)
                if mask.bit_count() == value and classify_set(g, VertexSet(mask)).independent
            )
            assert alpha(g).witness.members() == first, (g.order, g.adj)

    def test_null_rejected(self):
        with pytest.raises(errors.EmptyGraph):
            alpha(empty(0))


class TestOracleGammaI:
    def test_path_7(self):
        assert oracle_gamma_i(path(7)) == 3 == gamma_i(path(7)).value

    def test_petersen(self):
        assert oracle_gamma_i(petersen()) == 3

    def test_null(self):
        assert oracle_gamma_i(empty(0)) == 0

    def test_guard(self):
        with pytest.raises(errors.TooLargeForOracle):
            oracle_gamma_i(empty(21))


class TestSolverOracleAgreement:
    def test_exhaustive_order_6(self):
        for g in all_graphs(6):
            assert gamma_i_value(g) == oracle_gamma_i(g), g
            assert gamma_value(g) == _brute_gamma(g), g

    def test_random_order_12(self, rng):
        for _ in range(50):
            g = random_graph(rng, 12)
            assert gamma_i_value(g) == oracle_gamma_i(g)


class TestDominationChain:
    def test_chain_exhaustive(self):
        for g in all_graphs(5):
            assert gamma_value(g) <= gamma_i_value(g) <= alpha_value(g)

    def test_component_additivity(self, rng):
        for _ in range(40):
            g1 = random_graph(rng, rng.randint(1, 6))
            g2 = random_graph(rng, rng.randint(1, 6))
            assert gamma_i_value(disjoint_union(g1, g2)) == gamma_i_value(g1) + gamma_i_value(g2)

    @pytest.mark.slow
    def test_single_deletion_lower_bound(self):
        # gamma_i(G - v) >= gamma_i(G) - 1 for every vertex of every small graph
        from idstab import delete_vertices

        for g in all_graphs(6):
            gi = gamma_i_value(g)
            for v in range(g.order):
                sub, _ = delete_vertices(g, VertexSet.of([v]))
                assert gamma_i_value(sub) >= gi - 1


class TestEnumerateMIS:
    def test_triangle(self):
        out = [s.members() for s in enumerate_maximal_independent_sets(complete(3))]
        assert out == [(0,), (1,), (2,)]

    def test_c4_diagonals(self):
        out = [s.members() for s in enumerate_maximal_independent_sets(cycle(4))]
        assert out == [(0, 2), (1, 3)]

    def test_p3(self):
        out = [s.members() for s in enumerate_maximal_independent_sets(path(3))]
        assert out == [(0, 2), (1,)]

    def test_null_rejected(self):
        with pytest.raises(errors.EmptyGraph):
            list(enumerate_maximal_independent_sets(empty(0)))

    def test_counts_match_subset_filter(self):
        for g in all_graphs(5):
            seen = list(enumerate_maximal_independent_sets(g))
            expected = [
                m
                for m in range(1 << g.order)
                if classify_set(g, VertexSet(m)).maximal_independent
            ]
            assert sorted(s.mask for s in seen) == expected
            assert len({s.mask for s in seen}) == len(seen)  # no duplicates

    def test_lexicographic_order(self):
        for g in all_graphs(5):
            out = [s.members() for s in enumerate_maximal_independent_sets(g)]
            assert out == sorted(out), g


def _ids_by_filter(g, k):
    """The independent dominating sets of k vertices, as masks in
    lexicographic order of their sorted member lists, by a filter over every
    k-subset."""
    found = []
    for combo in combinations(range(g.order), k):
        mask = reach = 0
        for v in combo:
            mask |= 1 << v
            reach |= g.adj[v] | 1 << v
        if reach == g.full_mask and not any(g.adj[v] & mask for v in combo):
            found.append(mask)
    return found


class TestMinimumIdsFamily:
    def test_matches_subset_filter(self):
        # the family walk gains the packing bound and the next-pick cut, so
        # it is checked on every graph of order <= 6 and on seeded ones above
        rng = random.Random(0x1D5F)
        seeded = [random_graph(rng, rng.randint(7, 14)) for _ in range(100)]
        for g in list(all_graphs(6)) + seeded:
            k = gamma_i_value(g)
            found = list(_covers(_closed_rows(g), g.full_mask, k, True))
            assert found == _ids_by_filter(g, k), g
            if g.order <= 5:
                walk = [s.mask for s in enumerate_maximal_independent_sets(g) if len(s) == k]
                assert found == walk, g  # both callers of the shared walk see one order

    def test_limit_keeps_a_prefix(self):
        g = disjoint_union(path(2), disjoint_union(path(2), path(2)))  # 8 gamma_i-sets
        closed = _closed_rows(g)
        every = list(_covers(closed, g.full_mask, 3, True))
        assert len(every) == 8
        # a capped family is the lexicographically first gamma_i-sets
        first = [VertexSet(m).members() for m in islice(_covers(closed, g.full_mask, 3, True), 5)]
        assert first == [(0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5), (1, 2, 4)]


class TestMaxInducedStar:
    def test_star_itself(self):
        assert max_induced_star(star(4)) == 4

    def test_complete_graphs(self):
        for n in range(2, 7):
            assert max_induced_star(complete(n)) == 1

    def test_cycle_6(self):
        assert max_induced_star(cycle(6)) == 2

    def test_edgeless(self):
        assert max_induced_star(empty(5)) == 0

    def test_null_rejected(self):
        with pytest.raises(errors.EmptyGraph):
            max_induced_star(empty(0))

    def test_matches_brute_neighborhood_alpha(self, rng):
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 8))
            best = 0
            for v in range(g.order):
                nbrs = [u for u in range(g.order) if (g.adj[v] >> u) & 1]
                for mask in range(1 << len(nbrs)):
                    mem = [nbrs[i] for i in range(len(nbrs)) if mask >> i & 1]
                    if all(not (g.adj[a] >> b) & 1 for a in mem for b in mem):
                        best = max(best, len(mem))
            assert max_induced_star(g) == best


def test_gamma_i_matches_test_local_filter(rng):
    # a second, test-owned filter besides oracle_gamma_i
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 8))
        assert gamma_i_value(g) == brute_gamma_i(g)


# The gamma_i, gamma and witness searches as they were before the packing bound,
# pruned by the covering bound alone: the referees of TestPackingBound.

def _ref_ids_min(closed, comp):
    cap = _cover_cap(closed, comp)
    best = comp.bit_count() + 1

    def rec(covered, excluded, size):
        nonlocal best
        uncovered = comp & ~covered
        if not uncovered:
            best = size
            return
        if size + -(-uncovered.bit_count() // cap) >= best:
            return
        v = (uncovered & -uncovered).bit_length() - 1
        cands = closed[v] & uncovered & ~excluded
        ban = 0
        while cands:
            low = cands & -cands
            cands ^= low
            rec(covered | (closed[low.bit_length() - 1] & comp), excluded | ban, size + 1)
            ban |= low

    rec(0, 0, 0)
    return best


def _ref_dom_min(closed, comp):
    cap = _cover_cap(closed, comp)
    best = comp.bit_count()

    def rec(dominated, excluded, size):
        nonlocal best
        und = comp & ~dominated
        if not und:
            if size < best:
                best = size
            return
        if size + -(-und.bit_count() // cap) >= best:
            return
        v = (und & -und).bit_length() - 1
        cands = closed[v] & comp & ~excluded
        ban = 0
        while cands:
            low = cands & -cands
            cands ^= low
            rec(dominated | (closed[low.bit_length() - 1] & comp), excluded | ban, size + 1)
            ban |= low

    rec(0, 0, 0)
    return best


def _ref_lexmin_ids(closed, comp, k):
    cap = _cover_cap(closed, comp)

    def rec(covered, chosen, floor, size):
        uncovered = comp & ~covered
        if not uncovered:
            return chosen
        if size == k or size + -(-uncovered.bit_count() // cap) > k:
            return None
        cands = uncovered & floor
        m = uncovered
        while m:
            low = m & -m
            m ^= low
            if not closed[low.bit_length() - 1] & cands:
                return None
        while cands:
            low = cands & -cands
            cands ^= low
            u = low.bit_length() - 1
            got = rec(covered | (closed[u] & comp), chosen | low, -1 << (u + 1), size + 1)
            if got is not None:
                return got
        return None

    return rec(0, 0, -1, 0)


def _ref_lexmin_dom(closed, comp, k):
    cap = _cover_cap(closed, comp)

    def rec(dominated, chosen, floor, size):
        und = comp & ~dominated
        if not und:
            return chosen
        if size == k or size + -(-und.bit_count() // cap) > k:
            return None
        future = comp & floor
        m = und
        while m:
            low = m & -m
            m ^= low
            if not closed[low.bit_length() - 1] & future:
                return None
        cands = future
        while cands:
            low = cands & -cands
            cands ^= low
            u = low.bit_length() - 1
            if closed[u] & und:
                got = rec(dominated | (closed[u] & comp), chosen | low, -1 << (u + 1), size + 1)
                if got is not None:
                    return got
        return None

    return rec(0, 0, -1, 0)


def _ref_gamma_i(g):
    """``_new_gamma_i``'s tuple by the pre-change searches: gamma_i twice (as
    gamma_i_value and as gamma_i computes it) and the witness."""
    closed = _closed_rows(g)
    value = witness = 0
    for comp in component_masks(closed, g.full_mask):
        k = _ref_ids_min(closed, comp)
        value += k
        witness |= _ref_lexmin_ids(closed, comp, k)
    return value, value, witness


def _new_gamma_i(g):
    cert = gamma_i(g)
    return gamma_i_value(g), cert.value, cert.witness.mask


def _ref_gamma(g):
    closed = _closed_rows(g)
    value = witness = 0
    for comp in component_masks(closed, g.full_mask):
        k = _ref_dom_min(closed, comp)
        value += k
        witness |= _ref_lexmin_dom(closed, comp, k)
    return value, witness


def _new_gamma(g):
    cert = gamma(g)
    return cert.value, cert.witness.mask


def _sparse_graphs():
    """Seeded G(16..44, 0.05..0.15), paths, cycles and disjoint unions.

    The random graphs stop at average degree 3: above it the pre-change
    searches take seconds on a single graph.
    """
    rng = random.Random(0x9AC)
    graphs = [
        random_graph(rng, n, p)
        for n in range(16, 45, 4)
        for p in (0.05, 0.1, 0.15)
        if (n - 1) * p <= 3
    ]
    graphs += [path(n) for n in (7, 13, 24, 45)] + [cycle(n) for n in (7, 12, 25, 44)]
    graphs.append(disjoint_union(path(11), cycle(9)))
    graphs.append(disjoint_union(graphs[0], path(14)))
    graphs.append(disjoint_union(cycle(17), disjoint_union(empty(2), graphs[2])))
    return graphs


def _fewest_dominators(closed, uncovered, members):
    """The fewest of ``members`` whose closed neighborhoods cover ``uncovered``, or None."""
    for k in range(len(members) + 1):
        for combo in combinations(members, k):
            reach = 0
            for v in combo:
                reach |= closed[v]
            if not uncovered & ~reach:
                return k
    return None


class TestPackingBound:
    def test_is_a_lower_bound_on_every_completion(self):
        rng = random.Random(0x9AC8)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 8))
            closed = _closed_rows(g)
            uncovered = rng.getrandbits(g.order)
            cands = rng.getrandbits(g.order)
            need = _fewest_dominators(closed, uncovered, [v for v in range(g.order) if cands >> v & 1])
            got = _packing(closed, uncovered, cands)[0]
            if need is None:
                assert got == _INFEASIBLE
            else:
                assert got <= need

    def test_counts_disjoint_dominator_sets(self):
        g = path(7)  # N[0], N[3] and N[6] are pairwise disjoint
        closed = _closed_rows(g)
        # N[0] and N[6] are the smallest dominator sets, and N[0]'s top, 1, the lowest top
        assert _packing(closed, g.full_mask, g.full_mask) == (3, 0b11, 2)
        assert _packing(closed, 0b1, 0b1000) == (_INFEASIBLE, 0, 0)  # nothing in cands dominates 0

    def test_reports_the_smallest_dominator_set_and_the_lowest_top(self):
        rng = random.Random(0x9ACA)
        infeasible = 0
        for _ in range(400):
            g = random_graph(rng, rng.randint(1, 10))
            closed = _closed_rows(g)
            uncovered = rng.getrandbits(g.order) or 1
            cands = rng.getrandbits(g.order)
            doms = [closed[u] & cands for u in range(g.order) if uncovered >> u & 1]
            bound, smallest, lim = _packing(closed, uncovered, cands)
            assert (bound == _INFEASIBLE) == (0 in doms)
            assert smallest == min(doms, key=int.bit_count)  # the first of the fewest members
            assert lim == min(dom.bit_length() for dom in doms)
            infeasible += bound == _INFEASIBLE
        assert 0 < infeasible < 400

    def test_exhaustive_order_6_matches_pre_change_witnesses(self):
        # no block of order <= 6 opens _cover_min's gate, so only the witness passes change here
        for g in all_graphs(6):
            closed = _closed_rows(g)
            for comp in component_masks(closed, g.full_mask):
                k = _ref_ids_min(closed, comp)
                assert next(_covers(closed, comp, k, True)) == _ref_lexmin_ids(closed, comp, k), g
                k = _ref_dom_min(closed, comp)
                assert next(_covers(closed, comp, k, False)) == _ref_lexmin_dom(closed, comp, k), g

    def test_seeded_sparse_matches_pre_change_searches(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return _packing(*args)

        monkeypatch.setattr(solver, "_packing", counted)
        # packing walks made by the value search, which runs alone in gamma_i_value and gamma_value
        reached_gamma_i = reached_gamma = 0
        rng = random.Random(0x9AD)
        larger = [random_graph(rng, rng.randint(38, 50), rng.choice((0.08, 0.09, 0.1))) for _ in range(8)]
        for g in _sparse_graphs() + larger:
            del calls[:]
            gamma_i_value(g)
            reached_gamma_i += len(calls)
            del calls[:]
            gamma_value(g)
            reached_gamma += len(calls)
            assert _new_gamma_i(g) == _ref_gamma_i(g), g
            if g.order <= 30:  # the pre-change gamma searches are slow on larger sparse graphs
                assert _new_gamma(g) == _ref_gamma(g), g
        assert reached_gamma_i and reached_gamma

    def test_gamma_above_the_gate_matches_brute_force(self):
        rng = random.Random(0x9AC9)
        graphs = [path(n) for n in (10, 13, 16)] + [cycle(n) for n in (11, 14)]
        for n in (10, 12, 14, 16):  # random trees of max degree 3: each vertex joins an earlier one
            degree = [0] * n
            edges = []
            for v in range(1, n):
                u = rng.choice([w for w in range(v) if degree[w] < 3])
                degree[u] += 1
                degree[v] += 1
                edges.append((u, v))
            graphs.append(build_graph(n, edges))
        for m in (4, 4, 5, 5):  # caterpillars, spine of m with two leaves each, labels shuffled:
            label = list(range(3 * m))  # gamma = m < gamma_i, so a gamma-set has adjacent picks
            rng.shuffle(label)
            edges = [(label[s], label[s + 1]) for s in range(m - 1)]
            edges += [(label[s], label[m + 2 * s + i]) for s in range(m) for i in (0, 1)]
            graphs.append(build_graph(3 * m, edges))
        for g in graphs:
            closed = _closed_rows(g)
            (comp,) = component_masks(closed, g.full_mask)
            assert comp.bit_count() > 2 * _cover_cap(closed, comp), g  # the packing gate is open
            value = _brute_gamma(g)
            assert gamma_value(g) == value, g
            assert _new_gamma(g) == _ref_gamma(g), g
            cert = gamma(g)
            assert cert.value == value == len(cert.witness), g
            assert classify_set(g, cert.witness).dominating, g


def _search_calls(fn, *args):
    """``fn(*args)`` and the search nodes it visited: the calls to solver's
    nested ``rec`` searches plus the nodes ``_covers`` popped off its stack."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if code.co_filename != solver.__file__:
            return
        if event == "call" and code.co_name == "rec":
            calls += 1
        elif event == "c_call" and code.co_name == "_covers" and arg.__name__ == "pop":
            calls += 1

    sys.setprofile(profiler)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, calls


def _dominated_blocks(g):
    closed = _closed_rows(g)
    return [c for c in component_masks(closed, g.full_mask) if _cover_cap(closed, c) == c.bit_count()]


class TestSearchSize:
    def test_gamma_i_nodes_on_sparse_graphs(self):
        # Without the value search's tightest-vertex branching and the witness
        # pass's next-pick cut the searches made 17,015 calls here; with only
        # the cut 7,925, with only the branching 14,659, with both 5,569.
        calls = 0
        for seed in range(6):
            g = random_graph(random.Random(seed), 40, 0.1)
            cert, made = _search_calls(gamma_i, g)
            assert cert.value == _ref_gamma_i(g)[0], g
            calls += made
        assert calls <= 6_500


class TestDominatingVertexExit:
    def test_no_search_on_a_block_with_a_dominating_vertex(self):
        blocks = 0
        for g in all_graphs(5):
            closed = _closed_rows(g)
            for comp in _dominated_blocks(g):
                blocks += 1
                assert _search_calls(_cover_min, closed, comp, True) == (1, 0), g
                assert _search_calls(_cover_min, closed, comp, False) == (1, 0), g
        assert blocks
        closed = _closed_rows(cycle(6))  # no dominating vertex: the search runs
        assert _search_calls(_cover_min, closed, 0b111111, True)[1] > 0

    def test_seeded_dense_joins_and_products(self):
        rng = random.Random(0xD0E1)
        graphs = [random_graph(rng, rng.randint(7, 20), rng.choice((0.5, 0.7, 0.9))) for _ in range(30)]
        graphs += [join(complete(1), cycle(n)) for n in range(3, 12)]  # wheels
        graphs += [join(complete(1), random_graph(rng, rng.randint(6, 16), 0.5)) for _ in range(8)]
        graphs += [join(random_graph(rng, 5), random_graph(rng, rng.randint(3, 12))) for _ in range(8)]
        graphs += [
            lexicographic(star(3), complete(4)),
            lexicographic(complete(3), star(4)),
            lexicographic(path(3), join(complete(1), path(4))),
            lexicographic(complete(2), random_graph(rng, 8, 0.5)),
            lexicographic(random_graph(rng, 4, 0.5), complete(4)),
        ]
        fired = 0
        for g in graphs:
            fired += len(_dominated_blocks(g))
            assert gamma_i_value(g) == oracle_gamma_i(g), g
            assert gamma_value(g) == _brute_gamma(g), g
            assert _new_gamma_i(g) == _ref_gamma_i(g), g
            assert _new_gamma(g) == _ref_gamma(g), g
        assert fired >= 20
