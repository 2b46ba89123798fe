import random
import sys
from itertools import combinations, islice

import pytest

from idstab import VertexSet, build_graph, classify_set, errors, solver
from idstab.core import component_masks, iter_bits
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
from idstab.ops import corona, disjoint_union, join, lexicographic
from idstab.oracles import _brute_gamma
from idstab.solver import (
    _closed_rows,
    _cover_min,
    _covers,
    _lexmin_cover,
    _packing_pick,
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
from idstab.stability import GAMMA_I_FAMILY_CAP

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
    @pytest.mark.slow
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
            enumerate_maximal_independent_sets(empty(0))

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


def _parent_packing_limit(closed, uncovered, cands, need):
    """The family walk's packing walk before it shared ``_packing_pick``: 0
    when the count over the dominator sets in vertex order reaches ``need``
    or some dominator set is empty, otherwise one more than the lowest top
    member of the dominator sets."""
    used = count = 0
    lim = cands.bit_length()
    for u in iter_bits(uncovered):
        dom = closed[u] & cands
        if not dom:
            return 0
        if not dom & used:
            used |= dom
            count += 1
            if count == need:
                return 0
        lim = min(lim, dom.bit_length())
    return lim


def _parent_covers(closed, universe, cap, k):
    """``_covers`` as it was before it shared ``_packing_pick``: the
    candidates stop below the lowest top of every dominator set."""
    stack = [(0, 0, -1, 0)]
    while stack:
        covered, chosen, floor, size = stack.pop()
        uncovered = universe & ~covered
        if not uncovered:
            yield chosen
            continue
        if size == k or size + -(-uncovered.bit_count() // cap) > k:
            continue
        cands = uncovered & floor
        lim = _parent_packing_limit(closed, uncovered, cands, k - size + 1)
        if not lim:
            continue
        cands &= (1 << lim) - 1
        while cands:
            u = cands.bit_length() - 1
            cands ^= 1 << u
            stack.append((covered | (closed[u] & universe), chosen | 1 << u, -1 << (u + 1), size + 1))


class TestMinimumIdsFamily:
    def test_matches_subset_filter(self):
        # the family walk gains the packing bound and the next-pick cut, so
        # it is checked on every graph of order <= 6 and on seeded ones above
        rng = random.Random(0x1D5F)
        seeded = [random_graph(rng, rng.randint(7, 14)) for _ in range(100)]
        for g in list(all_graphs(6)) + seeded:
            k = gamma_i_value(g)
            closed = _closed_rows(g)
            found = list(_covers(closed, g.full_mask, _ref_cap(closed, g.full_mask), k))
            assert found == _ids_by_filter(g, k), g
            if g.order <= 5:
                walk = [s.mask for s in enumerate_maximal_independent_sets(g) if len(s) == k]
                assert found == walk, g  # both callers of the shared walk see one order

    def test_limit_keeps_a_prefix(self):
        g = disjoint_union(path(2), disjoint_union(path(2), path(2)))  # 8 gamma_i-sets
        closed = _closed_rows(g)
        every = list(_covers(closed, g.full_mask, 2, 3))
        assert len(every) == 8
        # a capped family is the lexicographically first gamma_i-sets
        first = [VertexSet(m).members() for m in islice(_covers(closed, g.full_mask, 2, 3), 5)]
        assert first == [(0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5), (1, 2, 4)]

    def test_walk_matches_the_parent_walk(self, monkeypatch):
        # the walk prunes with the shared packing walk and cuts at the top of
        # the set it returns, not at the lowest top of every dominator set:
        # the same sets come out in the same order, for stability's capped
        # gamma_i-set family and for the maximal independent sets
        rng = random.Random(0x1D60)
        sparse = [random_graph(rng, rng.randint(16, 40), rng.uniform(0.06, 0.15)) for _ in range(60)]
        values = [gamma_i_value(g) for g in sparse]
        pruned = []

        def counted(*args):
            dom = _packing_pick(*args)
            pruned.append(not dom)
            return dom

        monkeypatch.setattr(solver, "_packing_pick", counted)  # now only the walks below call it
        several = 0
        for g, k in zip(sparse, values):
            closed = _closed_rows(g)
            cap = max(map(int.bit_count, closed))
            found = list(islice(_covers(closed, g.full_mask, cap, k), GAMMA_I_FAMILY_CAP))
            assert found == list(islice(_parent_covers(closed, g.full_mask, cap, k), GAMMA_I_FAMILY_CAP)), g
            several += len(found) > 1
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 14))
            closed = _closed_rows(g)
            cap = max(map(int.bit_count, closed))
            found = [s.mask for s in enumerate_maximal_independent_sets(g)]
            assert found == list(_parent_covers(closed, g.full_mask, cap, g.order)), g
            several += len(found) > 1
        assert several and any(pruned)


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

def _ref_cap(rows, comp):
    """The largest ``|rows[v] & comp|`` over the members v of ``comp``; with
    closed rows, the most vertices of ``comp`` that one pick dominates."""
    return max((rows[v] & comp).bit_count() for v in iter_bits(comp))


def _ref_ids_min(closed, comp):
    cap = _ref_cap(closed, comp)
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
    cap = _ref_cap(closed, comp)
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
    cap = _ref_cap(closed, comp)

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
    cap = _ref_cap(closed, comp)

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
    for comp, _ in component_masks(closed, g.full_mask):
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
    for comp, _ in component_masks(closed, g.full_mask):
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


def _ref_packing(closed, uncovered, cands):
    """The packing walk in vertex order without a threshold: its running
    count after each uncovered vertex (None at a vertex with no dominator in
    ``cands``, where it stops) and the first dominator set of fewest members
    (0 when it stopped early)."""
    counts, doms = [], []
    used = count = 0
    for u in iter_bits(uncovered):
        dom = closed[u] & cands
        if not dom:
            counts.append(None)
            return counts, 0
        if not dom & used:
            used |= dom
            count += 1
        counts.append(count)
        doms.append(dom)
    return counts, min(doms, key=int.bit_count)


def _ref_sorted_count(closed, uncovered, cands):
    """The packing count over the dominator sets taken smallest first (ties
    in vertex order), without a threshold."""
    used = count = 0
    for dom in sorted((closed[u] & cands for u in iter_bits(uncovered)), key=int.bit_count):
        if not dom & used:
            used |= dom
            count += 1
    return count


def _ascending_packing_pick(closed, uncovered, cands, need):
    """The value search's packing walk as it was, counting the dominator sets
    in vertex order: 0 at an empty set or once the count reaches ``need``,
    otherwise the first set of fewest members."""
    used = count = 0
    smallest = cands
    for u in iter_bits(uncovered):
        dom = closed[u] & cands
        if not dom:
            return 0
        if not dom & used:
            used |= dom
            count += 1
            if count == need:
                return 0
        if dom.bit_count() < smallest.bit_count():
            smallest = dom
    return smallest


class _Rows(list):
    """Closed rows that count how often a walk reads them."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return list.__getitem__(self, i)


class TestPackingBound:
    def test_is_a_lower_bound_on_every_completion(self):
        # a node whose fewest completing picks are ``fewest`` survives the walk
        # at need = fewest + 1, and a node with no completion prunes at any need
        rng = random.Random(0x9AC8)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 8))
            closed = _closed_rows(g)
            uncovered = rng.getrandbits(g.order) or 1
            cands = rng.getrandbits(g.order)
            fewest = _fewest_dominators(closed, uncovered, [v for v in range(g.order) if cands >> v & 1])
            if fewest is None:
                assert _packing_pick(closed, uncovered, cands, g.order + 1) == 0
            else:
                assert _packing_pick(closed, uncovered, cands, fewest + 1) != 0

    def test_counts_disjoint_dominator_sets(self):
        g = path(7)  # N[0], N[3] and N[6] are pairwise disjoint
        closed = _closed_rows(g)
        # N[0] and N[6] are the smallest dominator sets, and N[0] the first of them
        assert _packing_pick(closed, g.full_mask, g.full_mask, 4) == 0b11
        # the three disjoint sets prune a node with room for fewer than three picks
        assert _packing_pick(closed, g.full_mask, g.full_mask, 3) == 0
        # nothing in cands dominates 0
        assert _packing_pick(closed, 0b1, 0b1000, 8) == 0

    def test_reports_the_smallest_dominator_set(self):
        rng = random.Random(0x9ACA)
        infeasible = 0
        for _ in range(400):
            g = random_graph(rng, rng.randint(1, 10))
            closed = _closed_rows(g)
            uncovered = rng.getrandbits(g.order) or 1
            cands = rng.getrandbits(g.order)
            doms = [closed[u] & cands for u in range(g.order) if uncovered >> u & 1]
            need = g.order + 1  # above every count, so only an empty dominator set prunes
            smallest = _packing_pick(closed, uncovered, cands, need)
            if 0 in doms:
                assert smallest == 0
                infeasible += 1
            else:
                assert smallest == min(doms, key=int.bit_count)  # the first of the fewest members
        assert 0 < infeasible < 400

    def test_threshold_exit(self):
        # _packing_pick reads every row once, or up to the first empty
        # dominator set, and prunes when the count over the sets sorted by
        # size reaches ``need``; that count often differs from vertex order's.
        rng = random.Random(0x9ACB)
        differs = 0
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 12))
            closed = _closed_rows(g)
            uncovered = rng.getrandbits(g.order) or 1
            cands = rng.getrandbits(g.order)
            counts, smallest = _ref_packing(closed, uncovered, cands)
            sorted_count = _ref_sorted_count(closed, uncovered, cands)
            for need in range(1, g.order + 2):
                rows = _Rows(closed)
                got = _packing_pick(rows, uncovered, cands, need)
                assert rows.reads == len(counts), g
                if counts[-1] is None or sorted_count >= need:
                    assert got == 0, g
                else:
                    assert got == smallest, g
            differs += counts[-1] is not None and sorted_count != counts[-1]
        assert differs

    def test_sorted_walk_keeps_the_value_searchs_answers(self, monkeypatch):
        # either count prunes only nodes without a strictly better
        # completion, and the branching set is the same, so _cover_min meets
        # the same incumbents and returns the same (value, picks) as with the
        # walk in vertex order, in value and decision form alike
        walks = []

        def ascending(closed, uncovered, cands, need):
            walks.append(1)
            return _ascending_packing_pick(closed, uncovered, cands, need)

        rng = random.Random(0x50F7)
        cases = []
        for _ in range(40):
            g = random_graph(rng, rng.randint(20, 50), rng.uniform(0.06, 0.15))
            closed = _closed_rows(g)
            for comp, cap in component_masks(closed, g.full_mask):
                for independent in (True, False):
                    if independent or g.order <= 36:
                        draw = comp & -1 << rng.randrange(g.order)
                        cases.append((closed, comp, cap, independent))
                        cases.append((closed, comp, cap, independent, draw, rng.randint(0, 12)))
        sorted_answers = [_cover_min(*case) for case in cases]
        monkeypatch.setattr(solver, "_packing_pick", ascending)
        assert [_cover_min(*case) for case in cases] == sorted_answers
        assert walks  # the packing gate opened

    @pytest.mark.slow
    def test_exhaustive_order_6_matches_pre_change_witnesses(self):
        # no block of order <= 6 opens _cover_min's gate, so only the witness passes change here
        # (each with the value search's picks as its incumbent)
        for g in all_graphs(6):
            closed = _closed_rows(g)
            for comp, cap in component_masks(closed, g.full_mask):
                k, picks = _cover_min(closed, comp, cap, True)
                assert k == _ref_ids_min(closed, comp)
                lexmin = _ref_lexmin_ids(closed, comp, k)
                assert _lexmin_cover(closed, comp, True, picks) == lexmin
                k, picks = _cover_min(closed, comp, cap, False)
                assert k == _ref_dom_min(closed, comp)
                lexmin = _ref_lexmin_dom(closed, comp, k)
                assert _lexmin_cover(closed, comp, False, picks) == lexmin

    def test_seeded_sparse_matches_pre_change_searches(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return _packing_pick(*args)

        monkeypatch.setattr(solver, "_packing_pick", counted)
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
            ((comp, cap),) = component_masks(closed, g.full_mask)
            assert comp.bit_count() > 2 * cap, g  # the packing gate is open
            value = _brute_gamma(g)
            assert gamma_value(g) == value, g
            assert _new_gamma(g) == _ref_gamma(g), g
            cert = gamma(g)
            assert cert.value == value == len(cert.witness), g
            assert classify_set(g, cert.witness).dominating, g


def _search_calls(fn, *args):
    """``fn(*args)`` and the search nodes it visited: the calls to solver's
    nested ``rec`` searches, the value searches' and the witness pass's
    decision searches alike."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_name == "rec" and code.co_filename == solver.__file__:
            calls += 1

    sys.setprofile(profiler)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, calls


def _dominated_blocks(g):
    """The (block, cap) pairs of the blocks that have a dominating vertex."""
    closed = _closed_rows(g)
    blocks = component_masks(closed, g.full_mask)
    return [(c, cap) for c, cap in blocks if _ref_cap(closed, c) == c.bit_count()]


class TestSearchSize:
    def test_gamma_i_nodes_on_sparse_graphs(self):
        # Without the value search's tightest-vertex branching and the witness
        # pass's next-pick cut the searches made 17,015 calls here; with only
        # the cut 7,925, with only the branching 14,659, with both 5,569; with
        # the witness found by self-reduction over the value search 5,557;
        # with the packing bound counted smallest set first and the witness
        # pass seeded with the value search's picks 1,219; with the children
        # above the packing gate tried most newly dominated first 642; with
        # one witness question per candidate, capped by its remainder, 678
        # (with the block's cap instead, 954).
        calls = 0
        for seed in range(6):
            g = random_graph(random.Random(seed), 40, 0.1)
            cert, made = _search_calls(gamma_i, g)
            assert cert.value == _ref_gamma_i(g)[0], g
            calls += made
        assert calls <= 800

    def test_pinned_node_counts(self):
        # exact counts, so any change to either search tree shows here: the
        # value search's, and the value search's plus the witness pass's
        value_nodes, cert_nodes = [], []
        for seed in range(10):
            g = random_graph(random.Random(seed), 38 + seed % 5, 0.1)
            value_nodes.append(_search_calls(gamma_i_value, g)[1])
            cert_nodes.append(_search_calls(gamma_i, g)[1])
        assert value_nodes == [59, 51, 21, 20, 88, 41, 91, 27, 33, 101]
        assert cert_nodes == [139, 145, 82, 27, 270, 99, 224, 78, 110, 112]

    def test_gamma_nodes_on_a_sparse_graph(self):
        # the lexicographic witness walk made 166,012 nodes here besides the
        # value search's 32,204; the self-reduction made 28,599, and 19,900
        # nodes in all with the smallest-first packing bound and the
        # incumbent-seeded witness pass, and 8,372 (1,857 of them the value
        # search's) with the children above the packing gate tried most newly
        # dominated first, and 7,884 with one witness question per candidate,
        # capped by its remainder
        g = random_graph(random.Random(50), 50, 0.08)
        cert, made = _search_calls(gamma, g)
        assert cert.value == 15 and classify_set(g, cert.witness).dominating
        assert made <= 9_000


def _fewest_from(g, comp, draw, independent):
    """The fewest vertices of ``draw`` (of ``comp & draw`` and pairwise
    non-adjacent when ``independent``) that dominate ``comp``, or None."""
    members = list(iter_bits(draw & comp if independent else draw))
    for k in range(len(members) + 1):
        for combo in combinations(members, k):
            picks = sum(1 << v for v in combo)
            if independent and any(g.adj[v] & picks for v in combo):
                continue
            if not comp & ~_reach(g, picks):
                return k
    return None


def _reach(g, picks):
    """The vertices that ``picks`` dominate."""
    reach = picks
    for v in iter_bits(picks):
        reach |= g.adj[v]
    return reach


def _optimal_sets(g, comp, k, independent):
    """Every set of k vertices of ``comp`` that dominates it, independent
    when ``independent``, as masks, by a filter over the k-subsets."""
    found = []
    for combo in combinations(iter_bits(comp), k):
        picks = sum(1 << v for v in combo)
        if independent and any(g.adj[v] & picks for v in combo):
            continue
        if not comp & ~_reach(g, picks):
            found.append(picks)
    return found


def _check_witnesses(graphs):
    """The witness pass against references, block by block: gamma_i against
    the lexicographic walk, gamma against the pre-change witness search
    while that is fast enough."""
    for g in graphs:
        closed = _closed_rows(g)
        for comp, cap in component_masks(closed, g.full_mask):
            k, picks = _cover_min(closed, comp, cap, True)
            lexmin = next(_covers(closed, comp, cap, k))
            assert _lexmin_cover(closed, comp, True, picks) == lexmin, g
            if g.order <= 20:
                k, picks = _cover_min(closed, comp, cap, False)
                lexmin = _ref_lexmin_dom(closed, comp, k)
                assert _lexmin_cover(closed, comp, False, picks) == lexmin, g


class TestSelfReduction:
    def test_decision_form_matches_brute_force(self):
        # _cover_min with a drawable set and a bound answers the witness
        # pass's questions: the least value when it is at most the bound,
        # otherwise bound + 1, also when some vertex has no drawable dominator
        rng = random.Random(0x5E1F)
        infeasible = refused = 0
        for _ in range(600):
            g = random_graph(rng, rng.randint(1, 9))
            closed = _closed_rows(g)
            comp = rng.getrandbits(g.order) or 1
            floor = -1 << rng.randrange(g.order)
            for independent in (True, False):
                draw = comp & floor if independent else rng.getrandbits(g.order) & floor
                cap = max(1, max((closed[v] & comp).bit_count() for v in range(g.order)))
                fewest = _fewest_from(g, comp, draw, independent)
                bound = rng.randint(0, g.order)
                value, picks = _cover_min(closed, comp, cap, independent, draw, bound)
                if fewest is None or fewest > bound:
                    assert value == bound + 1, (g, comp, draw, bound)
                    infeasible += fewest is None
                    refused += fewest is not None
                    continue
                assert value == fewest == picks.bit_count() and not picks & ~draw, (g, comp, draw)
                assert not comp & ~_reach(g, picks), (g, comp, draw)
                if independent:
                    assert not picks & ~comp, (g, comp, draw)
                    assert not any(g.adj[v] & picks for v in iter_bits(picks)), (g, comp, draw)
        assert infeasible and refused

    def test_no_drawable_dominating_vertex(self):
        g = star(4)  # only the centre 0 dominates the whole star
        closed = _closed_rows(g)
        leaves = g.full_mask & ~1
        for independent in (True, False):
            assert _cover_min(closed, g.full_mask, 5, independent, g.full_mask, 3)[0] == 1
            # with 0 not drawable the exit may not fire: the four leaves are needed
            assert _cover_min(closed, g.full_mask, 5, independent, leaves, 3) == (4, 0)
            assert _cover_min(closed, g.full_mask, 5, independent, leaves, 4) == (4, leaves)

    def test_seeded_order_7_to_40(self):
        rng = random.Random(0x5E20)
        graphs = []
        for _ in range(120):
            graphs.append(random_graph(rng, rng.randint(7, 40), rng.choice((0.1, 0.2, 0.3, 0.5))))
        _check_witnesses(graphs)

    def test_remainders_that_split(self, monkeypatch):
        # coronas, spiders (a centre with a pendant edge to one vertex of each
        # of m copies of C5) and sparse random graphs, whose witness questions
        # ask about remainders of many components
        graphs = [corona(path(n), cycle(5)) for n in (2, 3, 4, 5)]
        graphs += [corona(cycle(n), path(4)) for n in (3, 4, 5, 6)]
        graphs.append(corona(petersen(), path(3)))
        for m in range(2, 7):
            edges = [(1 + 5 * c + i, 1 + 5 * c + (i + 1) % 5) for c in range(m) for i in range(5)]
            graphs.append(build_graph(1 + 5 * m, edges + [(0, 1 + 5 * c) for c in range(m)]))
        rng = random.Random(0x5E22)
        graphs += [random_graph(rng, rng.randint(30, 60), rng.uniform(0.03, 0.08)) for _ in range(12)]
        pieces = []

        def counted(closed, comp, *args):
            pieces.append(len(component_masks(closed, comp)))
            return _cover_min(closed, comp, *args)

        monkeypatch.setattr(solver, "_cover_min", counted)
        _check_witnesses(graphs)
        assert max(pieces) >= 5  # some question's remainder has five components or more

    @pytest.mark.slow
    def test_every_optimal_incumbent_gives_the_lexmin_witness(self):
        # the witness pass takes any optimal set as its incumbent, not only
        # the value search's last one: every minimum independent dominating
        # set and every minimum dominating set of each block of order <= 6,
        # and a few drawn at random from each block of seeded G(7..14)
        rng = random.Random(0x5E21)
        graphs = [(g, None) for g in all_graphs(6)]
        for _ in range(40):
            graphs.append((random_graph(rng, rng.randint(7, 14), rng.choice((0.2, 0.3, 0.5))), 3))
        for g, draws in graphs:
            closed = _closed_rows(g)
            for comp, _ in component_masks(closed, g.full_mask):
                for independent, ref_min, ref_lexmin in (
                    (True, _ref_ids_min, _ref_lexmin_ids),
                    (False, _ref_dom_min, _ref_lexmin_dom),
                ):
                    k = ref_min(closed, comp)
                    lexmin = ref_lexmin(closed, comp, k)
                    optimal = _optimal_sets(g, comp, k, independent)
                    assert lexmin == min(optimal, key=lambda m: VertexSet(m).members()), (g, comp)
                    if draws is not None:
                        optimal = rng.sample(optimal, min(draws, len(optimal)))
                    for picks in optimal:
                        got = _lexmin_cover(closed, comp, independent, picks)
                        assert got == lexmin, (g, comp, picks)


class TestDominatingVertexExit:
    def test_no_search_on_a_block_with_a_dominating_vertex(self):
        blocks = 0
        for g in all_graphs(5):
            closed = _closed_rows(g)
            for comp, cap in _dominated_blocks(g):
                blocks += 1
                low = min(v for v in iter_bits(comp) if closed[v] & comp == comp)
                assert _search_calls(_cover_min, closed, comp, cap, True) == ((1, 1 << low), 0), g
                assert _search_calls(_cover_min, closed, comp, cap, False) == ((1, 1 << low), 0), g
        assert blocks
        closed = _closed_rows(cycle(6))  # no dominating vertex: the search runs
        assert _search_calls(_cover_min, closed, 0b111111, 3, True)[1] > 0

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


def _assert_picks_attain_the_value(g, universe):
    """The picks ``_cover_min`` returns for each block of the subgraph on
    ``universe`` lie in the block, dominate it and number exactly its value;
    for gamma_i they are also independent."""
    closed = _closed_rows(g)
    for comp, cap in component_masks(closed, universe):
        for independent in (True, False):
            value, picks = _cover_min(closed, comp, cap, independent)
            assert not picks & ~comp and picks.bit_count() == value, (g, comp)
            dominated = 0
            for v in iter_bits(picks):
                dominated |= closed[v]
                assert not (independent and g.adj[v] & picks), (g, comp)
            assert dominated & comp == comp, (g, comp)


class TestCoverMinPicks:
    def test_exhaustive_order_6(self):
        for g in all_graphs(6):
            _assert_picks_attain_the_value(g, g.full_mask)

    def test_seeded_order_7_to_20(self):
        rng = random.Random(0x91C5)
        for _ in range(150):
            g = random_graph(rng, rng.randint(7, 20))
            _assert_picks_attain_the_value(g, g.full_mask)
            _assert_picks_attain_the_value(g, rng.getrandbits(g.order))  # as for a removal solve

    def test_seeded_sparse_above_the_gate(self):
        # no connected block of order <= 6 opens the packing gate (that needs
        # max degree <= 1), so only blocks like these try the children most
        # newly dominated first; their values come from the unpruned searches
        rng = random.Random(0x91C6)
        gated = 0
        for _ in range(40):
            g = random_graph(rng, rng.randint(20, 40), rng.uniform(0.05, 0.15))
            closed = _closed_rows(g)
            for universe in (g.full_mask, rng.getrandbits(g.order)):  # whole, and as for a removal solve
                _assert_picks_attain_the_value(g, universe)
                for comp, cap in component_masks(closed, universe):
                    if comp.bit_count() > 2 * cap:
                        gated += 1
                        assert _cover_min(closed, comp, cap, True)[0] == _ref_ids_min(closed, comp), g
                        assert _cover_min(closed, comp, cap, False)[0] == _ref_dom_min(closed, comp), g
        assert gated >= 40


def _ref_blocks(rows, universe):
    """The components of the subgraph on ``universe`` by a plain breadth-first
    search over vertex lists, ordered by their smallest member."""
    blocks, seen = [], set()
    for root in iter_bits(universe):
        if root in seen:
            continue
        seen.add(root)
        block, queue = 0, [root]
        while queue:
            v = queue.pop(0)
            block |= 1 << v
            for w in iter_bits(rows[v] & universe):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        blocks.append(block)
    return blocks


class TestComponentWalk:
    @staticmethod
    def _check(g, universe):
        for rows in (g.adj, _closed_rows(g)):
            walked = component_masks(rows, universe)
            assert [comp for comp, _ in walked] == _ref_blocks(rows, universe), (g, universe)
            for comp, cap in walked:
                assert cap == _ref_cap(rows, comp), (g, universe)

    @pytest.mark.slow
    def test_exhaustive_order_6(self):
        rng = random.Random(0xB10C)
        for g in all_graphs(6):
            self._check(g, g.full_mask)
            self._check(g, rng.getrandbits(g.order))  # as for a removal solve

    def test_seeded_larger_graphs(self):
        rng = random.Random(0xB10D)
        for _ in range(60):
            g = random_graph(rng, rng.randint(20, 60), rng.choice((0.02, 0.05, 0.1, 0.3)))
            self._check(g, g.full_mask)
            self._check(g, rng.getrandbits(g.order))
