import pytest

from idstab import VertexSet, classify_set, errors
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
from idstab.ops import disjoint_union
from idstab.solver import (
    _closed_rows,
    _ids_of_size,
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
    def test_exhaustive_order_5(self):
        for g in all_graphs(5):
            assert gamma_i_value(g) == oracle_gamma_i(g)

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
        assert sorted(out) == [(0, 2), (1,)]

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


class TestMinimumIdsFamily:
    def test_matches_subset_filter(self):
        for g in all_graphs(5):
            k = gamma_i_value(g)
            found = _ids_of_size(_closed_rows(g), g.full_mask, k, 1 << g.order)
            expected = [
                m
                for m in range(1 << g.order)
                if m.bit_count() == k and classify_set(g, VertexSet(m)).maximal_independent
            ]
            assert sorted(found) == expected
            assert len(set(found)) == len(found)  # no duplicates

    def test_limit_keeps_a_prefix(self):
        g = disjoint_union(path(2), disjoint_union(path(2), path(2)))  # 8 gamma_i-sets
        closed = _closed_rows(g)
        every = _ids_of_size(closed, g.full_mask, 3, 100)
        assert len(every) == 8
        assert _ids_of_size(closed, g.full_mask, 3, 5) == every[:5]


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
