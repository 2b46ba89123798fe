import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idstab import (
    Graph,
    VertexSet,
    build_graph,
    classify_set,
    complement,
    components,
    degree_stats,
    delete_vertices,
)
from idstab import errors
from idstab.auditor import _Toolkit
from idstab.core import mask_graph
from idstab.families import book, complete, cycle, empty, path
from idstab.ops import disjoint_union

from conftest import all_graphs, random_graph


def edge_lists(max_n=8):
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, max(0, n - 1)), st.integers(0, max(0, n - 1))).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=20,
            ),
        )
        if n >= 2
        else st.tuples(st.just(n), st.just([]))
    )


class TestBuildGraph:
    def test_p3(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert [g.degree(v) for v in range(3)] == [1, 2, 1]

    def test_null_graph(self):
        g = build_graph(0, [])
        assert g.order == 0 and g.adj == ()

    def test_duplicate_edges_collapse(self):
        g = build_graph(4, [(0, 1), (0, 1), (2, 3)])
        assert g.edge_count == 2

    def test_order_cap(self):
        with pytest.raises(errors.OrderTooLarge):
            build_graph(65, [])
        build_graph(64, [])  # at the cap is fine

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Graph(True, (0,)),  # built a graph of order True
            lambda: build_graph(True, []),
            lambda: Graph(3.0, (0, 0, 0)),  # the others raised a bare TypeError
            lambda: Graph("3", (0, 0, 0)),
            lambda: build_graph(2.5, []),
            lambda: mask_graph(2.0, 1),
        ],
        ids=["Graph-bool", "build_graph-bool", "Graph-float", "Graph-str", "build_graph-float",
             "mask_graph-float"],
    )
    def test_order_that_is_no_int_rejected(self, build):
        with pytest.raises(errors.OrderTooLarge, match="is not an int in 0..64"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Graph(2, (0, 0.5)),  # each raised a bare TypeError
            lambda: Graph(2, None),
            lambda: mask_graph(2, 1.0),
            lambda: build_graph(3, [(0, 1.5)]),
            lambda: build_graph(3, None),
            lambda: VertexSet.of(None),
        ],
        ids=["Graph-float-row", "Graph-None", "mask_graph-float", "build_graph-float-end",
             "build_graph-None", "VertexSet.of-None"],
    )
    def test_input_that_is_no_int_rejected(self, build):
        with pytest.raises(errors.VertexOutOfRange):
            build()

    def test_loop_rejected(self):
        with pytest.raises(errors.LoopEdge):
            build_graph(3, [(1, 1)])

    def test_vertex_out_of_range(self):
        with pytest.raises(errors.VertexOutOfRange):
            build_graph(3, [(0, 3)])

    def test_edge_that_is_no_pair_rejected(self):
        # each raised a bare ValueError from unpacking the edge
        for edge in [(0,), (0, 1, 2), ()]:
            with pytest.raises(errors.VertexOutOfRange, match="edges must be pairs"):
                build_graph(3, [edge])
        with pytest.raises(errors.LoopEdge):
            build_graph(3, [(0, 1), (0, 0)])
        with pytest.raises(errors.VertexOutOfRange, match=r"edge \(0, 5\) outside 0..2"):
            build_graph(3, [(0, 5)])

    def test_invalid_rows_rejected(self):
        with pytest.raises(ValueError, match=r"^asymmetric edge 0-1$"):
            Graph(2, (0b10, 0b00))
        with pytest.raises(ValueError, match=r"^asymmetric edge 2-0$"):
            Graph(3, (0b010, 0b001, 0b001))
        with pytest.raises(ValueError, match=r"^loop at vertex 0$"):
            Graph(2, (0b01, 0b10))
        with pytest.raises(ValueError, match=r"^row 0 has bits beyond vertex 0$"):
            Graph(1, (0b10,))
        with pytest.raises(ValueError, match=r"^row 1 has bits beyond vertex 1$"):
            Graph(2, (0b10, 0b111))  # a stray bit is reported before a loop
        with pytest.raises(ValueError, match=r"^expected 3 adjacency rows, got 2$"):
            Graph(3, (0, 0))

    def test_rows_given_as_a_list_are_stored_as_a_tuple(self):
        # a list kept as given made hash(g) and the auditor's memo, keyed by g.adj, raise TypeError
        g, p3 = Graph(3, [0b010, 0b101, 0b010]), Graph(3, (0b010, 0b101, 0b010))
        assert type(g.adj) is tuple and g == p3
        assert hash(g) == hash(p3)
        kit = _Toolkit()
        assert kit.st_any(g) == kit.st_any(p3) == 1

    @given(edge_lists())
    @settings(max_examples=120, deadline=None)
    def test_invariants_hold_for_any_edge_list(self, spec):
        n, edges = spec
        g = build_graph(n, edges)
        full = g.full_mask
        for v, row in enumerate(g.adj):
            assert row & ~full == 0
            assert not (row >> v) & 1
            for u in range(n):
                assert (row >> u) & 1 == (g.adj[u] >> v) & 1


class TestDegreeStats:
    def test_complete(self):
        prof = degree_stats(complete(5))
        assert prof.degrees == (4,) * 5
        assert prof.min_degree == prof.max_degree == 4

    def test_path(self):
        assert degree_stats(path(4)).degrees == (1, 2, 2, 1)

    def test_book_spine(self):
        # B_2 comes out of the Cartesian product; its spine vertices 0, 1 have degree 3
        prof = degree_stats(book(2))
        assert prof.degrees == (3, 3, 2, 2, 2, 2)

    def test_null_graph_rejected(self):
        with pytest.raises(errors.EmptyGraph):
            degree_stats(empty(0))


class TestDeleteVertices:
    def test_cycle_minus_vertex_is_path(self):
        g, mapping = delete_vertices(cycle(5), VertexSet.of([4]))
        assert g == path(4)
        assert mapping == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_complete_minus_two(self):
        g, _ = delete_vertices(complete(4), VertexSet.of([0, 1]))
        assert g == complete(2)

    def test_path_splits(self):
        g, mapping = delete_vertices(path(5), VertexSet.of([2]))
        assert sorted(len(c) for c in components(g)) == [2, 2]
        assert mapping == {0: 0, 1: 1, 3: 2, 4: 3}

    def test_empty_set_is_identity(self):
        g = cycle(6)
        assert delete_vertices(g, VertexSet())[0] == g

    def test_delete_everything(self):
        g, _ = delete_vertices(cycle(6), VertexSet(cycle(6).full_mask))
        assert g.order == 0

    def test_order_arithmetic(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 10))
            mask = rng.randrange(1 << g.order)
            sub, _ = delete_vertices(g, VertexSet(mask))
            assert sub.order == g.order - mask.bit_count()


def _relabel_per_bit(g, mask):
    """``delete_vertices`` as it was: each kept row rebuilt one kept vertex at a time."""
    keep = [v for v in range(g.order) if not mask >> v & 1]
    rows = []
    for old in keep:
        row = g.adj[old]
        m = 0
        for new, src in enumerate(keep):
            m |= ((row >> src) & 1) << new
        rows.append(m)
    return Graph(len(keep), tuple(rows)), {old: new for new, old in enumerate(keep)}


class TestDeleteVerticesByShifting:
    def test_every_removal_order_5(self):
        for g in all_graphs(5):
            for mask in range(1 << g.order):
                assert delete_vertices(g, VertexSet(mask)) == _relabel_per_bit(g, mask), (g, mask)

    def test_seeded_up_to_order_64(self):
        rng = random.Random(0xDE1E)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 64))
            mask = rng.getrandbits(g.order)
            assert delete_vertices(g, VertexSet(mask)) == _relabel_per_bit(g, mask)
        for p in (0.1, 0.5, 0.9):
            g = random_graph(rng, 64, p)
            for mask in (3 << 62, rng.getrandbits(62) | 3 << 62, 1 << 62, 1 << 63, 1, g.full_mask):
                assert delete_vertices(g, VertexSet(mask)) == _relabel_per_bit(g, mask)


class TestComplement:
    def test_complete_becomes_empty(self):
        assert complement(complete(6)) == empty(6)

    def test_p4_self_complementary(self):
        # complement(P4) is the path 2-0-3-1; relabeling exhibits the isomorphism
        cp = complement(path(4))
        assert sorted(cp.edges()) == [(0, 2), (0, 3), (1, 3)]
        perm = [2, 0, 3, 1]
        assert build_graph(4, [(perm[u], perm[v]) for u, v in path(4).edges()]) == cp

    def test_c5_self_complementary(self):
        cc = complement(cycle(5))
        perm = [0, 2, 4, 1, 3]
        assert build_graph(5, [(perm[u], perm[v]) for u, v in cycle(5).edges()]) == cc

    def test_involution_and_degrees(self):
        for g in all_graphs(4):
            assert complement(complement(g)) == g
            for v in range(g.order):
                assert complement(g).degree(v) == g.order - 1 - g.degree(v)


class TestComponents:
    def test_disjoint_paths(self):
        g = disjoint_union(path(2), path(3))
        comps = components(g)
        assert [len(c) for c in comps] == [2, 3]
        assert comps[0].members() == (0, 1)

    def test_null_graph(self):
        assert components(empty(0)) == []

    def test_connected_cycle(self):
        assert [len(c) for c in components(cycle(6))] == [6]


class TestClassifySet:
    def test_cycle_diagonal(self):
        flags = classify_set(cycle(4), VertexSet.of([0, 2]))
        assert flags.independent and flags.dominating and flags.maximal_independent

    def test_single_leaf_not_dominating(self):
        flags = classify_set(path(3), VertexSet.of([0]))
        assert flags.independent and not flags.dominating

    def test_dominating_not_independent(self):
        flags = classify_set(complete(3), VertexSet.of([0, 1]))
        assert not flags.independent and flags.dominating

    def test_null_graph_rejected(self):
        with pytest.raises(errors.EmptyGraph):
            classify_set(empty(0), VertexSet())

    def test_equivalence_exhaustive_order_5(self):
        # maximal independent <=> independent and dominating, over every subset
        for g in all_graphs(5):
            for mask in range(1 << g.order):
                flags = classify_set(g, VertexSet(mask))
                assert flags.maximal_independent == (flags.independent and flags.dominating)


class TestVertexSet:
    def test_members_roundtrip(self):
        s = VertexSet.of([5, 1, 3])
        assert s.members() == (1, 3, 5)
        assert list(s) == [1, 3, 5]
        assert len(s) == 3 and 3 in s and 2 not in s

    def test_subset_validation(self):
        with pytest.raises(errors.VertexOutOfRange):
            classify_set(path(2), VertexSet.of([5]))

    def test_negative_mask_rejected(self):
        # a negative mask has infinitely many set bits, so its members never end
        with pytest.raises(errors.VertexOutOfRange):
            VertexSet(-1)

    @pytest.mark.parametrize("mask", [1.5, None, "3", True])
    def test_mask_that_is_no_int_rejected(self, mask):
        # before, 1.5 built a set whose members() raised TypeError, and None
        # and "3" raised a bare TypeError here
        with pytest.raises(errors.VertexOutOfRange, match="must be an int >= 0"):
            VertexSet(mask)

    def test_negative_vertex_rejected(self):
        with pytest.raises(errors.VertexOutOfRange, match="nonnegative, got -1"):
            VertexSet.of([2, -1])

    def test_vertex_that_is_no_int_rejected(self):
        # 1.5 raised a bare TypeError from the shift
        with pytest.raises(errors.VertexOutOfRange, match="an int and nonnegative, got 1.5"):
            VertexSet.of([1.5])
