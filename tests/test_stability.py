import importlib
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
)
from idstab.ops import disjoint_union
from idstab.solver import gamma_i_value
from idstab.stability import (
    Direction,
    StabilityCertificate,
    _hitting_masks,
    oracle_stability,
    stability,
    stability_triple,
)

from conftest import all_graphs, random_graph

# the package rebinds ``idstab.stability`` to the function
stability_module = importlib.import_module("idstab.stability")

_CHANGES = {
    Direction.ANY: lambda base, val: val != base,
    Direction.DECREASE: lambda base, val: val < base,
    Direction.INCREASE: lambda base, val: val > base,
}


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
        for g in all_graphs(6):
            _assert_agrees_with_oracle(g)


class TestPruningRules:
    def test_seeded_certificates_match_unpruned_scan(self):
        _assert_seeded_certificates_unpruned()

    def test_partial_family_is_sound(self, monkeypatch):
        # one known gamma_i-set prunes less but must skip nothing that matches
        monkeypatch.setattr(stability_module, "GAMMA_I_FAMILY_CAP", 1)
        _assert_seeded_certificates_unpruned()

    def test_hitting_masks_filter_subset_order(self):
        family = [0b000110, 0b101000, 0b010011]
        meets = [0] * 6
        for i, d in enumerate(family):
            for v in VertexSet(d):
                meets[v] |= 1 << i
        for k in range(1, 7):
            expected = [
                m
                for m in stability_module._subset_masks(6, k)
                if all(m & d for d in family)
            ]
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
