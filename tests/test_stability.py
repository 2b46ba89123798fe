import functools
import hashlib
import importlib
import random
from itertools import combinations

import pytest

from idstab import VertexSet, delete_vertices, errors
from idstab.codec import decode_graph6
from idstab.core import iter_bits
from idstab.families import (
    book,
    complete,
    complete_bipartite,
    cycle,
    empty,
    friendship,
    gen_friendship,
    path,
    petersen,
    star,
)
from idstab.ops import disjoint_union
from idstab.oracles import oracle_gamma_i
from idstab.solver import _bounded_cover, _closed_rows, _cover_picks, gamma_i_value
from idstab.stability import (
    Direction,
    StabilityCertificate,
    _lexmin_left_out,
    oracle_stability,
    stability,
)

from conftest import all_graphs, hub_gate_calls, hub_graph, random_graph, stability_sweep

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
    return map(sum, combinations([1 << v for v in range(n)], k))


def _plain_scan(g, *directions):
    """The plain removal scan, one certificate per direction asked, in that
    order: every k-subset in lexicographic order, nothing skipped, until each
    direction has its first change.  Each removal is solved once for all of
    them, so pass only the directions a test checks."""
    closed = _closed_rows(g)
    full = g.full_mask
    base = _cover_picks(closed, full, True).bit_count()
    certs = [StabilityCertificate(base, d, None, None, None) for d in directions]
    left = [(i, _CHANGES[d]) for i, d in enumerate(directions)]  # the open ones, by index
    for k in range(1, g.order + 1):
        for mask in _subset_masks(g.order, k):
            if not left:
                return tuple(certs)
            val = _cover_picks(closed, full & ~mask, True).bit_count()
            if val != base:
                for i, changes in [item for item in left if item[1](base, val)]:
                    certs[i] = StabilityCertificate(base, directions[i], k, VertexSet(mask), val)
                    left.remove((i, changes))
    return tuple(certs)


@functools.cache
def _plain_sweep():
    """``_plain_scan(g, *Direction)`` for every labeled graph of order 1..6,
    in ``all_graphs(6)`` order, as ``stability_sweep`` gives the solved
    certificates: scanned once per session, and only by slow tests."""
    return tuple(_plain_scan(g, *Direction) for g in all_graphs(6))


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

    @pytest.mark.parametrize("direction", [5, "up", None])
    def test_unknown_direction_raises_value_error(self, direction):
        # the documented error of a bad direction, kept as Direction(...) raises it
        with pytest.raises(ValueError, match="is not a valid Direction"):
            stability(path(5), direction)

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
    return tuple(stability(g, d).value for d in Direction)


def _assert_seeded_certificates_unpruned():
    rng = random.Random(0x5CA9)
    for _ in range(40):
        g = random_graph(rng, rng.randint(7, 11))
        assert tuple(stability(g, d) for d in Direction) == _plain_scan(g, *Direction)


class TestAgreementWithOracle:
    def test_exhaustive_order_4(self):
        for g in all_graphs(4):
            assert _triple_values(g) == oracle_stability(g)

    def test_random_up_to_order_8(self, rng):
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 8))
            assert _triple_values(g) == oracle_stability(g)

    @pytest.mark.slow
    def test_exhaustive_order_6(self):
        for _, certs, expected in stability_sweep():
            assert tuple(cert.value for cert in certs) == expected

    def test_seeded_hub_graphs(self, monkeypatch):
        # near-universal vertices open the value search's hub gate in the removal solves
        opened = hub_gate_calls(monkeypatch)
        rng = random.Random(0x4B6)
        for _ in range(20):
            g = hub_graph(rng, rng.randint(10, 12), rng.randint(1, 3))
            assert _triple_values(g) == oracle_stability(g), g
        assert opened.count(False) >= 8  # 10, and no decision search walks the packing bound


class TestMinRule:
    """"any" is the first directed witness at the smaller size, with the plain
    scan's certificate: value, witness and new gamma_i."""

    @pytest.mark.slow
    def test_exhaustive_order_6(self):
        # where st_down == st_up >= 2 the first witness wins; some ties go each way
        raised_first = set()
        for (_, (cert, down, up), _), (plain, _, _) in zip(stability_sweep(), _plain_sweep()):
            assert cert == plain
            if cert.value >= 2 and down.value == up.value:
                raised_first.add(cert.new_gamma_i > cert.base_gamma_i)
        assert raised_first == {False, True}

    def test_seeded_order_7_to_14(self):
        rng = random.Random(0xA41)
        for _ in range(300):
            g = random_graph(rng, rng.randint(7, 14))
            assert (stability(g),) == _plain_scan(g, Direction.ANY)

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
        # minute here; bounded, it stops at the decrease witness {2, 3}
        solves = _count_solves(monkeypatch)
        g = book(10)
        cert = stability(g)
        assert (cert.value, cert.witness.members(), cert.new_gamma_i) == (2, (2, 3), 9)
        # gamma_i of G, the 10 removals of its gamma_i-set's members, 12
        # bounded single removals, 12 scan solves before {2, 3} and the
        # witness's new gamma_i
        assert solves.count("_bounded_cover") == 12 and len(solves) == 36


def _assert_lowering_rule(g):
    """For every v, the bounded question inside V - N[v] answers
    min(gamma_i(G - v), gamma_i(G)), read off the oracle; returns the number
    of checks."""
    closed = _closed_rows(g)
    full = g.full_mask
    base = gamma_i_value(g)
    for v in range(g.order):
        sub, _ = delete_vertices(g, VertexSet(1 << v))
        got = _bounded_cover(closed, full & ~(1 << v), full & ~closed[v], True, base - 1)[0]
        assert got == min(oracle_gamma_i(sub), base), (g, v)
    return g.order


class TestLoweringRule:
    """An independent dominating set of G - v below gamma_i(G) avoids N[v],
    so one bounded question with picks from V - N[v] tells whether removing
    v lowers gamma_i, and by how much."""

    @pytest.mark.slow
    def test_exhaustive_order_6(self):
        checks = sum(_assert_lowering_rule(g) for g in all_graphs(6) if gamma_i_value(g) >= 2)
        assert checks == 168_712  # the vertices of the 28,263 graphs with gamma_i >= 2

    def test_seeded_hub_graphs(self, monkeypatch):
        # the single removals' bounded questions pass the hub gate here
        opened = hub_gate_calls(monkeypatch)
        rng = random.Random(0x10E6)
        graphs = [hub_graph(rng, rng.randint(12, 20), rng.randint(1, 3)) for _ in range(30)]
        checks = sum(_assert_lowering_rule(g) for g in graphs if gamma_i_value(g) >= 2)
        assert checks == 367
        assert opened.count(True) >= 5  # 8, and 34 value searches

    def test_seeded_order_7_to_20(self):
        rng = random.Random(0x10E5)
        graphs = [random_graph(rng, rng.randint(7, 20)) for _ in range(300)]
        checks = sum(_assert_lowering_rule(g) for g in graphs if gamma_i_value(g) >= 2)
        assert checks == 3_361

    @pytest.mark.parametrize(
        "g,direction,full_solves,bounded",
        [
            # gamma_i of G and of G - witness; each single removal is one bounded question
            (cycle(63), Direction.DECREASE, 2, 63),
            (gen_friendship(5, 12), Direction.DECREASE, 2, 49),
            (book(12), Direction.DECREASE, 2, 26),
            (petersen(), Direction.DECREASE, 2, 10),
            # the removals outside the base solve's gamma_i-set are bounded questions
            (cycle(63), Direction.ANY, None, 42),
            (book(12), Direction.ANY, None, 14),
            (petersen(), Direction.ANY, None, 7),
        ],
        ids=["cycle63-down", "gfriend5-12-down", "book12-down", "petersen-down",
             "cycle63-any", "book12-any", "petersen-any"],
    )
    def test_single_removals_ask_bounded_questions(self, monkeypatch, g, direction, full_solves, bounded):
        solves = _count_solves(monkeypatch)
        stability(g, direction)
        if full_solves is not None:
            assert solves.count("_cover_picks") == full_solves
        assert solves.count("_bounded_cover") == bounded


class TestPruningRules:
    def test_seeded_certificates_match_unpruned_scan(self):
        _assert_seeded_certificates_unpruned()

    def test_partial_family_is_sound(self, monkeypatch):
        # one learned pair prunes less but must skip nothing that matches
        monkeypatch.setattr(stability_module, "LEARNED_PAIR_CAP", 1)
        _assert_seeded_certificates_unpruned()
        # the cap binds: uncapped, book(5) takes 129 solves, and 1,848 here
        solves = _count_solves(monkeypatch)
        g = book(5)
        assert (stability(g, Direction.INCREASE),) == _plain_scan(g, Direction.INCREASE)
        assert len(solves) > 1_000

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


def _parent_increase_scan(closed, full, base, stop):
    """``_increase_scan`` as a plain loop: every k-subset in lexicographic
    order, checked against a list of the pairs learned so far.  Bounded by
    ``stop``, it ends at the size of ``stop`` at the first subset that is not
    before it, checked before the pairs, as the scan's leaf check ends it.
    It reads the cap and the removal solve off the stability module, so a
    test can patch either."""
    n = full.bit_length()
    pairs = []
    limit = stability_module.LEARNED_PAIR_CAP
    last = stop.bit_count() if stop else n
    for k in range(2 if stop else 1, last + 1):
        for mask in _subset_masks(n, k):
            diff = mask ^ stop
            if k == last and not diff & -diff & mask:
                return None
            if any(not d & mask and not r & ~mask for d, r in pairs):
                continue
            picks = stability_module._cover_picks(closed, full & ~mask, True)
            if picks.bit_count() > base:
                return mask, picks.bit_count()
            if len(pairs) < limit:
                dominated = 0
                for v in iter_bits(picks):
                    dominated |= closed[v]
                pairs.append((picks, full & ~dominated))
    return None


def _record_removals(monkeypatch):
    """Patch the stability module's removal solve to append each universe it
    is asked about to the list returned."""
    universes = []

    def recording(closed, universe, independent):
        universes.append(universe)
        return _cover_picks(closed, universe, independent)

    monkeypatch.setattr(stability_module, "_cover_picks", recording)
    return universes


def _assert_scans_agree(universes, g, down):
    """Both scans solve the same removals in the same order and return the
    same answer: from k = 1, and bounded by the decrease witness as "any"
    bounds it when that has two or more members.  Returns the solves."""
    closed = _closed_rows(g)
    stops = [0] + ([down.witness.mask] if down.value >= 2 else [])
    solved = 0
    for stop in stops:
        universes.clear()
        got = stability_module._increase_scan(closed, g.full_mask, down.base_gamma_i, stop)
        walked = list(universes)
        universes.clear()
        assert got == _parent_increase_scan(closed, g.full_mask, down.base_gamma_i, stop), (g, stop)
        assert walked == universes, (g, stop)
        solved += len(walked)
    return solved


class TestFrozenParentScan:
    """The constraint walk solves exactly the removals of a plain scan that
    checks each subset against every pair learned so far, in the same
    order, so it learns the same pairs and returns the same witness.
    Bounded by a decrease witness, both end at the same leaf check: the
    first subset of its size that is not before it."""

    @pytest.mark.slow
    def test_exhaustive_order_6(self, monkeypatch):
        sweep = stability_sweep()
        universes = _record_removals(monkeypatch)
        assert sum(_assert_scans_agree(universes, g, down) for g, (_, down, _), _ in sweep) == 255_896

    def test_seeded_order_7_to_14(self, monkeypatch):
        rng = random.Random(0x5CA7)
        graphs = [random_graph(rng, rng.randint(7, 14)) for _ in range(300)]
        downs = [stability(g, Direction.DECREASE) for g in graphs]
        universes = _record_removals(monkeypatch)
        assert sum(_assert_scans_agree(universes, g, down) for g, down in zip(graphs, downs)) == 6_809

    def test_one_known_pair_of_each_kind(self, monkeypatch):
        g = book(5)
        down = stability(g, Direction.DECREASE)
        monkeypatch.setattr(stability_module, "LEARNED_PAIR_CAP", 1)  # one known pair
        universes = _record_removals(monkeypatch)
        assert _assert_scans_agree(universes, g, down) == 1_863


class TestNoGoodRule:
    """The increase scan skips every removal that a learned pair rules out,
    and still gives the plain scan's certificate."""

    @pytest.mark.slow
    def test_exhaustive_order_6(self):
        for (_, (_, _, up), _), (_, _, plain) in zip(stability_sweep(), _plain_sweep()):
            assert up == plain

    @pytest.mark.parametrize(
        "g,base,value,witness,new,picks",
        [
            # 23,204 solves with a walk over the gamma_i-sets alone
            (book(7), 7, 8, (0, 3, 5, 7, 9, 11, 13, 15), 8, 1_040),
            # 16,131 solves with a walk over the gamma_i-sets alone
            (complete_bipartite(8, 7), 7, 7, (8, 9, 10, 11, 12, 13, 14), 8, 382),
            (book(8), 8, 9, (0, 3, 5, 7, 9, 11, 13, 15, 17), 9, 3_033),
        ],
        ids=["book7", "kbip8-7", "book8"],
    )
    def test_hub_graphs_take_few_solves(self, monkeypatch, g, base, value, witness, new, picks):
        solves = _count_solves(monkeypatch)
        cert = stability(g, Direction.INCREASE)
        expected = StabilityCertificate(base, Direction.INCREASE, value, VertexSet.of(witness), new)
        assert cert == expected
        # gamma_i of G and every removal solved are ``_cover_picks``, the only solver entry called
        assert solves.count("_cover_picks") == picks and len(solves) == picks

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
    base = _cover_picks(closed, full, True).bit_count()
    for v in range(g.order):
        val = _cover_picks(closed, full & ~(1 << v), True).bit_count()
        if val < base:
            return StabilityCertificate(base, Direction.DECREASE, 1, VertexSet(1 << v), val)
    for k in range(2, g.order + 1):
        out = _lexmin_left_out(closed, full, base - 1, k)
        if out:
            new = _cover_picks(closed, full & ~out, True).bit_count()
            return StabilityCertificate(base, Direction.DECREASE, k, VertexSet(out), new)
    raise AssertionError("removing every vertex always decreases gamma_i")


class TestDecreaseSearch:
    """The left-out search gives the plain scan's certificate: value, witness
    and new gamma_i."""

    @pytest.mark.slow
    def test_exhaustive_order_6(self):
        for (_, (_, down, _), _), (_, plain, _) in zip(stability_sweep(), _plain_sweep()):
            assert down == plain

    def test_seeded_order_7_to_13(self):
        rng = random.Random(0xDEC5)
        for _ in range(300):
            g = random_graph(rng, rng.randint(7, 13))
            assert (stability(g, Direction.DECREASE),) == _plain_scan(g, Direction.DECREASE)

    @pytest.mark.parametrize(
        "n,p,seed",
        [(30, 0.1, 0), (30, 0.1, 1), (30, 0.1, 2), (40, 0.1, 0), (40, 0.1, 1), (40, 0.1, 2), (24, 0.2, 1)],
    )
    def test_seeded_sparse(self, n, p, seed):
        g = random_graph(random.Random(seed), n, p)
        assert (stability(g, Direction.DECREASE),) == _plain_scan(g, Direction.DECREASE)

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
            assert _plain_scan(g, Direction.DECREASE) == (expected,)
        else:  # the plain scan visits all 2^n - 1 removals here; the searched one has no shortcut
            assert _searched_decrease(g) == expected


class TestInvariants:
    def test_min_rule_and_cap(self):
        for g in all_graphs(5):
            st, down, up = (stability(g, d) for d in Direction)
            assert st.value == min(c.value for c in (down, up) if c.defined)
            assert st.value <= g.order

    def test_complete_equality(self):
        for n in range(1, 9):
            assert stability(complete(n)).value == n

    def test_deletion_relation_order_5(self):
        # st(G) <= st(G - v) + 1 for every vertex
        for g in all_graphs(5):
            if g.order < 2:
                continue
            st = stability(g).value
            for v in range(g.order):
                sub, _ = delete_vertices(g, VertexSet.of([v]))
                assert st <= stability(sub).value + 1
