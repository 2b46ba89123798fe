import functools
import random
from itertools import combinations

import pytest

from idstab import Direction, Graph, VertexSet, build_graph, classify_set, oracle_stability, solver, stability
from idstab.auditor import enumerate_labeled_graphs
from idstab.core import iter_bits, upper_triangle_pairs


def random_graph(rng: random.Random, n: int, p: float | None = None) -> Graph:
    """Seeded Erdos-Renyi sample; the test harness's only randomness source."""
    if p is None:
        p = rng.choice([0.15, 0.3, 0.5, 0.7, 0.85])
    edges = [(i, j) for i, j in upper_triangle_pairs(n) if rng.random() < p]
    return build_graph(n, edges)


def hub_graph(rng: random.Random, n: int, hubs: int, p: float = 0.1) -> Graph:
    """A seeded G(n, p) in which ``hubs`` vertices, at random labels, are
    made near-universal: each is joined to every other vertex but one or two."""
    edges = {(i, j) for i, j in upper_triangle_pairs(n) if rng.random() < p}
    for h in rng.sample(range(n), hubs):
        missed = rng.sample([v for v in range(n) if v != h], rng.randint(1, 2))
        edges |= {(min(h, v), max(h, v)) for v in range(n) if v != h and v not in missed}
    return build_graph(n, sorted(edges))


def hub_gate_calls(monkeypatch) -> list[bool]:
    """Patch ``_cover_min`` to append, per call on a block that the first
    packing gate leaves shut (order at most twice ``cap``) but that still
    runs the packing walk, whether it is a decision search; return that
    list.  The walk is seen by patching ``_packing_pick``, so the hub gate's
    own test is not repeated here."""
    opened = []
    cover_min, packing_pick = solver._cover_min, solver._packing_pick
    walked = False

    def walking(*args):
        nonlocal walked
        walked = True
        return packing_pick(*args)

    def counting(closed, comp, cap, total, independent, draw=None, bound=None):
        nonlocal walked
        walked = False
        result = cover_min(closed, comp, cap, total, independent, draw, bound)
        if walked and comp.bit_count() <= 2 * cap:
            opened.append(bound is not None)
        return result

    monkeypatch.setattr(solver, "_packing_pick", walking)
    monkeypatch.setattr(solver, "_cover_min", counting)
    return opened


@functools.cache
def all_graphs(max_n: int) -> tuple[Graph, ...]:
    """Every labeled graph of order 1..max_n, built once per session."""
    smaller = all_graphs(max_n - 1) if max_n > 1 else ()
    return smaller + tuple(enumerate_labeled_graphs(max_n))


@functools.cache
def stability_sweep() -> tuple[tuple[Graph, tuple, tuple], ...]:
    """``(g, its any / decrease / increase certificates, oracle_stability(g))``
    for every labeled graph of order 1..6, in ``all_graphs(6)`` order: each
    certificate solved once per session.  Only slow tests read it, so the
    quick pass never builds it."""
    return tuple(
        (g, tuple(stability(g, d) for d in Direction), oracle_stability(g)) for g in all_graphs(6)
    )


def brute_gamma_i(g: Graph) -> int:
    """gamma_i as the size of the first maximal independent set in size order:
    the test-owned subset filter that referees ``oracle_gamma_i`` and the
    solver.  The null graph gets 0, as in ``oracle_gamma_i``."""
    if g.order == 0:
        return 0
    for k in range(1, g.order + 1):
        for combo in combinations(range(g.order), k):
            if classify_set(g, VertexSet.of(combo)).maximal_independent:
                return k


def brute_gamma(g: Graph) -> int:
    """gamma by scanning every subset: the test-owned subset filter that
    referees ``_oracle_gamma`` and the solver."""
    closed = [row | (1 << v) for v, row in enumerate(g.adj)]
    full = g.full_mask
    best = g.order
    for mask in range(1, 1 << g.order):
        if mask.bit_count() >= best:
            continue
        acc = 0
        for v in iter_bits(mask):
            acc |= closed[v]
        if acc == full:
            best = mask.bit_count()
    return best


def brute_alpha(g: Graph) -> int:
    """Subset filter for the independence number."""
    best = 0
    for mask in range(1 << g.order):
        if mask.bit_count() <= best:
            continue
        if all(g.adj[v] & mask == 0 for v in iter_bits(mask)):
            best = mask.bit_count()
    return best


@pytest.fixture(scope="session")
def rng():
    return random.Random(0x1D57AB)
