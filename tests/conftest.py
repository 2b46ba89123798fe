import functools
import random
from itertools import combinations

import pytest

from idstab import Graph, VertexSet, build_graph, classify_set
from idstab.auditor import enumerate_labeled_graphs
from idstab.core import iter_bits, upper_triangle_pairs


def random_graph(rng: random.Random, n: int, p: float | None = None) -> Graph:
    """Seeded Erdos-Renyi sample; the test harness's only randomness source."""
    if p is None:
        p = rng.choice([0.15, 0.3, 0.5, 0.7, 0.85])
    edges = [(i, j) for i, j in upper_triangle_pairs(n) if rng.random() < p]
    return build_graph(n, edges)


@functools.cache
def all_graphs(max_n: int) -> tuple[Graph, ...]:
    """Every labeled graph of order 1..max_n, built once per session."""
    smaller = all_graphs(max_n - 1) if max_n > 1 else ()
    return smaller + tuple(enumerate_labeled_graphs(max_n))


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
    """Subset filter for the domination number."""
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
