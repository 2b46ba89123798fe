"""Definition-direct oracles that referee the exact solvers.

Each oracle evaluates its invariant from the definition, with none of the
solvers' bounds.  This module imports only ``core`` and ``errors``, so no
solver or stability code can leak into a referee; a test parses the imports
to keep it that way.  Every oracle is guarded by an order cap and raises
``TooLargeForOracle`` above it.

``oracle_gamma_i`` takes the least size of a maximal independent set (an
independent D is dominating iff no outside vertex can join it).  These are
the maximal cliques of the complement H, listed by Bron-Kerbosch with a
Tomita pivot (Tomita, Tanaka & Takahashi, TCS 363, 2006).  A call holds a
clique R (by its size), and the candidates P and tried vertices X that
extend R (``cand``, ``tried``); R is maximal iff P and X are empty.  Only
P - N_H(u) is branched on, for a pivot u in P | X: a maximal M between R and
R | P that missed it would miss u and lie in N_H(u), so M | {u} is larger.
There are at most 3^(n/3) maximal cliques (Moon & Moser, 1965).

``oracle_stability`` is a sieve over vertex masks rather than one gamma_i
filter per removal.  For U a vertex set, T is an independent dominating set
(IDS) of the induced subgraph G[U] exactly when

    T is independent in G  and  T <= U <= N_G[T].

Proof: G[U] keeps every edge of G between members of U, so a T inside U is
independent in G[U] iff it is independent in G.  T dominates G[U] iff every
u in U - T has a neighbour in T, which holds iff u lies in N_G[T], since the
neighbours of u inside T are the same in G[U] and in G.  So one pass over
the independent sets T of G, writing |T| into ``best[U]`` for every U
between T and N_G[T] (a submask walk of N_G[T] - T), leaves
``best[U] = gamma_i(G[U])`` for every U: each U has an IDS (a maximal
independent set of G[U]; the empty set for U empty), and the minimum is
taken over all of them.  Since G - S = G[V - S], ``best[V - S]`` is
gamma_i(G - S) for every removal S.  The work is the sum over independent T
of 2^|N[T] - T|, at most 3^n, and the table has 2^n entries (4,096 under
the order-12 guard).
"""

from __future__ import annotations

from .core import Graph, iter_bits
from .errors import EmptyGraph, TooLargeForOracle

ORACLE_MAX_ORDER = 20
ORACLE_STABILITY_MAX_ORDER = 12


def _closed(g: Graph) -> list[int]:
    return [row | (1 << v) for v, row in enumerate(g.adj)]


def _guard(g: Graph, cap: int, what: str) -> None:
    if g.order > cap:
        raise TooLargeForOracle(f"{what} oracle handles order <= {cap}, got {g.order}")


def oracle_gamma_i(g: Graph) -> int:
    """Independent domination number, by the Bron-Kerbosch walk of the module
    docstring.  The null graph gets 0 so vertex-removal scans stay total."""
    if g.order == 0:
        return 0
    _guard(g, ORACLE_MAX_ORDER, "independent domination")
    free = [g.full_mask & ~row & ~(1 << v) for v, row in enumerate(g.adj)]  # complement rows
    best = g.order

    def expand(size: int, cand: int, tried: int) -> None:
        nonlocal best
        if not cand:
            if not tried and size < best:
                best = size
            return
        most = -1
        for u in iter_bits(cand | tried):
            k = (free[u] & cand).bit_count()
            if k > most:
                pivot, most = u, k
        for v in iter_bits(cand & ~free[pivot]):
            expand(size + 1, cand & free[v], tried & free[v])
            cand &= ~(1 << v)
            tried |= 1 << v

    expand(0, g.full_mask, 0)
    return best


def oracle_stability(g: Graph) -> tuple[int, int, int | None]:
    """(st_any, st_decrease, st_increase-or-None) by the sieve of the module
    docstring: gamma_i(G - S) for every nonempty removal S, with no graph
    built and nothing pruned.  Guarded to 12 vertices."""
    if g.order == 0:
        raise EmptyGraph("stability of the null graph is undefined")
    _guard(g, ORACLE_STABILITY_MAX_ORDER, "stability")
    n = g.order
    adj = g.adj
    closed = _closed(g)
    full = g.full_mask
    best = [n + 1] * (1 << n)

    def sieve(start: int, ind: int, reach: int, size: int) -> None:
        free = reach & ~ind
        sub = free
        while True:
            u = ind | sub
            if size < best[u]:
                best[u] = size
            if not sub:
                break
            sub = (sub - 1) & free
        for v in range(start, n):
            if not adj[v] & ind:
                sieve(v + 1, ind | 1 << v, reach | closed[v], size + 1)

    sieve(0, 0, 0, 0)
    base = best[full]
    st_any: int | None = None
    st_down: int | None = None
    st_up: int | None = None
    for mask in range(1, 1 << n):
        val = best[full & ~mask]
        k = mask.bit_count()
        if val != base and (st_any is None or k < st_any):
            st_any = k
        if val < base and (st_down is None or k < st_down):
            st_down = k
        if val > base and (st_up is None or k < st_up):
            st_up = k
    assert st_any is not None and st_down is not None
    return st_any, st_down, st_up


def _brute_gamma(g: Graph) -> int:
    """Minimum dominating set size by scanning all subsets (order <= 20)."""
    if g.order == 0:
        raise EmptyGraph("domination number of the null graph is undefined")
    _guard(g, ORACLE_MAX_ORDER, "domination")
    closed = _closed(g)
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


def _brute_max_star(g: Graph) -> int:
    """Largest induced star by scanning neighborhood subsets (order <= 20)."""
    if g.order == 0:
        raise EmptyGraph("induced stars need at least one vertex")
    _guard(g, ORACLE_MAX_ORDER, "induced-star")
    best = 0
    for v in range(g.order):
        nb = g.adj[v]
        sub = nb
        while True:
            if sub.bit_count() > best and all(g.adj[u] & sub == 0 for u in iter_bits(sub)):
                best = sub.bit_count()
            if sub == 0:
                break
            sub = (sub - 1) & nb
    return best
