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

``oracle_stability`` fills one table over vertex masks, ``best[U] =
gamma_i(G[U])`` for every U, rather than one gamma_i filter per removal:
G - S is the induced subgraph G[V - S].  ``best[0] = 0``, and for U nonempty
with top vertex t

    best[U] = 1 + min over x in N[t] & U of best[U - N[x]].

(<=) Let x be in U and T' an independent dominating set (IDS) of
G[U - N[x]].  T' + x is independent, since T' avoids N[x], and dominates U:
x covers N[x] & U and T' the rest.  (>=) An IDS T of G[U] dominates t, so
it holds some x in N[t] & U.  T - x lies in U - N[x] and is independent;
it dominates U - N[x], since a vertex there outside T has a neighbour in T,
and that neighbour is not x.  The table is filled in blocks, one per top
vertex t, over U = U' + t with U' < 2^t, so N[t] & U is t and the lower
neighbours of t in U'.  Every U - N[x] lacks t, so it lies in an earlier
block, and U - N[x] = U' - N[x], since t is in N[x].  The work is at most
sum over t of 2^t (1 + d(t)) <= 2^n (1 + max degree) steps, where d(t)
counts the neighbours of t below t, and the table has 2^n entries (4,096
under the order-12 guard).
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
        rest = cand | tried
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
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
    """(st_any, st_decrease, st_increase-or-None) read off the table of the
    module docstring, with no graph built and nothing pruned.  A removal of
    k vertices leaves a U of n - k vertices, U != V.  A removal that changes
    gamma_i lowers or raises it, so st_any is the smaller of the two directed
    values; the decrease is always defined, by U empty.  Guarded to 12
    vertices."""
    if g.order == 0:
        raise EmptyGraph("stability of the null graph is undefined")
    _guard(g, ORACLE_STABILITY_MAX_ORDER, "stability")
    n = g.order
    closed = _closed(g)
    best = [0]
    for t in range(n):
        bit = 1 << t
        off = ~closed[t]
        block = [best[u & off] for u in range(bit)]  # x = t, for every U'
        for x in iter_bits(g.adj[t] & (bit - 1)):  # lower x, for U' holding x
            xbit = 1 << x
            off = ~closed[x]
            for u in range(xbit, bit):
                if u & xbit and best[u & off] < block[u]:
                    block[u] = best[u & off]
        best += [1 + b for b in block]
    base = best.pop()
    kept_down = max(u.bit_count() for u, b in enumerate(best) if b < base)
    kept_up = max((u.bit_count() for u, b in enumerate(best) if b > base), default=None)
    st_down = n - kept_down
    if kept_up is None:
        return st_down, st_down, None
    return min(st_down, n - kept_up), st_down, n - kept_up


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
