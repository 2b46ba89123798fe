"""Definition-direct oracles that referee the exact solvers.

Each oracle evaluates its invariant from the definition, with none of the
solvers' bounds.  This module imports only ``core`` and ``errors``, so no
solver or stability code can leak into a referee; a test parses the imports
to keep it that way.  Every oracle is guarded by an order cap and raises
``TooLargeForOracle`` above it.

``oracle_gamma_i``, ``_oracle_gamma`` and ``oracle_stability`` read one
recurrence over vertex masks.  For a nonempty set U with top vertex t,

    best[U] = 1 + min over x in P(U) of best[U - N[x]],   best[0] = 0.

With P(U) = N[t] & U, best[U] = gamma_i(G[U]).  (<=) Let x be in U and T'
an independent dominating set (IDS) of G[U - N[x]].  T' + x is independent,
since T' avoids N[x], and dominates U: x covers N[x] & U and T' the rest.
(>=) An IDS T of G[U] dominates t, so it holds some x in N[t] & U.  T - x
lies in U - N[x] and is independent; it dominates U - N[x], since a vertex
there outside T has a neighbour in T, and that neighbour is not x.

With P(U) = N[t], best[U] is the fewest vertices of G whose closed
neighbourhoods cover U, so best[V] = gamma(G).  (<=) x and a cover of
U - N[x] cover U.  (>=) A cover T of U covers t, so it holds some x in
N[t]; T - x covers U - N[x], since no vertex there lies in N[x].

The gamma_i and gamma oracles fill it top-down from U = V, with a memo on
U (``_fewest_picks``): each U reached is expanded once, over at most
1 + deg(t) picks, and the memo holds at most 2^n states (2^20 under the
order-20 guard).  Over 3,000 random and hub graphs of order 20 the largest
memo held 1,241 states.

``oracle_stability`` needs gamma_i(G - S) for every removal S, and G - S
is the induced subgraph G[V - S], so it fills the table bottom-up over
every U.  It goes in blocks, one per top vertex t, over U = U' + t with
U' < 2^t, so N[t] & U is t and the lower neighbours of t in U'.  Every
U - N[x] lacks t, so it lies in an earlier block, and U - N[x] = U' - N[x],
since t is in N[x].  The work is at most sum over t of 2^t (1 + d(t)) <=
2^n (1 + max degree) steps, where d(t) counts the neighbours of t below t,
and the table has 2^n entries (4,096 under the order-12 guard).
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


def _fewest_picks(g: Graph, independent: bool) -> int:
    """gamma_i(G) or gamma(G) by the recurrence of the module docstring,
    filled top-down from V with a memo on the undominated set U.  The picks
    for its top vertex t come from N[t] & U when they must be independent
    and from N[t] otherwise."""
    closed = _closed(g)
    memo = {0: 0}

    def fewest(u: int) -> int:
        if u not in memo:
            near_t = closed[u.bit_length() - 1]
            picks = near_t & u if independent else near_t
            memo[u] = 1 + min(fewest(u & ~closed[x]) for x in iter_bits(picks))
        return memo[u]

    return fewest(g.full_mask)


def oracle_gamma_i(g: Graph) -> int:
    """Independent domination number (order <= 20).  The null graph gets 0 so
    vertex-removal scans stay total."""
    if g.order == 0:
        return 0
    _guard(g, ORACLE_MAX_ORDER, "independent domination")
    return _fewest_picks(g, True)


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


def _oracle_gamma(g: Graph) -> int:
    """Domination number (order <= 20)."""
    if g.order == 0:
        raise EmptyGraph("domination number of the null graph is undefined")
    _guard(g, ORACLE_MAX_ORDER, "domination")
    return _fewest_picks(g, False)


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
