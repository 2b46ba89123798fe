"""Exact solvers for the independence and domination invariants.

The main solvers are branch-and-bound searches over bit masks.  gamma_i and
gamma are one search: the fewest picks whose closed neighborhoods cover a
block, where gamma_i's picks must also stay independent.  The value search
and the walk over independent dominating sets branch by one rule: pick a
vertex that is not yet dominated and try, in ascending order, every
eligible vertex of its closed neighborhood (for gamma_i only undominated
ones, for gamma any); a vertex tried at a node is banned in the later
sibling branches, so no solution is visited twice.  Every solution
dominates the chosen vertex, so any undominated vertex will do: the lowest
one, except where the packing walk has just met them all, and then one
with the fewest eligible dominators.  Two lower bounds prune a node.  The
covering bound: a new pick dominates at most max-degree + 1 vertices.  The
packing bound (``_packing``): undominated vertices whose possible
dominators are pairwise disjoint each need a pick of their own.

There are four searches:

* ``_cover_min``, the value of gamma_i or gamma on one connected block.  It
  returns 1 without searching when one vertex's closed neighborhood is the
  whole block: that vertex alone is an independent dominating set, and a
  nonempty block needs at least one pick.  This follows from the
  definitions, not from a claim of the audited catalog.  In an audit of the
  small labeled graphs more than half of the blocks end here.  The search
  adds the packing bound only when its block has more than twice as many
  vertices as its largest closed neighborhood, that is when the covering
  bound at the root is 3 or more; on denser blocks the covering bound
  prunes well and the packing walk costs more than it saves.  Above that
  gate it branches on the tightest undominated vertex.
* ``_lexmin_cover``, the lexmin witness pass once the value is known.  It
  tries members in ascending order, applies both bounds at every node, and
  tries no member above the lowest top of the undominated vertices'
  dominator sets.
* ``_independent_dominating_sets``, a walk over the maximal independent
  sets with at most k members, pruned by the covering bound alone.  It
  serves ``_ids_of_size`` (k = gamma_i) and
  ``enumerate_maximal_independent_sets`` (k = n, where nothing is pruned).
* ``_alpha_max``, the independence search, one pass for ``alpha``,
  ``alpha_value`` and ``max_induced_star``: it takes the lowest free vertex
  before it leaves that vertex out, so the first maximum set it keeps is
  the lexicographically first one.

``oracle_gamma_i`` and ``ORACLE_MAX_ORDER`` are re-exported from
``oracles``, which shares no code with these searches beyond the ``Graph``
type: disagreement between the two is always a bug worth keeping.

Optimal witnesses are tie-broken to the lexicographically smallest set (by
sorted member list).  For gamma_i and gamma a second, ascending-member
search finds it once the optimal value is known; alpha's comes out of its
one search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .core import MAX_ORDER, Graph, VertexSet, component_masks
from .errors import EmptyGraph
from .oracles import ORACLE_MAX_ORDER, oracle_gamma_i  # re-exported


@dataclass(frozen=True)
class GammaCertificate:
    """An invariant value plus a witness set attaining it."""

    kind: str  # "independent_domination" | "domination" | "independence"
    value: int
    witness: VertexSet


def _closed_rows(g: Graph) -> list[int]:
    return [row | (1 << v) for v, row in enumerate(g.adj)]


def _cover_cap(closed: list[int], comp: int) -> int:
    # largest closed-neighborhood size inside the block; one pick dominates at most this many
    cap = 0
    m = comp
    while m:
        low = m & -m
        m ^= low
        size = (closed[low.bit_length() - 1] & comp).bit_count()
        if size > cap:
            cap = size
    return cap


# more picks than any graph of order <= MAX_ORDER holds, so every bound check prunes
_INFEASIBLE = MAX_ORDER + 1


def _packing(closed: list[int], uncovered: int, cands: int) -> tuple[int, int, int]:
    """A lower bound on the picks from ``cands`` that dominate ``uncovered``,
    plus two facts about the dominator sets its walk meets.

    Walks the uncovered vertices in ascending order and counts each vertex u
    whose dominator set ``closed[u] & cands`` is disjoint from the sets
    counted so far.  No single pick dominates two counted vertices, so a
    completion needs at least that many more picks (the packing bound
    rho <= gamma of Meir and Moon).  If some dominator set is empty, no
    completion exists at all, and the result is ``_INFEASIBLE``.  For gamma_i
    the later picks must be uncovered, because they must stay independent
    of the chosen ones, so the callers pass uncovered candidates.

    Returns ``(bound, smallest, lim)``: ``smallest`` is a dominator set of
    fewest members over the uncovered vertices (the first one met among
    equals), and ``lim`` is the least ``bit_length`` of those sets, one more
    than their lowest top member.  On the infeasible path both are 0, the
    empty set and its length.
    """
    used = 0
    count = 0
    smallest = cands
    fewest = cands.bit_count()
    lim = cands.bit_length()
    while uncovered:
        low = uncovered & -uncovered
        uncovered ^= low
        dom = closed[low.bit_length() - 1] & cands
        if not dom:
            return _INFEASIBLE, 0, 0
        if not dom & used:
            used |= dom
            count += 1
        size = dom.bit_count()
        if size < fewest:
            fewest = size
            smallest = dom
        top = dom.bit_length()
        if top < lim:
            lim = top
    return count, smallest, lim


def _cover_min(closed: list[int], comp: int, independent: bool) -> int:
    """The fewest picks that dominate one connected block: gamma_i of the
    block when ``independent``, gamma otherwise.

    gamma_i draws its picks from the undominated vertices, which keeps them
    independent of the chosen ones; gamma draws them from the whole block.
    Either way a completion of a node picks only from its pool (the drawable
    vertices not banned there), and no earlier pick dominates an undominated
    vertex, so the packing bound over the pool is sound for both.

    Branching: a node takes one undominated vertex u and tries each member
    of its dominator set ``closed[u] & pool`` in ascending order, banning it
    in the later siblings.  Every completion dominates u, so it holds some
    member of that set; it is met below the sibling of its lowest such
    member, and below no other, since the earlier siblings' picks are not in
    it and the later siblings ban that member.  So every choice of u keeps
    the search complete and free of repeats, and the value is the same.
    Below the packing gate u is the lowest undominated vertex.  Above it
    ``_packing`` has already walked every undominated vertex, and u is one
    with the smallest dominator set, which gives the node the fewest
    children.  On the pinned ``gamma-i-sparse`` graphs this cut the value
    search's nodes from 20,991 to 12,538.

    Dominating-vertex exit: when the largest closed neighborhood inside the
    block (``cap``) has as many vertices as the block, some v has
    N[v] >= block.  Then {v} dominates the block and is independent, so
    gamma_i and gamma of the block are at most 1.  The empty set dominates
    no nonempty block, so both are exactly 1, and no search is needed.
    """
    cap = _cover_cap(closed, comp)
    best = comp.bit_count()  # no block needs more picks than it has vertices
    if cap == best:
        return 1  # a dominating vertex
    pack = best > 2 * cap
    keep = 0 if independent else comp

    def rec(covered: int, excluded: int, size: int) -> None:
        nonlocal best
        uncovered = comp & ~covered
        if not uncovered:
            best = size
            return
        if size + -(-uncovered.bit_count() // cap) >= best:
            return
        pool = (uncovered | keep) & ~excluded
        if pack:
            bound, cands, _ = _packing(closed, uncovered, pool)
            if size + bound >= best:
                return
        else:
            cands = closed[(uncovered & -uncovered).bit_length() - 1] & pool
        ban = 0
        while cands:
            low = cands & -cands
            cands ^= low
            rec(covered | (closed[low.bit_length() - 1] & comp), excluded | ban, size + 1)
            ban |= low

    rec(0, 0, 0)
    return best


def _lexmin_cover(closed: list[int], comp: int, k: int, independent: bool) -> int:
    """Lexicographically first set of k picks that dominates one block, drawn
    as in ``_cover_min``; k must be the block's minimum.

    Members are tried in ascending order; a candidate must dominate at least
    one currently-undominated vertex, which every member of a minimum
    dominating set does at its insertion point (and every gamma_i candidate
    does, being undominated itself).

    Next-pick cut: picks ascend, so the picks a completion still adds all lie
    in ``cands`` and the next one is the lowest of them.  Each undominated w
    needs one of them in its dominator set ``closed[w] & cands``, so the
    next pick is at most that set's top member, for every w, and so below
    the ``lim`` that ``_packing`` returns.  A candidate at or above ``lim``
    starts no completion; dropping it loses no set, so the first set found
    is still the lexicographically first.  On the pinned ``gamma-i-sparse``
    graphs this cut the pass's nodes from 116,094 to 25,848.
    """
    cap = _cover_cap(closed, comp)
    keep = 0 if independent else comp

    def rec(covered: int, chosen: int, floor: int, size: int) -> int | None:
        uncovered = comp & ~covered
        if not uncovered:
            return chosen
        if size == k or size + -(-uncovered.bit_count() // cap) > k:
            return None
        cands = (uncovered | keep) & floor
        bound, _, lim = _packing(closed, uncovered, cands)
        if size + bound > k:
            return None
        cands &= (1 << lim) - 1
        while cands:
            low = cands & -cands
            cands ^= low
            u = low.bit_length() - 1
            if closed[u] & uncovered:
                got = rec(covered | (closed[u] & comp), chosen | low, -1 << (u + 1), size + 1)
                if got is not None:
                    return got
        return None

    found = rec(0, 0, -1, 0)
    assert found is not None, "no dominating set of the optimal size"
    return found


def _independent_dominating_sets(closed: list[int], universe: int, k: int):
    """Yield as masks, in one fixed depth-first order, the independent
    dominating sets of the subgraph on ``universe`` with at most k members.

    The branching rule is ``_cover_min``'s for gamma_i below its packing
    gate, always on the lowest undominated vertex, over the whole
    universe rather than one block, with the covering bound against k.  With
    k = |universe| the bound never prunes, since a node's picks plus its
    undominated vertices number at most |universe|.
    """
    cap = _cover_cap(closed, universe)

    def rec(covered: int, excluded: int, chosen: int, size: int):
        uncovered = universe & ~covered
        if not uncovered:
            yield chosen
            return
        if size + -(-uncovered.bit_count() // cap) > k:
            return
        v = (uncovered & -uncovered).bit_length() - 1
        cands = closed[v] & uncovered & ~excluded
        ban = 0
        while cands:
            low = cands & -cands
            cands ^= low
            u = low.bit_length() - 1
            yield from rec(covered | closed[u], excluded | ban, chosen | low, size + 1)
            ban |= low

    return rec(0, 0, 0, 0)


def _ids_of_size(closed: list[int], universe: int, k: int, limit: int) -> list[int]:
    """Up to ``limit`` independent dominating sets of size ``k`` within
    ``universe``, the first ones of the walk.  ``k`` must be the minimum size,
    so the walk yields no smaller set.  All of the sets are returned when
    there are at most ``limit``.
    """
    return list(islice(_independent_dominating_sets(closed, universe, k), limit))


def _alpha_max(open_rows: tuple[int, ...], free0: int) -> int:
    """The lexicographically first maximum independent set within the vertex
    mask ``free0``, as a mask; its size is the independence number there.

    Each node takes the lowest free vertex v, first into the set and then
    left out.  Two leaves of the same size first differ at some node: both
    hold the same members below its v, and only the earlier leaf holds v.
    So leaves of one size come in lexicographic order of their sorted member
    lists.  The bound prunes a node only when it cannot beat the best size
    so far.  So until a set of size |M| is found, where M is the
    lexicographically first maximum set, no node on the path to M is pruned
    and no earlier leaf has size |M|: the first set of that size found is M,
    and keeping the set at each strict improvement keeps M.
    """
    best = 0
    found = 0

    def rec(free: int, chosen: int, size: int) -> None:
        nonlocal best, found
        if size + free.bit_count() <= best:
            return
        if not free:
            best, found = size, chosen
            return
        low = free & -free
        v = low.bit_length() - 1
        rec(free & ~(open_rows[v] | low), chosen | low, size + 1)
        rec(free ^ low, chosen, size)

    rec(free0, 0, 0)
    return found


def _gamma_i_value_in(closed: list[int], universe: int) -> int:
    value = 0
    for comp in component_masks(closed, universe):
        value += _cover_min(closed, comp, True)
    return value


def _cover_certificate(g: Graph, kind: str, independent: bool) -> GammaCertificate:
    closed = _closed_rows(g)
    value = 0
    witness = 0
    for comp in component_masks(closed, g.full_mask):
        k = _cover_min(closed, comp, independent)
        value += k
        witness |= _lexmin_cover(closed, comp, k, independent)
    return GammaCertificate(kind, value, VertexSet(witness))


def gamma_i_value(g: Graph) -> int:
    """The independent domination number, without a witness."""
    return _gamma_i_value_in(_closed_rows(g), g.full_mask)


def gamma_i(g: Graph) -> GammaCertificate:
    """Minimum maximal independent set, with the lexicographically first witness.

    Decomposes over connected components; the null graph gets value 0 with an
    empty witness so vertex-removal scans stay total.
    """
    return _cover_certificate(g, "independent_domination", True)


def gamma_value(g: Graph) -> int:
    if g.order == 0:
        raise EmptyGraph("domination number of the null graph is undefined")
    closed = _closed_rows(g)
    return sum(_cover_min(closed, comp, False) for comp in component_masks(closed, g.full_mask))


def gamma(g: Graph) -> GammaCertificate:
    """Minimum dominating set with the lexicographically first witness."""
    if g.order == 0:
        raise EmptyGraph("domination number of the null graph is undefined")
    return _cover_certificate(g, "domination", False)


def alpha_value(g: Graph) -> int:
    return alpha(g).value


def alpha(g: Graph) -> GammaCertificate:
    """Maximum independent set with the lexicographically first witness."""
    if g.order == 0:
        raise EmptyGraph("independence number of the null graph is undefined")
    witness = 0
    for comp in component_masks(g.adj, g.full_mask):
        witness |= _alpha_max(g.adj, comp)
    return GammaCertificate("independence", witness.bit_count(), VertexSet(witness))


def enumerate_maximal_independent_sets(g: Graph):
    """Yield every maximal independent set exactly once, in a fixed DFS order."""
    if g.order == 0:
        raise EmptyGraph("the null graph has no vertex sets to enumerate")
    for mask in _independent_dominating_sets(_closed_rows(g), g.full_mask, g.order):
        yield VertexSet(mask)


def max_induced_star(g: Graph) -> int:
    """Largest t such that some vertex plus t pairwise non-adjacent neighbors
    induce a star; equals max over v of the independence number of N(v)."""
    if g.order == 0:
        raise EmptyGraph("induced stars need at least one vertex")
    best = 0
    for v in range(g.order):
        nb = g.adj[v]
        if nb.bit_count() > best:
            t = _alpha_max(g.adj, nb).bit_count()
            if t > best:
                best = t
    return best
