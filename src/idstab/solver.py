"""Exact solvers for the independence and domination invariants.

The main solvers are branch-and-bound searches over bit masks.  Branching
for the domination-flavored invariants follows one rule: pick the
lowest-indexed vertex that is not yet dominated and try, in ascending order,
every eligible vertex of its closed neighborhood; a vertex tried at a node
is banned in the later sibling branches, so no solution is visited twice.
The prune is the standard covering bound: a new pick can dominate at most
max-degree + 1 vertices.

``oracle_gamma_i`` deliberately shares nothing with the branch-and-bound
path except the ``Graph`` type and ``classify_set``: it filters all 2^n
subsets, so disagreement between the two is always a bug worth keeping.

Optimal witnesses are tie-broken to the lexicographically smallest set (by
sorted member list), found by a second, ascending-member search once the
optimal value is known.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Graph, VertexSet, classify_set, iter_bits
from .errors import EmptyGraph, TooLargeForOracle

ORACLE_MAX_ORDER = 20


@dataclass(frozen=True)
class GammaCertificate:
    """An invariant value plus a witness set attaining it."""

    kind: str  # "independent_domination" | "domination" | "independence"
    value: int
    witness: VertexSet


def _closed_rows(g: Graph) -> list[int]:
    return [row | (1 << v) for v, row in enumerate(g.adj)]


def _split_components(closed: list[int], universe: int) -> list[int]:
    comps = []
    unseen = universe
    while unseen:
        comp = 0
        frontier = unseen & -unseen
        while frontier:
            comp |= frontier
            grow = 0
            for v in iter_bits(frontier):
                grow |= closed[v]
            frontier = grow & universe & ~comp
        comps.append(comp)
        unseen &= ~comp
    return comps


def _cover_cap(closed: list[int], comp: int) -> int:
    # largest closed-neighborhood size inside the block; one pick dominates at most this many
    return max((closed[v] & comp).bit_count() for v in iter_bits(comp))


def _ids_min(closed: list[int], comp: int) -> int:
    """Minimum independent dominating set size on one connected block."""
    cap = _cover_cap(closed, comp)
    best = comp.bit_count() + 1

    def rec(covered: int, excluded: int, size: int) -> None:
        nonlocal best
        uncovered = comp & ~covered
        if not uncovered:
            best = size
            return
        if size + -(-uncovered.bit_count() // cap) >= best:
            return
        v = (uncovered & -uncovered).bit_length() - 1
        cands = closed[v] & uncovered & ~excluded
        ban = 0
        while cands:
            low = cands & -cands
            cands ^= low
            rec(covered | (closed[low.bit_length() - 1] & comp), excluded | ban, size + 1)
            ban |= low

    rec(0, 0, 0)
    return best


def _ids_of_size(closed: list[int], universe: int, k: int, limit: int) -> list[int]:
    """Up to ``limit`` independent dominating sets of size ``k`` within ``universe``.

    ``k`` must be the minimum size.  The search is ``_ids_min``'s branching
    rule, whose sibling bans find each set once, and its covering bound with
    ``k`` as the bound, over the whole universe rather than one block.  All
    of the sets are returned when there are at most ``limit``.
    """
    cap = _cover_cap(closed, universe)
    found: list[int] = []

    def rec(covered: int, excluded: int, chosen: int, size: int) -> None:
        uncovered = universe & ~covered
        if not uncovered:
            found.append(chosen)
            return
        if size + -(-uncovered.bit_count() // cap) > k:
            return
        v = (uncovered & -uncovered).bit_length() - 1
        cands = closed[v] & uncovered & ~excluded
        ban = 0
        while cands and len(found) < limit:
            low = cands & -cands
            cands ^= low
            rec(covered | closed[low.bit_length() - 1], excluded | ban, chosen | low, size + 1)
            ban |= low

    rec(0, 0, 0, 0)
    return found


def _lexmin_ids(closed: list[int], comp: int, k: int) -> int:
    """Lexicographically first independent dominating set of size k on a block."""
    cap = _cover_cap(closed, comp)

    def rec(covered: int, chosen: int, floor: int, size: int) -> int | None:
        uncovered = comp & ~covered
        if not uncovered:
            return chosen
        if size == k or size + -(-uncovered.bit_count() // cap) > k:
            return None
        cands = uncovered & floor
        m = uncovered
        while m:  # every uncovered vertex needs a possible future dominator
            low = m & -m
            m ^= low
            if not closed[low.bit_length() - 1] & cands:
                return None
        while cands:
            low = cands & -cands
            cands ^= low
            u = low.bit_length() - 1
            got = rec(covered | (closed[u] & comp), chosen | low, -1 << (u + 1), size + 1)
            if got is not None:
                return got
        return None

    found = rec(0, 0, -1, 0)
    assert found is not None, "no independent dominating set of the optimal size"
    return found


def _dom_min(closed: list[int], comp: int) -> int:
    """Minimum dominating set size on one connected block."""
    cap = _cover_cap(closed, comp)
    best = comp.bit_count()  # the whole block dominates itself

    def rec(dominated: int, excluded: int, size: int) -> None:
        nonlocal best
        und = comp & ~dominated
        if not und:
            if size < best:
                best = size
            return
        if size + -(-und.bit_count() // cap) >= best:
            return
        v = (und & -und).bit_length() - 1
        cands = closed[v] & comp & ~excluded
        ban = 0
        while cands:
            low = cands & -cands
            cands ^= low
            rec(dominated | (closed[low.bit_length() - 1] & comp), excluded | ban, size + 1)
            ban |= low

    rec(0, 0, 0)
    return best


def _lexmin_dom(closed: list[int], comp: int, k: int) -> int:
    """Lexicographically first dominating set of size k on a block.

    Members are tried in ascending order; a candidate must dominate at least
    one currently-undominated vertex, which every member of a minimum
    dominating set does at its insertion point.
    """
    cap = _cover_cap(closed, comp)

    def rec(dominated: int, chosen: int, floor: int, size: int) -> int | None:
        und = comp & ~dominated
        if not und:
            return chosen
        if size == k or size + -(-und.bit_count() // cap) > k:
            return None
        future = comp & floor
        m = und
        while m:
            low = m & -m
            m ^= low
            if not closed[low.bit_length() - 1] & future:
                return None
        cands = future
        while cands:
            low = cands & -cands
            cands ^= low
            u = low.bit_length() - 1
            if closed[u] & und:
                got = rec(dominated | (closed[u] & comp), chosen | low, -1 << (u + 1), size + 1)
                if got is not None:
                    return got
        return None

    found = rec(0, 0, -1, 0)
    assert found is not None, "no dominating set of the optimal size"
    return found


def _alpha_max(open_rows: tuple[int, ...], free0: int) -> int:
    """Maximum independent set size within the vertex mask ``free0``."""
    best = 0

    def rec(free: int, size: int) -> None:
        nonlocal best
        if size + free.bit_count() <= best:
            return
        if not free:
            best = size
            return
        low = free & -free
        v = low.bit_length() - 1
        rec(free & ~(open_rows[v] | low), size + 1)
        rec(free ^ low, size)

    rec(free0, 0)
    return best


def _lexmin_alpha(open_rows: tuple[int, ...], free0: int, k: int) -> int:
    def rec(free: int, chosen: int, size: int) -> int | None:
        if size == k:
            return chosen
        if size + free.bit_count() < k:
            return None
        m = free
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            got = rec(free & ~(open_rows[u] | low) & (-1 << (u + 1)), chosen | low, size + 1)
            if got is not None:
                return got
        return None

    found = rec(free0, 0, 0)
    assert found is not None
    return found


def _gamma_i_value_in(closed: list[int], universe: int) -> int:
    return sum(_ids_min(closed, comp) for comp in _split_components(closed, universe))


def gamma_i_value(g: Graph) -> int:
    """The independent domination number, without a witness."""
    return _gamma_i_value_in(_closed_rows(g), g.full_mask)


def gamma_i(g: Graph) -> GammaCertificate:
    """Minimum maximal independent set, with the lexicographically first witness.

    Decomposes over connected components; the null graph gets value 0 with an
    empty witness so vertex-removal scans stay total.
    """
    closed = _closed_rows(g)
    value = 0
    witness = 0
    for comp in _split_components(closed, g.full_mask):
        k = _ids_min(closed, comp)
        value += k
        witness |= _lexmin_ids(closed, comp, k)
    return GammaCertificate("independent_domination", value, VertexSet(witness))


def gamma_value(g: Graph) -> int:
    if g.order == 0:
        raise EmptyGraph("domination number of the null graph is undefined")
    closed = _closed_rows(g)
    return sum(_dom_min(closed, comp) for comp in _split_components(closed, g.full_mask))


def gamma(g: Graph) -> GammaCertificate:
    """Minimum dominating set with the lexicographically first witness."""
    if g.order == 0:
        raise EmptyGraph("domination number of the null graph is undefined")
    closed = _closed_rows(g)
    value = 0
    witness = 0
    for comp in _split_components(closed, g.full_mask):
        k = _dom_min(closed, comp)
        value += k
        witness |= _lexmin_dom(closed, comp, k)
    return GammaCertificate("domination", value, VertexSet(witness))


def alpha_value(g: Graph) -> int:
    if g.order == 0:
        raise EmptyGraph("independence number of the null graph is undefined")
    closed = _closed_rows(g)
    return sum(_alpha_max(g.adj, comp) for comp in _split_components(closed, g.full_mask))


def alpha(g: Graph) -> GammaCertificate:
    """Maximum independent set with the lexicographically first witness."""
    if g.order == 0:
        raise EmptyGraph("independence number of the null graph is undefined")
    closed = _closed_rows(g)
    value = 0
    witness = 0
    for comp in _split_components(closed, g.full_mask):
        k = _alpha_max(g.adj, comp)
        value += k
        witness |= _lexmin_alpha(g.adj, comp, k)
    return GammaCertificate("independence", value, VertexSet(witness))


def oracle_gamma_i(g: Graph) -> int:
    """Independent domination number by filtering every subset.

    Shares only ``Graph`` and ``classify_set`` with the branch-and-bound
    solver, so it can referee it.  Guarded to 20 vertices.
    """
    if g.order == 0:
        return 0
    if g.order > ORACLE_MAX_ORDER:
        raise TooLargeForOracle(f"oracle handles order <= {ORACLE_MAX_ORDER}, got {g.order}")
    best = None
    for mask in range(1 << g.order):
        if best is not None and mask.bit_count() >= best:
            continue
        if classify_set(g, VertexSet(mask)).maximal_independent:
            best = mask.bit_count()
    assert best is not None
    return best


def enumerate_maximal_independent_sets(g: Graph):
    """Yield every maximal independent set exactly once, in a fixed DFS order."""
    if g.order == 0:
        raise EmptyGraph("the null graph has no vertex sets to enumerate")
    closed = _closed_rows(g)
    full = g.full_mask

    def rec(covered: int, excluded: int, chosen: int):
        uncovered = full & ~covered
        if not uncovered:
            yield VertexSet(chosen)
            return
        v = (uncovered & -uncovered).bit_length() - 1
        cands = closed[v] & uncovered & ~excluded
        ban = 0
        while cands:
            low = cands & -cands
            cands ^= low
            yield from rec(covered | closed[low.bit_length() - 1], excluded | ban, chosen | low)
            ban |= low

    yield from rec(0, 0, 0)


def max_induced_star(g: Graph) -> int:
    """Largest t such that some vertex plus t pairwise non-adjacent neighbors
    induce a star; equals max over v of the independence number of N(v)."""
    if g.order == 0:
        raise EmptyGraph("induced stars need at least one vertex")
    best = 0
    for v in range(g.order):
        nb = g.adj[v]
        if nb.bit_count() > best:
            t = _alpha_max(g.adj, nb)
            if t > best:
                best = t
    return best
