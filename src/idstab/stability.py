"""Vertex-removal stability of the independent domination number.

``stability(g, direction)`` finds the smallest set of vertices whose removal
changes (or specifically decreases / increases) gamma_i.  The search scans
k = 1, 2, ... and, within each k, the k-subsets in lexicographic order, so
the witness is canonical: the lexicographically first subset at the minimal
size.  Removing all n vertices is admitted (gamma_i of the null graph is 0),
which makes the "any" and "decrease" directions total; "increase" can be
genuinely undefined (complete graphs) and is reported as such, never as a
sentinel number.

Two rules let the scan skip subsets that cannot match.  Each skips only
such subsets and keeps the order of the rest, so every witness is the one
the full scan would return.

* Transversal rule, used once "increase" is the only direction still open.
  Let D be a gamma_i-set of G (a minimum independent dominating set).  If S
  misses D, then D is still independent in G - S and still dominates
  V - S, so gamma_i(G - S) <= |D| = gamma_i(G).  Only an S that meets every
  gamma_i-set can raise gamma_i, and the scan visits only those k-subsets.
  The family of gamma_i-sets is capped at ``GAMMA_I_FAMILY_CAP`` masks, so
  memory stays bounded.  A partial family is still sound: a subset is
  skipped only when it misses a gamma_i-set that is actually known.
* Decrease rule, used once "decrease" is the only direction still open and
  gamma_i(G) = 1.  Every graph with a vertex has gamma_i >= 1, so only the
  null graph G - V has a smaller gamma_i, and the scan jumps to k = n.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .core import Graph, VertexSet, delete_vertices, iter_bits
from .errors import EmptyGraph, TooLargeForOracle
from .solver import _closed_rows, _gamma_i_value_in, _ids_of_size, oracle_gamma_i

ORACLE_STABILITY_MAX_ORDER = 12
GAMMA_I_FAMILY_CAP = 4096  # gamma_i-sets kept for the transversal rule


class Direction(Enum):
    ANY = "any"
    DECREASE = "decrease"
    INCREASE = "increase"


@dataclass(frozen=True)
class StabilityCertificate:
    """A stability value with the removal set and the gamma_i pair it separates.

    ``value``, ``witness`` and ``new_gamma_i`` are ``None`` exactly when the
    requested direction admits no removal at all (undefined).
    """

    base_gamma_i: int
    direction: Direction
    value: int | None
    witness: VertexSet | None
    new_gamma_i: int | None

    @property
    def defined(self) -> bool:
        return self.value is not None


@dataclass(frozen=True)
class StabilityTriple:
    any: StabilityCertificate
    decrease: StabilityCertificate
    increase: StabilityCertificate


def _matches(direction: Direction, base: int, val: int) -> bool:
    if direction is Direction.ANY:
        return val != base
    if direction is Direction.DECREASE:
        return val < base
    return val > base


def _subset_masks(n: int, k: int):
    for combo in combinations(range(n), k):
        mask = 0
        for v in combo:
            mask |= 1 << v
        yield mask


def _hitting_masks(n: int, k: int, meets: list[int]):
    """The k-subsets of range(n) that meet every set of a family, as masks in
    the order of ``_subset_masks``.

    ``meets[v]`` has bit i set when vertex v lies in the family's i-th set.
    A branch stops as soon as some unmet set has no member left to pick.
    """
    reach = [0] * (n + 1)  # reach[v]: the sets with a member at or above v
    for v in range(n - 1, -1, -1):
        reach[v] = reach[v + 1] | meets[v]

    def rec(start: int, left: int, unmet: int, chosen: int):
        for v in range(start, n - left + 1):
            if unmet & ~reach[v]:
                return
            rest = unmet & ~meets[v]
            if left == 1:
                if not rest:
                    yield chosen | 1 << v
            else:
                yield from rec(v + 1, left - 1, rest, chosen | 1 << v)

    return rec(0, k, reach[0], 0)


def _scan(
    g: Graph, directions: tuple[Direction, ...]
) -> dict[Direction, StabilityCertificate]:
    """One removal scan serving every requested direction; it stops as soon
    as each direction has its witness.  The rules of the module docstring
    apply from the first size k at which one direction is left open."""
    if g.order == 0:
        raise EmptyGraph("stability of the null graph is undefined")
    n = g.order
    closed = _closed_rows(g)
    full = g.full_mask
    base = _gamma_i_value_in(closed, full)
    found: dict[Direction, StabilityCertificate] = {}
    meets: list[int] | None = None
    for k in range(1, n + 1):
        pending = [d for d in directions if d not in found]
        if pending == [Direction.INCREASE]:
            if meets is None:
                meets = [0] * n
                for i, ids in enumerate(_ids_of_size(closed, full, base, GAMMA_I_FAMILY_CAP)):
                    for v in iter_bits(ids):
                        meets[v] |= 1 << i
            masks = _hitting_masks(n, k, meets)
        elif pending == [Direction.DECREASE] and base == 1 and k < n:
            continue
        else:
            masks = _subset_masks(n, k)
        for mask in masks:
            val = _gamma_i_value_in(closed, full & ~mask)
            for direction in directions:
                # _matches first: hashing an Enum member runs Python code
                if _matches(direction, base, val) and direction not in found:
                    found[direction] = StabilityCertificate(
                        base, direction, k, VertexSet(mask), val
                    )
                    if len(found) == len(directions):
                        return found
    return {
        d: found.get(d) or StabilityCertificate(base, d, None, None, None) for d in directions
    }


def stability(g: Graph, direction: Direction | str = Direction.ANY) -> StabilityCertificate:
    direction = Direction(direction)
    return _scan(g, (direction,))[direction]


def stability_triple(g: Graph) -> StabilityTriple:
    """All three directions from one scan; equal to three ``stability`` calls."""
    found = _scan(g, tuple(Direction))
    return StabilityTriple(*(found[d] for d in Direction))


def oracle_stability(g: Graph) -> tuple[int, int, int | None]:
    """(st_any, st_decrease, st_increase-or-None) by scanning every subset.

    Every removal is evaluated with ``oracle_gamma_i`` on a freshly built
    subgraph; nothing is pruned or shared with ``stability``.  Guarded to 12
    vertices.
    """
    if g.order == 0:
        raise EmptyGraph("stability of the null graph is undefined")
    if g.order > ORACLE_STABILITY_MAX_ORDER:
        raise TooLargeForOracle(
            f"stability oracle handles order <= {ORACLE_STABILITY_MAX_ORDER}, got {g.order}"
        )
    base = oracle_gamma_i(g)
    st_any: int | None = None
    st_down: int | None = None
    st_up: int | None = None
    for mask in range(1, 1 << g.order):
        sub, _ = delete_vertices(g, VertexSet(mask))
        val = oracle_gamma_i(sub)
        k = mask.bit_count()
        if val != base and (st_any is None or k < st_any):
            st_any = k
        if val < base and (st_down is None or k < st_down):
            st_down = k
        if val > base and (st_up is None or k < st_up):
            st_up = k
    assert st_any is not None and st_down is not None
    return st_any, st_down, st_up
