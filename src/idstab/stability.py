"""Vertex-removal stability of the independent domination number.

``stability(g, direction)`` finds the smallest set of vertices whose removal
changes (or specifically decreases / increases) gamma_i.  The search scans
k = 1, 2, ... and, within each k, the k-subsets in lexicographic order, so
the witness is canonical: the lexicographically first subset at the minimal
size.  Removing all n vertices is admitted (gamma_i of the null graph is 0),
which makes the "any" and "decrease" directions total; "increase" can be
genuinely undefined (complete graphs) and is reported as such, never as a
sentinel number.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .core import Graph, VertexSet, delete_vertices
from .errors import EmptyGraph, TooLargeForOracle
from .solver import _closed_rows, _gamma_i_value_in, oracle_gamma_i

ORACLE_STABILITY_MAX_ORDER = 12


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


def _scan(
    g: Graph, directions: tuple[Direction, ...]
) -> dict[Direction, StabilityCertificate]:
    """One removal scan serving every requested direction; it stops as soon
    as each direction has its witness."""
    if g.order == 0:
        raise EmptyGraph("stability of the null graph is undefined")
    closed = _closed_rows(g)
    full = g.full_mask
    base = _gamma_i_value_in(closed, full)
    found: dict[Direction, StabilityCertificate] = {}
    for k in range(1, g.order + 1):
        for mask in _subset_masks(g.order, k):
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
