"""Vertex-removal stability of the independent domination number.

``stability(g, direction)`` finds the smallest set of vertices whose removal
changes (or specifically decreases / increases) gamma_i.  The search scans
k = 1, 2, ... and, within each k, the k-subsets in lexicographic order, so
the witness is canonical: the lexicographically first subset at the minimal
size.  Removing all n vertices is admitted (gamma_i of the null graph is 0),
which makes the "any" and "decrease" directions total; "increase" can be
genuinely undefined (complete graphs) and is reported as such, never as a
sentinel number.

``oracle_stability`` and ``ORACLE_STABILITY_MAX_ORDER`` are re-exported from
``oracles``: the referee reads every removal's gamma_i off a sieve over
vertex masks and shares no code with this scan.

Two rules let the scan skip subsets that cannot match.  Each applies from
k = 1 in its own direction, skips only such subsets and keeps the order of
the rest, so every witness is the one the full scan would return.

* Transversal rule, for "increase".  Let D be a gamma_i-set of G (a
  minimum independent dominating set).  If S misses D, then D is still
  independent in G - S and still dominates V - S, so
  gamma_i(G - S) <= |D| = gamma_i(G).  Only an S that meets every
  gamma_i-set can raise gamma_i, and the scan visits only those k-subsets.
  The family of gamma_i-sets is capped at ``GAMMA_I_FAMILY_CAP`` masks, so
  memory stays bounded.  A partial family is still sound: a subset is
  skipped only when it misses a gamma_i-set that is actually known.
* Decrease rule, for "decrease" when gamma_i(G) = 1.  Every graph with a
  vertex has gamma_i >= 1, so only the null graph G - V has a smaller
  gamma_i, and the scan starts at k = n.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .core import Graph, VertexSet, iter_bits
from .errors import EmptyGraph
from .oracles import ORACLE_STABILITY_MAX_ORDER, oracle_stability  # re-exported
from .solver import _closed_rows, _gamma_i_value_in, _ids_of_size

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


def _scan(g: Graph, direction: Direction) -> StabilityCertificate:
    """The removal scan for one direction, with that direction's rule from
    the module docstring; it returns at the first match."""
    if g.order == 0:
        raise EmptyGraph("stability of the null graph is undefined")
    n = g.order
    closed = _closed_rows(g)
    full = g.full_mask
    base = _gamma_i_value_in(closed, full)
    first = n if direction is Direction.DECREASE and base == 1 else 1
    meets: list[int] | None = None
    if direction is Direction.INCREASE:
        matches = base.__lt__  # val > base
        meets = [0] * n
        for i, ids in enumerate(_ids_of_size(closed, full, base, GAMMA_I_FAMILY_CAP)):
            for v in iter_bits(ids):
                meets[v] |= 1 << i
    else:
        matches = base.__gt__ if direction is Direction.DECREASE else base.__ne__
    for k in range(first, n + 1):
        masks = _subset_masks(n, k) if meets is None else _hitting_masks(n, k, meets)
        for mask in masks:
            val = _gamma_i_value_in(closed, full & ~mask)
            if matches(val):
                return StabilityCertificate(base, direction, k, VertexSet(mask), val)
    return StabilityCertificate(base, direction, None, None, None)


def stability(g: Graph, direction: Direction | str = Direction.ANY) -> StabilityCertificate:
    return _scan(g, Direction(direction))


def stability_triple(g: Graph) -> StabilityTriple:
    """All three directions, one scan each; equal to three ``stability`` calls."""
    return StabilityTriple(*(_scan(g, d) for d in Direction))
