"""Vertex-removal stability of the independent domination number.

``stability(g, direction)`` finds the smallest set of vertices whose removal
changes (or specifically decreases / increases) gamma_i.  The witness is
canonical: the lexicographically first set (by sorted member list) at the
minimal size.  Removing all n vertices is admitted (gamma_i of the null
graph is 0), which makes the "any" and "decrease" directions total;
"increase" can be genuinely undefined (complete graphs) and is reported as
such, never as a sentinel number.

``oracle_stability`` is re-exported from ``oracles``: the referee reads
every removal's gamma_i off a sieve over vertex masks and shares no code
with this module.

The increase direction scans k = 1, 2, ... and, within each k, the k-subsets
in lexicographic order, solving gamma_i(G - S) for each; the first match is
the witness.  The decrease direction answers S = V at once when gamma_i = 1
(see below), scans k = 1 the same way otherwise, and finds larger witnesses
with the left-out search.  The any direction scans k = 1 and then takes the
first of the two directed answers (min rule).

* Transversal rule, for "increase".  Let D be a gamma_i-set of G (a
  minimum independent dominating set).  If S misses D, then D is still
  independent in G - S and still dominates V - S, so
  gamma_i(G - S) <= |D| = gamma_i(G).  Only an S that meets every
  gamma_i-set can raise gamma_i, and the scan visits only those k-subsets,
  in their order, so the witness is the one the full scan would return.
  The family kept is the lexicographically first ``GAMMA_I_FAMILY_CAP``
  gamma_i-sets (``solver._covers``), so memory stays bounded.  A partial
  family is still sound: a subset is skipped only when it misses a
  gamma_i-set that is actually known.
* Left-out search, for "decrease".  Let b = gamma_i(G).  Then
  gamma_i(G - S) < b exactly when some independent D within V - S, with
  |D| <= b - 1, dominates V - S: such a D is an independent dominating set
  of G - S, and a gamma_i-set of G - S is such a D.  Every such S contains
  V - N[D], and V - N[D] is itself such an S for D, so a minimum witness is
  exactly V - N[D] for its D, and st_down is the fewest vertices left
  undominated by an independent D of at most b - 1 picks.  With b = 1 there
  are no picks, and the only witness is S = V.

  The search branches on the lowest vertex u that is neither dominated nor
  left out (the open vertices).  One branch leaves u out: u joins S, and
  N[u] is banned from later picks, since a pick there would dominate u.
  The others pick each undominated, unbanned vertex of N[u] in ascending
  order and ban it in the later siblings, so no D is reached twice; picks
  are undominated, so D stays independent.  With ``left`` picks to go and
  the pool of undominated, unbanned vertices, two bounds count the open
  vertices every completion leaves out.  Covering: a pick dominates at most
  cap = max |N[v]| vertices, so at least |open| - left * cap.  Packing:
  every later pick comes from the pool, so an open vertex with no
  dominator in the pool is left out (f of them), and open vertices whose
  dominator sets in the pool are pairwise disjoint need a pick each (c of
  them), so at least f + max(0, c - left).

  Along a branch, vertices join S in ascending order and every vertex
  below u is settled, so all leaves under a node agree with S below u.
  Leaves under the left-out branch hold u and the others' do not, so that
  branch goes first, and a node whose S below u already loses to the best
  leaf is cut.  The search runs for k = 2, 3, ... and keeps the
  lexicographically first leaf with at most k left out; the first k that
  has one is st_down, since no smaller k had any.
* Min rule, for "any".  S changes gamma_i exactly when it lowers or raises
  it, so st_any = min(st_down, st_up), and the witness is the first of the
  directed witnesses of that size.  When no single removal changes gamma_i,
  the decrease search gives its witness W, and the increase scan runs from
  k = 2 and stops at size |W| at the first set not before W (W itself
  lowers gamma_i, so it cannot raise it).  An increase witness found before
  that is the answer; otherwise W is.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice

from .core import Graph, VertexSet, iter_bits
from .errors import EmptyGraph
from .oracles import oracle_stability  # re-exported; perfbench/spans.py wraps it here
from .solver import _closed_rows, _cover_cap, _covers, _gamma_i_value_in

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


def _hitting_masks(n: int, k: int, meets: list[int]):
    """The k-subsets of range(n) that meet every set of a family, as masks in
    lexicographic order of their sorted member lists.

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


def _forced_out(closed: list[int], opened: int, pool: int, left: int) -> int:
    """The packing bound: how many of the ``opened`` vertices every completion
    must leave out, when at most ``left`` more picks come from ``pool``.

    The count is the bound of ``solver._packing``, except that a vertex with
    no dominator in the pool counts as left out instead of ending the search.
    """
    forced = count = used = 0
    while opened:
        low = opened & -opened
        opened ^= low
        dom = closed[low.bit_length() - 1] & pool
        if not dom:
            forced += 1
        elif not dom & used:
            used |= dom
            count += 1
    return forced + max(0, count - left)


def _lexmin_left_out(closed: list[int], full: int, picks: int, k: int) -> int:
    """The lexicographically first set V - N[D] with at most k members, over
    the independent sets D of at most ``picks`` vertices; 0 when there is
    none.  k must not exceed the smallest such set, so every set found has
    exactly k members.

    Branching, bounds and the lexicographic cut are those of the module
    docstring.
    """
    cap = _cover_cap(closed, full)
    found = 0  # the lexmin set so far; a set found is never empty (k >= 1)

    def rec(covered: int, out: int, banned: int, left: int) -> None:
        nonlocal found
        opened = full & ~(covered | out)  # neither dominated nor left out
        if not opened or not left:
            out |= opened
            if out.bit_count() <= k and (not found or (out ^ found) & -(out ^ found) & out):
                found = out
            return
        low = opened & -opened
        diff = (out ^ found) & (low - 1)
        if found and (out == found or diff & -diff & found):
            return  # every set below agrees with ``out`` under u, so none beats ``found``
        size = out.bit_count()
        if size + max(0, opened.bit_count() - left * cap) > k:
            return
        pool = full & ~(covered | banned)
        if size + _forced_out(closed, opened, pool, left) > k:
            return
        u = low.bit_length() - 1
        rec(covered, out | low, banned | closed[u], left)
        cands = closed[u] & pool
        ban = 0
        while cands:
            low = cands & -cands
            cands ^= low
            rec(covered | closed[low.bit_length() - 1], out, banned | ban, left - 1)
            ban |= low

    rec(0, 0, 0, picks)
    return found


def _increase_scan(closed: list[int], full: int, base: int, first: int, stop: int):
    """The increase scan from k = ``first``: the first set that meets every
    known gamma_i-set and raises gamma_i, as (mask, gamma_i), or None.  A
    nonzero ``stop`` ends the scan at its size, at the first set not before it."""
    n = full.bit_length()
    meets = [0] * n
    for i, ids in enumerate(islice(_covers(closed, full, base, True), GAMMA_I_FAMILY_CAP)):
        for v in iter_bits(ids):
            meets[v] |= 1 << i
    last = stop.bit_count() if stop else n
    for k in range(first, last + 1):
        for mask in _hitting_masks(n, k, meets):
            diff = mask ^ stop
            if k == last and not diff & -diff & mask:
                return None  # ``mask`` is ``stop`` or comes after it
            val = _gamma_i_value_in(closed, full & ~mask)
            if val > base:
                return mask, val
    return None


def stability(g: Graph, direction: Direction | str = Direction.ANY) -> StabilityCertificate:
    direction = Direction(direction)
    if g.order == 0:
        raise EmptyGraph("stability of the null graph is undefined")
    closed = _closed_rows(g)
    full = g.full_mask
    base = _gamma_i_value_in(closed, full)
    if direction is Direction.INCREASE:
        found = _increase_scan(closed, full, base, 1, 0)
    elif direction is Direction.DECREASE and base == 1:
        found = full, 0  # the only witness (module docstring)
    else:
        matches = base.__gt__ if direction is Direction.DECREASE else base.__ne__
        for v in range(g.order):
            val = _gamma_i_value_in(closed, full & ~(1 << v))
            if matches(val):
                return StabilityCertificate(base, direction, 1, VertexSet(1 << v), val)
        k, out = 1, 0 if base > 1 else full  # b = 1: S = V, as for "decrease"
        while not out:  # found by k = n at the latest: D empty leaves S = V
            k += 1
            out = _lexmin_left_out(closed, full, base - 1, k)
        found = _increase_scan(closed, full, base, 2, out) if direction is Direction.ANY else None
        found = found or (out, _gamma_i_value_in(closed, full & ~out))
    if found is None:
        return StabilityCertificate(base, direction, None, None, None)
    mask, val = found
    return StabilityCertificate(base, direction, mask.bit_count(), VertexSet(mask), val)


def stability_triple(g: Graph) -> StabilityTriple:
    """All three directions; equal to three ``stability`` calls."""
    return StabilityTriple(*(stability(g, d) for d in Direction))
