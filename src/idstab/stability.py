"""Vertex-removal stability of the independent domination number.

``stability(g, direction)`` finds the smallest set of vertices whose removal
changes (or specifically decreases / increases) gamma_i.  The witness is
canonical: the lexicographically first set (by sorted member list) at the
minimal size.  Removing all n vertices is admitted (gamma_i of the null
graph is 0), which makes the "any" and "decrease" directions total;
"increase" can be genuinely undefined (complete graphs) and is reported as
such, never as a sentinel number.

``oracle_stability`` is re-exported from ``oracles``: the referee reads
every removal's gamma_i off one table of gamma_i(G[U]) over vertex masks U
and shares no code with this module.

The increase direction scans k = 1, 2, ... and, within each k, the k-subsets
in lexicographic order, solving gamma_i(G - S) for each that the constraint
rule below does not rule out; the first match is the witness.
The decrease and any directions first try the single removals in vertex
order, with the lowering rule and, for "any", the transversal rule at
k = 1; the first that lowers ("decrease") or changes ("any") gamma_i is the
witness.  Past them, the decrease direction finds its witness with the
left-out search; when gamma_i = 1 it skips that search, since then S = V is
the only witness (see below).  The any direction takes the first of the two
directed answers (min rule).

* Lowering rule, for the single removals of "decrease" and "any".  Let
  b = gamma_i(G).  An independent dominating set T of G - v with |T| < b
  holds no neighbour of v: one would dominate v too, and T would be an
  independent dominating set of G below b.  So gamma_i(G - v) < b exactly
  when at most b - 1 independent picks from V - N[v] dominate V - v, and
  the fewest such picks are then gamma_i(G - v).  One
  ``solver._bounded_cover`` question, with that pool and bound b - 1,
  answers min(gamma_i(G - v), b), so v lowers gamma_i exactly when the
  answer is below b, and the answer is the new gamma_i.  With b = 1 no
  removal of one vertex lowers gamma_i, and the question is not asked.  On
  the 70 pinned ``stability-dense`` graphs (2-vCPU Xeon, in-process, best
  of 9) the decrease direction went from 9.5 to 5.1 ms per batch.
* Transversal rule at k = 1, for "any".  Let D be the gamma_i-set of G
  that the base solve returns.  For v outside D, D is still independent and
  dominating in G - v, so gamma_i(G - v) <= b: removing v can lower
  gamma_i but cannot raise it, and the lowering rule's question settles v.
  Only the b removals of members of D are solved in full.
* Constraint rule, for "increase".  A pair (D, R) rules S out when S
  misses D and holds R.  If D is independent, |D| <= gamma_i(G) and
  R = V - N[D], then every S it rules out fails to raise gamma_i: D is
  still independent in G - S and dominates V - S, which lies in N[D], so
  gamma_i(G - S) <= |D| <= gamma_i(G).  The scan starts with no pair and
  learns each one from a failed solve.  A failed solve of S returns an
  independent D within V - S with |D| = gamma_i(G - S) <= gamma_i(G) that
  dominates V - S, so V - N[D] lies in S, and the scan learns
  (D, V - N[D]) (no-good rule).  A pair with R empty is a gamma_i-set D
  of G, and it rules out every S that misses D (transversal rule: only an
  S that meets every gamma_i-set can raise gamma_i); the scan learns one
  whenever a failed solve returns a set that dominates S too, so it needs
  no separate walk over the gamma_i-sets.  Learning stops after
  ``LEARNED_PAIR_CAP`` pairs.
  The cap keeps memory bounded and is sound, since a set is skipped only
  when a pair that is actually known rules it out.  Only sets that cannot
  raise gamma_i are skipped, so the witness is the one the full scan
  returns.  On the pinned ``stability-dense`` graphs the increase scans
  make 774 solves.  Seeded with a walk over the first 4,096 gamma_i-sets
  they made 301 (the walk alone left 4,480), but the walk cost more than
  it saved on hubs: "increase" on ``kbip:12,11`` took 13.1 s with it and
  1.6 s without (2-vCPU Xeon).

  The scan checks the pairs along one recursion that picks the members of
  S in ascending order, so it meets the k-subsets in lexicographic order.
  A node has chosen C, all below ``start``, and skipped the other vertices
  below ``start``.  A pair is met when D meets C, and killed when R holds
  a skipped vertex; neither kind rules out any leaf below the node.  A
  pair that is neither met nor killed and has no R member at or above
  ``start`` is armed: R lies in C and D misses C, so it rules out every
  leaf below that misses D.
  - Cut.  If the next pick is v, every later pick is at least v.  An armed
    pair with no D member at or above v then rules out every leaf under
    this and each later choice of v, so the node ends there.
  - Last pick.  With one pick left, a leaf C + v with v outside the lowest
    armed pair's D misses that D, so only that D's members at or above
    ``start`` are tried (every vertex when no pair is armed).
  - Leaf.  C + v is ruled out by a pair that is not met, whose D misses v,
    and whose R lies in C + v: R is not killed and has no member above v
    or in [start, v).  That last interval is read only for the pairs that
    pass the other tests and are not armed.
  - No patching.  A pair learned at leaf S has D missing S and R within S.
    At every ancestor of S, D misses the chosen vertices and R holds no
    skipped one, so the ancestor's met and killed masks hold the pair's
    bits at 0 already, and the masks on the recursion stack stay right.
    The per-vertex tables are updated in place, so every later node and
    leaf reads the pair.  A node fixes its armed set on entry, so a pair
    learned under it only cuts at later nodes; every leaf still reads
    every known pair, so the scan solves exactly the sets that no known
    pair rules out, in the order of the full scan.
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
  later picks come from the pool, so open vertices outside its reach (the
  OR of N[p] over the pool) are left out (f of them), and those inside
  whose dominator sets in the pool are pairwise disjoint need a pick each
  (c of them, counted smallest set first by ``solver._packing_pick``), so
  at least f + max(0, c - left).

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

from .core import Graph, VertexSet, iter_bits
from .errors import EmptyGraph
from .oracles import oracle_stability  # re-exported; perfbench/spans.py wraps it here
from .solver import _bounded_cover, _closed_rows, _cover_picks, _packing_pick

LEARNED_PAIR_CAP = 4096  # pairs learned by the increase scan


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


def _lexmin_left_out(closed: list[int], full: int, picks: int, k: int) -> int:
    """The lexicographically first set V - N[D] with at most k members, over
    the independent sets D of at most ``picks`` vertices; 0 when there is
    none.  k must not exceed the smallest such set, so every set found has
    exactly k members.

    Branching, bounds and the lexicographic cut are those of the module
    docstring.  With room = k - size - f, the packing bound prunes when
    room < 0 or c >= left + room + 1, the threshold ``_packing_pick`` gets;
    it reads only the open vertices in reach, so no set it reads is empty.
    """
    cap = max(map(int.bit_count, closed))  # one pick dominates at most this many
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
        reach = 0  # the vertices a later pick can still dominate
        for p in iter_bits(pool):
            reach |= closed[p]
        reachable = opened & reach
        room = k - size - (opened ^ reachable).bit_count()  # the f others are left out
        if room < 0 or reachable and not _packing_pick(closed, reachable, pool, left + room + 1):
            return  # size + f + max(0, c - left) > k
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


def _increase_scan(closed: list[int], full: int, base: int, stop: int):
    """The first set that no known pair of the constraint rule rules out and
    that raises gamma_i, as (mask, gamma_i), or None: from k = 1, or with a
    nonzero ``stop`` ("any", past its single removals) from k = 2 up to the
    size of ``stop``, where only the sets before ``stop`` are scanned.

    Pair j is bit j of every mask, the j-th pair learned.  ``in_d[v]`` and
    ``in_r[v]`` hold the pairs whose D or R holds v, and ``reach[v]`` and
    ``above[v]`` the pairs with a D or R member at or above v.  A node
    carries ``met`` and ``killed`` (module docstring) and the chosen mask;
    ``skipped`` is ``killed`` widened by the vertices the loop passes.

    At the size of ``stop``, ``bound`` is ``stop`` (0 at every other size),
    and each leaf is checked against it before the pairs: the scan ends,
    with no answer, at the first leaf that is not before ``stop``.  Leaves
    are met in lexicographic order, so no later leaf is before ``stop``
    either.  A leaf that the cut or the last-pick filter skips is ruled out
    by a known pair, so a walk over only the sets before ``stop`` would not
    solve it either.  The scan thus solves exactly the sets before ``stop``
    that no known pair rules out, in lexicographic order, learns the same
    pairs as such a walk and returns the same witness.
    """
    n = full.bit_length()
    in_d = [0] * n
    in_r = [0] * n
    reach = [0] * (n + 1)
    above = [0] * (n + 1)
    ds = []  # D of each pair, as a mask
    alive = 0

    def rec(start: int, left: int, met: int, killed: int, chosen: int):
        nonlocal alive
        armed = alive & ~met & ~killed & ~above[start]
        if left > 1:
            skipped = killed
            for v in range(start, n - left + 1):
                if armed & ~reach[v]:
                    return None  # a leaf from here on misses an armed pair's D
                found = rec(v + 1, left - 1, met | in_d[v], skipped, chosen | 1 << v)
                if found is not None:
                    return found
                skipped |= in_r[v]
            return None
        # a last pick outside the lowest armed pair's D leaves that pair ruling out the leaf
        cands = ds[(armed & -armed).bit_length() - 1] if armed else full
        cands &= -(1 << start)
        while cands:
            low = cands & -cands
            cands ^= low
            v = low.bit_length() - 1
            mask = chosen | low
            diff = mask ^ bound
            if bound and not diff & -diff & mask:
                return ()  # not before ``stop``, and no later leaf is
            ruled = alive & ~(met | in_d[v]) & ~(killed | above[v + 1])
            if ruled & armed:
                continue
            if ruled:  # each has an R member in [start, v]; it rules out only without one below v
                for u in range(start, v):
                    ruled &= ~in_r[u]
                if ruled:
                    continue
            picks = _cover_picks(closed, full & ~mask, True)
            if picks.bit_count() > base:
                return mask, picks.bit_count()
            if len(ds) < LEARNED_PAIR_CAP:
                bit = 1 << len(ds)
                ds.append(picks)
                dominated = 0
                for u in iter_bits(picks):
                    in_d[u] |= bit
                    dominated |= closed[u]
                for u in range(picks.bit_length()):
                    reach[u] |= bit
                out = full & ~dominated
                for u in iter_bits(out):
                    in_r[u] |= bit
                for u in range(out.bit_length()):
                    above[u] |= bit
                alive |= bit
        return None

    last = stop.bit_count() if stop else n
    for k in range(2 if stop else 1, last + 1):
        bound = stop if k == last else 0  # the leaves must come before it
        found = rec(0, k, 0, 0, 0)
        if found is not None:
            return found or None
    return None


def stability(g: Graph, direction: Direction | str = Direction.ANY) -> StabilityCertificate:
    """The fewest vertices whose removal changes ("any"), lowers or raises
    gamma_i, with the lexicographically first such set and gamma_i before
    and after; value, witness and new gamma_i are ``None`` for an increase
    that no removal gives.  Raises ``EmptyGraph`` on the null graph, and
    ``ValueError`` for a ``direction`` that is neither a ``Direction`` nor
    the value of one ("any", "decrease", "increase")."""
    direction = Direction(direction)
    if g.order == 0:
        raise EmptyGraph("stability of the null graph is undefined")
    closed = _closed_rows(g)
    full = g.full_mask
    picks = _cover_picks(closed, full, True)  # a gamma_i-set D of G
    base = picks.bit_count()
    if direction is Direction.INCREASE:
        found = _increase_scan(closed, full, base, 0)
    else:
        solve = picks if direction is Direction.ANY else 0  # only these can raise gamma_i alone
        for v in range(g.order):
            rest = full & ~(1 << v)
            if solve >> v & 1:
                val = _cover_picks(closed, rest, True).bit_count()
            elif base > 1:  # a set below base that dominates G - v avoids N[v]
                val = _bounded_cover(closed, rest, full & ~closed[v], True, base - 1)[0]
            else:
                continue
            if val != base:
                return StabilityCertificate(base, direction, 1, VertexSet(1 << v), val)
        k, out = 1, 0 if base > 1 else full  # b = 1: no picks, so S = V
        while not out:  # found by k = n at the latest: D empty leaves S = V
            k += 1
            out = _lexmin_left_out(closed, full, base - 1, k)
        found = _increase_scan(closed, full, base, out) if direction is Direction.ANY else None
        found = found or (out, _cover_picks(closed, full & ~out, True).bit_count())
    if found is None:
        return StabilityCertificate(base, direction, None, None, None)
    mask, val = found
    return StabilityCertificate(base, direction, mask.bit_count(), VertexSet(mask), val)
