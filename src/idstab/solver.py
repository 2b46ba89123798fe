"""Exact solvers for the independence and domination invariants.

The main solvers are branch-and-bound searches over bit masks.  gamma_i and
gamma are one search: the fewest picks whose closed neighborhoods cover a
block, where gamma_i's picks must also stay independent: they are drawn
from the vertices not yet dominated (gamma draws from all).  Two lower
bounds prune a node.  The covering bound: a new pick dominates at most
max-degree + 1 vertices.  The packing bound: undominated vertices whose
possible dominators are pairwise disjoint each need a pick of their own.
The largest closed neighborhood inside a block, the covering bound's
divisor, comes from the component walk (``core.component_masks``) that
finds the block.

There is one packing walk, ``_packing_pick``, shared by the value search
``_cover_min`` and by ``stability``'s left-out search.  It counts the
dominator sets smallest first and stops counting as soon as its count
reaches the number of picks at which the node prunes: the count only
grows, so the rest cannot save the node.  Any order counts
pairwise-disjoint dominator sets, so the count is a sound bound.  A sound
bound prunes only nodes with no leaf below them that beats the incumbent.
The value search records a leaf as its incumbent when the leaf beats every
earlier one, or when it ties a leaf sibling recorded just before it (the
later of two equal leaf children of one node keeps its picks); no leaf
below a soundly pruned node is either, since the first one recorded there
would have to beat the incumbent.  So the order changes which nodes it
visits, but not its branching, its incumbents or the (value, picks) it
returns.

There are two searches:

* ``_cover_min``, the value of gamma_i or gamma on one connected block,
  returned as (value, picks): the picks are a set of that many vertices
  that dominates the block, independent for gamma_i, namely the search's
  last incumbent.  They need not be the lexmin witness; ``stability``
  learns no-goods from them.  ``_cover_picks`` runs it on each block of a
  vertex set and joins the picks, whose size is the value that
  ``gamma_i_value``, ``gamma_value`` and ``stability``'s removal solves
  read.  The search picks a vertex that is not yet
  dominated and tries every eligible vertex of its closed neighborhood; a
  vertex tried at a node is banned in the later sibling branches, so no
  solution is visited twice, whatever the order of the siblings.  It returns
  (1, lowest such vertex) without searching when one vertex's closed
  neighborhood is the whole block: that vertex alone is an independent
  dominating set, and a nonempty block needs at least one pick.  This
  follows from the definitions, not from a claim of the audited catalog.
  In an audit of the small labeled graphs more than half of the blocks end
  here.  The search adds the packing bound only when its block has more
  than twice as many vertices as its largest closed neighborhood, that is
  when the covering bound at the root is 3 or more, or when one hub's
  closed neighborhood is large against the block's mean (the hub gate);
  on other blocks the covering bound prunes well and the packing walk
  costs more than it saves.  Below that gate it branches on the lowest
  undominated vertex and tries its children in ascending order.  Above it, it branches on the
  tightest undominated vertex and tries first the child that newly
  dominates the most vertices, so that its first dives end in good
  incumbents.
* ``_alpha_max``, the independence search, one pass for ``alpha`` and
  ``max_induced_star``: it takes the lowest free vertex before it leaves
  that vertex out, so the first maximum set it keeps is the
  lexicographically first one.

``oracle_gamma_i`` is re-exported from ``oracles``, which shares no code
with these searches beyond the ``Graph`` type: disagreement between the two
is always a bug worth keeping.

Optimal witnesses are tie-broken to the lexicographically smallest set (by
sorted member list).  For gamma_i and gamma, ``_lexmin_cover`` builds it
by self-reduction from the value search's picks, asking ``_bounded_cover``
(``_cover_min`` in a decision form, with the question's own cap) one
question per candidate member: whether it leaves a completion.  It keeps
an optimal set as an incumbent and takes the incumbent's next member
without asking.  alpha's witness comes out of its one search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .core import Graph, VertexSet, component_masks, iter_bits
from .errors import EmptyGraph
from .oracles import oracle_gamma_i  # re-exported; perfbench/spans.py wraps it here


@dataclass(frozen=True)
class GammaCertificate:
    """An invariant value plus a witness set attaining it."""

    value: int
    witness: VertexSet


_BITS = bytes.maketrans(b"01", b"\x00\x01")  # a binary numeral's digits as 0/1 bytes


def _closed_rows(g: Graph) -> list[int]:
    return [row | (1 << v) for v, row in enumerate(g.adj)]


def _packing_pick(closed: list[int], uncovered: int, cands: int, need: int) -> int:
    """The searches' packing walk: 0 when the packing bound of the picks
    from ``cands`` that dominate ``uncovered`` reaches ``need``, and
    otherwise a smallest dominator set: the value search branches on it,
    and ``stability._lexmin_left_out`` only prunes on 0.

    Builds the dominator set ``closed[u] & cands`` of every uncovered vertex
    u in one pass over the rows (``compress`` keeps the rows whose bit is
    set in ``uncovered``, read as a string of 0/1 bytes lowest bit first),
    sorts the sets by size (smallest first, a stable sort) and counts
    each set disjoint from the sets counted so far.  No single pick
    dominates two counted vertices, so a completion needs at least that many
    more picks (the packing bound rho <= gamma of Meir and Moon); any order
    of the sets gives a sound count, and the smallest sets, which meet the
    fewest others, usually give a larger one than vertex order.  If some
    dominator set is empty, no completion exists at all, and the walk
    returns 0 before it sorts and counts (the empty set would sort first,
    so the walk would return 0 after counting too).  For gamma_i the later
    picks must be uncovered, because they must stay independent of the
    chosen ones, so the callers pass uncovered candidates.

    Threshold exit: the count only grows along the sorted sets, so once it
    reaches ``need`` the count over all of them would reach it too, and the
    walk returns 0 without counting the rest.  Otherwise it returns the
    first of the sorted sets: a dominator set of fewest members, the first
    in vertex order among equals, since the sort is stable.  The callers
    pass a nonempty ``uncovered``, so that set is never empty.
    """
    picked = bin(uncovered)[:1:-1].encode().translate(_BITS)  # bit u of uncovered as byte u
    doms = [row & cands for row in compress(closed, picked)]
    if not all(doms):
        return 0
    doms.sort(key=int.bit_count)
    used = 0
    count = 0
    for dom in doms:
        if not dom & used:
            used |= dom
            count += 1
            if count == need:
                return 0
    return doms[0]


def _cover_min(closed: list[int], comp: int, cap: int, total: int, independent: bool,
               draw: int | None = None, bound: int | None = None) -> tuple[int, int]:
    """The fewest picks that dominate one connected block, and a set of
    picks that attains it, as (value, picks mask): gamma_i of the block and
    an independent dominating set when ``independent``, gamma and a
    dominating set otherwise.  The picks are the search's last incumbent.

    gamma_i draws its picks from the undominated vertices, which keeps them
    independent of the chosen ones; gamma draws them from the whole block.
    Either way a completion of a node picks only from its pool (the drawable
    vertices not banned there), and no earlier pick dominates an undominated
    vertex, so the packing bound over the pool is sound for both.

    Decision form, for ``_bounded_cover``: only vertices of ``draw`` are
    picked (the others start out banned), ``comp`` may be any vertex set if
    ``cap`` is at least 1 and bounds ``|closed[v] & comp|`` over ``draw``,
    and ``best`` starts at ``bound + 1``, so the search returns the least
    value if it is at most ``bound`` and ``bound + 1`` otherwise.  The
    defaults (the block, its vertex count) leave the value search's tree as
    it was.

    Packing gate: the search packs when the block has more than twice as
    many vertices as ``cap``, or when cap >= 10 and cap * cap > 2 * total
    (hub gate), where ``total`` is the sum of ``|closed[v] & comp|`` over
    ``draw``: over the block in the value search, as ``component_masks``
    adds it up.  Proof sketch that the gate only trades time: both bounds
    are sound at every node of every block, and the branching below is
    complete and free of repeats above the gate as below it, so the gate
    decides which nodes the search visits and which optimal picks it
    returns, never the value.  The hub gate opens when cap exceeds twice
    total / cap, that is when the reach of the largest closed neighborhood
    outweighs what the others add up to: the covering bound then stays near
    1 while the other vertices each dominate few, and the packing bound
    counts those.  The constants were sized on hub graphs, not derived.  On
    ``book:30`` (order 62, cap 32, so the first gate stays shut) ``gamma_i``
    ran for more than 90 s without it and takes milliseconds with it.  The
    floor of 10 keeps small blocks, where the walk costs more than it
    saves, on the plain path.

    Branching: a node takes one undominated vertex u and tries each member
    of its dominator set ``closed[u] & pool`` in turn, banning it in the
    later siblings.  Every completion D dominates u, so it holds some member
    of that set; it is met below the sibling of the first member of D that
    is tried, and below no other, since the earlier siblings' picks are not
    in D and the later siblings ban that member.  That holds for any choice
    of u and any order of the siblings, so both keep the search complete
    and free of repeats, and the value is the same; only the incumbents, and
    so the picks returned, depend on them.  Below the packing gate u is the
    lowest undominated vertex, and its children go in ascending order.
    Above it a node that ``_packing_pick`` does not prune has read every
    undominated vertex's dominator set, and u is the first in vertex order
    with the smallest one, which gives the node the fewest children; they
    go in order of how many undominated vertices each newly dominates, most
    first, ascending among equals (a stable sort), so the first dives end in
    good incumbents.  On the pinned ``gamma-i-sparse`` graphs this branching
    cut the value search's nodes from 20,991 to 12,538, counting the packing
    bound smallest set first cut them to 5,202, and the child order to
    2,323.

    Dominating-vertex exit: when the largest closed neighborhood inside the
    block (``cap``, which ``component_masks`` reads off its walk over the
    closed rows) has as many vertices as the block, some v has
    N[v] >= block.  If a drawable v does, {v} dominates the block and is
    independent, so gamma_i and gamma of the block are at most 1.  The empty
    set dominates no nonempty block, so both are exactly 1, and no search is
    needed; the picks are the lowest such v.  With none drawable it searches.

    Child bound in the parent: a child that leaves ``left`` vertices
    undominated needs at least ceil(left / cap) more picks, so a node enters
    it only if size + 1 + ceil(left / cap) < ``best``; a child that fails
    this would have returned at once, so the tree and its incumbents stay
    those of the search that enters every child and bounds itself.  Above
    the packing gate the loop stops at the first child that fails: a child
    v leaves |uncovered| - |closed[v] & uncovered| undominated, and the
    children come most newly dominating first, so ``left`` only grows along
    the loop, while ``best`` only falls; every later child fails too.  The
    root gets the same check.

    Incumbent: a block of two or more vertices has a vertex with a
    neighbour, and a maximal independent set holding it leaves that
    neighbour out, so both values are below the vertex count that ``best``
    starts at by default.  A node records each leaf child, one whose picks
    dominate the block, without a bound check.  The node's own covering
    bound put size + 1 below ``best`` when it was entered, and only a leaf
    sibling can bring ``best`` down to size + 1, since leaves below a
    sibling hold more picks.  So a recorded leaf beats the incumbent or ties
    the leaf sibling recorded just before it, and then replaces its picks.
    The search always records one, and its picks attain the value returned.
    """
    draw = comp if draw is None else draw
    order = comp.bit_count()
    best = order if bound is None else bound + 1
    if cap == order:
        rest = draw
        while rest and closed[(rest & -rest).bit_length() - 1] & comp != comp:
            rest &= rest - 1
        if rest:
            return 1, rest & -rest  # the lowest drawable dominating vertex
    pack = order > 2 * cap or (cap >= 10 and cap * cap > 2 * total)
    keep = 0 if independent else draw
    found = 0

    def rec(uncovered: int, excluded: int, size: int, picks: int) -> None:
        nonlocal best, found
        pool = (uncovered | keep) & ~excluded
        nxt = size + 1  # a child's picks count
        ban = 0
        if pack:
            cands = _packing_pick(closed, uncovered, pool, best - size)
            if not cands:  # size + the packing bound >= best
                return
            for v in sorted(iter_bits(cands), key=lambda v: -(closed[v] & uncovered).bit_count()):
                rest = uncovered & ~closed[v]
                if not rest:
                    best, found = nxt, picks | 1 << v
                elif nxt - (-rest.bit_count() // cap) < best:
                    rec(rest, excluded | ban, nxt, picks | 1 << v)
                else:
                    break  # every later child leaves at least as many undominated
                ban |= 1 << v
            return
        cands = closed[(uncovered & -uncovered).bit_length() - 1] & pool
        while cands:
            low = cands & -cands
            cands ^= low
            rest = uncovered & ~closed[low.bit_length() - 1]
            if not rest:
                best, found = nxt, picks | low
            elif nxt - (-rest.bit_count() // cap) < best:
                rec(rest, excluded | ban, nxt, picks | low)
            ban |= low

    if not comp:
        return 0, 0
    if -(-order // cap) < best:
        rec(comp, ~draw, 0, 0)
    return best, found


def _bounded_cover(closed: list[int], comp: int, draw: int, independent: bool,
                   bound: int) -> tuple[int, int]:
    """Whether at most ``bound`` picks from ``draw`` dominate the vertex set
    ``comp``, independent picks for gamma_i and any for gamma: the decision
    form of ``_cover_min``, as (value, picks).  The value is the least such
    count if it is at most ``bound``, with picks that attain it, and
    ``bound + 1`` with no picks otherwise.  ``comp`` need not be connected.
    The witness pass and ``stability``'s single removals ask through here.

    The cap is the question's own, the most vertices of ``comp`` that one
    drawable vertex dominates (the whole block's looser cap took the pinned
    witness passes' nodes up by a quarter), with a floor of 1: for an empty
    ``comp`` a cap of 0 would fire the dominating-vertex exit, which answers
    1 where 0 picks suffice.  The hub gate's total is the sum of the same
    counts over ``draw``.
    """
    sizes = [(closed[v] & comp).bit_count() for v in iter_bits(draw)]
    cap = max(sizes, default=0) or 1
    return _cover_min(closed, comp, cap, sum(sizes), independent, draw, bound)


def _lexmin_cover(closed: list[int], comp: int, independent: bool, picks: int) -> int:
    """The lexmin witness (by sorted member list) of the block ``comp``:
    independent picks for gamma_i, any for gamma.  ``picks`` is an optimal
    set of that kind, such as the value search returns; its size k is the
    block's value.

    Self-reduction: after members C, the next is the least candidate u for
    which at most k - |C| - 1 picks above u dominate ``rest``, what C + u
    leaves undominated; so each round extends the lexmin set's prefix.  Both
    invariants ask this as one ``_bounded_cover`` question, gamma_i with
    picks from ``rest`` (to stay independent of C + u), gamma with picks from
    the block.  A u that dominates nothing new is skipped, as C and a
    completion would dominate with k - 1 picks; only gamma meets one, since
    a gamma_i candidate is undominated.

    Incumbent: the pass keeps a witness P of k picks that holds C and whose
    other members lie above C; it starts as ``picks``.  Let p be the lowest
    member of P - C.  P - C - p is a completion above p, so the question at
    p would be answered yes, and p is a candidate: it lies above C and is
    undominated by C for gamma_i (P is independent).  So the round asks the
    candidates below p and takes p without a query if none of them is
    accepted.  When one, u, is accepted, its query's picks complete C + u,
    and P becomes C + u + those picks: k members again, since k is the
    value.

    No candidate cut: each undominated vertex has a member of P - C, all at
    least p, in its dominator set, so a packing walk would neither prune the
    round nor cut a candidate below p, where the round ends at the latest.
    """
    k = picks.bit_count()
    chosen = covered = 0
    floor = -1
    while uncovered := comp & ~covered:
        cands = (uncovered if independent else comp) & floor
        top = picks & floor
        top &= -top  # p, the incumbent's next member
        k -= 1
        while cands:
            low = cands & -cands
            cands ^= low
            u = low.bit_length() - 1
            floor = -1 << (u + 1)
            if low == top:
                break
            rest = uncovered & ~closed[u]
            if rest == uncovered:
                continue
            draw = (rest if independent else comp) & floor
            value, found = _bounded_cover(closed, rest, draw, independent, k)
            if value <= k:
                picks = chosen | low | found
                break
        else:
            raise AssertionError("no dominating set of the optimal size")
        chosen |= low
        covered |= closed[u]
    return chosen


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


def _cover_picks(closed: list[int], universe: int, independent: bool) -> int:
    """A minimum dominating set of the subgraph induced on ``universe``,
    independent when ``independent``, as a mask: the union of the blocks'
    ``_cover_min`` picks.  Its size is gamma_i or gamma there."""
    picks = 0
    for comp, cap, total in component_masks(closed, universe):
        picks |= _cover_min(closed, comp, cap, total, independent)[1]
    return picks


def _cover_certificate(g: Graph, independent: bool) -> GammaCertificate:
    closed = _closed_rows(g)
    witness = 0
    for comp, cap, total in component_masks(closed, g.full_mask):
        picks = _cover_min(closed, comp, cap, total, independent)[1]
        witness |= _lexmin_cover(closed, comp, independent, picks)
    return GammaCertificate(witness.bit_count(), VertexSet(witness))


def gamma_i_value(g: Graph) -> int:
    """The independent domination number, without a witness."""
    return _cover_picks(_closed_rows(g), g.full_mask, True).bit_count()


def gamma_i(g: Graph) -> GammaCertificate:
    """Minimum maximal independent set, with the lexicographically first witness.

    Decomposes over connected components; the null graph gets value 0 with an
    empty witness so vertex-removal scans stay total.
    """
    return _cover_certificate(g, True)


def gamma_value(g: Graph) -> int:
    if g.order == 0:
        raise EmptyGraph("domination number of the null graph is undefined")
    return _cover_picks(_closed_rows(g), g.full_mask, False).bit_count()


def gamma(g: Graph) -> GammaCertificate:
    """Minimum dominating set with the lexicographically first witness."""
    if g.order == 0:
        raise EmptyGraph("domination number of the null graph is undefined")
    return _cover_certificate(g, False)


def alpha(g: Graph) -> GammaCertificate:
    """Maximum independent set with the lexicographically first witness."""
    if g.order == 0:
        raise EmptyGraph("independence number of the null graph is undefined")
    witness = 0
    for comp, _, _ in component_masks(g.adj, g.full_mask):
        witness |= _alpha_max(g.adj, comp)
    return GammaCertificate(witness.bit_count(), VertexSet(witness))


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
