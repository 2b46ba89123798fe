"""Immutable bitmask graphs of order at most 64 and their set primitives.

Vertices are the integers 0..n-1 and every vertex set is a plain bit mask,
so neighborhood algebra is integer arithmetic.  Graphs validate their own
invariants (symmetry, no loops, no stray bits) on construction, which means
every operation that returns a ``Graph`` re-asserts them for free.  There is
one constructor, and validation runs at every construction, also for the
graphs that ``delete_vertices``, ``complement`` and ``decode_graph6`` build in
an audit's inner loop.  It is a plain loop over the set bits of each row, one
step per edge end.

An edge mask holds a graph of order n in n(n-1)/2 bits, bit p for pair p of
``upper_triangle_pairs``.  ``edge_mask`` and its inverse ``mask_graph`` are
the one mapping between masks and rows, for the graph6 codec and the corpora.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import EmptyGraph, LoopEdge, OrderTooLarge, VertexOutOfRange

MAX_ORDER = 64


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of *mask* in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def upper_triangle_pairs(n: int) -> Iterator[tuple[int, int]]:
    """Vertex pairs (i, j), i < j, in column-major order: (0,1), (0,2), (1,2), (0,3), ...

    Pair p is bit p of an edge mask, and ``edge_mask`` is the one mapping
    of that order onto rows.
    """
    for j in range(1, n):
        for i in range(j):
            yield i, j


@dataclass(frozen=True)
class VertexSet:
    """A vertex subset stored as a bit mask.

    A value is only meaningful against the graph it was produced for; it does
    not remember that graph.
    """

    mask: int = 0

    def __post_init__(self) -> None:
        # iter_bits fails on a mask that is no int, and never ends on a negative one
        if type(self.mask) is not int or self.mask < 0:
            raise VertexOutOfRange(f"a vertex set's mask must be an int >= 0, got {self.mask!r}")

    @classmethod
    def of(cls, vertices: Iterable[int]) -> "VertexSet":
        try:
            vertices = iter(vertices)
        except TypeError:
            raise VertexOutOfRange(f"vertices go in an iterable, got {vertices!r}") from None
        m = 0
        for v in vertices:
            if type(v) is not int or v < 0:
                raise VertexOutOfRange(f"a vertex must be an int and nonnegative, got {v!r}")
            m |= 1 << v
        return cls(m)

    def members(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.mask))

    def __contains__(self, v: int) -> bool:
        return v >= 0 and bool((self.mask >> v) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()


@dataclass(frozen=True)
class DegreeProfile:
    degrees: tuple[int, ...]
    min_degree: int
    max_degree: int


@dataclass(frozen=True)
class SetClassification:
    independent: bool
    dominating: bool
    maximal_independent: bool


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; row v is the open neighborhood N(v) as a bit mask.

    The order-0 graph is a valid value.  Instances are immutable and safe to
    share between threads or processes.
    """

    order: int
    adj: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        n = self.order
        if n.__class__ is not int or not 0 <= n <= MAX_ORDER:  # no call: this runs per graph
            raise OrderTooLarge(f"order {n!r} is not an int in 0..{MAX_ORDER}")
        try:  # costs nothing unless it raises; rows that are no int fail in the loop
            if type(self.adj) is not tuple:  # rows given as a list would be mutable and unhashable
                object.__setattr__(self, "adj", tuple(self.adj))
            adj = self.adj
            if len(adj) != n:
                raise ValueError(f"expected {n} adjacency rows, got {len(adj)}")
            full = (1 << n) - 1
            for v, row in enumerate(adj):
                if row & ~full:
                    raise ValueError(f"row {v} has bits beyond vertex {n - 1}")
                bit = 1 << v
                if row & bit:
                    raise ValueError(f"loop at vertex {v}")
                while row:
                    low = row & -row
                    row ^= low
                    u = low.bit_length() - 1
                    if not adj[u] & bit:
                        raise ValueError(f"asymmetric edge {v}-{u}")
        except TypeError:
            raise VertexOutOfRange(f"adjacency rows must be int masks, got {self.adj!r}") from None

    @property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, ascending by u then v."""
        for v in range(self.order):
            for u in iter_bits(self.adj[v] >> (v + 1) << (v + 1)):
                yield v, u

    def is_complete(self) -> bool:
        full = self.full_mask
        return all(row == full ^ (1 << v) for v, row in enumerate(self.adj))


def _check_subset(g: Graph, s: VertexSet) -> None:
    if s.mask & ~g.full_mask:
        raise VertexOutOfRange(f"set {s.members()} has vertices outside 0..{g.order - 1}")


def build_graph(order: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an order and unordered vertex pairs.

    Duplicate pairs are allowed and collapse to a single edge.
    """
    if type(order) is not int or not 0 <= order <= MAX_ORDER:
        raise OrderTooLarge(f"order {order!r} is not an int in 0..{MAX_ORDER}")
    rows = [0] * order
    try:
        for u, v in edges:
            if u == v:
                raise LoopEdge(f"loop edge ({u}, {v})")
            if not (0 <= u < order and 0 <= v < order):
                raise VertexOutOfRange(f"edge ({u}, {v}) outside 0..{order - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    except (TypeError, ValueError) as exc:  # an end no int, or an edge no pair
        raise VertexOutOfRange(f"edges must be pairs of int vertices ({exc})") from None
    return Graph(order, tuple(rows))


def edge_mask(g: Graph) -> int:
    """The edge mask of *g*: bit p is pair p of ``upper_triangle_pairs``.
    Column j's pairs (i, j), i < j, are row j below j, put at bit j(j-1)/2."""
    mask = 0
    for j, row in enumerate(g.adj):
        mask |= (row & ((1 << j) - 1)) << (j * (j - 1) // 2)
    return mask


def mask_graph(n: int, mask: int) -> Graph:
    """The graph of order *n* with edge mask *mask*, the inverse of
    ``edge_mask``; a mask with a bit past the last pair is refused."""
    if type(n) is not int or not 0 <= n <= MAX_ORDER:
        raise OrderTooLarge(f"order {n!r} is not an int in 0..{MAX_ORDER}")
    if type(mask) is not int:
        raise VertexOutOfRange(f"an edge mask must be an int, got {mask!r}")
    rows = [0] * n
    for j in range(1, n):
        column = mask & ((1 << j) - 1)  # the pairs (i, j), i < j
        mask >>= j
        rows[j] = column
        bit = 1 << j
        while column:
            low = column & -column
            column ^= low
            rows[low.bit_length() - 1] |= bit
    if mask:
        raise ValueError(f"edge mask has bits beyond the pairs of order {n}")
    return Graph(n, tuple(rows))


def degree_stats(g: Graph) -> DegreeProfile:
    if g.order == 0:
        raise EmptyGraph("degree profile of the null graph is undefined")
    degrees = tuple(row.bit_count() for row in g.adj)
    return DegreeProfile(degrees, min(degrees), max(degrees))


def delete_vertices(g: Graph, s: VertexSet) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on V - s, relabeled compactly, plus the old->new map.

    Kept vertices preserve their relative order.  Deleting every vertex
    yields the null graph.  Each kept row drops the deleted bits by shifting
    the bits above each one down, highest first: O(|s|) steps per row.
    """
    _check_subset(g, s)
    gone = []  # (d, the bits below d) per deleted vertex d, highest d first
    m = s.mask
    while m:
        d = m.bit_length() - 1
        m ^= 1 << d
        gone.append((d, (1 << d) - 1))
    mapping = {}
    rows = []
    for old, row in enumerate(g.adj):
        if not s.mask >> old & 1:
            for d, below in gone:  # drop bit d; higher bits shift down by one
                row = row & below | row >> (d + 1) << d
            mapping[old] = len(rows)
            rows.append(row)
    return Graph(len(rows), tuple(rows)), mapping


def complement(g: Graph) -> Graph:
    full = g.full_mask
    rows = tuple(full & ~row & ~(1 << v) for v, row in enumerate(g.adj))
    return Graph(g.order, rows)


def component_masks(rows: Sequence[int], universe: int) -> list[tuple[int, int, int]]:
    """Connected components of the subgraph induced on ``universe``, as
    ``(mask, cap, total)`` triples ordered by their smallest member.
    ``rows[v]`` is the open or the closed neighborhood of v; either gives
    the same components.

    ``cap`` is the largest ``|rows[v] & universe|`` over the component's
    vertices v, and ``total`` their sum.  Every neighbor of v within
    ``universe`` lies in v's component, so these are also the largest and
    the sum of ``|rows[v] & mask|``: with closed rows, ``cap`` is the most
    vertices of the component that one vertex dominates.
    """
    comps = []
    unseen = universe
    while unseen:
        comp = cap = total = 0
        frontier = unseen & -unseen
        while frontier:
            comp |= frontier
            grow = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                row = rows[low.bit_length() - 1] & universe
                grow |= row
                size = row.bit_count()
                total += size
                if size > cap:
                    cap = size
            frontier = grow & ~comp
        comps.append((comp, cap, total))
        unseen &= ~comp
    return comps


def components(g: Graph) -> list[VertexSet]:
    """Connected components, ordered by their smallest member."""
    return [VertexSet(comp) for comp, _, _ in component_masks(g.adj, g.full_mask)]


def classify_set(g: Graph, s: VertexSet) -> SetClassification:
    """Flags saying whether ``s`` is independent, dominating, and maximal independent.

    ``maximal_independent`` is computed from its own definition (independent,
    and every outside vertex has a neighbor inside); its equivalence with
    independent-and-dominating is an invariant, not an implementation shortcut.
    """
    if g.order == 0:
        raise EmptyGraph("set classification needs at least one vertex")
    _check_subset(g, s)
    independent = all(g.adj[v] & s.mask == 0 for v in iter_bits(s.mask))
    closed = s.mask
    for v in iter_bits(s.mask):
        closed |= g.adj[v]
    dominating = closed == g.full_mask
    outside = g.full_mask & ~s.mask
    maximal = independent and all(g.adj[u] & s.mask for u in iter_bits(outside))
    return SetClassification(independent, dominating, maximal)
