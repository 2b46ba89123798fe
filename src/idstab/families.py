"""Deterministic constructors for the named graph families.

Canonical labelings (frozen so certificates are reproducible):

* path / cycle: consecutive labels 0, 1, ..., n-1
* star: center 0, leaves 1..m
* double star: centers 0 and 1 (adjacent), then the a leaves of 0, then the
  b leaves of 1
* complete bipartite K_{m,n}: first part 0..m-1, second part m..m+n-1
* friendship F_n: hub 0; triangle i uses vertices 2i+1, 2i+2
* generalized friendship F_{q,n}: hub 0; the i-th q-cycle runs through the
  q-1 consecutive non-hub vertices starting at (q-1)i + 1, and the cycles
  share exactly the hub
* book B_n: built literally as cartesian(star(n), path(2)); the spine is
  vertices 0 and 1
* petersen: outer 5-cycle 0..4, inner 5-cycle 5..9 with spokes i -- i+5
  (a fixture with well-known invariant values, handy as an oracle target)
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import MAX_ORDER, Graph, build_graph
from .errors import OrderTooLarge, SpecInvalid
from .ops import cartesian

_SHORT = {
    "double_star": "dstar",
    "complete_bipartite": "kbip",
    "friendship": "friend",
    "gen_friendship": "gfriend",
}
_LONG = {short: long for long, short in _SHORT.items()}

_PARAM_COUNT = {
    "empty": 1,
    "complete": 1,
    "path": 1,
    "cycle": 1,
    "star": 1,
    "double_star": 2,
    "complete_bipartite": 2,
    "friendship": 1,
    "gen_friendship": 2,
    "book": 1,
    "petersen": 0,
}

KINDS = tuple(_PARAM_COUNT)


def family_order(kind: str, p: tuple[int, ...]) -> int:
    """The order a long-named kind builds from ``p``, known before a
    ``FamilySpec`` (which rejects orders above ``MAX_ORDER``) is built."""
    if kind in ("empty", "complete", "path", "cycle"):
        return p[0]
    if kind == "star":
        return p[0] + 1
    if kind == "double_star":
        return p[0] + p[1] + 2
    if kind == "complete_bipartite":
        return p[0] + p[1]
    if kind == "friendship":
        return 2 * p[0] + 1
    if kind == "gen_friendship":
        return p[1] * (p[0] - 1) + 1
    if kind == "book":
        return 2 * p[0] + 2
    return 10  # petersen


@dataclass(frozen=True)
class FamilySpec:
    """A family kind plus the integers that kind requires."""

    kind: str
    params: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        kind = _LONG.get(self.kind, self.kind)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", tuple(self.params))
        if kind not in _PARAM_COUNT:
            raise SpecInvalid(f"unknown family kind {self.kind!r}")
        if len(self.params) != _PARAM_COUNT[kind]:
            raise SpecInvalid(
                f"{kind} takes {_PARAM_COUNT[kind]} parameter(s), got {len(self.params)}"
            )
        self._validate()

    def _validate(self) -> None:
        kind, p = self.kind, self.params
        bad = None
        if kind in ("empty", "complete") and p[0] < 0:
            bad = "order must be >= 0"
        elif kind == "path" and p[0] < 1:
            bad = "path needs n >= 1"
        elif kind == "cycle" and p[0] < 3:
            bad = "cycle needs n >= 3"
        elif kind == "star" and p[0] < 1:
            bad = "star needs at least one leaf"
        elif kind == "double_star" and min(p) < 1:
            bad = "double star needs a, b >= 1"
        elif kind == "complete_bipartite" and min(p) < 1:
            bad = "complete bipartite needs m, n >= 1"
        elif kind == "friendship" and p[0] < 1:
            bad = "friendship needs n >= 1"
        elif kind == "gen_friendship" and (p[0] < 3 or p[1] < 1):
            bad = "generalized friendship needs q >= 3 and n >= 1"
        elif kind == "book" and p[0] < 2:
            bad = "book needs n >= 2"
        if bad:
            raise SpecInvalid(f"{self.to_text()}: {bad}")
        if self.order() > MAX_ORDER:
            raise OrderTooLarge(f"{self.to_text()} has order {self.order()} (cap {MAX_ORDER})")

    def order(self) -> int:
        return family_order(self.kind, self.params)

    def to_text(self) -> str:
        name = _SHORT.get(self.kind, self.kind)
        if not self.params:
            return name
        return f"{name}:{','.join(str(x) for x in self.params)}"


def parse_family_spec(text: str) -> FamilySpec:
    """Parse the one-line syntax: ``path:7``, ``gfriend:4,2``, ``petersen``."""
    head, sep, tail = text.strip().partition(":")
    name = head.strip().lower()
    if name not in _PARAM_COUNT and name not in _LONG:
        raise SpecInvalid(f"unknown family kind {head!r}")
    if not sep:
        return FamilySpec(name, ())
    try:
        params = tuple(int(tok) for tok in tail.split(","))
    except ValueError:
        raise SpecInvalid(f"bad parameters in {text!r}") from None
    return FamilySpec(name, params)


def generate(spec: FamilySpec) -> Graph:
    """Build the graph a spec describes, with the canonical labeling."""
    kind, p = spec.kind, spec.params
    if kind == "empty":
        return build_graph(p[0], [])
    if kind == "complete":
        n = p[0]
        return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if kind == "path":
        return build_graph(p[0], [(i, i + 1) for i in range(p[0] - 1)])
    if kind == "cycle":
        n = p[0]
        return build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "star":
        return build_graph(p[0] + 1, [(0, leaf) for leaf in range(1, p[0] + 1)])
    if kind == "double_star":
        a, b = p
        edges = [(0, 1)]
        edges += [(0, leaf) for leaf in range(2, a + 2)]
        edges += [(1, leaf) for leaf in range(a + 2, a + b + 2)]
        return build_graph(a + b + 2, edges)
    if kind == "complete_bipartite":
        m, n = p
        return build_graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])
    if kind == "friendship":
        return generate(FamilySpec("gen_friendship", (3, p[0])))
    if kind == "gen_friendship":
        q, n = p
        edges = []
        for i in range(n):
            petal = list(range((q - 1) * i + 1, (q - 1) * (i + 1) + 1))
            edges.append((0, petal[0]))
            edges += list(zip(petal, petal[1:]))
            edges.append((petal[-1], 0))
        return build_graph(n * (q - 1) + 1, edges)
    if kind == "book":
        return cartesian(generate(FamilySpec("star", (p[0],))), generate(FamilySpec("path", (2,))))
    # petersen
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, edges)


def path(n: int) -> Graph:
    return generate(FamilySpec("path", (n,)))


def cycle(n: int) -> Graph:
    return generate(FamilySpec("cycle", (n,)))


def empty(n: int) -> Graph:
    return generate(FamilySpec("empty", (n,)))


def complete(n: int) -> Graph:
    return generate(FamilySpec("complete", (n,)))


def star(leaves: int) -> Graph:
    return generate(FamilySpec("star", (leaves,)))


def double_star(a: int, b: int) -> Graph:
    return generate(FamilySpec("double_star", (a, b)))


def complete_bipartite(m: int, n: int) -> Graph:
    return generate(FamilySpec("complete_bipartite", (m, n)))


def friendship(n: int) -> Graph:
    return generate(FamilySpec("friendship", (n,)))


def gen_friendship(q: int, n: int) -> Graph:
    return generate(FamilySpec("gen_friendship", (q, n)))


def book(n: int) -> Graph:
    return generate(FamilySpec("book", (n,)))


def petersen() -> Graph:
    return generate(FamilySpec("petersen", ()))
