"""Deterministic constructors for the named graph families.

Each kind is declared once, where its graph is built, by ``_kind``; its
public constructor (``path``, ..., ``petersen``) builds a checked ``FamilySpec``.

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

import functools
import inspect
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .core import MAX_ORDER, Graph, build_graph
from .errors import OrderTooLarge, SpecInvalid
from .ops import cartesian


class _FamilyKind(NamedTuple):
    short: str
    least: tuple[int, ...]  # its length is the arity
    need: str
    order: Callable[..., int]
    build: Callable[..., Graph]


_KINDS: dict[str, _FamilyKind] = {}
_LONG: dict[str, str] = {}  # long and short names to the long name


def _kind(name: str, short: str, least: tuple[int, ...], need: str, order: Callable[..., int]):
    """Register the builder as family ``name``; bind its name to the checked constructor."""

    def register(build: Callable[..., Graph]) -> Callable[..., Graph]:
        _KINDS[name] = _FamilyKind(short, least, need, order, build)
        _LONG[name] = _LONG[short] = name
        signature = inspect.signature(build)

        @functools.wraps(build)
        def checked(*args, **kwargs) -> Graph:
            return generate(FamilySpec(name, signature.bind(*args, **kwargs).args))

        return checked

    return register


def family_order(kind: str, p: tuple[int, ...]) -> int:
    """The order a long-named ``kind`` builds from ``p``, known before it is built."""
    return _KINDS[kind].order(*p)


@dataclass(frozen=True)
class FamilySpec:
    """A family kind plus the integers that kind requires."""

    kind: str
    params: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or not isinstance(self.params, (tuple, list)):
            raise SpecInvalid(f"need a kind name and a tuple of parameters, got {self!r}")
        kind = _LONG.get(self.kind, self.kind)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", tuple(self.params))
        if kind not in _KINDS:
            raise SpecInvalid(f"unknown family kind {self.kind!r}")
        if any(type(x) is not int for x in self.params):
            raise SpecInvalid(f"{kind} parameters must be integers, got {self.params!r}")
        least = _KINDS[kind].least
        if len(self.params) != len(least):
            raise SpecInvalid(f"{kind} takes {len(least)} parameter(s), got {len(self.params)}")
        if any(x < low for x, low in zip(self.params, least)):
            raise SpecInvalid(f"{self.to_text()}: {_KINDS[kind].need}")
        if self.order() > MAX_ORDER:
            raise OrderTooLarge(f"{self.to_text()} has order {self.order()} (cap {MAX_ORDER})")

    def order(self) -> int:
        return family_order(self.kind, self.params)

    def to_text(self) -> str:
        short = _KINDS[self.kind].short
        return f"{short}:{','.join(str(x) for x in self.params)}" if self.params else short


def parse_family_spec(text: str) -> FamilySpec:
    """Parse the one-line syntax: ``path:7``, ``gfriend:4,2``, ``petersen``."""
    if not isinstance(text, str):
        raise SpecInvalid(f"a family spec is a line of text, got {text!r}")
    head, sep, tail = text.strip().partition(":")
    name = head.strip().lower()
    if name not in _LONG:
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
    return _KINDS[spec.kind].build(*spec.params)


@_kind("empty", "empty", (0,), "order must be >= 0", lambda n: n)
def empty(n: int) -> Graph:
    return build_graph(n, [])


@_kind("complete", "complete", (0,), "order must be >= 0", lambda n: n)
def complete(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


@_kind("path", "path", (1,), "path needs n >= 1", lambda n: n)
def path(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


@_kind("cycle", "cycle", (3,), "cycle needs n >= 3", lambda n: n)
def cycle(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


@_kind("star", "star", (1,), "star needs at least one leaf", lambda m: m + 1)
def star(leaves: int) -> Graph:
    return build_graph(leaves + 1, [(0, leaf) for leaf in range(1, leaves + 1)])


@_kind("double_star", "dstar", (1, 1), "double star needs a, b >= 1", lambda a, b: a + b + 2)
def double_star(a: int, b: int) -> Graph:
    edges = [(0, 1)]
    edges += [(0, leaf) for leaf in range(2, a + 2)]
    edges += [(1, leaf) for leaf in range(a + 2, a + b + 2)]
    return build_graph(a + b + 2, edges)


@_kind("complete_bipartite", "kbip", (1, 1), "complete bipartite needs m, n >= 1",
       lambda m, n: m + n)
def complete_bipartite(m: int, n: int) -> Graph:
    return build_graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


@_kind("friendship", "friend", (1,), "friendship needs n >= 1", lambda n: 2 * n + 1)
def friendship(n: int) -> Graph:
    return gen_friendship(3, n)


@_kind("gen_friendship", "gfriend", (3, 1), "generalized friendship needs q >= 3 and n >= 1",
       lambda q, n: n * (q - 1) + 1)
def gen_friendship(q: int, n: int) -> Graph:
    edges = []
    for i in range(n):
        petal = list(range((q - 1) * i + 1, (q - 1) * (i + 1) + 1))
        edges.append((0, petal[0]))
        edges += list(zip(petal, petal[1:]))
        edges.append((petal[-1], 0))
    return build_graph(n * (q - 1) + 1, edges)


@_kind("book", "book", (2,), "book needs n >= 2", lambda n: 2 * n + 2)
def book(n: int) -> Graph:
    return cartesian(star(n), path(2))


@_kind("petersen", "petersen", (), "", lambda: 10)
def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, edges)
