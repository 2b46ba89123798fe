"""Claim registry and corpus auditor.

The registry holds 26 checkable claims (C1..C26) about gamma_i and its
vertex-removal stability: closed forms for families, upper bounds, a
Nordhaus-Gaddum pair, and identities for the join, lexicographic product
and corona.  Each claim applies to one instance kind: a single graph, an
ordered pair of graphs, or a family spec.

Two evaluation modes exist.  ``strict`` applies exactly the stated
hypothesis of each claim; ``restricted`` adds documented guards (see each
claim's ``restricted_note``) so a run can distinguish "false as stated"
from "false in spirit".

``run_audit`` sweeps claims over a corpus.  Every violated outcome is
re-verified with the subset-enumeration oracles; when an instance is too
large for the full stability oracle the recorded gamma_i facts of the
certificate are re-checked instead and the outcome is marked "partial".
Any oracle disagreement aborts the audit with ``InternalAuditError``.
Reports are deterministic: for a fixed corpus, claim set and mode the JSON
text is byte-identical across runs and worker counts.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from . import solver, stability
from .codec import decode_graph6, encode_graph6
from .core import (
    Graph,
    VertexSet,
    build_graph,
    complement,
    components,
    degree_stats,
    delete_vertices,
    iter_bits,
    upper_triangle_pairs,
)
from .errors import (
    BadCorpusSource,
    BadThreadCount,
    CorpusTooLarge,
    InstanceKindMismatch,
    InternalAuditError,
    TooLargeForOracle,
    UnknownClaim,
)
from .families import FamilySpec, generate
from .ops import corona, join, lexicographic

GRAPH, PAIR, FAMILY = "graph", "pair", "family"
STRICT, RESTRICTED = "strict", "restricted"
HOLDS, VIOLATED, INAPPLICABLE = "holds", "violated", "inapplicable"

MAX_ENUMERATION_ORDER = 7
MAX_PAIR_OPERAND_ORDER = 4


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """All 2^(n(n-1)/2) labeled graphs on n vertices, in edge-mask order.

    Edge bits follow ``upper_triangle_pairs``: bit 0 is (0,1), bit 1 is
    (0,2), bit 2 is (1,2), and so on.
    """
    if not 1 <= n <= MAX_ENUMERATION_ORDER:
        raise CorpusTooLarge(f"labeled enumeration supports 1 <= n <= {MAX_ENUMERATION_ORDER}")
    pairs = list(upper_triangle_pairs(n))
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [pairs[i] for i in iter_bits(mask)])


# ---------------------------------------------------------------------------
# Toolkits: the exact solvers (cached) and the independent oracles.
# ---------------------------------------------------------------------------


class _Toolkit:
    """Invariant evaluators backed by the branch-and-bound solvers.

    Values are cached per graph for the lifetime of one audit run (or one
    worker), which is what makes complement- and deletion-heavy claims like
    C5 and C16 cheap over exhaustive corpora.
    """

    is_oracle = False

    def __init__(self) -> None:
        self._gi: dict[Graph, int] = {}
        self._st: dict[Graph, stability.StabilityCertificate] = {}
        self._dom: dict[Graph, int] = {}
        self._star: dict[Graph, int] = {}

    def gamma_i(self, g: Graph) -> int:
        if g not in self._gi:
            self._gi[g] = solver.gamma_i_value(g)
        return self._gi[g]

    def st_cert(self, g: Graph) -> stability.StabilityCertificate:
        if g not in self._st:
            self._st[g] = stability.stability(g)
        return self._st[g]

    def st_any(self, g: Graph) -> int:
        return self.st_cert(g).value

    def gamma(self, g: Graph) -> int:
        if g not in self._dom:
            self._dom[g] = solver.gamma_value(g)
        return self._dom[g]

    def max_star(self, g: Graph) -> int:
        if g not in self._star:
            self._star[g] = solver.max_induced_star(g)
        return self._star[g]


def _brute_gamma(g: Graph) -> int:
    """Minimum dominating set size by scanning all subsets (order <= 20)."""
    if g.order > solver.ORACLE_MAX_ORDER:
        raise TooLargeForOracle(f"domination oracle handles order <= {solver.ORACLE_MAX_ORDER}")
    closed = [row | (1 << v) for v, row in enumerate(g.adj)]
    full = g.full_mask
    best = g.order
    for mask in range(1, 1 << g.order):
        if mask.bit_count() >= best:
            continue
        acc = 0
        for v in iter_bits(mask):
            acc |= closed[v]
        if acc == full:
            best = mask.bit_count()
    return best


def _brute_max_star(g: Graph) -> int:
    """Largest induced star by scanning neighborhood subsets (order <= 20)."""
    if g.order > solver.ORACLE_MAX_ORDER:
        raise TooLargeForOracle(f"induced-star oracle handles order <= {solver.ORACLE_MAX_ORDER}")
    best = 0
    for v in range(g.order):
        nb = g.adj[v]
        sub = nb
        while True:
            if sub.bit_count() > best and all(g.adj[u] & sub == 0 for u in iter_bits(sub)):
                best = sub.bit_count()
            if sub == 0:
                break
            sub = (sub - 1) & nb
    return best


class _OracleToolkit:
    """The same evaluators, rebuilt on the definition-direct oracles."""

    is_oracle = True

    def __init__(self) -> None:
        self._gi: dict[Graph, int] = {}
        self._st: dict[Graph, int] = {}

    def gamma_i(self, g: Graph) -> int:
        if g not in self._gi:
            self._gi[g] = solver.oracle_gamma_i(g)
        return self._gi[g]

    def st_any(self, g: Graph) -> int:
        if g not in self._st:
            self._st[g] = stability.oracle_stability(g)[0]
        return self._st[g]

    def gamma(self, g: Graph) -> int:
        return _brute_gamma(g)

    def max_star(self, g: Graph) -> int:
        return _brute_max_star(g)


# ---------------------------------------------------------------------------
# Claim evaluators.
# ---------------------------------------------------------------------------


@dataclass
class _Eval:
    applicable: bool
    holds: bool = True
    lhs: object = None
    rhs: object = None
    cert: dict | None = None


_NA = _Eval(False)


def _is_isolate_free(g: Graph) -> bool:
    return g.order > 0 and all(g.adj)


def _st_payload(kit, g: Graph, extra: dict | None = None) -> dict:
    """Violation certificate for a stability fact: the removal witness plus
    gamma_i values an oracle can re-check even when the full stability oracle
    cannot run."""
    c = kit.st_cert(g)
    sub, _ = delete_vertices(g, c.witness)
    payload = {
        "st_witness": list(c.witness.members()),
        "base_gamma_i": c.base_gamma_i,
        "new_gamma_i": c.new_gamma_i,
        "gamma_i_checks": [
            [encode_graph6(g), c.base_gamma_i],
            [encode_graph6(sub), c.new_gamma_i],
        ],
    }
    if extra:
        payload.update(extra)
    return payload


def _gi_payload(kit, g: Graph, label: str = "graph") -> dict:
    cert = solver.gamma_i(g)
    return {
        f"{label}_gamma_i_witness": list(cert.witness.members()),
        "gamma_i_checks": [[encode_graph6(g), cert.value]],
    }


def _c1(spec: FamilySpec, kit, mode: str) -> _Eval:
    if spec.kind not in ("path", "cycle"):
        return _NA
    n = spec.params[0]
    g = generate(spec)
    lhs = kit.gamma_i(g)
    rhs = (n + 2) // 3
    cert = None if lhs == rhs or kit.is_oracle else _gi_payload(kit, g)
    return _Eval(True, lhs == rhs, lhs, rhs, cert)


def _c2(g: Graph, kit, mode: str) -> _Eval:
    lhs = kit.st_any(g)
    rhs = degree_stats(g).min_degree + 1
    ok = lhs <= rhs
    cert = None if ok or kit.is_oracle else _st_payload(kit, g)
    return _Eval(True, ok, lhs, rhs, cert)


def _c3(spec: FamilySpec, kit, mode: str) -> _Eval:
    if spec.kind != "path":
        return _NA
    n = spec.params[0]
    g = generate(spec)
    lhs = kit.st_any(g)
    rhs = 2 if n % 3 == 2 else 1
    cert = None if lhs == rhs or kit.is_oracle else _st_payload(kit, g)
    return _Eval(True, lhs == rhs, lhs, rhs, cert)


def _c4(spec: FamilySpec, kit, mode: str) -> _Eval:
    if spec.kind != "cycle":
        return _NA
    n = spec.params[0]
    g = generate(spec)
    lhs = kit.st_any(g)
    rhs = {0: 3, 1: 1, 2: 2}[n % 3]
    cert = None if lhs == rhs or kit.is_oracle else _st_payload(kit, g)
    return _Eval(True, lhs == rhs, lhs, rhs, cert)


def _c5(g: Graph, kit, mode: str) -> _Eval:
    if g.order < 2:
        return _NA
    lhs = kit.st_any(g)
    per_vertex = []
    for v in range(g.order):
        sub, _ = delete_vertices(g, VertexSet(1 << v))
        per_vertex.append(kit.st_any(sub))
    rhs = min(per_vertex) + 1
    ok = lhs <= rhs
    cert = None
    if not ok and not kit.is_oracle:
        bad = per_vertex.index(min(per_vertex))
        cert = _st_payload(kit, g, {"deleted_vertex": bad, "st_after_deletion": per_vertex[bad]})
    return _Eval(True, ok, lhs, rhs, cert)


def _c6(g: Graph, kit, mode: str) -> _Eval:
    if g.order < 2 or g.is_complete():
        return _NA
    lhs = kit.st_any(g)
    rhs = g.order - 1
    ok = lhs <= rhs
    cert = None if ok or kit.is_oracle else _st_payload(kit, g)
    return _Eval(True, ok, lhs, rhs, cert)


def _c7(g: Graph, kit, mode: str) -> _Eval:
    if g.order < 2 or g.is_complete():
        return _NA
    t = kit.max_star(g)
    if t < 3:
        return _NA
    lhs = kit.st_any(g)
    rhs = g.order - t
    ok = lhs <= rhs
    cert = None if ok or kit.is_oracle else _st_payload(kit, g, {"induced_star": t})
    return _Eval(True, ok, lhs, rhs, cert)


def _c8(g: Graph, kit, mode: str) -> _Eval:
    if g.order < 2 or g.is_complete():
        return _NA
    lhs = kit.st_any(g)
    rhs = g.order - degree_stats(g).max_degree
    ok = lhs <= rhs
    cert = None if ok or kit.is_oracle else _st_payload(kit, g)
    return _Eval(True, ok, lhs, rhs, cert)


def _c9(g: Graph, kit, mode: str) -> _Eval:
    if g.order == 0:
        return _NA
    if mode == RESTRICTED and not _is_isolate_free(g):
        return _NA
    lhs = kit.st_any(g)
    rhs = g.order + 1 - 2 * kit.gamma_i(g)
    ok = lhs <= rhs
    cert = None if ok or kit.is_oracle else _st_payload(kit, g, {"gamma_i": kit.gamma_i(g)})
    return _Eval(True, ok, lhs, rhs, cert)


def _c10(g: Graph, kit, mode: str) -> _Eval:
    if g.order < 2:
        return _NA
    if mode == RESTRICTED and not _is_isolate_free(g):
        return _NA
    if kit.st_any(g) != g.order - 1:
        return _NA
    lhs = kit.gamma_i(g)
    ok = lhs == 1
    cert = None
    if not ok and not kit.is_oracle:
        cert = _st_payload(kit, g)
        cert["gamma_i_checks"].append([encode_graph6(g), lhs])
    return _Eval(True, ok, lhs, 1, cert)


def _c11(g: Graph, kit, mode: str) -> _Eval:
    gi = kit.gamma_i(g)
    if gi < 2:
        return _NA
    lhs = kit.st_any(g)
    ok = lhs * gi <= g.order
    rhs = g.order / gi
    cert = None if ok or kit.is_oracle else _st_payload(kit, g, {"gamma_i": gi})
    return _Eval(True, ok, lhs, rhs, cert)


def _c12(g: Graph, kit, mode: str) -> _Eval:
    if not _is_isolate_free(g):
        return _NA
    dom = kit.gamma(g)
    lhs = kit.gamma_i(g)
    rhs = g.order + 2 - dom - -(-g.order // dom)
    ok = lhs <= rhs
    cert = None
    if not ok and not kit.is_oracle:
        cert = _gi_payload(kit, g)
        cert["gamma"] = dom
    return _Eval(True, ok, lhs, rhs, cert)


def _c13(g: Graph, kit, mode: str) -> _Eval:
    if g.order < 2 or len(components(g)) != 1:
        return _NA
    lhs = kit.gamma(g)
    ok = 2 * lhs <= g.order
    rhs = g.order / 2
    cert = None
    if not ok and not kit.is_oracle:
        cert = {"gamma_witness": list(solver.gamma(g).witness.members())}
    return _Eval(True, ok, lhs, rhs, cert)


def _c14(g: Graph, kit, mode: str) -> _Eval:
    if not _is_isolate_free(g):
        return _NA
    gi = kit.gamma_i(g)
    if gi < 2:
        return _NA
    st = kit.st_any(g)
    lo, hi = g.order - gi, g.order - 2
    ok = not (lo <= st <= hi)
    cert = None
    if not ok and not kit.is_oracle:
        cert = _st_payload(kit, g, {"gamma_i": gi, "matched_k": g.order - st})
    return _Eval(True, ok, st, [lo, hi], cert)


def _c15(g: Graph, kit, mode: str) -> _Eval:
    gi = kit.gamma_i(g)
    if gi < 2:
        return _NA
    lhs = kit.st_any(g)
    d = degree_stats(g).min_degree
    rhs = min(d + 1, g.order - d - 1)
    ok = lhs <= rhs
    cert = None if ok or kit.is_oracle else _st_payload(kit, g, {"gamma_i": gi})
    return _Eval(True, ok, lhs, rhs, cert)


def _c16(g: Graph, kit, mode: str) -> _Eval:
    if g.order == 0:
        return _NA
    cg = complement(g)
    gi, gic = kit.gamma_i(g), kit.gamma_i(cg)
    lhs = kit.st_any(g) + kit.st_any(cg)
    if gi == 1 or gic == 1:
        rhs = g.order + 1
    else:
        rhs = g.order if g.order % 2 == 0 else g.order - 1
    ok = lhs <= rhs
    cert = None
    if not ok and not kit.is_oracle:
        cert = _st_payload(kit, g)
        cocert = _st_payload(kit, cg)
        cert["complement_st_witness"] = cocert["st_witness"]
        cert["gamma_i_checks"] += cocert["gamma_i_checks"]
    return _Eval(True, ok, lhs, rhs, cert)


def _pair_na(g1: Graph, g2: Graph) -> bool:
    return g1.order == 0 or g2.order == 0


def _c17(pair, kit, mode: str) -> _Eval:
    g1, g2 = pair
    if _pair_na(g1, g2):
        return _NA
    j = join(g1, g2)
    lhs = kit.gamma_i(j)
    rhs = min(kit.gamma_i(g1), kit.gamma_i(g2))
    cert = None if lhs == rhs or kit.is_oracle else _gi_payload(kit, j, "join")
    return _Eval(True, lhs == rhs, lhs, rhs, cert)


def _c18(pair, kit, mode: str) -> _Eval:
    g1, g2 = pair
    if _pair_na(g1, g2):
        return _NA
    j = join(g1, g2)
    lhs = kit.st_any(j)
    rhs = min(kit.st_any(g1), kit.st_any(g2))
    cert = None if lhs == rhs or kit.is_oracle else _st_payload(kit, j)
    return _Eval(True, lhs == rhs, lhs, rhs, cert)


def _c19(pair, kit, mode: str) -> _Eval:
    g1, g2 = pair
    if _pair_na(g1, g2):
        return _NA
    prod = lexicographic(g1, g2)
    lhs = kit.gamma_i(prod)
    rhs = kit.gamma_i(g1) * kit.gamma_i(g2)
    cert = None if lhs == rhs or kit.is_oracle else _gi_payload(kit, prod, "product")
    return _Eval(True, lhs == rhs, lhs, rhs, cert)


def _c20(pair, kit, mode: str) -> _Eval:
    g1, g2 = pair
    if _pair_na(g1, g2):
        return _NA
    prod = lexicographic(g1, g2)
    lhs = kit.st_any(prod)
    rhs = min(kit.st_any(g1), kit.st_any(g2))
    cert = None if lhs == rhs or kit.is_oracle else _st_payload(kit, prod)
    return _Eval(True, lhs == rhs, lhs, rhs, cert)


def _c21(pair, kit, mode: str) -> _Eval:
    g1, g2 = pair
    if _pair_na(g1, g2):
        return _NA
    prod = corona(g1, g2)
    lhs = kit.gamma_i(prod)
    rhs = g1.order * kit.gamma_i(g2)
    cert = None if lhs == rhs or kit.is_oracle else _gi_payload(kit, prod, "corona")
    return _Eval(True, lhs == rhs, lhs, rhs, cert)


def _c22(pair, kit, mode: str) -> _Eval:
    g1, g2 = pair
    if _pair_na(g1, g2):
        return _NA
    prod = corona(g1, g2)
    lhs = kit.st_any(prod)
    cert = None if lhs == 1 or kit.is_oracle else _st_payload(kit, prod)
    return _Eval(True, lhs == 1, lhs, 1, cert)


def _c23(spec: FamilySpec, kit, mode: str) -> _Eval:
    if spec.kind == "star":
        if mode == RESTRICTED and spec.params[0] < 2:
            return _NA
    elif spec.kind == "complete_bipartite":
        if min(spec.params) < 2:
            return _NA
    elif spec.kind != "double_star":
        return _NA
    g = generate(spec)
    lhs = kit.st_any(g)
    cert = None if lhs == 1 or kit.is_oracle else _st_payload(kit, g)
    return _Eval(True, lhs == 1, lhs, 1, cert)


def _c24(spec: FamilySpec, kit, mode: str) -> _Eval:
    if spec.kind == "friendship":
        rhs = 1
    elif spec.kind == "gen_friendship":
        if spec.params[0] not in (4, 5, 6):
            return _NA
        rhs = spec.params[1] + 1
    elif spec.kind == "book":
        rhs = spec.params[0]
    else:
        return _NA
    g = generate(spec)
    lhs = kit.gamma_i(g)
    cert = None if lhs == rhs or kit.is_oracle else _gi_payload(kit, g)
    return _Eval(True, lhs == rhs, lhs, rhs, cert)


def _c25(spec: FamilySpec, kit, mode: str) -> _Eval:
    if spec.kind in ("friendship", "gen_friendship"):
        copies = spec.params[-1]
        if mode == RESTRICTED and copies < 2:
            return _NA
        rhs = 1
    elif spec.kind == "book":
        rhs = 2
    else:
        return _NA
    g = generate(spec)
    lhs = kit.st_any(g)
    cert = None if lhs == rhs or kit.is_oracle else _st_payload(kit, g)
    return _Eval(True, lhs == rhs, lhs, rhs, cert)


def _c26(g: Graph, kit, mode: str) -> _Eval:
    st = kit.st_any(g)
    complete = g.is_complete()
    ok = (st == g.order) == complete
    cert = None
    if not ok and not kit.is_oracle:
        cert = _st_payload(kit, g, {"complete": complete})
    return _Eval(True, ok, st, g.order, cert)


@dataclass(frozen=True)
class Claim:
    id: str
    statement: str
    instance_kind: str
    relation: str
    evaluate: Callable
    restricted_note: str = ""


_CLAIM_DEFS = [
    ("C1", "gamma_i(P_n) = gamma_i(C_n) = floor((n+2)/3)", FAMILY, "equality", _c1, ""),
    ("C2", "st_id(G) <= delta(G) + 1 for every graph G", GRAPH, "<=", _c2, ""),
    ("C3", "st_id(P_n) = 2 when n = 2 (mod 3), else 1", FAMILY, "equality", _c3, ""),
    ("C4", "st_id(C_n) = 3 / 2 / 1 when n = 0 / 2 / 1 (mod 3)", FAMILY, "equality", _c4, ""),
    ("C5", "st_id(G) <= st_id(G - v) + 1 for every vertex v", GRAPH, "<=", _c5, ""),
    ("C6", "st_id(G) <= n - 1 for non-complete G of order n >= 2", GRAPH, "<=", _c6, ""),
    (
        "C7",
        "st_id(G) <= n - t for non-complete G of order n >= 2 with an induced star"
        " K_{1,t}, t >= 3 (checked at the largest such t)",
        GRAPH,
        "<=",
        _c7,
        "",
    ),
    ("C8", "st_id(G) <= n - Delta(G) for non-complete G of order n >= 2", GRAPH, "<=", _c8, ""),
    ("C9", "st_id(G) <= n + 1 - 2 gamma_i(G)", GRAPH, "<=", _c9, "adds: G is isolate-free"),
    (
        "C10",
        "if st_id(G) = n - 1 for G of order n >= 2 then gamma_i(G) = 1",
        GRAPH,
        "equality",
        _c10,
        "adds: G is isolate-free",
    ),
    ("C11", "st_id(G) <= n / gamma_i(G) when gamma_i(G) >= 2", GRAPH, "<=", _c11, ""),
    (
        "C12",
        "gamma_i(G) <= n + 2 - gamma(G) - ceil(n / gamma(G)) for isolate-free G",
        GRAPH,
        "<=",
        _c12,
        "",
    ),
    ("C13", "gamma(G) <= n / 2 for connected G of order n >= 2", GRAPH, "<=", _c13, ""),
    (
        "C14",
        "no isolate-free G with gamma_i(G) >= 2 has st_id(G) = n - k for any"
        " 2 <= k <= gamma_i(G)",
        GRAPH,
        "nonexistence",
        _c14,
        "",
    ),
    (
        "C15",
        "st_id(G) <= min(delta(G) + 1, n - delta(G) - 1) when gamma_i(G) >= 2",
        GRAPH,
        "<=",
        _c15,
        "",
    ),
    (
        "C16",
        "st_id(G) + st_id(complement(G)) <= n + 1 if gamma_i of either is 1,"
        " else <= n (n even) or n - 1 (n odd)",
        GRAPH,
        "<=",
        _c16,
        "",
    ),
    (
        "C17",
        "gamma_i(G1 + G2) = min(gamma_i(G1), gamma_i(G2)) for nonempty operands",
        PAIR,
        "equality",
        _c17,
        "",
    ),
    (
        "C18",
        "st_id(G1 + G2) = min(st_id(G1), st_id(G2)) for nonempty operands",
        PAIR,
        "equality",
        _c18,
        "",
    ),
    ("C19", "gamma_i(G[H]) = gamma_i(G) * gamma_i(H)", PAIR, "equality", _c19, ""),
    ("C20", "st_id(G[H]) = min(st_id(G), st_id(H))", PAIR, "equality", _c20, ""),
    ("C21", "gamma_i(G o H) = |V(G)| * gamma_i(H) (corona)", PAIR, "equality", _c21, ""),
    ("C22", "st_id(G o H) = 1 (corona)", PAIR, "equality", _c22, ""),
    (
        "C23",
        "st_id = 1 for stars, double stars, and K_{m,n} with m >= n >= 2",
        FAMILY,
        "equality",
        _c23,
        "adds: stars need at least 2 leaves",
    ),
    (
        "C24",
        "gamma_i(F_n) = 1; gamma_i(F_{q,n}) = n + 1 for q in {4,5,6}; gamma_i(B_n) = n",
        FAMILY,
        "equality",
        _c24,
        "",
    ),
    (
        "C25",
        "st_id(F_n) = 1; st_id(F_{q,n}) = 1 for q >= 3; st_id(B_n) = 2",
        FAMILY,
        "equality",
        _c25,
        "adds: at least 2 petals",
    ),
    ("C26", "st_id(G) = n exactly when G is complete", GRAPH, "iff", _c26, ""),
]

_REGISTRY: dict[str, Claim] = {
    cid: Claim(cid, stmt, kind, rel, fn, note)
    for cid, stmt, kind, rel, fn, note in _CLAIM_DEFS
}

CLAIM_IDS: tuple[str, ...] = tuple(_REGISTRY)


def get_claim(claim_id: str) -> Claim:
    claim = _REGISTRY.get(claim_id.upper())
    if claim is None:
        raise UnknownClaim(f"no claim {claim_id!r}; known ids are C1..C26")
    return claim


def claim_registry() -> tuple[Claim, ...]:
    return tuple(_REGISTRY.values())


# ---------------------------------------------------------------------------
# Outcomes, oracle re-verification, single-instance evaluation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClaimOutcome:
    claim_id: str
    instance: str
    status: str
    lhs_value: object = None
    rhs_value: object = None
    certificate: dict | None = None
    oracle_check: str | None = None  # "full" | "partial" | "unavailable" for violations


def _instance_text(kind: str, instance) -> str:
    if kind == GRAPH:
        return encode_graph6(instance)
    if kind == PAIR:
        return f"{encode_graph6(instance[0])},{encode_graph6(instance[1])}"
    return instance.to_text()


def _check_instance(claim: Claim, instance) -> None:
    kind = claim.instance_kind
    if kind == GRAPH and isinstance(instance, Graph):
        return
    if (
        kind == PAIR
        and isinstance(instance, (tuple, list))
        and len(instance) == 2
        and all(isinstance(x, Graph) for x in instance)
    ):
        return
    if kind == FAMILY and isinstance(instance, FamilySpec):
        return
    raise InstanceKindMismatch(f"claim {claim.id} expects a {kind} instance")


def _verify_violation(claim: Claim, instance, ev: _Eval, mode: str) -> str:
    """Re-check a violation with the oracles; raise if they disagree."""
    try:
        oracle_ev = claim.evaluate(instance, _OracleToolkit(), mode)
    except TooLargeForOracle:
        oracle_ev = None
    if oracle_ev is not None:
        if (
            not oracle_ev.applicable
            or oracle_ev.holds
            or oracle_ev.lhs != ev.lhs
            or oracle_ev.rhs != ev.rhs
        ):
            raise InternalAuditError(
                f"{claim.id} violation failed oracle re-verification at "
                f"{_instance_text(claim.instance_kind, instance)}: solver said "
                f"lhs={ev.lhs} rhs={ev.rhs}, oracle said "
                f"applicable={oracle_ev.applicable} holds={oracle_ev.holds} "
                f"lhs={oracle_ev.lhs} rhs={oracle_ev.rhs}"
            )
        return "full"
    checked = 0
    for g6, expected in (ev.cert or {}).get("gamma_i_checks", []):
        g = decode_graph6(g6)
        if g.order <= solver.ORACLE_MAX_ORDER:
            got = solver.oracle_gamma_i(g)
            if got != expected:
                raise InternalAuditError(
                    f"{claim.id} certificate failed oracle re-verification: "
                    f"gamma_i({g6}) = {got}, certificate says {expected}"
                )
            checked += 1
    return "partial" if checked else "unavailable"


def _evaluate(claim: Claim, instance, text: str, mode: str, kit: _Toolkit) -> ClaimOutcome:
    ev = claim.evaluate(instance, kit, mode)
    if not ev.applicable:
        return ClaimOutcome(claim.id, text, INAPPLICABLE)
    if ev.holds:
        return ClaimOutcome(claim.id, text, HOLDS, ev.lhs, ev.rhs)
    oracle = _verify_violation(claim, instance, ev, mode)
    return ClaimOutcome(claim.id, text, VIOLATED, ev.lhs, ev.rhs, ev.cert, oracle)


def evaluate_claim(claim_id: str, instance, mode: str = STRICT) -> ClaimOutcome:
    """Evaluate one claim on one instance; violations come back oracle-checked."""
    claim = get_claim(claim_id)
    _check_instance(claim, instance)
    if mode not in (STRICT, RESTRICTED):
        raise ValueError(f"mode must be {STRICT!r} or {RESTRICTED!r}")
    text = _instance_text(claim.instance_kind, instance)
    return _evaluate(claim, instance, text, mode, _Toolkit())


# ---------------------------------------------------------------------------
# Corpora.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExhaustiveCorpus:
    """All labeled graphs of order 1..n_max (n_max <= 7)."""

    n_max: int

    def kind(self) -> str:
        return GRAPH

    def describe(self) -> str:
        return f"all labeled graphs of order 1..{self.n_max}"

    def instances(self) -> Iterator[tuple[str, Graph]]:
        if not 1 <= self.n_max <= MAX_ENUMERATION_ORDER:
            raise CorpusTooLarge(
                f"exhaustive corpora need 1 <= n_max <= {MAX_ENUMERATION_ORDER}, got {self.n_max}"
            )
        for n in range(1, self.n_max + 1):
            for g in enumerate_labeled_graphs(n):
                yield encode_graph6(g), g


@dataclass(frozen=True)
class Graph6Corpus:
    """Graphs supplied as graph6 lines (for externally generated corpora)."""

    graphs: tuple[str, ...]
    label: str = "graph6 corpus"

    @classmethod
    def from_file(cls, path: str | Path) -> "Graph6Corpus":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise BadCorpusSource(f"cannot read corpus {path}: {exc}") from None
        lines = tuple(ln.strip() for ln in text.splitlines() if ln.strip())
        if not lines:
            raise BadCorpusSource(f"corpus {path} holds no graphs")
        for ln in lines:
            decode_graph6(ln)  # fail fast on malformed input
        return cls(lines, label=f"graph6 file {path}")

    def kind(self) -> str:
        return GRAPH

    def describe(self) -> str:
        return f"{self.label} ({len(self.graphs)} graphs)"

    def instances(self) -> Iterator[tuple[str, Graph]]:
        """Each line as given (a ``>>graph6<<`` header or a long order prefix
        stays in the report) with its decoded graph."""
        return ((text, decode_graph6(text)) for text in self.graphs)


@dataclass(frozen=True)
class PairCorpus:
    """All ordered pairs over a base corpus; operands capped at order 4."""

    base: ExhaustiveCorpus | Graph6Corpus

    def kind(self) -> str:
        return PAIR

    def describe(self) -> str:
        return f"ordered pairs over {self.base.describe()}"

    def instances(self) -> Iterator[tuple[str, tuple[Graph, Graph]]]:
        base = list(self.base.instances())
        if any(g.order > MAX_PAIR_OPERAND_ORDER for _, g in base):
            raise CorpusTooLarge(
                f"pair corpora cap operands at order {MAX_PAIR_OPERAND_ORDER}"
            )
        for a, ga in base:
            for b, gb in base:
                yield f"{a},{b}", (ga, gb)


@dataclass(frozen=True)
class FamilyCorpus:
    """Family specs to feed the family-parameter claims (C1, C3, C4, C23-C25)."""

    specs: tuple[FamilySpec, ...]
    label: str = "family parameter grid"

    @classmethod
    def default_grid(cls, max_param: int) -> "FamilyCorpus":
        """Paths, cycles, stars, double stars, K_{m,n}, flowers and books with
        every parameter up to ``max_param`` (order-capped)."""
        if max_param < 1:
            raise BadCorpusSource("family grids need max_param >= 1")
        specs: list[FamilySpec] = []
        specs += [FamilySpec("path", (n,)) for n in range(1, max_param + 1)]
        specs += [FamilySpec("cycle", (n,)) for n in range(3, max_param + 1)]
        specs += [FamilySpec("star", (m,)) for m in range(1, max_param + 1)]
        specs += [
            FamilySpec("double_star", (a, b))
            for a in range(1, max_param + 1)
            for b in range(a, max_param + 1)
            if a + b + 2 <= 64
        ]
        specs += [
            FamilySpec("complete_bipartite", (m, n))
            for n in range(1, max_param + 1)
            for m in range(n, max_param + 1)
            if m + n <= 64
        ]
        specs += [
            FamilySpec("friendship", (n,))
            for n in range(1, max_param + 1)
            if 2 * n + 1 <= 64
        ]
        specs += [
            FamilySpec("gen_friendship", (q, n))
            for q in range(3, max_param + 1)
            for n in range(1, max_param + 1)
            if n * (q - 1) + 1 <= 64
        ]
        specs += [FamilySpec("book", (n,)) for n in range(2, max_param + 1) if 2 * n + 2 <= 64]
        return cls(tuple(specs), label=f"family grid up to parameter {max_param}")

    def kind(self) -> str:
        return FAMILY

    def describe(self) -> str:
        return f"{self.label} ({len(self.specs)} specs)"

    def instances(self) -> Iterator[tuple[str, FamilySpec]]:
        return ((spec.to_text(), spec) for spec in self.specs)


# Every corpus yields ``(text, instance)`` pairs from ``instances()``: the
# text is the report's ``instance`` string, the instance is decoded once.
Corpus = ExhaustiveCorpus | Graph6Corpus | PairCorpus | FamilyCorpus


# ---------------------------------------------------------------------------
# The audit runner and its report.
# ---------------------------------------------------------------------------


@dataclass
class AuditReport:
    mode: str
    corpus: str
    claims: list[dict] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def violation_count(self) -> int:
        return sum(block["counts"][VIOLATED] for block in self.claims)

    def to_json(self) -> str:
        doc = {
            "schema_version": 1,
            "mode": self.mode,
            "corpus": self.corpus,
            "claims": self.claims,
            "stats": self.stats,
        }
        return json.dumps(doc, indent=2)


def _claim_sort_key(cid: str) -> int:
    return int(cid[1:])


def _resolve_threads(threads: int | None) -> int:
    if threads is not None:
        if threads < 1:
            raise ValueError(f"threads must be a positive integer, got {threads}")
        return threads
    env = os.environ.get("IDSTAB_THREADS", "").strip()
    if not env:
        return os.cpu_count() or 1
    if not env.isdigit() or int(env) < 1:
        raise BadThreadCount(f"IDSTAB_THREADS must be a positive integer, got {env!r}")
    return int(env)


def _outcome_to_violation(outcome: ClaimOutcome) -> dict:
    return {
        "instance": outcome.instance,
        "lhs": outcome.lhs_value,
        "rhs": outcome.rhs_value,
        "witness": outcome.certificate,
        "oracle": outcome.oracle_check,
    }


def _audit_chunk(args: tuple[list[str], Iterable[tuple[str, object]], str]):
    claim_ids, items, mode = args
    claims = [get_claim(cid) for cid in claim_ids]
    kit = _Toolkit()
    counts = {cid: [0, 0, 0] for cid in claim_ids}  # holds, violated, inapplicable
    violations: list[tuple[str, dict]] = []
    oracle_stats = {"full": 0, "partial": 0, "unavailable": 0}
    for text, instance in items:
        for claim in claims:
            outcome = _evaluate(claim, instance, text, mode, kit)
            if outcome.status == HOLDS:
                counts[claim.id][0] += 1
            elif outcome.status == VIOLATED:
                counts[claim.id][1] += 1
                violations.append((claim.id, _outcome_to_violation(outcome)))
                oracle_stats[outcome.oracle_check] += 1
            else:
                counts[claim.id][2] += 1
    return counts, violations, oracle_stats


def _chunked(items: Iterable, size: int) -> Iterator[tuple]:
    chunk: list = []
    for item in items:
        chunk.append(item)
        if len(chunk) == size:
            yield tuple(chunk)
            chunk = []
    if chunk:
        yield tuple(chunk)


def run_audit(
    claim_ids: Iterable[str],
    corpus: Corpus,
    mode: str = STRICT,
    threads: int | None = None,
) -> AuditReport:
    """Evaluate claims over a corpus and assemble a deterministic report.

    Claims must match the corpus kind (graph claims need an exhaustive or
    graph6 corpus, C17-C22 need pairs, the family claims need a family grid).
    ``threads`` defaults to ``IDSTAB_THREADS`` or the available parallelism.
    One worker audits the whole corpus in-process with one solver cache;
    more workers audit chunks of 256 instances in a process pool.  Either
    way the parts are folded into one report, identical for any worker
    count.  Each violation's ``instance`` is the corpus line as given.

    Raises ``ValueError`` for a ``threads`` or ``mode`` out of range and
    ``BadThreadCount`` when ``IDSTAB_THREADS`` is set but is not a positive
    integer.
    """
    ids = [get_claim(cid).id for cid in claim_ids]
    if not ids:
        raise BadCorpusSource("no claims requested")
    ids = sorted(dict.fromkeys(ids), key=_claim_sort_key)
    if mode not in (STRICT, RESTRICTED):
        raise ValueError(f"mode must be {STRICT!r} or {RESTRICTED!r}")
    kind = corpus.kind()
    for cid in ids:
        claim = get_claim(cid)
        if claim.instance_kind != kind:
            raise BadCorpusSource(
                f"claim {cid} needs a {claim.instance_kind} corpus, got a {kind} corpus"
            )

    threads = _resolve_threads(threads)
    if threads == 1:
        parts = [_audit_chunk((ids, corpus.instances(), mode))]
    else:
        jobs = ((ids, chunk, mode) for chunk in _chunked(corpus.instances(), 256))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_audit_chunk, jobs))

    counts = {cid: [0, 0, 0] for cid in ids}
    violations: list[tuple[str, dict]] = []
    oracle_stats = {"full": 0, "partial": 0, "unavailable": 0}
    for part_counts, part_violations, part_oracle in parts:
        for cid, (h, v, i) in part_counts.items():
            counts[cid][0] += h
            counts[cid][1] += v
            counts[cid][2] += i
        violations.extend(part_violations)
        for key, val in part_oracle.items():
            oracle_stats[key] += val

    violations.sort(key=lambda item: (_claim_sort_key(item[0]), item[1]["instance"]))

    blocks = []
    for cid in ids:
        claim = get_claim(cid)
        h, v, i = counts[cid]
        blocks.append(
            {
                "claim": cid,
                "statement": claim.statement,
                "restricted_note": claim.restricted_note,
                "counts": {HOLDS: h, VIOLATED: v, INAPPLICABLE: i},
                "violations": [viol for c, viol in violations if c == cid],
            }
        )

    stats = {
        "instances": sum(counts[ids[0]]),
        "evaluations": sum(sum(counts[cid]) for cid in ids),
        "oracle_full": oracle_stats["full"],
        "oracle_partial": oracle_stats["partial"],
        "oracle_unavailable": oracle_stats["unavailable"],
    }
    return AuditReport(mode=mode, corpus=corpus.describe(), claims=blocks, stats=stats)
