"""Claim registry and corpus auditor.

The registry holds 26 checkable claims (C1..C26) about gamma_i and its
vertex-removal stability: closed forms for families, upper bounds, a
Nordhaus-Gaddum pair, and identities for the join, lexicographic product
and corona.  Each claim applies to one instance kind: a single graph, an
ordered pair of graphs, or a family spec.

A claim is declared once, where it is evaluated: the ``_claim`` decorator
gives its evaluator an id, an instance kind, a statement and an optional
restricted note, and registers it in declaration order.  ``_KINDS`` gives
each instance kind its empty case (the null graph, a pair with an empty
operand), on which no claim applies and no evaluator runs.  Most evaluators
check one of two shapes through a helper: ``_st_claim`` compares st_id of a
graph with a bound or a value, and ``_gi_claim`` compares gamma_i of a graph
with a value; each helper also builds the matching certificate.

Two evaluation modes exist.  ``strict`` applies exactly the stated
hypothesis of each claim; ``restricted`` adds documented guards (see each
claim's ``restricted_note``) so a run can distinguish "false as stated"
from "false in spirit".

``run_audit`` sweeps claims over a corpus in one loop.  Each claim
evaluator returns its two sides and a deferred certificate builder; the
builder runs once, and only for a violated outcome.  ``_verdict`` reads an
evaluation as ``(status, lhs, rhs)`` for the tally, the report and the
re-check: after the sweep every violation is evaluated again on the
uncached definition-direct oracles and must read the same, in-process
unless more than one worker is asked for.  When an instance is too large
for an oracle the certificate's recorded gamma_i facts are re-checked
instead and the outcome is marked "partial".  Any oracle disagreement
aborts the audit with ``InternalAuditError``.  Solver values are memoised
by one helper, ``_memo``, per graph and, for gamma_i and st_id of a graph
of order <= 6, per isomorphism class; each cache is emptied before
it passes ``_MEMO_CAP`` (2^16) entries, so an audit's memory stays bounded
however large its corpus.  Reports are deterministic: for a fixed corpus,
claim set and mode the JSON text is byte-identical across runs and worker
counts.

Graph claims are evaluated once per isomorphism class.  Every graph claim
(C2, C5-C16, C26) is a statement about isomorphism invariants.  Let
p: G -> H be an isomorphism.  It maps the independent dominating sets of G
onto those of H, so gamma_i(G) = gamma_i(H), and likewise for dominating
sets (gamma) and induced stars.  It maps G - S onto a graph isomorphic to
H - p(S), so a removal changes gamma_i in G exactly when its image does in
H, and st_id(G) = st_id(H).  It preserves n, every degree (so delta, Delta,
isolates and completeness), the components, and it is also an isomorphism
of the complements.  C5 takes a minimum over the vertex-deleted subgraphs
G - v, which p matches one for one with those of H.  So a claim's
applicability, its holds / violated status, lhs and rhs are the same for
every labelling of a graph; only a violation's certificate (witness sets and
graph6 texts) depends on the labels.

Pair claims (C17-C22) go by the classes of their operands in the same way.
Let p1: G1 -> H1 and p2: G2 -> H2 be isomorphisms.  Then p1 and p2
together are an isomorphism of the joins G1 + G2 -> H1 + H2; (a, x) |->
(p1 a, p2 x) is one of the lexicographic products G1[G2] -> H1[H2]; and p1
on G1, with p2 sending the copy of G2 at a to the copy of H2 at p1 a, is one
of the coronas G1 o G2 -> H1 o H2.  So gamma_i and st_id of the product,
the left sides, are the same for every labelling of the operands, by the
argument above.  The right sides read only gamma_i, st_id and |V(G1)| of
the operands, which are invariants too.

So ``_audit`` runs every claim on the first member of each class: a graph
of order <= ``_CLASS_MAX_ORDER`` (7), keyed by ``_class_key`` from its edge
mask alone, or a pair, keyed by its operands' class keys.  Family specs and
larger graphs are evaluated one by one.  Its docstring gives the details,
and says which violations share an oracle re-check.
"""

from __future__ import annotations

import functools
import json
from array import array
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from operator import eq, le
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

from . import oracles, solver, stability
from .codec import decode_graph6, encode_graph6, graph6_edge_mask, graph6_lines, read_text
from .core import (
    MAX_ORDER,
    Graph,
    VertexSet,
    complement,
    components,
    degree_stats,
    delete_vertices,
    edge_mask,
    mask_graph,
    upper_triangle_pairs,
)
from .errors import (
    BadCorpusSource,
    CorpusTooLarge,
    InternalAuditError,
    TooLargeForOracle,
    UnknownClaim,
)
from .families import FamilySpec, family_order, generate
from .ops import corona, join, lexicographic

GRAPH, PAIR, FAMILY = "graph", "pair", "family"
STRICT, RESTRICTED = "strict", "restricted"
HOLDS, VIOLATED, INAPPLICABLE = "holds", "violated", "inapplicable"

MAX_ENUMERATION_ORDER = 7
MAX_PAIR_OPERAND_ORDER = 4


def enumerate_labeled_graphs(n: int) -> Iterator[Graph]:
    """All 2^(n(n-1)/2) labeled graphs on n vertices, in the order of their
    ``core.edge_mask``: the members of order n of ``ExhaustiveCorpus(n)``."""
    return (mask_graph(n, mask) for _, order, mask in ExhaustiveCorpus(n).masks() if order == n)


# ---------------------------------------------------------------------------
# Toolkits: the exact solvers (cached) and the independent oracles.
# ---------------------------------------------------------------------------


_MEMO_CAP = 1 << 16
_MEMO_CLASS_MAX_ORDER = 6


def _memo(cache: dict, g: Graph, compute: Callable[[Graph], object], by_class: bool = False):
    """``cache[g.adj]``, computed as ``compute(g)`` on a miss (only
    ``_Toolkit`` memoises).  With *by_class*, a miss on a graph of order <=
    ``_MEMO_CLASS_MAX_ORDER`` (6) is looked up next by its isomorphism class,
    ``("class", n, least mask)`` from ``_class_key``, and the value is stored
    under both keys.  The tag keeps the two kinds of key apart: the null
    graph's bare class key (0, 0) is 2K_1's ``adj``.  The order bound keeps
    the 8 MiB order-7 class table out of every audit that meets no order-7
    instance.  A cache with no room for the new keys is emptied first."""
    got = cache.get(g.adj)
    if got is None:
        keys = [g.adj]
        if by_class and g.order <= _MEMO_CLASS_MAX_ORDER:
            keys.append(("class", *_class_key(g.order, edge_mask(g))))
            got = cache.get(keys[1])
        if got is None:
            got = compute(g)
        if len(cache) + len(keys) > _MEMO_CAP:
            cache.clear()
        for key in keys:
            cache[key] = got
    return got


class _Toolkit:
    """Invariant evaluators backed by the branch-and-bound solvers.

    gamma_i, gamma and stability values are cached for one audit, whatever
    its worker count.  That is what makes complement- and deletion-heavy
    claims like C5 and C16 cheap over exhaustive corpora.  Each cache goes
    through ``_memo``, so it holds at most ``_MEMO_CAP`` entries and is keyed
    by ``g.adj``, which alone names the graph (``Graph`` validates
    ``len(adj) == order``) and skips the dataclass ``__hash__`` and
    ``__eq__``.  gamma_i and st_id of a graph of order <= 6 are also cached
    by its class, so every labelling of a small G - v or complement after
    the first is a lookup.  gamma (asked only of an instance, one per class)
    and the stability certificate (its witness depends on the labels) are
    cached by ``adj`` alone.  ``max_star`` is not cached: its one reader,
    C7, asks once per instance, so a cache would never hit.
    """

    def __init__(self) -> None:
        self._gi: dict[tuple, int] = {}
        self._st: dict[tuple[int, ...], stability.StabilityCertificate] = {}
        self._st_value: dict[tuple, int] = {}
        self._dom: dict[tuple, int] = {}

    def gamma_i(self, g: Graph) -> int:
        return _memo(self._gi, g, solver.gamma_i_value, True)

    def st_cert(self, g: Graph) -> stability.StabilityCertificate:
        return _memo(self._st, g, stability.stability)

    def st_any(self, g: Graph) -> int:
        return _memo(self._st_value, g, lambda h: self.st_cert(h).value, True)

    def gamma(self, g: Graph) -> int:
        return _memo(self._dom, g, solver.gamma_value)

    def max_star(self, g: Graph) -> int:
        return solver.max_induced_star(g)


class _OracleToolkit:
    """The same evaluators, rebuilt on the definition-direct oracles and
    uncached: a stability memo here hit 12 of 316 lookups over the pairs of
    order <= 3 and none over the graphs of order <= 6."""

    def gamma_i(self, g: Graph) -> int:
        return oracles.oracle_gamma_i(g)

    def st_any(self, g: Graph) -> int:
        return oracles.oracle_stability(g)[0]

    def gamma(self, g: Graph) -> int:
        return oracles._oracle_gamma(g)

    def max_star(self, g: Graph) -> int:
        return oracles._brute_max_star(g)


# ---------------------------------------------------------------------------
# Claims, each declared by ``_claim`` on its evaluator.
# ---------------------------------------------------------------------------


@dataclass
class _Eval:
    applicable: bool
    holds: bool = True
    lhs: object = None
    rhs: object = None
    cert: Callable[[], dict] | None = None  # builds the violation certificate


_NA = _Eval(False)


# Is an instance of the kind empty, so that no claim of the kind applies?  The
# claims speak of graphs with vertices, whose gamma_i-sets and removal sets
# are non-empty, so none applies to the null graph or to a pair with an empty
# operand.
_KINDS: dict[str, Callable[[object], bool]] = {
    GRAPH: lambda g: g.order == 0,
    PAIR: lambda p: p[0].order == 0 or p[1].order == 0,
    FAMILY: lambda s: False,
}


@dataclass(frozen=True)
class Claim:
    id: str
    statement: str
    instance_kind: str
    evaluate: Callable
    restricted_note: str = ""


_REGISTRY: dict[str, Claim] = {}


def _claim(cid: str, kind: str, statement: str, restricted_note: str = ""):
    """Register the decorated evaluator as claim ``cid``, in declaration order.

    An evaluator takes ``(instance, kit, mode)`` and returns an ``_Eval``.
    The registered claim reads ``_NA`` on an empty instance of its kind (see
    ``_KINDS``) without calling the evaluator, which never sees one.
    """
    empty = _KINDS[kind]

    def register(evaluate: Callable) -> Callable:
        def guarded(instance, kit, mode: str) -> _Eval:
            return _NA if empty(instance) else evaluate(instance, kit, mode)

        _REGISTRY[cid] = Claim(cid, statement, kind, guarded, restricted_note)
        return evaluate

    return register


def _is_isolate_free(g: Graph) -> bool:
    return all(g.adj)


def _st_payload(kit, g: Graph, **extra) -> dict:
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
    payload.update(extra)
    return payload


def _gi_payload(g: Graph, label: str = "graph") -> dict:
    cert = solver.gamma_i(g)
    return {
        f"{label}_gamma_i_witness": list(cert.witness.members()),
        "gamma_i_checks": [[encode_graph6(g), cert.value]],
    }


def _st_claim(kit, g: Graph, holds: Callable[[int, float], bool], rhs: float, **extra) -> _Eval:
    """The st shape: ``holds(st_id(g), rhs)``, with ``le`` for a bound, ``eq``
    for a value or the claim's own relation; ``extra`` goes into the
    certificate."""
    lhs = kit.st_any(g)
    return _Eval(True, holds(lhs, rhs), lhs, rhs, lambda: _st_payload(kit, g, **extra))


def _gi_claim(kit, g: Graph, rhs: int, label: str = "graph") -> _Eval:
    """The gamma_i shape: gamma_i(g) == rhs."""
    lhs = kit.gamma_i(g)
    return _Eval(True, lhs == rhs, lhs, rhs, lambda: _gi_payload(g, label))


@_claim("C1", FAMILY, "gamma_i(P_n) = gamma_i(C_n) = floor((n+2)/3)")
def _c1(spec: FamilySpec, kit, mode: str) -> _Eval:
    if spec.kind not in ("path", "cycle"):
        return _NA
    return _gi_claim(kit, generate(spec), (spec.params[0] + 2) // 3)


@_claim("C2", GRAPH, "st_id(G) <= delta(G) + 1 for every graph G")
def _c2(g: Graph, kit, mode: str) -> _Eval:
    return _st_claim(kit, g, le, degree_stats(g).min_degree + 1)


@_claim("C3", FAMILY, "st_id(P_n) = 2 when n = 2 (mod 3), else 1")
def _c3(spec: FamilySpec, kit, mode: str) -> _Eval:
    if spec.kind != "path":
        return _NA
    return _st_claim(kit, generate(spec), eq, 2 if spec.params[0] % 3 == 2 else 1)


@_claim("C4", FAMILY, "st_id(C_n) = 3 / 2 / 1 when n = 0 / 2 / 1 (mod 3)")
def _c4(spec: FamilySpec, kit, mode: str) -> _Eval:
    if spec.kind != "cycle":
        return _NA
    return _st_claim(kit, generate(spec), eq, (3, 1, 2)[spec.params[0] % 3])


@_claim("C5", GRAPH, "st_id(G) <= st_id(G - v) + 1 for every vertex v")
def _c5(g: Graph, kit, mode: str) -> _Eval:
    if g.order < 2:
        return _NA
    lhs = kit.st_any(g)
    per_vertex = []
    for v in range(g.order):
        sub, _ = delete_vertices(g, VertexSet(1 << v))
        per_vertex.append(kit.st_any(sub))
    rhs = min(per_vertex) + 1

    def cert() -> dict:
        bad = per_vertex.index(min(per_vertex))
        return _st_payload(kit, g, deleted_vertex=bad, st_after_deletion=per_vertex[bad])

    return _Eval(True, lhs <= rhs, lhs, rhs, cert)


@_claim("C6", GRAPH, "st_id(G) <= n - 1 for non-complete G of order n >= 2")
def _c6(g: Graph, kit, mode: str) -> _Eval:
    if g.order < 2 or g.is_complete():
        return _NA
    return _st_claim(kit, g, le, g.order - 1)


@_claim(
    "C7",
    GRAPH,
    "st_id(G) <= n - t for non-complete G of order n >= 2 with an induced star"
    " K_{1,t}, t >= 3 (checked at the largest such t)",
)
def _c7(g: Graph, kit, mode: str) -> _Eval:
    if g.order < 2 or g.is_complete():
        return _NA
    t = kit.max_star(g)
    if t < 3:
        return _NA
    return _st_claim(kit, g, le, g.order - t, induced_star=t)


@_claim("C8", GRAPH, "st_id(G) <= n - Delta(G) for non-complete G of order n >= 2")
def _c8(g: Graph, kit, mode: str) -> _Eval:
    if g.order < 2 or g.is_complete():
        return _NA
    return _st_claim(kit, g, le, g.order - degree_stats(g).max_degree)


@_claim("C9", GRAPH, "st_id(G) <= n + 1 - 2 gamma_i(G)", "adds: G is isolate-free")
def _c9(g: Graph, kit, mode: str) -> _Eval:
    if mode == RESTRICTED and not _is_isolate_free(g):
        return _NA
    gi = kit.gamma_i(g)
    return _st_claim(kit, g, le, g.order + 1 - 2 * gi, gamma_i=gi)


@_claim(
    "C10",
    GRAPH,
    "if st_id(G) = n - 1 for G of order n >= 2 then gamma_i(G) = 1",
    "adds: G is isolate-free",
)
def _c10(g: Graph, kit, mode: str) -> _Eval:
    if g.order < 2 or (mode == RESTRICTED and not _is_isolate_free(g)):
        return _NA
    if kit.st_any(g) != g.order - 1:
        return _NA
    lhs = kit.gamma_i(g)

    def cert() -> dict:
        payload = _st_payload(kit, g)
        payload["gamma_i_checks"].append([encode_graph6(g), lhs])
        return payload

    return _Eval(True, lhs == 1, lhs, 1, cert)


@_claim("C11", GRAPH, "st_id(G) <= n / gamma_i(G) when gamma_i(G) >= 2")
def _c11(g: Graph, kit, mode: str) -> _Eval:
    gi = kit.gamma_i(g)
    if gi < 2:
        return _NA
    return _st_claim(kit, g, le, g.order / gi, gamma_i=gi)


@_claim("C12", GRAPH, "gamma_i(G) <= n + 2 - gamma(G) - ceil(n / gamma(G)) for isolate-free G")
def _c12(g: Graph, kit, mode: str) -> _Eval:
    if not _is_isolate_free(g):
        return _NA
    dom = kit.gamma(g)
    lhs = kit.gamma_i(g)
    rhs = g.order + 2 - dom - -(-g.order // dom)
    return _Eval(True, lhs <= rhs, lhs, rhs, lambda: {**_gi_payload(g), "gamma": dom})


@_claim("C13", GRAPH, "gamma(G) <= n / 2 for connected G of order n >= 2")
def _c13(g: Graph, kit, mode: str) -> _Eval:
    if g.order < 2 or len(components(g)) != 1:
        return _NA
    lhs = kit.gamma(g)
    ok = 2 * lhs <= g.order
    rhs = g.order / 2
    return _Eval(
        True, ok, lhs, rhs, lambda: {"gamma_witness": list(solver.gamma(g).witness.members())}
    )


@_claim(
    "C14",
    GRAPH,
    "no isolate-free G with gamma_i(G) >= 2 has st_id(G) = n - k for any"
    " 2 <= k <= gamma_i(G)",
)
def _c14(g: Graph, kit, mode: str) -> _Eval:
    if not _is_isolate_free(g):
        return _NA
    gi = kit.gamma_i(g)
    if gi < 2:
        return _NA
    st = kit.st_any(g)
    lo, hi = g.order - gi, g.order - 2
    ok = not (lo <= st <= hi)
    return _Eval(
        True, ok, st, [lo, hi], lambda: _st_payload(kit, g, gamma_i=gi, matched_k=g.order - st)
    )


@_claim("C15", GRAPH, "st_id(G) <= min(delta(G) + 1, n - delta(G) - 1) when gamma_i(G) >= 2")
def _c15(g: Graph, kit, mode: str) -> _Eval:
    gi = kit.gamma_i(g)
    if gi < 2:
        return _NA
    d = degree_stats(g).min_degree
    return _st_claim(kit, g, le, min(d + 1, g.order - d - 1), gamma_i=gi)


@_claim(
    "C16",
    GRAPH,
    "st_id(G) + st_id(complement(G)) <= n + 1 if gamma_i of either is 1,"
    " else <= n (n even) or n - 1 (n odd)",
)
def _c16(g: Graph, kit, mode: str) -> _Eval:
    cg = complement(g)
    gi, gic = kit.gamma_i(g), kit.gamma_i(cg)
    lhs = kit.st_any(g) + kit.st_any(cg)
    if gi == 1 or gic == 1:
        rhs = g.order + 1
    else:
        rhs = g.order if g.order % 2 == 0 else g.order - 1

    def cert() -> dict:
        payload, copayload = _st_payload(kit, g), _st_payload(kit, cg)
        payload["complement_st_witness"] = copayload["st_witness"]
        payload["gamma_i_checks"] += copayload["gamma_i_checks"]
        return payload

    return _Eval(True, lhs <= rhs, lhs, rhs, cert)


@_claim("C17", PAIR, "gamma_i(G1 + G2) = min(gamma_i(G1), gamma_i(G2)) for nonempty operands")
def _c17(pair, kit, mode: str) -> _Eval:
    g1, g2 = pair
    return _gi_claim(kit, join(g1, g2), min(kit.gamma_i(g1), kit.gamma_i(g2)), "join")


@_claim("C18", PAIR, "st_id(G1 + G2) = min(st_id(G1), st_id(G2)) for nonempty operands")
def _c18(pair, kit, mode: str) -> _Eval:
    g1, g2 = pair
    return _st_claim(kit, join(g1, g2), eq, min(kit.st_any(g1), kit.st_any(g2)))


@_claim("C19", PAIR, "gamma_i(G[H]) = gamma_i(G) * gamma_i(H)")
def _c19(pair, kit, mode: str) -> _Eval:
    g1, g2 = pair
    return _gi_claim(kit, lexicographic(g1, g2), kit.gamma_i(g1) * kit.gamma_i(g2), "product")


@_claim("C20", PAIR, "st_id(G[H]) = min(st_id(G), st_id(H))")
def _c20(pair, kit, mode: str) -> _Eval:
    g1, g2 = pair
    return _st_claim(kit, lexicographic(g1, g2), eq, min(kit.st_any(g1), kit.st_any(g2)))


@_claim("C21", PAIR, "gamma_i(G o H) = |V(G)| * gamma_i(H) (corona)")
def _c21(pair, kit, mode: str) -> _Eval:
    g1, g2 = pair
    return _gi_claim(kit, corona(g1, g2), g1.order * kit.gamma_i(g2), "corona")


@_claim("C22", PAIR, "st_id(G o H) = 1 (corona)")
def _c22(pair, kit, mode: str) -> _Eval:
    g1, g2 = pair
    return _st_claim(kit, corona(g1, g2), eq, 1)


@_claim(
    "C23",
    FAMILY,
    "st_id = 1 for stars, double stars, and K_{m,n} with m >= n >= 2",
    "adds: stars need at least 2 leaves",
)
def _c23(spec: FamilySpec, kit, mode: str) -> _Eval:
    if spec.kind == "star":
        if mode == RESTRICTED and spec.params[0] < 2:
            return _NA
    elif spec.kind == "complete_bipartite":
        if min(spec.params) < 2:
            return _NA
    elif spec.kind != "double_star":
        return _NA
    return _st_claim(kit, generate(spec), eq, 1)


@_claim(
    "C24",
    FAMILY,
    "gamma_i(F_n) = 1; gamma_i(F_{q,n}) = n + 1 for q in {4,5,6}; gamma_i(B_n) = n",
)
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
    return _gi_claim(kit, generate(spec), rhs)


@_claim(
    "C25",
    FAMILY,
    "st_id(F_n) = 1; st_id(F_{q,n}) = 1 for q >= 3; st_id(B_n) = 2",
    "adds: at least 2 petals",
)
def _c25(spec: FamilySpec, kit, mode: str) -> _Eval:
    if spec.kind in ("friendship", "gen_friendship"):
        if mode == RESTRICTED and spec.params[-1] < 2:
            return _NA
        rhs = 1
    elif spec.kind == "book":
        rhs = 2
    else:
        return _NA
    return _st_claim(kit, generate(spec), eq, rhs)


@_claim("C26", GRAPH, "st_id(G) = n exactly when G is complete")
def _c26(g: Graph, kit, mode: str) -> _Eval:
    complete = g.is_complete()
    return _st_claim(kit, g, lambda st, n: (st == n) == complete, g.order, complete=complete)


def get_claim(claim_id: str) -> Claim:
    claim = _REGISTRY.get(claim_id.upper()) if isinstance(claim_id, str) else None
    if claim is None:
        raise UnknownClaim(f"no claim {claim_id!r}; known ids are C1..C26")
    return claim


def claim_registry() -> tuple[Claim, ...]:
    return tuple(_REGISTRY.values())


# ---------------------------------------------------------------------------
# Oracle re-verification.
# ---------------------------------------------------------------------------


def _verify_violation(claim: Claim, text: str, instance, lhs, rhs, cert: dict, mode: str) -> str:
    """"full" if the claim's ``_verdict`` on ``_OracleToolkit`` is the
    solvers' ``(VIOLATED, lhs, rhs)``; past an oracle's cap, "partial" or
    "unavailable" as the certificate's gamma_i facts can be re-checked or
    not.  Raises ``InternalAuditError`` if an oracle disagrees, naming the
    instance by *text*, its report string."""
    try:
        read = _verdict(claim.evaluate(instance, _OracleToolkit(), mode))
    except TooLargeForOracle:
        read = None
    if read == (VIOLATED, lhs, rhs):
        return "full"
    if read is not None:
        raise InternalAuditError(
            f"{claim.id} violation failed oracle re-verification at {text}: "
            f"the solvers read {(VIOLATED, lhs, rhs)}, the oracles read {read}"
        )
    checked = 0
    for g6, expected in cert.get("gamma_i_checks", []):
        try:
            got = oracles.oracle_gamma_i(decode_graph6(g6))
        except TooLargeForOracle:
            continue
        if got != expected:
            raise InternalAuditError(
                f"{claim.id} certificate failed oracle re-verification: "
                f"gamma_i({g6}) = {got}, certificate says {expected}"
            )
        checked += 1
    return "partial" if checked else "unavailable"


def _recheck(job: tuple) -> str:
    """``_verify_violation`` of one job ``(claim id, text, instance, lhs,
    rhs, certificate, mode)``; module-level, so a process pool can run it."""
    cid, *args = job
    return _verify_violation(get_claim(cid), *args)


def _verdict(ev: _Eval) -> tuple[str, object, object]:
    """``(status, lhs, rhs)`` of an evaluation, as the tally, the report and
    the re-check read it; every reader of an evaluation reads it here.  An
    inapplicable evaluation is ``_NA``, whose sides are None."""
    return (INAPPLICABLE if not ev.applicable else HOLDS if ev.holds else VIOLATED), ev.lhs, ev.rhs


# ---------------------------------------------------------------------------
# Corpora.
# ---------------------------------------------------------------------------


def _is_int_in(value: object, low: int, high: int) -> bool:
    """Is *value* an ``int`` (not a ``bool``) in ``low..high``?"""
    return isinstance(value, int) and not isinstance(value, bool) and low <= value <= high


def _sequence(items: object, kind: type, what: str) -> tuple:
    """*items* as a tuple of *kind* values, or ``BadCorpusSource`` naming
    *what*; a bare string would read one character per item."""
    if isinstance(items, str) or not isinstance(items, Iterable):
        got = "one string" if isinstance(items, str) else repr(items)
        raise BadCorpusSource(f"{what} go in a sequence, not {got}")
    items = tuple(items)  # first: a generator reads once
    if not all(isinstance(item, kind) for item in items):
        raise BadCorpusSource(f"{what} must each be a {kind.__name__}")
    return items


class _Corpus:
    """A corpus.  ``_members()`` yields one ``(class key, text, payload)``
    per member, in corpus order.  The text is the report's ``instance``
    string, or None for a graph that is named once it is built.  The key
    names the member's isomorphism class (see ``_audit``), or is None for a
    member that is evaluated and tallied on its own.  ``_instance(text,
    payload)`` builds the member as ``(text, instance)``, and ``instances()``
    yields every member so built."""

    def instances(self) -> Iterator[tuple[str, object]]:
        return (self._instance(text, payload) for _, text, payload in self._members())

    def _instance(self, text: str, payload: object) -> tuple[str, object]:
        return text, payload


class _GraphCorpus(_Corpus):
    """A graph corpus: its members are its ``masks()``, keyed by
    ``_class_key`` up to order ``_CLASS_MAX_ORDER``, and built only where a
    claim needs a graph."""

    def kind(self) -> str:
        return GRAPH

    @staticmethod
    def _instance(text: str | None, payload: tuple[int, int]) -> tuple[str, Graph]:
        """A member whose payload is its ``(order, edge mask)``: its line
        decoded, or with no line its graph built from the mask and named."""
        if text is None:
            g = mask_graph(*payload)
            return encode_graph6(g), g
        return text, decode_graph6(text)

    def _members(self) -> Iterator[tuple[tuple[int, int] | None, str | None, tuple[int, int]]]:
        for text, n, mask in self.masks():
            yield (_class_key(n, mask) if n <= _CLASS_MAX_ORDER else None), text, (n, mask)


@dataclass(frozen=True)
class ExhaustiveCorpus(_GraphCorpus):
    """All labeled graphs of order 1..n_max (n_max <= 7)."""

    n_max: int

    def __post_init__(self) -> None:
        if not _is_int_in(self.n_max, 1, MAX_ENUMERATION_ORDER):
            raise CorpusTooLarge(
                f"exhaustive corpora need an integer 1 <= n_max <= {MAX_ENUMERATION_ORDER},"
                f" got {self.n_max!r}"
            )

    def describe(self) -> str:
        return f"all labeled graphs of order 1..{self.n_max}"

    def masks(self) -> Iterator[tuple[str | None, int, int]]:
        """``(None, order, edge mask)`` in enumeration order; the text is
        left to be encoded where a graph is built."""
        for n in range(1, self.n_max + 1):
            for mask in range(1 << (n * (n - 1) // 2)):
                yield None, n, mask


@dataclass(frozen=True)
class Graph6Corpus(_GraphCorpus):
    """Graphs supplied as graph6 lines (for externally generated corpora).
    Each line is checked and read once, when the corpus is built, by
    ``graph6_edge_mask``: a malformed line fails here, however the corpus is
    built, and no audit reads a line again.  Equality, hash and repr depend
    on ``graphs`` and ``label`` alone."""

    graphs: tuple[str, ...]
    label: str = "graph6 corpus"
    _masks: tuple[tuple[str, int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        graphs = _sequence(self.graphs, str, "graph6 lines")
        object.__setattr__(self, "graphs", graphs)
        object.__setattr__(self, "_masks", tuple((text, *graph6_edge_mask(text)) for text in graphs))

    @classmethod
    def from_file(cls, path: str | Path) -> "Graph6Corpus":
        """The graph6 lines of *path*, checked as every corpus's lines are
        when it is built, so a malformed line fails before any audit work."""
        return cls(graph6_lines(read_text(path), f"corpus {path}"), f"graph6 file {path}")

    def describe(self) -> str:
        return f"{self.label} ({len(self.graphs)} graphs)"

    def masks(self) -> tuple[tuple[str, int, int], ...]:
        """Each line as given (a ``>>graph6<<`` header or a long order prefix
        stays in the report) with its order and edge mask, as read when the
        corpus was built."""
        return self._masks


@dataclass(frozen=True)
class PairCorpus(_Corpus):
    """All ordered pairs over a base corpus; operands capped at order 4.  An
    operand above the cap is refused when the pair corpus is built, at the
    first one that the base's ``masks()`` meets: before any class key is
    looked up or any graph is built."""

    base: ExhaustiveCorpus | Graph6Corpus

    def __post_init__(self) -> None:
        if not isinstance(self.base, _GraphCorpus):
            raise BadCorpusSource(f"pairs need a graph corpus, not a {type(self.base).__name__}")
        if any(n > MAX_PAIR_OPERAND_ORDER for _, n, _ in self.base.masks()):
            raise CorpusTooLarge(f"pair corpora cap operands at order {MAX_PAIR_OPERAND_ORDER}")

    def kind(self) -> str:
        return PAIR

    def describe(self) -> str:
        return f"ordered pairs over {self.base.describe()}"

    def _members(self) -> Iterator[tuple[tuple, str, tuple[Graph, Graph]]]:
        """Each pair as ``"a,b"``, keyed by its operands' class keys.  The
        operands, checked against the cap when the corpus was built, are
        built anew for each audit."""
        base = [
            (_class_key(n, mask), *self.base._instance(text, (n, mask)))
            for text, n, mask in self.base.masks()
        ]
        for ka, a, ga in base:
            for kb, b, gb in base:
                yield (ka, kb), f"{a},{b}", (ga, gb)


@dataclass(frozen=True)
class FamilyCorpus(_Corpus):
    """Family specs to feed the family-parameter claims (C1, C3, C4, C23-C25)."""

    specs: tuple[FamilySpec, ...]
    label: str = "family parameter grid"

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", _sequence(self.specs, FamilySpec, "family specs"))

    @classmethod
    def default_grid(cls, max_param: int) -> "FamilyCorpus":
        """Paths, cycles, stars, double stars, K_{m,n}, flowers and books with
        every parameter up to ``max_param`` (1..64), keeping the specs of
        order at most ``MAX_ORDER``."""
        if not _is_int_in(max_param, 1, MAX_ORDER):
            raise BadCorpusSource(
                f"family grids need an integer 1 <= max_param <= {MAX_ORDER}, got {max_param!r}"
            )
        top = max_param + 1
        candidates = [("path", (n,)) for n in range(1, top)]
        candidates += [("cycle", (n,)) for n in range(3, top)]
        candidates += [("star", (m,)) for m in range(1, top)]
        candidates += [("double_star", (a, b)) for a in range(1, top) for b in range(a, top)]
        candidates += [("complete_bipartite", (m, n)) for n in range(1, top) for m in range(n, top)]
        candidates += [("friendship", (n,)) for n in range(1, top)]
        candidates += [("gen_friendship", (q, n)) for q in range(3, top) for n in range(1, top)]
        candidates += [("book", (n,)) for n in range(2, top)]
        specs = tuple(
            FamilySpec(kind, p) for kind, p in candidates if family_order(kind, p) <= MAX_ORDER
        )
        return cls(specs, label=f"family grid up to parameter {max_param}")

    def kind(self) -> str:
        return FAMILY

    def describe(self) -> str:
        return f"{self.label} ({len(self.specs)} specs)"

    def _members(self) -> Iterator[tuple[None, str, FamilySpec]]:
        return ((None, spec.to_text(), spec) for spec in self.specs)


# ---------------------------------------------------------------------------
# Isomorphism classes of small graphs.
# ---------------------------------------------------------------------------

_CLASS_MAX_ORDER = 7

# Per order n, filled lazily and never at import: the least edge mask of the
# orbit of each of the 2^(n(n-1)/2) masks, -1 until its orbit is first met.
# A pure function of n (four bytes an entry: 128 KiB at n = 6, 8 MiB at
# n = 7), so it is shared by every audit in the process and never grows with
# a corpus.
_CLASS_TABLES: dict[int, array] = {}


@functools.cache
def _swap_tables(n: int) -> list[tuple[list[int], ...]]:
    """For each adjacent transposition (k k+1) of order n, the images of the
    edge bits of the low, middle and high byte of a mask.  Three bytes hold
    the 21 edge bits of order 7, so ``_CLASS_MAX_ORDER`` cannot pass 7
    without a fourth table (and a 2^28-entry class table)."""
    pairs = tuple(upper_triangle_pairs(n))
    bit = {pair: 1 << p for p, pair in enumerate(pairs)}
    tables = []
    for k in range(n - 1):
        swap = {k: k + 1, k + 1: k}
        image = [bit[tuple(sorted((swap.get(i, i), swap.get(j, j))))] for i, j in pairs]
        parts = []
        for low in (0, 8, 16):
            table = [0] * (1 << min(8, max(0, len(pairs) - low)))
            for v in range(1, len(table)):
                top = v.bit_length() - 1
                table[v] = table[v ^ (1 << top)] | image[low + top]
            parts.append(table)
        tables.append(tuple(parts))
    return tables


def _class_key(n: int, mask: int) -> tuple[int, int]:
    """``(n, least edge mask in the orbit of mask)`` for a labeled graph of
    order n <= ``_CLASS_MAX_ORDER`` with edge bits *mask*: two graphs share a
    key exactly when they are isomorphic.  A miss walks the whole orbit
    breadth-first under the n - 1 adjacent transpositions, which generate the
    symmetric group, and records its least mask for every member.  The walk
    marks the members it meets with *mask*, which is already their least
    when the masks are met in increasing order, as an exhaustive corpus
    meets them."""
    table = _CLASS_TABLES.get(n)
    if table is None:
        table = _CLASS_TABLES[n] = array("i", [-1]) * (1 << (n * (n - 1) // 2))
    least = table[mask]
    if least < 0:
        swaps = _swap_tables(n)
        orbit = [mask]
        table[mask] = mask
        for m in orbit:  # grows while it is walked
            for low, mid, high in swaps:
                image = low[m & 255] | mid[m >> 8 & 255] | high[m >> 16]
                if table[image] < 0:
                    table[image] = mask
                    orbit.append(image)
        least = min(orbit)
        if least != mask:
            for m in orbit:
                table[m] = least
    return n, least


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

    def _chunks(self) -> Iterator[str]:
        """The report's one JSON document, encoded piece by piece."""
        document = {
            "schema_version": 1,
            "mode": self.mode,
            "corpus": self.corpus,
            "claims": self.claims,
            "stats": self.stats,
        }
        return json.JSONEncoder(indent=2).iterencode(document)

    def to_json(self) -> str:
        """The report as one JSON string: the pieces ``write`` streams."""
        return "".join(self._chunks())

    def write(self, fh: TextIO) -> None:
        """Write ``to_json()`` and a newline to *fh*, each piece as it is
        encoded, so no copy of the whole text is held."""
        fh.writelines(self._chunks())
        fh.write("\n")


def _resolve_claims(claim_ids: Iterable[str], kind: str) -> list[Claim]:
    """The claims named by *claim_ids*, once each, in registry order: raises
    ``UnknownClaim`` or, for a bare string (read one character per id), no
    sequence, none, or one of another kind, ``BadCorpusSource``."""
    wanted = {get_claim(cid).id for cid in _sequence(claim_ids, object, "claim ids")}
    if not wanted:
        raise BadCorpusSource("no claims requested")
    claims = [claim for cid, claim in _REGISTRY.items() if cid in wanted]
    for claim in claims:
        if claim.instance_kind != kind:
            raise BadCorpusSource(
                f"claim {claim.id} needs a {claim.instance_kind} corpus, got a {kind} corpus"
            )
    return claims


def _audit(claims: list[Claim], corpus: _Corpus, mode: str):
    """A tally of ``(claim id, status)`` per evaluation, the violations in
    the corpus as ``(claim id, violation, index of its re-check job)``, and
    the oracle re-check jobs, each a picklable ``(claim id, text, instance,
    lhs, rhs, certificate, mode)`` whose verdict ``run_audit`` adds as the
    ``"oracle"`` field of the violations that point to it.

    One loop reads every corpus through ``_members()``, and one toolkit
    serves the whole audit but for the later members of violating classes.
    A member whose key is None is built and runs every claim.  A keyed
    member goes through its class: a graph of order <= ``_CLASS_MAX_ORDER``
    by its mask alone, a pair by its operands' keys.  The first member of a
    class is built and runs every claim; a later member is only counted
    (``count`` tallies each status of its class's reading once per member),
    unless its class violates a claim.  Then it is built, and the violated
    claims run on it in full with a fresh toolkit, so that every solver
    value, the class-cached ones of its G - v, complement and operands
    included, is worked out from its own labels; each must read as its class
    did.

    The one decision that depends on the corpus kind is whether a later
    member shares its class's re-check job.  A graph corpus queues one job
    per violating (claim, class), for its first member, and the later
    members share its verdict.  Order <= 7 is below the oracles' caps (12
    and 20, as a test checks), so a re-check of G, its G - v and its
    complement is always "full": it compares verdicts and reads no
    certificate.  The oracles' values are isomorphism invariants, and each
    later member's verdict has just been checked equal to its class's, so
    its own re-check would repeat the first.  A pair corpus queues one job
    per violation: its products reach order 20, past the stability oracle's
    cap, where a re-check is "partial" and reads the member's own
    label-dependent certificate.  Family specs and graphs past the classes
    have no class, so they too queue one job per violation.
    """
    kit = _Toolkit()
    tally: Counter = Counter()
    violations: list[tuple[str, dict, int]] = []
    jobs: list[tuple] = []

    def violated(claim: Claim, text: str, instance, ev: _Eval, job: int | None = None) -> int:
        """Record a violation and its certificate; queue its re-check job
        unless *job* is one queued for its class already."""
        cert = ev.cert()
        if job is None:
            job = len(jobs)
            jobs.append((claim.id, text, instance, ev.lhs, ev.rhs, cert, mode))
        violation = dict(instance=text, lhs=ev.lhs, rhs=ev.rhs, witness=cert)
        violations.append((claim.id, violation, job))
        return job

    def evaluate(text: str, instance) -> list[tuple[Claim, tuple, int | None]]:
        """Every claim's ``(claim, verdict, re-check job)`` on *instance*,
        the job None unless the claim is violated."""
        read = []
        for claim in claims:
            ev = claim.evaluate(instance, kit, mode)
            verdict = _verdict(ev)
            job = violated(claim, text, instance, ev) if verdict[0] == VIOLATED else None
            read.append((claim, verdict, job))
        return read

    def count(read: list, members: int = 1) -> None:
        """Tally every claim's status in *read* once per member of its class."""
        for claim, (status, _, _), _ in read:
            tally[claim.id, status] += members

    # class key -> (its first member's reading, the violated part of it)
    classes: dict[tuple, tuple[list, list]] = {}
    members: Counter = Counter()  # class key -> instances in the corpus
    for key, text, payload in corpus._members():
        if key is None:
            count(evaluate(*corpus._instance(text, payload)))
            continue
        members[key] += 1
        known = classes.get(key)
        if known is None:
            read = evaluate(*corpus._instance(text, payload))
            classes[key] = read, [entry for entry in read if entry[2] is not None]
        elif known[1]:
            text, instance = corpus._instance(text, payload)
            own = _Toolkit()
            for claim, expected, job in known[1]:
                ev = claim.evaluate(instance, own, mode)
                got = _verdict(ev)
                if got != expected:
                    raise InternalAuditError(
                        f"{claim.id} is not an isomorphism invariant at {text}: "
                        f"its class read {expected}, the instance reads {got}"
                    )
                violated(claim, text, instance, ev, job if corpus.kind() == GRAPH else None)
    for key, times in members.items():
        count(classes[key][0], times)
    return tally, violations, jobs


def run_audit(
    claim_ids: Iterable[str],
    corpus: _Corpus,
    mode: str = STRICT,
    threads: int = 1,
) -> AuditReport:
    """Evaluate claims over a corpus and assemble a deterministic report.

    Claims must match the corpus kind, as ``_resolve_claims`` checks.  The
    audit runs in-process with one solver toolkit, through one loop over
    isomorphism classes of graphs and of operand pairs (see ``_audit``).
    ``threads`` above 1 sends only the oracle re-checks to a process pool:
    one per violating claim and class of a graph corpus, and one per
    violation of a pair or family corpus.  The report is the same for any
    worker count.  Each requested claim gets one block, in registry order
    (C1..C26); each violation's ``instance`` is the corpus line as given,
    and a block lists its violations by that text.

    Raises ``BadCorpusSource`` for a ``corpus`` that is none of the four
    corpus types (the subclasses of ``_Corpus``), and ``ValueError`` for a
    ``mode`` out of range or a ``threads`` that is a bool or not a positive
    ``int``.
    """
    if not isinstance(corpus, _Corpus):
        raise BadCorpusSource(f"not a corpus: {corpus!r}")
    claims = _resolve_claims(claim_ids, corpus.kind())
    if mode not in (STRICT, RESTRICTED):
        raise ValueError(f"mode must be {STRICT!r} or {RESTRICTED!r}")
    if isinstance(threads, bool) or not isinstance(threads, int) or threads < 1:
        raise ValueError(f"threads must be a positive integer, got {threads!r}")
    tally, violations, jobs = _audit(claims, corpus, mode)
    if threads == 1 or not jobs:
        checks = list(map(_recheck, jobs))
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            checks = list(pool.map(_recheck, jobs, chunksize=-(-len(jobs) // (4 * threads))))
    for _, violation, job in violations:
        violation["oracle"] = checks[job]
        tally[checks[job]] += 1
    violations.sort(key=lambda item: item[1]["instance"])

    blocks = [
        {
            "claim": claim.id,
            "statement": claim.statement,
            "restricted_note": claim.restricted_note,
            "counts": {s: tally[claim.id, s] for s in (HOLDS, VIOLATED, INAPPLICABLE)},
            "violations": [viol for cid, viol, _ in violations if cid == claim.id],
        }
        for claim in claims
    ]
    stats = {
        "instances": sum(blocks[0]["counts"].values()),
        "evaluations": sum(sum(block["counts"].values()) for block in blocks),
        **{f"oracle_{check}": tally[check] for check in ("full", "partial", "unavailable")},
    }
    return AuditReport(mode=mode, corpus=corpus.describe(), claims=blocks, stats=stats)
