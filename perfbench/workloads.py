"""The benchmark's workloads: inputs, one timed batch, and output checks.

Each workload builds its inputs in ``setup`` (from pinned data and the run
seed), runs one batch in ``run`` (the timed part) and counts failed items in
``check`` (untimed).  An item is one corpus instance for audits and one graph
query otherwise.  ``tiny`` selects the small inputs of the smoke test.

Why these inputs:

* The audits run a fixed 1/8 stride of the order <= 6 labeled corpus (edge
  mask = 3 mod 8), which keeps the mix of the full ``--exhaustive-n 6`` audit
  (decode, deletion, complement, every solver, oracle re-checks of
  violations) at a size that fits several batches into one run.
* The pair audit runs all ordered pairs over the order <= 2 graphs plus 3K_1
  and K_3: the two order-12 coronas make oracle re-verification nearly all
  of its time, as in the full order <= 3 pair audit.
* The same audit on two workers is not a workload of its own: its work runs
  in pool children, out of reach of the speed probe (``speed.py``), so its
  time cannot be scaled and spread 20 % from run to run on the same machine.  The traced
  ``audit-graphs`` run times one pool batch for ``auditor.pool.speedup`` and
  checks that its report is byte-identical.
* The query workloads use graphs drawn once from G(n, p) with a fixed
  population seed and pinned by graph6 text in ``expected.json``; the run
  seed sets the query order.  Exact searches have heavy-tailed costs, so a
  fresh population per seed moved a batch's time by 15-20 % from seed to
  seed (2-vCPU Intel Xeon, Python 3.11.7), far more than any bound worth enforcing.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import random
import signal
from dataclasses import dataclass

QUERY_CAP_S = 20  # per graph query
AUDIT_CAP_S = 60  # per audit batch: run_audit is one call


class ItemTimeout(BaseException):
    """A capped call ran past its wall-clock limit."""


def _on_alarm(signum, frame):
    # Re-arm so that a pool shutdown still waiting on a runaway worker is
    # interrupted too; ``capped`` disarms on the way out.
    signal.alarm(1)
    raise ItemTimeout


def install_alarm() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


def capped(seconds: int, fn, *args):
    signal.alarm(seconds)
    try:
        return fn(*args)
    finally:
        signal.alarm(0)


def labeled_slice(n_max: int, modulus: int, residue: int) -> list[tuple[int, list]]:
    """Labeled graphs of order 1..n_max whose edge mask is ``residue`` mod ``modulus``.

    Edge bits follow the enumeration order of ``enumerate_labeled_graphs``:
    bit 0 is (0,1), bit 1 is (0,2), bit 2 is (1,2), and so on.
    """
    out = []
    for n in range(1, n_max + 1):
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        for mask in range(residue, 1 << len(pairs), modulus):
            out.append((n, [pairs[b] for b in range(len(pairs)) if mask >> b & 1]))
    return out


def gnp_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [(i, j) for j in range(1, n) for i in range(j) if rng.random() < p]


@dataclass
class Batch:
    """The inputs of one workload plus what its checks compare against."""

    items: int
    run: object  # () -> results
    check: object  # results -> failed item count
    per_graph: bool = False  # items are graph queries with their own item ids
    threads: int = 1
    recorder: object = None  # set by the traced run, which labels spans by item
    violations: int = 0  # pinned violation count of an audit batch


# ---------------------------------------------------------------------------
# Audits
# ---------------------------------------------------------------------------

AUDIT_GRAPHS = {"full": (6, 8, 3), "tiny": (3, 1, 0)}  # n_max, modulus, residue
PAIR_BASE = {
    "full": ("@", "A?", "A_", "B?", "Bw"),
    "tiny": ("@", "A?", "A_"),
}


def _audit_batch(lib, exp, claim_ids, corpus, items, threads) -> Batch:
    def run():
        try:
            return capped(AUDIT_CAP_S, _run_audit, lib, claim_ids, corpus, threads)
        except ItemTimeout:
            for child in multiprocessing.active_children():
                child.terminate()
                child.join()
            return None

    def check(report_json):
        if report_json is None:
            return items
        ok = hashlib.sha256(report_json.encode()).hexdigest() == exp["sha256"]
        stats = json.loads(report_json)["stats"]
        ok = ok and stats["instances"] == items
        return 0 if ok else items

    return Batch(items, run, check, threads=threads, violations=exp["violations"])


def _run_audit(lib, claim_ids, corpus, threads):
    return lib.run_audit(claim_ids, corpus, threads=threads).to_json()


def graph_audit_inputs(lib, size: str):
    n_max, modulus, residue = AUDIT_GRAPHS[size]
    texts = tuple(
        lib.encode_graph6(lib.build_graph(n, edges))
        for n, edges in labeled_slice(n_max, modulus, residue)
    )
    claims = [c.id for c in lib.claim_registry() if c.instance_kind == "graph"]
    label = f"labeled graphs of order 1..{n_max}, edge mask = {residue} mod {modulus}"
    return claims, lib.Graph6Corpus(texts, label=label), len(texts)


def pair_audit_inputs(lib, size: str):
    base = lib.Graph6Corpus(PAIR_BASE[size], label="pair operands")
    claims = [c.id for c in lib.claim_registry() if c.instance_kind == "pair"]
    return claims, lib.PairCorpus(base), len(PAIR_BASE[size]) ** 2


def setup_audit_graphs(lib, expected, seed, size, threads=1) -> Batch:
    claims, corpus, items = graph_audit_inputs(lib, size)
    return _audit_batch(lib, expected["audit-graphs"][size], claims, corpus, items, threads)


def setup_audit_pairs(lib, expected, seed, size) -> Batch:
    claims, corpus, items = pair_audit_inputs(lib, size)
    return _audit_batch(lib, expected["audit-pairs"][size], claims, corpus, items, 1)


# ---------------------------------------------------------------------------
# Graph queries
# ---------------------------------------------------------------------------

# Population draws, pinned in expected.json: (count, n range, p range).
POPULATIONS = {
    "stability-dense": {"full": (70, (14, 15), (0.5, 0.6)), "tiny": (2, (7, 8), (0.5, 0.6))},
    "gamma-i-sparse": {"full": (25, (38, 42), (0.1, 0.1)), "tiny": (2, (12, 14), (0.1, 0.1))},
}
POPULATION_SEED = 20231103


def draw_population(lib, workload: str, size: str) -> list[str]:
    count, (n_lo, n_hi), (p_lo, p_hi) = POPULATIONS[workload][size]
    rng = random.Random(POPULATION_SEED)
    out = []
    for _ in range(count):
        n = rng.randint(n_lo, n_hi)
        p = rng.uniform(p_lo, p_hi)
        out.append(lib.encode_graph6(lib.build_graph(n, gnp_edges(rng, n, p))))
    return out


def _cert_answer(cert):
    if cert.value is None:
        return None
    return [cert.value, list(cert.witness.members()), cert.new_gamma_i]


def stability_answers(lib, g) -> list:
    """[gamma_i, any, down, up]; each direction is [value, witness, new gamma_i] or None."""
    certs = [lib.stability(g, d) for d in ("any", "decrease", "increase")]
    return [certs[0].base_gamma_i] + [_cert_answer(c) for c in certs]


def gamma_i_answers(lib, g) -> list:
    """[value alone, value with witness, witness] as ``idstab gamma-i`` with and without it."""
    value = lib.gamma_i_value(g)
    cert = lib.gamma_i(g)
    return [value, cert.value, list(cert.witness.members())]


def _query_batch(lib, exp, seed, answer, verify) -> Batch:
    graphs = [lib.decode_graph6(text) for text in exp["graphs"]]
    order = list(range(len(graphs)))
    random.Random(seed).shuffle(order)
    pinned = exp["answers"]

    def run():
        results = []
        for i in order:
            if batch.recorder is not None:
                batch.recorder.item = i
            try:
                results.append((i, capped(QUERY_CAP_S, answer, lib, graphs[i])))
            except (Exception, ItemTimeout):
                results.append((i, None))
        return results

    def check(results):
        failed = 0
        for i, got in results:
            if got is None or got != pinned[i] or not verify(lib, graphs[i], got):
                failed += 1
        return failed + len(graphs) - len(results)

    batch = Batch(len(graphs), run, check, per_graph=True)  # run() reads batch.recorder
    return batch


def _verify_stability(lib, g, got) -> bool:
    """Recompute gamma_i(G - S) for every witness and check its direction."""
    base = lib.gamma_i_value(g)
    if got[0] != base:
        return False
    moves = {"any": lambda v: v != base, "decrease": lambda v: v < base, "increase": lambda v: v > base}
    for direction, ans in zip(moves, got[1:]):
        if ans is None:
            if direction != "increase":
                return False  # any and decrease are total (removing every vertex gives 0)
            continue
        value, witness, new = ans
        if len(witness) != value:
            return False
        sub, _ = lib.delete_vertices(g, lib.VertexSet.of(witness))
        if lib.gamma_i_value(sub) != new or not moves[direction](new):
            return False
    return True


def _verify_gamma_i(lib, g, got) -> bool:
    """The witness is maximal independent and as large as the value."""
    value, cert_value, witness = got
    flags = lib.classify_set(g, lib.VertexSet.of(witness))
    return value == cert_value == len(witness) and flags.maximal_independent


def setup_stability_dense(lib, expected, seed, size) -> Batch:
    exp = expected["stability-dense"][size]
    return _query_batch(lib, exp, seed, stability_answers, _verify_stability)


def setup_gamma_i_sparse(lib, expected, seed, size) -> Batch:
    exp = expected["gamma-i-sparse"][size]
    return _query_batch(lib, exp, seed, gamma_i_answers, _verify_gamma_i)


# Per workload: setup, and the traced names its batch must call at least once.
WORKLOADS = {
    "audit-graphs": (
        setup_audit_graphs,
        (
            "codec.decode_graph6",
            "codec.encode_graph6",
            "core.Graph",
            "core.delete_vertices",
            "core.complement",
            "solver.gamma_i_value",
            "solver.gamma_value",
            "solver.max_induced_star",
            "solver.oracle_gamma_i",
            "stability.stability",
            "stability.oracle_stability",
        ),
    ),
    "audit-pairs": (
        setup_audit_pairs,
        (
            "codec.decode_graph6",
            "codec.encode_graph6",
            "core.Graph",
            "core.delete_vertices",
            "solver.gamma_i_value",
            "solver.gamma_i",
            "solver.oracle_gamma_i",
            "stability.stability",
            "stability.oracle_stability",
            "ops.join",
            "ops.lexicographic",
            "ops.corona",
        ),
    ),
    "stability-dense": (setup_stability_dense, ("stability.stability",)),
    "gamma-i-sparse": (setup_gamma_i_sparse, ("solver.gamma_i_value", "solver.gamma_i")),
}
