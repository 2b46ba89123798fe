"""idstab benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload audit-graphs --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``idstab`` from its
``src`` directory.  The run sets up ``SETUP_REPEATS`` times (import plus
inputs) and reports the median as ``setup_s``, then repeats the workload's
batch until ``--seconds`` have passed (at least ``MIN_BATCHES`` times),
checking every batch's outputs outside the timed part.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates plain
batches with batches run under span recorders on idstab's public functions
(see ``spans.py``); it prints the per-layer metrics, per traced batch, and
writes the spans to ``perfbench/out/``.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it holds the run's machine and code details.  ``--tiny``
swaps in the smoke test's small inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
MIN_BATCHES = 3
MIN_TRACED_BATCHES = 2


def _import_idstab():
    for key in [k for k in sys.modules if k == "idstab" or k.startswith("idstab.")]:
        del sys.modules[key]
    lib = importlib.import_module("idstab")
    if SRC not in Path(lib.__file__).resolve().parents:
        raise ImportError(f"idstab came from {lib.__file__}, not from {SRC}")
    return lib


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """HEAD of a git checkout, read from its files; '' when not a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return ""


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest waited-for child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Run:
    def __init__(self, batch, probe: speed.Probe):
        self.batch = batch
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.aborted = False
        self.raw_walls: list[float] = []

    def one(self) -> float:
        """Run, time and check one batch; returns its time at the reference speed.

        With the probe stopped that is the raw wall time.
        """
        if self.batch.recorder is not None:
            self.batch.recorder.item = len(self.raw_walls)  # query batches relabel per graph
        before = self.probe.mark()
        t0 = perf_counter()
        results = self.batch.run()
        wall = perf_counter() - t0
        after = self.probe.mark()
        failed = self.batch.check(results)
        self.attempted += self.batch.items
        self.failed += failed
        self.aborted = self.aborted or results is None
        self.raw_walls.append(wall)
        return self.probe.scale(wall - (after[0] - before[0]), before, after)

    def repeat(self, seconds: float, at_least: int) -> list[float]:
        walls: list[float] = []
        t_end = perf_counter() + seconds
        while not self.aborted and (len(walls) < at_least or perf_counter() < t_end):
            walls.append(self.one())
        return walls


def end_to_end(run: Run, seconds: float, setup_s: float, meta: dict) -> dict:
    walls = run.repeat(seconds, MIN_BATCHES)
    wall = statistics.median(walls)
    meta["batch_walls"] = walls
    meta["raw_batch_walls"] = run.raw_walls
    return {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(wall, "s"),
        "items_per_s": _metric(run.batch.items / wall, "1/s"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MiB"),
        "ok_ratio": _metric((run.attempted - run.failed) / run.attempted, "ratio"),
    }


def traced(run: Run, seconds: float, required, pool=None):
    """Per-layer metrics, per traced batch, plus the uncalled required names.

    Plain and traced batches alternate, so that the overhead ratio compares
    batches run at the same machine speed.  Spans are recorded only while a
    traced batch runs, never during its checks.  With ``pool`` (the same
    audit on two workers) one plain pool batch gives the pool speedup and
    must return the same report.
    """
    pool_wall = 0.0
    if pool is not None:
        pool_run = Run(pool, run.probe)
        pool_wall = pool_run.one()
        run.attempted += pool_run.attempted
        run.failed += pool_run.failed
    rec = spans.Recorder()
    run.batch.recorder = rec
    plain_run = run.batch.run

    def traced_run():
        rec.install()
        try:
            return plain_run()
        finally:
            rec.uninstall()

    plains: list[float] = []
    walls: list[float] = []
    t_end = perf_counter() + seconds
    try:
        while not run.aborted and (len(walls) < MIN_TRACED_BATCHES or perf_counter() < t_end):
            run.batch.run = plain_run
            plains.append(run.one())
            run.batch.run = traced_run
            walls.append(run.one())
    finally:
        run.batch.run = plain_run
    plain = statistics.median(plains)
    speedup = plain / pool_wall if pool_wall else 0.0
    n = len(walls)
    traced_wall = statistics.median(walls)
    m: dict[str, dict] = {}
    layers = [(name, (name,)) for name in spans.NAMES if name not in spans.OPS]
    for label, names in layers + [("ops", spans.OPS)]:
        m[f"{label}.calls"] = _metric(sum(rec.calls[k] for k in names) / n, "count")
        m[f"{label}.self_s"] = _metric(sum(rec.self_s[k] for k in names) / n, "s")
        m[f"{label}.total_s"] = _metric(sum(rec.total_s[k] for k in names) / n, "s")
    witness = 0.0
    if run.batch.per_graph:
        with_witness = rec.spans_by_item("solver.gamma_i")
        value_only = rec.spans_by_item("solver.gamma_i_value")
        witness = sum(t - value_only.get(i, 0.0) for i, t in with_witness.items()) / n
    m["solver.gamma_i.witness_s"] = _metric(witness, "s")
    scans = rec.scan_subsets
    m["stability.scan_subsets"] = _metric(scans / n, "count")
    per_scan = rec.self_s["stability.stability"] / scans * 1e6 if scans else 0.0
    m["stability.us_per_scan_subset"] = _metric(per_scan, "us")
    audit = not run.batch.per_graph
    instances = run.batch.items
    solves = sum(rec.calls[k] for k in spans.SOLVES)
    violations = run.batch.violations if audit else 0
    oracle = rec.calls["stability.oracle_stability"]
    m["auditor.self_s"] = _metric((sum(walls) - rec.top_s) / n if audit else 0.0, "s")
    m["auditor.solves_per_instance"] = _metric(solves / n / instances if audit else 0.0, "count")
    m["auditor.oracle_calls_per_violation"] = _metric(
        oracle / n / violations if violations else 0.0, "count"
    )
    m["auditor.pool.speedup"] = _metric(speedup, "ratio")
    m["trace.overhead_ratio"] = _metric(traced_wall / plain, "ratio")
    m["trace.wall_s"] = _metric(traced_wall, "s")
    missing = [name for name in required if rec.calls[name] == 0]
    return m, missing, rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small smoke-test inputs")
    args = ap.parse_args(argv)

    # Workers are passed explicitly; an exported value must not change the workload.
    os.environ.pop("IDSTAB_THREADS", None)
    if not (SRC / "idstab" / "__init__.py").is_file():
        print(f"error: no idstab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    expected = json.loads((HERE / "expected.json").read_text())
    setup, required = workloads.WORKLOADS[args.workload]
    size = "tiny" if args.tiny else "full"

    probe = speed.Probe()
    if not args.trace:
        probe.start()
    setups, first, last = [], probe.mark(), None
    for _ in range(SETUP_REPEATS):
        before = probe.mark()
        t0 = perf_counter()
        try:
            lib = _import_idstab()
        except ImportError as exc:
            print(f"error: cannot import idstab: {exc}", file=sys.stderr)
            return 2
        batch = setup(lib, expected, args.seed, size)
        last = probe.mark()
        setups.append(perf_counter() - t0 - (last[0] - before[0]))
    setup_s = probe.scale(statistics.median(setups), first, last)
    workloads.install_alarm()

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": size,
        "threads": batch.threads,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "source_sha256": _source_sha256(),
    }
    run = Run(batch, probe)
    if args.trace:
        pool = None
        if args.workload == "audit-graphs":
            pool = workloads.setup_audit_graphs(lib, expected, args.seed, size, threads=2)
        metrics, missing, rec = traced(run, args.seconds, required, pool)
        if missing:
            print(f"error: traced names never called: {', '.join(missing)}", file=sys.stderr)
            run.failed = run.attempted
        rec.write(HERE / "out" / f"{args.workload}{'-tiny' if args.tiny else ''}.spans")
        meta["spans"] = len(rec.start)
    else:
        metrics = end_to_end(run, args.seconds, setup_s, meta)
        probe.stop()
        meta["kernel_s"] = probe.time / probe.count if probe.count else None
    meta["fail_ratio"] = run.failed / run.attempted
    print(json.dumps({"meta": meta}))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
