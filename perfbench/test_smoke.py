"""Smoke test of the benchmark on tiny inputs; takes a few seconds.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload plain and traced on its small inputs (order <= 3
audits, two small graphs per query workload) through the benchmark command,
and checks that the output checks, the per-item cap and the traced-name
check report failures.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import idstab  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

EXPECTED = json.loads((HERE / "expected.json").read_text())


def _command(workload: str, trace: int) -> list[str]:
    return SPEC["command"] + [
        "--workload", workload, "--seed", "5", "--seconds", "0.2",
        "--trace", str(trace), "--tiny",
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_workload_runs_and_checks(workload, trace):
    proc = subprocess.run(
        _command(workload, trace), cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        _command(NAMES[0], 0), cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_bad_report_digest_fails_every_instance():
    exp = dict(EXPECTED, **{"audit-pairs": {"tiny": dict(EXPECTED["audit-pairs"]["tiny"], sha256="0")}})
    batch = workloads.setup_audit_pairs(idstab, exp, 1, "tiny")
    assert batch.check(batch.run()) == batch.items == 9


def test_wrong_answer_fails_its_item():
    tiny = EXPECTED["gamma-i-sparse"]["tiny"]
    answers = [list(a) for a in tiny["answers"]]
    answers[1][2] = answers[1][2][::-1] + [0]  # a witness that is not the pinned one
    exp = {"gamma-i-sparse": {"tiny": dict(tiny, answers=answers)}}
    batch = workloads.setup_gamma_i_sparse(idstab, exp, 1, "tiny")
    assert batch.check(batch.run()) == 1


def test_runaway_query_is_capped(monkeypatch):
    def runaway(lib, g):
        while True:
            time.sleep(0.01)

    monkeypatch.setattr(workloads, "QUERY_CAP_S", 1)
    workloads.install_alarm()
    exp = EXPECTED["stability-dense"]["tiny"]
    batch = workloads._query_batch(idstab, exp, 1, runaway, workloads._verify_stability)
    t0 = time.perf_counter()
    assert batch.check(batch.run()) == batch.items
    assert time.perf_counter() - t0 < 10


def test_uncalled_traced_name_is_reported():
    batch = workloads.setup_gamma_i_sparse(idstab, EXPECTED, 1, "tiny")
    run = bench.Run(batch, speed.Probe())
    _, missing, _ = bench.traced(run, 0.1, ("solver.gamma_i", "ops.join"))
    assert missing == ["ops.join"]
    assert idstab.gamma_i.__name__ == "gamma_i" and not hasattr(idstab.gamma_i, "__wrapped__")


def test_scanned_subsets_matches_the_scan_order():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(2, 8)
        g = idstab.build_graph(n, workloads.gnp_edges(rng, n, rng.uniform(0.2, 0.9)))
        for direction in idstab.Direction:
            cert = idstab.stability(g, direction)
            masks = [sum(1 << v for v in c) for k in range(1, n + 1) for c in combinations(range(n), k)]
            want = len(masks) if cert.value is None else masks.index(cert.witness.mask) + 1
            assert spans.scanned_subsets(n, cert) == want
