"""Regenerate ``expected.json``: the benchmark's pinned inputs and answers.

    python3 perfbench/pin.py

Pins, for full and tiny inputs, the sha256 and violation count of each audit
report (checking that one and two workers give the same bytes), and the
query workloads' graphs with every answer.  Run it only when the benchmark's
inputs change; answers from a later commit must match these, not replace
them.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import idstab  # noqa: E402
import workloads  # noqa: E402


def _audit(claims, corpus, items) -> dict:
    one = idstab.run_audit(claims, corpus, threads=1)
    two = idstab.run_audit(claims, corpus, threads=2)
    text = one.to_json()
    assert text == two.to_json(), "worker count changed the report"
    assert one.stats["instances"] == items
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "instances": items,
        "violations": one.violation_count,
    }


def _queries(workload: str, size: str, answer) -> dict:
    graphs = workloads.draw_population(idstab, workload, size)
    answers = [answer(idstab, idstab.decode_graph6(text)) for text in graphs]
    return {"graphs": graphs, "answers": answers}


def main() -> None:
    out: dict = {name: {} for name in workloads.WORKLOADS}
    for size in ("tiny", "full"):
        out["audit-graphs"][size] = _audit(*workloads.graph_audit_inputs(idstab, size))
        out["audit-pairs"][size] = _audit(*workloads.pair_audit_inputs(idstab, size))
        out["stability-dense"][size] = _queries(
            "stability-dense", size, workloads.stability_answers
        )
        out["gamma-i-sparse"][size] = _queries("gamma-i-sparse", size, workloads.gamma_i_answers)
    (HERE / "expected.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
