"""Self-test of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Runs every workload at a tiny length, untraced and traced, and checks that
each metric ``BENCHMARK.json`` names is printed with its unit; then points
the load generator at an echoing stub server and checks that every
operation is judged failed.
"""

from __future__ import annotations

import json
import math
import itertools
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from inputs import GraphShape, RequestStream  # noqa: E402
from loadgen import run_pass  # noqa: E402
from oracle import Oracle, judge  # noqa: E402
from workloads import Run  # noqa: E402
from m3d_fault_loc.model.localizer import DelayFaultLocalizer  # noqa: E402
from m3d_fault_loc.testing.chaos import StubReplica  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted_with_its_unit(workload: str, trace: int) -> None:
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(got["value"]), metric["name"]
        if not trace:
            assert got["value"] > 0, metric["name"]


def test_an_echoing_server_fails_every_operation(tmp_path: Path) -> None:
    model = DelayFaultLocalizer(hidden=8, seed=0).save(tmp_path / "model.npz")
    stream = RequestStream(GraphShape(n_gates=30, n_inputs=5, num_tiers=2), seed=3, stream=1,
                           n_netlists=4)
    lists = [list(itertools.islice(stream.client_requests(c, reject_every=4, repeat_every=3), 8))
             for c in range(2)]
    stub = StubReplica().start()
    try:
        result = run_pass(("127.0.0.1", stub.port), lists, lambda elapsed, samples: False)
    finally:
        stub.stop()
    run = Run(workdir=tmp_path, seed=0, seconds=1, trace=False)
    run.record_verdicts(judge(Oracle(model), result.outcomes))
    assert run.attempted == 16
    assert run.failed == 16
