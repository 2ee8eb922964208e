"""Smoke test of the benchmark's traced run (``bench/worker.py``).

The traced run wraps module attributes of paraopt (``bench/spans.py``) and
exits when a layer its workload loads records nothing, so a refactor that
bypasses one of those attributes breaks the benchmark, not the solver.
"""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="bench/worker.py counts workers by CPU affinity")
def test_traced_heat_krylov_records_every_layer():
    # no --spans: the run writes nothing
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload=heat_krylov",
         "--seed=1", "--seconds=1", "--mode=trace",
         f"--spawned-at={time.time()}"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["instances"]
    assert all(rec["ok"] for rec in out["instances"])
    for layer in _workloads().HeatKrylov.traced_layers:
        assert out["layers"][layer] > 0, layer
