"""paraopt benchmark: one workload, one seed, one timed run.

    python3 bench/run.py --workload lv_parareal --seed 1 --seconds 50 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``lv_parareal``  predator-prey, L=12, r=1e-3, 240k fine steps, banded
  window Newton, assembled direct inner solve, no reference.
* ``heat_krylov``  periodic heat control, n=200: reference, solve with the
  GMRES inner solver, and the per-mode ``spectral_summary`` bound table.

With ``--trace 0`` the run is split over five measuring processes, started
one after the other, each with a fifth of ``--seconds``: timings of one
process share its memory layout and thread placement, so pooling several
processes steadies the medians.  Each process sets the workload up, then
runs its own instances (seeded from ``--seed``) back to back, closed loop,
until its share of the time is used up, and checks each one.  It reports the
end-to-end metrics of ``BENCHMARK.json``.  With ``--trace 1`` one process
uses all of ``--seconds``, runs every instance once more with spans around
the calls into each layer, reports the per-layer metrics, and writes the
spans to ``bench/out/``.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Exits non-zero without
that line when the paraopt sources are not next to this directory or no
instance could be run.

End-to-end metrics, over the instances that passed their checks:

* ``setup_s``  process start to the first timed call, median over the
  measuring processes.
* ``solve_s``  median wall seconds of one ``paraopt_solve``.
* ``run_s``  median wall seconds of one instance's timed calls (reference,
  solves and analysis; checks are not timed).  Per instance rather than per
  run, since a run lasts ``--seconds`` whatever the speed.
* ``peak_rss_mb``  peak resident memory of one measuring process, median
  over the processes.
* ``outer_iterations``  mean outer iterations of one ``paraopt_solve``.

Process-lifetime caches when timing starts (the ``caches`` line reports
their sizes at start and end):

* ``propagators._stencil`` (keyed on state dimension and window length) is
  warm for both window lengths of ``lv_parareal``, since set-up solves one
  fine and one coarse window; heat never uses it.
* ``propagators._linear_ops`` is keyed on problem identity, so each heat
  instance builds its window operators inside its timed calls;
  ``lv_parareal`` never uses it.
* ``experiments._reference_cache`` is never used: the benchmark does not
  import ``paraopt.experiments``.

Reference wall time and iterations are not end-to-end metrics because
``lv_parareal`` has no reference; the text report prints the reference time
and the traced run reports ``reference.solver.wall_s`` and
``reference.solver.outer_iterations``.  Per-layer counts and times are
means per call of their phase (``solve.*`` per ``paraopt_solve``,
``reference.*`` per ``reference_solve``, ``analysis.*`` per bound table);
``*.efficiency``, ``*.max_over_mean`` and ``modelled_speedup`` are ratios.
They are 0 where a workload does not run that phase or layer
(``reference.*`` and ``analysis.*`` on ``lv_parareal``, ``model.*`` on heat).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROCESSES = 5             # measuring processes of one untraced run
DEADLINE_S = 170          # the whole command must end within 180 s


def _child(args, mode: str, seconds: float, deadline: float, part: int = 0,
           spans_path=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--part", str(part), "--mode", mode]
    if spans_path:
        cmd += ["--spans", str(spans_path)]
    cmd += ["--spawned-at", repr(time.time())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=deadline - time.perf_counter(), cwd=ROOT)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"benchmark process ({mode}) failed with exit code "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _samples(records: list, phase: str) -> list:
    return [d for r in records for d in r["phases"].get(phase, [])]


def _end_to_end(results: list, ok: list) -> dict:
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "solve_s": statistics.median(_samples(ok, "solve")),
        "run_s": statistics.median(r["run_s"] for r in ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "outer_iterations": statistics.fmean(r["outer_iterations"] for r in ok),
    }


def _report(args, results: list, records: list, ok: list) -> None:
    """Human-readable lines ahead of the JSON result."""
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(results[0]["environment"]))
    for i, result in enumerate(results):
        print(f"process {i} setup_s {result['setup_s']:.6g} peak_rss_mb "
              f"{result['peak_rss_mb']:.6g} caches "
              + json.dumps(result["caches"]))
    for r in records:
        line = {k: r[k] for k in ("instance", "ok", "params", "phases")}
        for k in ("outer_iterations", "checks", "error"):
            if k in r:
                line[k] = r[k]
        print("instance " + json.dumps(line))
    refs = _samples(ok, "reference")
    if refs:
        print(f"reference_s {statistics.median(refs):.6g} s "
              f"(median of {len(refs)} reference solves)")
    print(f"solve_s samples {len(_samples(ok, 'solve'))}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "paraopt" / "__init__.py").is_file():
        print(f"paraopt sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = started + DEADLINE_S
    if args.trace:
        spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans_path.parent.mkdir(exist_ok=True)
        results = [_child(args, "trace", args.seconds, deadline,
                          spans_path=spans_path)]
    else:
        results = [_child(args, "measure", args.seconds / PROCESSES, deadline,
                          part) for part in range(PROCESSES)]

    records = [r for result in results for r in result["instances"]]
    ok = [r for r in records if r["ok"]]
    _report(args, results, records, ok)
    if not ok:
        print("no instance of the workload passed its checks", file=sys.stderr)
        return 1
    values = results[0]["layers"] if args.trace else _end_to_end(results, ok)
    mismatch = {m["name"] for m in wanted} ^ set(values)
    if mismatch:
        raise SystemExit("metrics differ from BENCHMARK.json: "
                         f"{sorted(mismatch)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(dict(correct=len(ok) == len(records),
                          attempted=len(records),
                          failed=len(records) - len(ok), metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
