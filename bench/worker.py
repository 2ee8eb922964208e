"""One benchmark process: set up a workload, then time its instances.

Started by ``run.py``; prints one JSON object as its last line of output.

Set-up is everything from process start to the first timed call: imports,
building every instance and an untimed warm-up.  Then:

* ``--mode measure`` runs instances until ``--seconds`` is used up, timing
  each public call with tracing off.
* ``--mode trace`` runs each instance twice, untraced and then traced, and
  derives the per-layer numbers from the spans of the traced runs.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Enough instances for a process of a minute at the current speeds; a much
# faster program ends its run early instead of growing the instance list.
# Process ``--part p`` runs instances p * MAX_INSTANCES onwards, so the
# processes of one run never repeat an instance.
MAX_INSTANCES = 64


def _import_paraopt():
    sys.path.insert(0, str(SRC))
    import paraopt
    if Path(paraopt.__file__).resolve().parent != SRC / "paraopt":
        raise SystemExit(f"paraopt imported from {paraopt.__file__}, not {SRC}")


def _openblas_threads():
    """OpenBLAS thread count of the library bundled with numpy (read only)."""
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas64_*.so")):
        get = getattr(ctypes.CDLL(str(lib)),
                      "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            return get()
    return None


def environment(workers: int) -> dict:
    import numpy
    import scipy
    from paraopt import _parallel
    return dict(
        nproc=len(os.sched_getaffinity(0)), cpu_count=os.cpu_count(),
        python=platform.python_version(), numpy=numpy.__version__,
        scipy=scipy.__version__, workers=workers,
        PARAOPT_WORKERS=os.environ.get("PARAOPT_WORKERS"),
        openblas_threads=_openblas_threads(),
        threadpoolctl="absent, BLAS pinning is a no-op"
        if _parallel.threadpool_limits is None else "present")


def cache_state() -> dict:
    """Sizes of the process-lifetime caches of the solver path."""
    from paraopt import propagators
    out = {}
    for name in ("_stencil", "_linear_ops"):
        fn = getattr(propagators, name, None)
        if hasattr(fn, "cache_info"):
            info = fn.cache_info()
            out[f"propagators.{name}"] = dict(size=info.currsize, hits=info.hits,
                                              misses=info.misses)
        else:
            out[f"propagators.{name}"] = "absent"
    experiments = sys.modules.get("paraopt.experiments")
    out["experiments._reference_cache"] = (
        len(experiments._reference_cache) if experiments else
        "module not imported")
    return out


def run_instance(workload, problem, workers: int, tracer=None) -> dict:
    """Run one instance; any exception or missed check counts as a failure."""
    phases = {}

    @contextmanager
    def phase(name):
        t0 = time.perf_counter()
        with tracer.span(name, phase=name) if tracer else nullcontext():
            yield
        phases.setdefault(name, []).append(time.perf_counter() - t0)

    rec = {}
    try:
        outcome = workload.run(problem, workers, phase)
    except Exception as exc:   # the instance fails; the run goes on
        rec.update(ok=False, error=f"{type(exc).__name__}: {exc}")
    else:
        rec.update(ok=outcome.ok, converged=outcome.converged,
                   outer_iterations=outcome.outer_iterations,
                   checks={k: list(v) for k, v in outcome.checks.items()})
    rec.update(phases=phases, run_s=sum(map(sum, phases.values())))
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--mode", choices=("measure", "trace"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--spans", help="file the traced run writes its spans to")
    args = ap.parse_args(argv)

    _import_paraopt()
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workers = len(os.sched_getaffinity(0))
    first = args.part * MAX_INSTANCES
    ids = range(first, first + MAX_INSTANCES)
    params = [workload.params(args.seed, i) for i in ids]
    problems = [workload.problem(p) for p in params]
    tracer = spans.Tracer() if args.mode == "trace" else None
    traced = ([tracer.wrap_model(workload.problem(p)) for p in params]
              if tracer else None)
    workload.warm_up()
    setup_s = time.time() - args.spawned_at

    caches_at_start = cache_state()
    records, walls = [], []
    t_first = time.perf_counter()
    for i, instance in enumerate(ids):
        elapsed = time.perf_counter() - t_first
        if walls and elapsed + statistics.median(walls) > args.seconds:
            break
        t0 = time.perf_counter()
        rec = dict(instance=instance, params=params[i],
                   **run_instance(workload, problems[i], workers))
        if tracer:
            tracer.instance = instance
            with tracer.installed():
                rec["traced"] = run_instance(workload, traced[i], workers, tracer)
            rec["ok"] = rec["ok"] and rec["traced"]["ok"]
        records.append(rec)
        walls.append(time.perf_counter() - t0)

    out = dict(setup_s=setup_s, instances=records,
               peak_rss_mb=resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024,
               environment=environment(workers),
               caches=dict(at_start=caches_at_start, at_end=cache_state()))
    if tracer:
        layers = spans.layer_metrics(tracer.spans)
        layers["trace.overhead_s"] = statistics.median(
            r["traced"]["run_s"] - r["run_s"] for r in records)
        empty = [k for k in workload.traced_layers if not layers[k] > 0]
        if empty:
            raise SystemExit(f"traced layers recorded no calls on "
                             f"{workload.name}: {', '.join(empty)}")
        out["layers"] = layers
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
