"""Deterministic worker-pool map.

Sub-interval tasks are independent; results are always collected in
submission order so that assembled vectors, norms and reports are identical
for any worker count.  Threads are used.  A nonlinear window task spends
most of its time in its banded LU, which ``propagators`` calls with the GIL
released, and in NumPy array operations on whole windows, most of which
release it too; the Python between those calls runs one thread at a time.
The f2py wrappers of ``scipy.linalg.lapack`` hold the GIL, so window code
does not call them.
When threadpoolctl is installed, BLAS pools are pinned to one thread per
call while a pool is active, so that a task's arithmetic does not depend on
how many siblings run beside it; without it BLAS keeps its own thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext

from .errors import InvalidParameterError

try:
    from threadpoolctl import threadpool_limits
except ImportError:  # pragma: no cover - threadpoolctl ships with sklearn
    threadpool_limits = None


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (a container pinned to 2 of 64 CPUs gets 2), else all of them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_workers(requested, num_tasks: int) -> int:
    """Default worker count: min(num_tasks, CPUs this process may use), env
    override allowed.

    Raises :class:`InvalidParameterError` when ``PARAOPT_WORKERS`` is set to
    anything but a positive integer.
    """
    if requested is None:
        env = os.environ.get("PARAOPT_WORKERS")
        if env is not None:
            try:
                requested = int(env)
                if requested < 1:
                    raise ValueError(env)
            except ValueError:
                raise InvalidParameterError(
                    f"PARAOPT_WORKERS must be a positive integer, got {env!r}"
                ) from None
    if requested is None:
        requested = min(num_tasks, _usable_cpus())
    return int(requested)


@contextmanager
def _single_threaded_blas():
    if threadpool_limits is None:
        with nullcontext():
            yield
    else:
        with threadpool_limits(limits=1):
            yield


def parallel_map(fn, items, workers: int) -> list:
    """Map ``fn`` over ``items``; results ordered like the input."""
    items = list(items)
    with _single_threaded_blas():
        if workers <= 1 or len(items) <= 1:
            return [fn(it) for it in items]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(fn, it) for it in items]
            return [f.result() for f in futures]
