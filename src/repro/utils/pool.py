"""One process pool for every fan-out: grid cells and recipe scoring.

:class:`WorkerPool` wraps ``multiprocessing.Pool`` for both callers
(``Runner`` grid cells, ``ProcessPoolEvaluator`` scoring).  Its workers
restore SIGTERM's default action, install the parent's telemetry handle
and receive an optional ``state`` (e.g. a trained proxy scorer) once,
read back with :func:`worker_state`.  :meth:`WorkerPool.run` keeps
Ctrl-C deliverable; teardown joins the workers and folds their queued
spans into the parent's trace.  Task functions must be module-level
(picklable); RPR201 checks this.
"""

from __future__ import annotations

import signal
from typing import Any, Callable, Iterable

from repro.obs.trace import get_tracer, set_tracer

# The per-worker state shipped by the pool initializer.
_STATE: Any = None


def _init(tracer_handle, state) -> None:
    # Pool.terminate() stops workers with SIGTERM, but a forked worker
    # inherits Runner.run's SIGTERM-to-KeyboardInterrupt mapping; an idle
    # worker blocked on the task queue's lock then survived it and the
    # parent's join hung.
    global _STATE
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if tracer_handle is not None:
        set_tracer(tracer_handle)
    _STATE = state


def worker_state() -> Any:
    """The ``state`` this worker's pool was built with (``None`` if none)."""
    return _STATE


class WorkerPool:
    """``jobs`` worker processes, usable as a context manager."""

    def __init__(self, jobs: int, state: Any = None):
        # Imported here so serial runs never load multiprocessing.
        import multiprocessing

        self._pool = multiprocessing.Pool(
            processes=jobs,
            initializer=_init,
            initargs=(get_tracer().worker_handle(), state),
        )

    def run(self, fn: Callable, payloads: Iterable) -> tuple[list, bool]:
        """``[fn(p) for p in payloads]`` across the workers, in order.

        Returns ``(results, interrupted)``.  A worker exception re-raises
        here, as with ``pool.map``.  On Ctrl-C the workers are terminated
        and only the results that already finished come back.
        """
        handles = [self._pool.apply_async(fn, (p,)) for p in payloads]
        try:
            for handle in handles:
                # A timed wait keeps KeyboardInterrupt deliverable and
                # still returns as soon as the task finishes.
                while not handle.ready():
                    handle.wait(0.05)
        except KeyboardInterrupt:
            self.terminate()
            done = [h for h in handles if h.ready() and h.successful()]
            return [handle.get() for handle in done], True
        return [handle.get() for handle in handles], False

    def close(self) -> None:
        """Let queued tasks finish, then stop the workers; idempotent."""
        self._shutdown(terminate=False)

    def terminate(self) -> None:
        """Stop the workers without waiting for tasks; idempotent."""
        self._shutdown(terminate=True)

    def _shutdown(self, terminate: bool) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if terminate:
            pool.terminate()
        else:
            pool.close()
        pool.join()
        get_tracer().drain()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        self._shutdown(terminate=exc_type is not None)
