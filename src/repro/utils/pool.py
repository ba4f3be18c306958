"""One process pool for every fan-out: grid cells and recipe scoring.

:class:`WorkerPool` wraps ``multiprocessing.Pool`` for both callers
(``Runner`` grid cells, ``AlmostDefense`` recipe scoring).  Its workers
restore SIGTERM's default action, trace into a fresh in-memory tracer
when the parent traces, and receive an optional ``state`` (e.g. a
trained proxy scorer) once, read back with :func:`worker_state`.  Each
task's spans travel back with its result (or on its exception) and
:meth:`WorkerPool.run` adopts them under the parent's open span.  ``run``
keeps Ctrl-C deliverable; an interrupted task's spans are dropped with
its result.  Task functions must be module-level
(picklable); RPR201 checks this.
"""

from __future__ import annotations

import signal
from typing import Any, Callable, Iterable

from repro.obs.trace import Tracer, get_tracer, set_tracer

# The per-worker state shipped by the pool initializer.
_STATE: Any = None


def _init(traced: bool, state) -> None:
    # Pool.terminate() stops workers with SIGTERM, but a forked worker
    # inherits Runner.run's SIGTERM-to-KeyboardInterrupt mapping; an idle
    # worker blocked on the task queue's lock then survived it and the
    # parent's join hung.
    global _STATE
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # A fresh tracer: a forked worker would otherwise inherit the
    # parent's, sink and buffered records included.
    set_tracer(Tracer() if traced else None)
    _STATE = state


def _take_records() -> list:
    tracer = get_tracer()
    if not tracer.enabled:
        return []
    records, tracer.records = tracer.records, []
    return records


def _call(task) -> tuple:
    """Run one task in a worker; return ``(value, its trace records)``."""
    fn, payload = task
    try:
        value = fn(payload)
    except Exception as exc:
        # An exception's __dict__ survives pickling, so the failing
        # task's spans (the one marked ``error`` too) reach the parent.
        exc.trace_records = _take_records()
        raise
    return value, _take_records()


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
            initargs=(get_tracer().enabled, state),
        )

    def run(self, fn: Callable, payloads: Iterable) -> tuple[list, bool]:
        """``[fn(p) for p in payloads]`` across the workers, in order.

        Returns ``(results, interrupted)``.  A worker exception re-raises
        here, as with ``pool.map``.  On Ctrl-C the workers are terminated
        and only the results that already finished come back.
        """
        handles = [
            self._pool.apply_async(_call, ((fn, payload),))
            for payload in payloads
        ]
        interrupted = False
        try:
            for handle in handles:
                # A timed wait keeps KeyboardInterrupt deliverable and
                # still returns as soon as the task finishes.
                while not handle.ready():
                    handle.wait(0.05)
        except KeyboardInterrupt:
            self.terminate()
            handles = [h for h in handles if h.ready() and h.successful()]
            interrupted = True
        results = []
        tracer = get_tracer()
        for handle in handles:
            try:
                value, records = handle.get()
            except Exception as exc:
                tracer.adopt(getattr(exc, "trace_records", ()))
                raise
            tracer.adopt(records)
            results.append(value)
        return results, interrupted

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

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        self._shutdown(terminate=exc_type is not None)
