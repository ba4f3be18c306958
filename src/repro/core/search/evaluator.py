"""Energy evaluators: serial and process-pool.

The driver hands a whole candidate batch to one of these; how the batch is
scored — a Python loop or fan-out over a worker pool — is invisible to
the strategies, which keeps multi-chain searches deterministic per seed
regardless of the execution backend.

The serial evaluator wraps a plain callable::

    >>> CallableEvaluator(lambda state: state * 2.0).evaluate([1, 2])
    [2.0, 4.0]

:class:`ProcessPoolEvaluator` fans batches out over a persistent
:class:`~repro.utils.pool.WorkerPool`.  The scorer ships once per worker;
worker-side state it carries (memo tables, synthesis caches) persists
across batches.  A *private* :class:`~repro.synth.cache.SynthCache` on the
scorer is duplicated per worker — each starts cold — so scorers that want
the serial path's hit rate under fan-out carry a
:class:`~repro.synth.cache.SharedSynthCache` instead and hand the same
handle to the evaluator's ``shared_cache`` parameter, which keeps its
aggregated hit/miss totals parent-visible (``cache_stats()``) after the
pool is torn down and shuts the store down on :meth:`close`.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import SearchError
from repro.obs.trace import get_tracer
from repro.utils.pool import WorkerPool, worker_state


class EnergyEvaluator:
    """Base protocol: score a batch of states, release resources on close."""

    def evaluate(self, states: Sequence) -> list[float]:
        raise NotImplementedError

    def close(self) -> None:
        """Release any backing resources (worker pools); idempotent."""

    def __enter__(self) -> "EnergyEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CallableEvaluator(EnergyEvaluator):
    """Scores states one by one through a plain ``state -> float`` callable."""

    def __init__(self, fn: Callable):
        self.fn = fn

    def evaluate(self, states: Sequence) -> list[float]:
        return [float(self.fn(state)) for state in states]


def _pool_call(state) -> float:
    # The span both times the scoring call and carries the worker-local
    # metric deltas (synth-cache traffic, solver effort) back to the parent
    # — without it a worker's counters would die with the pool.
    with get_tracer().span("search.eval"):
        return float(worker_state()(state))


class ProcessPoolEvaluator(EnergyEvaluator):
    """Fans a candidate batch out over a persistent :class:`WorkerPool`.

    ``fn`` must be picklable — it is shipped to each worker exactly once
    as the pool's worker state.  Worker-side state (memo tables, synthesis
    caches) then persists across batches.  Each state is its own pool
    task, so a small batch spreads across all workers.

    ``shared_cache`` optionally hands over ownership of the
    :class:`~repro.synth.cache.SharedSynthCache` the scorer synthesizes
    through: its cross-worker hit/miss totals stay readable via
    :meth:`cache_stats` (frozen at :meth:`close`, which also shuts the
    shared store down after the workers exit).  Without it, worker-private
    cache counters die with the pool.
    """

    def __init__(self, fn: Callable, jobs: int, shared_cache=None):
        if jobs < 1:
            raise SearchError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.shared_cache = shared_cache
        self._pool = WorkerPool(jobs, state=fn)

    def evaluate(self, states: Sequence) -> list[float]:
        states = list(states)
        if not states:
            return []
        values, interrupted = self._pool.run(_pool_call, states)
        if interrupted:
            # The pool already terminated the workers; let the interrupt
            # keep unwinding to the search's / Runner's partial-result
            # handling.
            self.terminate()
            raise KeyboardInterrupt
        return values

    def terminate(self) -> None:
        """Kill the pool without waiting for in-flight tasks; idempotent."""
        self._shutdown(WorkerPool.terminate)

    def close(self) -> None:
        self._shutdown(WorkerPool.close)

    def _shutdown(self, stop: Callable) -> None:
        if self._pool is not None:
            stop(self._pool)
            self._pool = None
        if self.shared_cache is not None:
            # Freeze the final aggregated stats, then stop the store's
            # manager server — the workers that fed it are gone.
            self.shared_cache.close()

    def cache_stats(self) -> dict:
        """Aggregated synthesis-cache stats across all pool workers.

        Empty when no shared cache was attached (worker-private counters
        are unreachable from the parent).
        """
        if self.shared_cache is None:
            return {}
        return self.shared_cache.stats()


def as_evaluator(obj) -> EnergyEvaluator:
    """Coerce a callable into an evaluator; pass evaluators through."""
    if isinstance(obj, EnergyEvaluator):
        return obj
    if callable(obj):
        return CallableEvaluator(obj)
    raise SearchError(
        f"expected an EnergyEvaluator or callable, got {type(obj).__name__}"
    )
