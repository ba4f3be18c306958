"""Energy evaluators: serial, vectorized-batch, and process-pool.

The driver hands a whole candidate batch to one of these; how the batch is
scored — a Python loop, one vectorized model pass, or fan-out over a
worker pool — is invisible to the strategies, which keeps multi-chain
searches deterministic per seed regardless of the execution backend.

The serial evaluators wrap plain callables::

    >>> CallableEvaluator(lambda state: state * 2.0).evaluate([1, 2])
    [2.0, 4.0]
    >>> BatchCallableEvaluator(lambda batch: [s + 1 for s in batch]).evaluate([1])
    [2.0]

:class:`ProcessPoolEvaluator` fans batches out over a persistent
``multiprocessing`` pool.  The scorer ships once per worker; worker-side
state it carries (memo tables, synthesis caches) persists
across batches.  A *private* :class:`~repro.synth.cache.SynthCache` on the
scorer is duplicated per worker — each starts cold — so scorers that want
the serial path's hit rate under fan-out carry a
:class:`~repro.synth.cache.SharedSynthCache` instead and hand the same
handle to the evaluator's ``shared_cache`` parameter, which keeps its
aggregated hit/miss totals parent-visible (``cache_stats()``) after the
pool is torn down and shuts the store down on :meth:`close`.
"""

from __future__ import annotations

import signal
from typing import Callable, Sequence

from repro.errors import SearchError
from repro.obs.trace import get_tracer, set_tracer


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


class BatchCallableEvaluator(EnergyEvaluator):
    """Scores the whole batch through one ``list[state] -> list[float]`` call.

    The hook for vectorized scorers such as
    :meth:`repro.core.proxy.ProxyModel.predicted_accuracy_batch`, which
    packs every candidate's GNN localities into a single forward pass.
    """

    def __init__(self, batch_fn: Callable):
        self.batch_fn = batch_fn

    def evaluate(self, states: Sequence) -> list[float]:
        states = list(states)
        values = list(self.batch_fn(states))
        if len(values) != len(states):
            raise SearchError(
                f"batch evaluator returned {len(values)} energies for "
                f"{len(states)} states"
            )
        return [float(value) for value in values]


# A worker process holds the scoring callable in a module global: the
# callable (often a whole trained proxy model) ships once per worker via
# the pool initializer instead of once per task.
_WORKER_FN = None


def _pool_initializer(fn, tracer_handle=None) -> None:
    """Pool initializer: install the scorer and the telemetry handle.

    It also restores SIGTERM's default action, as the Runner's pool
    initializer does: a forked worker inherits ``Runner.run``'s
    SIGTERM-to-KeyboardInterrupt mapping and could then survive
    ``Pool.terminate()``, hanging the parent's join.
    """
    global _WORKER_FN
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _WORKER_FN = fn
    if tracer_handle is not None:
        # Worker spans/metrics flow back through the handle's queue; the
        # parent folds them in with drain() at pool teardown.
        set_tracer(tracer_handle)


def _pool_call(state) -> float:
    # The span both times the scoring call and carries the worker-local
    # metric deltas (synth-cache traffic, solver effort) back to the parent
    # — without it a worker's counters would die with the pool.
    with get_tracer().span("search.eval"):
        return float(_WORKER_FN(state))


class ProcessPoolEvaluator(EnergyEvaluator):
    """Fans a candidate batch out over a persistent ``multiprocessing`` pool.

    ``fn`` must be picklable — it is shipped to each worker exactly once.
    Worker-side state (memo tables, synthesis caches) then
    persists across batches.  ``chunksize=1`` spreads a small batch across
    all workers instead of lumping it onto one.

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
        import multiprocessing

        self.jobs = jobs
        self.shared_cache = shared_cache
        self._pool = multiprocessing.Pool(
            processes=jobs,
            initializer=_pool_initializer,
            initargs=(fn, get_tracer().worker_handle()),
        )

    def evaluate(self, states: Sequence) -> list[float]:
        states = list(states)
        if not states:
            return []
        try:
            return self._pool.map(_pool_call, states, chunksize=1)
        except KeyboardInterrupt:
            # Ctrl-C mid-batch: tear the workers down hard (close/join
            # would wait on the very tasks the user just aborted), then
            # let the interrupt keep unwinding to the partial-result
            # handling in the driver / Runner.
            self.terminate()
            raise

    def terminate(self) -> None:
        """Kill the pool without waiting for in-flight tasks; idempotent."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            get_tracer().drain()
        if self.shared_cache is not None:
            self.shared_cache.close()

    def cache_stats(self) -> dict:
        """Aggregated synthesis-cache stats across all pool workers.

        Empty when no shared cache was attached (worker-private counters
        are unreachable from the parent).
        """
        if self.shared_cache is None:
            return {}
        return self.shared_cache.stats()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
            # Workers have exited; fold their queued telemetry into the
            # parent's stream.
            get_tracer().drain()
        if self.shared_cache is not None:
            # Freeze the final aggregated stats, then stop the store's
            # manager server — the workers that fed it are gone.
            self.shared_cache.close()


def as_evaluator(obj) -> EnergyEvaluator:
    """Coerce a callable into an evaluator; pass evaluators through."""
    if isinstance(obj, EnergyEvaluator):
        return obj
    if callable(obj):
        return CallableEvaluator(obj)
    raise SearchError(
        f"expected an EnergyEvaluator or callable, got {type(obj).__name__}"
    )
