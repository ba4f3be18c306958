"""The ALMOST defense: search-driven security-aware recipe generation.

Solves Eq. 1: ``argmin_S |Acc(M, G(AIG, S)) - 0.5|`` over fixed-length
recipes, using a proxy model (ideally the adversarially trained ``M*``) as
the accuracy evaluator.  The search runs through the pluggable engine in
:mod:`repro.core.search` — the paper's serial SA by default (seed-trace
exact), or parallel tempering / beam / random sampling via
``AlmostConfig.strategy`` — with each candidate batch scored in one
vectorized proxy pass, or fanned out over a
:class:`~repro.utils.pool.WorkerPool` when ``AlmostConfig.jobs`` > 1.
The search trace is retained so the Fig. 4 benches can re-plot accuracy
vs. iteration.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.proxy import ProxyModel
from repro.core.search import SearchConfig, SearchProblem, run_search
from repro.locking.rll import LockedCircuit
from repro.obs.trace import get_tracer
from repro.synth.cache import SharedSynthCache
from repro.synth.engine import synthesize_and_map
from repro.synth.recipe import Recipe, mutate_step, random_recipe
from repro.utils.pool import WorkerPool, worker_state
from repro.utils.rng import derive_seed

#: Eq. 1's target: a predicted accuracy of 0.5 is a coin flip.
TARGET_ACCURACY = 0.5


@dataclass
class AlmostConfig:
    """Recipe-search parameters (paper Sec. IV-C).

    ``strategy`` selects the search engine (``sa`` | ``pt`` | ``beam`` |
    ``random``), ``chains`` sizes its candidate batch (tempering chains,
    beam width, sampling batch) and ``jobs`` > 1 fans candidate scoring out
    over a process pool.  The paper's setup is the default: serial ``sa``
    with a single chain and :class:`~repro.core.search.SearchConfig`'s
    annealing schedule.
    """

    recipe_length: int = 10
    sa_iterations: int = 100
    stop_margin: float = 0.005     # stop when |acc - 0.5| <= margin
    seed: int = 0
    strategy: str = "sa"
    chains: int = 1
    jobs: int = 1


@dataclass
class AlmostResult:
    """Output of one ALMOST run.

    ``synth_cache`` carries the synthesis-cache stats of the
    run — for ``jobs`` > 1 these are the *aggregated cross-worker* totals
    read from the :class:`~repro.synth.cache.SharedSynthCache` (they used
    to be lost when the worker pool was torn down).
    """

    recipe: Recipe
    predicted_accuracy: float
    trace: list[dict] = field(default_factory=list)
    strategy: str = "sa"
    iterations: int = 0
    energy_evaluations: int = 0
    synth_cache: dict = field(default_factory=dict)

    def accuracy_trace(self) -> list[float]:
        """Per-iteration predicted accuracy of the current recipe."""
        return [entry["accuracy"] for entry in self.trace]


def _score_in_worker(recipe: Recipe) -> float:
    """Pool task: score one recipe with this worker's shipped scorer."""
    # The span both times the scoring call and carries the worker-local
    # metric deltas (synth-cache traffic) back to the parent; without it a
    # worker's counters would die with the pool.
    with get_tracer().span("search.eval"):
        return float(worker_state()(recipe))


class AlmostDefense:
    """Security-aware recipe generator bound to one accuracy evaluator.

    ``evaluator`` is either a trained :class:`ProxyModel` or any callable
    ``recipe -> predicted accuracy`` (benches use callables to compare
    ``M_resyn2`` / ``M_random`` / ``M*`` evaluators on the same search).
    Proxy models are scored batch-at-a-time through
    :meth:`~repro.core.proxy.ProxyModel.predicted_accuracy_batch`; with
    ``config.jobs`` > 1 the scorer (which must be picklable) is shipped to
    a worker pool instead and candidates fan out across processes, all
    synthesizing through one :class:`~repro.synth.cache.SharedSynthCache`
    so fan-out keeps the serial path's cache hit rate and the aggregated
    cache stats stay parent-visible in ``AlmostResult.synth_cache``.
    """

    def __init__(
        self,
        evaluator,
        config: Optional[AlmostConfig] = None,
    ):
        self.config = config if config is not None else AlmostConfig()
        if isinstance(evaluator, ProxyModel):
            self._proxy: Optional[ProxyModel] = evaluator
            self._evaluate: Callable[[Recipe], float] = (
                evaluator.predicted_accuracy
            )
        else:
            self._proxy = None
            self._evaluate = evaluator

    @contextlib.contextmanager
    def _accuracy_scorer(self):
        """Yield ``(recipes -> accuracies, synthesis cache or None)``.

        With ``config.jobs`` > 1 recipes fan out over a
        :class:`WorkerPool`.  A proxy resolves memo hits and in-batch
        duplicates here first, so only its unique misses fan out, to
        workers that carry an empty memo; they synthesize through one
        :class:`SharedSynthCache`: a private cache would be pickled into
        each worker and start cold there.  The store closes after the
        pool has exited, so its cross-worker totals freeze and its
        manager stops even when the pool never started.  Otherwise a
        proxy scores each batch in one ``predicted_accuracy_batch`` call,
        and a plain callable one recipe at a time.
        """
        jobs = self.config.jobs
        if jobs > 1:
            import multiprocessing

            # A daemonic pool worker (a grid cell under Runner(jobs > 1))
            # may not start a nested pool, so it scores serially.
            if multiprocessing.current_process().daemon:
                jobs = 1
        if jobs > 1:
            scorer, shared = self._evaluate, None
            if self._proxy is not None:
                if self._proxy.synth_cache is not None:
                    shared = SharedSynthCache(
                        max_entries=self._proxy.synth_cache.max_entries
                    )
                # The memo stays in this process (an empty one travels):
                # a recipe is sent to one worker at most once.
                scorer = dataclasses.replace(
                    self._proxy, synth_cache=shared, _cache=OrderedDict()
                ).predicted_accuracy
            try:
                with WorkerPool(jobs, state=scorer) as pool:

                    def score(recipes):
                        values, interrupted = pool.run(
                            _score_in_worker, recipes
                        )
                        if interrupted:
                            raise KeyboardInterrupt
                        return values

                    if self._proxy is not None:
                        score = functools.partial(
                            self._proxy.predicted_accuracy_batch, score=score
                        )
                    yield score, shared
            finally:
                if shared is not None:
                    shared.close()
        elif self._proxy is not None:
            yield self._proxy.predicted_accuracy_batch, self._proxy.synth_cache
        else:
            yield (lambda recipes: [self._evaluate(r) for r in recipes]), None

    def generate_recipe(self, initial: Optional[Recipe] = None) -> AlmostResult:
        """Run the recipe search; returns the best recipe found and the trace."""
        config = self.config
        start = (
            initial
            if initial is not None
            else random_recipe(
                config.recipe_length, seed=derive_seed(config.seed, "start")
            )
        )
        accuracy_of: dict[tuple[str, ...], float] = {}

        def trace_fn(recipe: Recipe, energy_value: float) -> dict:
            return {
                "accuracy": accuracy_of.get(recipe.steps),
                "recipe": recipe.short(),
            }

        problem = SearchProblem(
            initial=start,
            neighbour=mutate_step,
            sample=lambda rng: random_recipe(config.recipe_length, rng=rng),
        )
        with self._accuracy_scorer() as (accuracy_batch, synth_cache):

            def energies(recipes) -> list[float]:
                accuracies = [float(a) for a in accuracy_batch(recipes)]
                for recipe, accuracy in zip(recipes, accuracies):
                    accuracy_of[recipe.steps] = accuracy
                return [abs(a - TARGET_ACCURACY) for a in accuracies]

            result = run_search(
                problem,
                energies,
                strategy=config.strategy,
                config=SearchConfig(
                    iterations=config.sa_iterations,
                    seed=derive_seed(config.seed, "sa"),
                    chains=config.chains,
                ),
                trace_fn=trace_fn,
                stop_energy=config.stop_margin,
            )
        best_recipe = result.best_state
        return AlmostResult(
            recipe=best_recipe,
            predicted_accuracy=accuracy_of[best_recipe.steps],
            trace=result.trace,
            strategy=config.strategy,
            iterations=result.iterations,
            energy_evaluations=result.energy_evaluations,
            synth_cache=synth_cache.stats() if synth_cache is not None else {},
        )


def defend(
    locked: LockedCircuit,
    proxy: ProxyModel,
    config: Optional[AlmostConfig] = None,
):
    """End-to-end convenience: search a recipe, synthesize, and return all.

    Returns ``(AlmostResult, synthesized netlist, mapped circuit)`` — the
    artifacts a defender would tape out and the attacks evaluate.
    """
    defense = AlmostDefense(proxy, config)
    result = defense.generate_recipe()
    netlist, mapped = synthesize_and_map(locked.netlist, result.recipe)
    return result, netlist, mapped
