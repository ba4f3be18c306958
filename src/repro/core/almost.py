"""The ALMOST defense: search-driven security-aware recipe generation.

Solves Eq. 1: ``argmin_S |Acc(M, G(AIG, S)) - 0.5|`` over fixed-length
recipes, using a proxy model (ideally the adversarially trained ``M*``) as
the accuracy evaluator.  The search runs through the pluggable engine in
:mod:`repro.core.search` — the paper's serial SA by default (seed-trace
exact), or parallel tempering / beam / random sampling via
``AlmostConfig.strategy`` — with candidate batches scored in one vectorized
proxy pass and optionally fanned out over a process pool
(``AlmostConfig.jobs``).  The search trace is retained so the Fig. 4
benches can re-plot accuracy vs. iteration.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.proxy import ProxyModel
from repro.core.search import (
    EnergyEvaluator,
    ProcessPoolEvaluator,
    SearchConfig,
    SearchProblem,
    run_search,
)
from repro.locking.rll import LockedCircuit
from repro.synth.cache import SharedSynthCache
from repro.synth.engine import synthesize_and_map
from repro.synth.recipe import TRANSFORM_NAMES, Recipe, random_recipe
from repro.utils.rng import derive_seed


@dataclass
class AlmostConfig:
    """Recipe-search parameters (paper Sec. IV-C).

    ``strategy`` selects the search engine (``sa`` | ``pt`` | ``beam`` |
    ``random``), ``chains`` sizes its candidate batch (tempering chains,
    beam width, sampling batch) and ``jobs`` > 1 fans candidate scoring out
    over a process pool.  The paper's setup is the default: serial ``sa``
    with a single chain.
    """

    recipe_length: int = 10
    sa_iterations: int = 100
    sa_t_initial: float = 120.0
    sa_acceptance: float = 1.8
    target_accuracy: float = 0.5
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


def _mutate_step(recipe: Recipe, rng) -> Recipe:
    """The SA neighbourhood move: substitute one recipe step."""
    position = int(rng.integers(len(recipe)))
    step = TRANSFORM_NAMES[int(rng.integers(len(TRANSFORM_NAMES)))]
    return recipe.with_step(position, step)


class _AccuracyEnergyEvaluator(EnergyEvaluator):
    """Adapts an accuracy scorer to Eq. 1 energies, recording accuracies.

    ``accuracy_batch`` maps a recipe batch to predicted accuracies; the
    observed values land in ``accuracy_of`` (keyed on the full step tuple)
    for the trace and the final result.  ``synth_cache`` is whichever
    synthesis cache the scorer synthesizes through (the proxy's own,
    or the cross-worker shared store under ``jobs`` > 1) so the run's
    cache accounting can be read back — **before** :meth:`close`, which
    tears the worker pool and the shared store down.
    """

    def __init__(
        self,
        accuracy_batch: Callable,
        target: float,
        accuracy_of: dict,
        inner: Optional[EnergyEvaluator] = None,
        synth_cache=None,
    ):
        self.accuracy_batch = accuracy_batch
        self.target = target
        self.accuracy_of = accuracy_of
        self._inner = inner
        self.synth_cache = synth_cache

    def evaluate(self, recipes) -> list[float]:
        recipes = list(recipes)
        accuracies = [float(a) for a in self.accuracy_batch(recipes)]
        for recipe, accuracy in zip(recipes, accuracies):
            self.accuracy_of[recipe.steps] = accuracy
        return [abs(accuracy - self.target) for accuracy in accuracies]

    def cache_stats(self) -> dict:
        """Synthesis-cache accounting for this run (cross-worker aggregated)."""
        if self.synth_cache is None:
            return {}
        return self.synth_cache.stats()

    def close(self) -> None:
        if self._inner is not None:
            self._inner.close()
        elif self.synth_cache is not None and hasattr(
            self.synth_cache, "close"
        ):
            self.synth_cache.close()


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
            self.evaluator_name = evaluator.name
        else:
            self._proxy = None
            self._evaluate = evaluator
            self.evaluator_name = getattr(evaluator, "__name__", "custom")

    def _make_evaluator(self, accuracy_of: dict) -> _AccuracyEnergyEvaluator:
        config = self.config
        if config.jobs > 1 and self._can_fork_workers():
            scorer = self._evaluate
            shared = None
            if self._proxy is not None and self._proxy.synth_cache is not None:
                # One snapshot store for every worker: a pickled-per-worker
                # private SynthCache would start cold in each process and
                # forfeit exactly the prefix hits that make fan-out pay.
                shared = SharedSynthCache(
                    max_entries=self._proxy.synth_cache.max_entries
                )
                worker_proxy = dataclasses.replace(
                    self._proxy, synth_cache=shared
                )
                scorer = worker_proxy.predicted_accuracy
            try:
                pool = ProcessPoolEvaluator(
                    scorer, jobs=config.jobs, shared_cache=shared
                )
            except BaseException:
                # Pool construction failed (fork/fd limits): shut the
                # store's manager server down or its process leaks.
                if shared is not None:
                    shared.close()
                raise
            return _AccuracyEnergyEvaluator(
                pool.evaluate,
                config.target_accuracy,
                accuracy_of,
                inner=pool,
                synth_cache=shared,
            )
        if self._proxy is not None:
            return _AccuracyEnergyEvaluator(
                self._proxy.predicted_accuracy_batch,
                config.target_accuracy,
                accuracy_of,
                synth_cache=self._proxy.synth_cache,
            )
        return _AccuracyEnergyEvaluator(
            lambda recipes: [self._evaluate(r) for r in recipes],
            config.target_accuracy,
            accuracy_of,
        )

    @staticmethod
    def _can_fork_workers() -> bool:
        """False inside a daemonic pool worker (e.g. a grid cell running
        under ``Runner(jobs > 1)``), where nested pools are forbidden —
        scoring then falls back to the serial batch path."""
        import multiprocessing

        return not multiprocessing.current_process().daemon

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
            neighbour=_mutate_step,
            sample=lambda rng: random_recipe(config.recipe_length, rng=rng),
        )
        evaluator = self._make_evaluator(accuracy_of)
        try:
            result = run_search(
                problem,
                evaluator,
                strategy=config.strategy,
                config=SearchConfig(
                    iterations=config.sa_iterations,
                    t_initial=config.sa_t_initial,
                    acceptance=config.sa_acceptance,
                    seed=derive_seed(config.seed, "sa"),
                    chains=config.chains,
                ),
                trace_fn=trace_fn,
                stop_energy=config.stop_margin,
            )
        finally:
            # close() tears the pool down and freezes the shared store's
            # final cross-worker totals, so cache_stats() below still sees
            # them (pre-fix, they died with the workers).
            evaluator.close()
        best_recipe = result.best_state
        return AlmostResult(
            recipe=best_recipe,
            predicted_accuracy=accuracy_of[best_recipe.steps],
            trace=result.trace,
            strategy=config.strategy,
            iterations=result.iterations,
            energy_evaluations=result.energy_evaluations,
            synth_cache=evaluator.cache_stats(),
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
