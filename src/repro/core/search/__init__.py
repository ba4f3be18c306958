"""Batched, pluggable recipe-search engine.

The paper's Eq. 1 search — and every other black-box minimization in the
repo — runs through one driver (:func:`run_search`) that pairs a
:class:`Strategy` (proposes candidate batches, observes energies) with a
batch scoring function ``score(states) -> energies``; whether that
function loops, vectorizes or fans out over a process pool is the
caller's business.  Built-in strategies:

* ``sa``     — the paper's serial simulated annealing (seed-trace exact);
* ``pt``     — multi-chain parallel tempering with replica swaps;
* ``beam``   — greedy beam search at width ``chains``;
* ``random`` — IID sampling baseline.

All four are looked up by name through the strategy registry, which CLI
flags, :class:`~repro.pipeline.spec.DefenseSpec` fields and strategy
sweeps resolve against::

    >>> sorted(set(available_strategies()) & {"sa", "pt", "beam", "random"})
    ['beam', 'pt', 'random', 'sa']

The search itself is one call — strategies are deterministic per seed, so
the same config always reproduces the same trace::

    >>> problem = SearchProblem(initial=4.0, neighbour=lambda x, rng: x - 1.0)
    >>> def score(states):
    ...     return [abs(x) for x in states]
    >>> result = run_search(problem, score, strategy="sa",
    ...                     config=SearchConfig(iterations=4))
    >>> (result.best_energy, result.energy_evaluations)
    (0.0, 5)

Recipe energies are usually scored through a cached synthesizer
(:mod:`repro.synth.cache`); because its snapshots resume exactly, the
trace above is identical whether or not (and wherever) a cache is
attached.
"""

from repro.core.search.strategy import (
    SearchConfig,
    SearchProblem,
    Strategy,
    available_strategies,
    get_strategy,
    make_strategy,
    register_strategy,
)
from repro.core.search.driver import SaResult, run_search

# Importing the strategy modules populates the registry.
from repro.core.search import annealing as _annealing  # noqa: F401
from repro.core.search import beam as _beam  # noqa: F401
from repro.core.search import random_search as _random_search  # noqa: F401

__all__ = [
    "SearchConfig",
    "SearchProblem",
    "Strategy",
    "SaResult",
    "run_search",
    "register_strategy",
    "get_strategy",
    "make_strategy",
    "available_strategies",
]
