"""The batch-propose/observe strategy protocol and its registry.

A :class:`Strategy` drives a black-box minimization by *proposing a batch*
of candidate states and *observing* their energies; the driver
(:func:`repro.core.search.driver.run_search`) owns the scoring loop, so
one strategy implementation works whether a batch is scored in a loop,
vectorized, or over a process pool.  Strategies are registered by name
(``sa``, ``pt``, ``beam``, ``random``) so CLI flags and pipeline specs can
select them declaratively.  Every built-in derives its randomness from
``SearchConfig.seed`` alone, so a strategy's proposal stream — and hence
the whole search trace — is deterministic per seed however the batches
are scored.  Plugins add themselves with :func:`register_strategy` and
duplicates are rejected outright::

    >>> get_strategy("sa").__name__
    'SaStrategy'
    >>> get_strategy("no-such-engine")
    Traceback (most recent call last):
        ...
    repro.errors.SearchError: unknown search strategy 'no-such-engine'; \
available: ['beam', 'pt', 'random', 'sa']

Config validation fails fast, before any scoring budget is spent::

    >>> SearchConfig(chains=0)
    Traceback (most recent call last):
        ...
    repro.errors.SearchError: chains must be >= 1, got 0
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.errors import SearchError


@dataclass
class SearchProblem:
    """What is being searched: a start state and how to move around it.

    ``neighbour(state, rng)`` is the local mutation (the SA neighbourhood
    move); ``sample(rng)`` optionally draws an independent state — used to
    seed extra chains/beam slots and by the ``random`` baseline.  Without
    ``sample``, independent draws fall back to mutating the initial state.
    """

    initial: Any
    neighbour: Callable[[Any, Any], Any]
    sample: Optional[Callable[[Any], Any]] = None

    def sample_state(self, rng) -> Any:
        if self.sample is not None:
            return self.sample(rng)
        return self.neighbour(self.initial, rng)


@dataclass
class SearchConfig:
    """Shared strategy knobs.

    The first five fields are the paper's annealing schedule (Sec. IV-C
    defaults: 100 iterations, ``t_initial`` 120, ``acceptance`` 1.8);
    ``chains`` sizes the proposal batch (parallel-tempering chains, beam
    width, random-sampling batch).
    """

    iterations: int = 100
    t_initial: float = 120.0
    acceptance: float = 1.8
    cooling: float = 0.95
    seed: int = 0
    chains: int = 1

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise SearchError(
                f"iterations must be >= 0, got {self.iterations}"
            )
        if self.chains < 1:
            raise SearchError(f"chains must be >= 1, got {self.chains}")


class Strategy(ABC):
    """Batched search strategy protocol.

    Lifecycle: the driver evaluates :meth:`bootstrap`'s states, feeds the
    energies to :meth:`start`, then loops :meth:`propose` / :meth:`observe`
    until the batch comes back empty (budget spent) or an external stop
    fires.  ``start`` and ``observe`` return ``(trace_entry, state)`` pairs
    — one per chain/slot — so the driver can append caller extras
    (``trace_fn``) before recording.
    """

    def __init__(self, problem: SearchProblem, config: SearchConfig):
        self.problem = problem
        self.config = config
        self.best_state: Any = None
        self.best_energy: float = math.inf

    def _improve(self, state: Any, energy: float) -> None:
        if energy < self.best_energy:
            self.best_state = state
            self.best_energy = energy

    @abstractmethod
    def bootstrap(self) -> list:
        """States whose energies are needed before the first round."""

    @abstractmethod
    def start(
        self, states: Sequence, energies: Sequence[float]
    ) -> list[tuple[dict, Any]]:
        """Observe the bootstrap energies; returns iteration-0 trace rows."""

    @abstractmethod
    def propose(self) -> list:
        """Next candidate batch; empty list = strategy is finished."""

    @abstractmethod
    def observe(
        self, states: Sequence, energies: Sequence[float]
    ) -> list[tuple[dict, Any]]:
        """Digest the batch energies; returns this round's trace rows."""


# -- registry --------------------------------------------------------------

_REGISTRY: dict[str, Callable[[SearchProblem, SearchConfig], Strategy]] = {}


def register_strategy(name: str):
    """Class/factory decorator adding a strategy under ``name``.

    Duplicate names are rejected — a plugin silently shadowing ``sa``
    would corrupt every paper-fidelity trace downstream.
    """

    def decorator(factory):
        if name in _REGISTRY:
            raise SearchError(f"strategy {name!r} is already registered")
        _REGISTRY[name] = factory
        return factory

    return decorator


def available_strategies() -> list[str]:
    return sorted(_REGISTRY)


def get_strategy(name: str):
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SearchError(
            f"unknown search strategy {name!r}; "
            f"available: {available_strategies()}"
        ) from None


def make_strategy(
    name: str, problem: SearchProblem, config: SearchConfig
) -> Strategy:
    return get_strategy(name)(problem, config)
