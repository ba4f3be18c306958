"""The generic batched search loop shared by every strategy.

``run_search`` owns what the seed annealer interleaved with its Metropolis
logic: scoring candidates, recording the trace, and stopping.  It scores
each batch with one call to a ``score(states) -> energies`` function.
With the ``sa`` strategy it reproduces the seed loop bit-for-bit; with
``pt``/``beam``/``random`` each batch holds ``chains`` candidates, which
the scorer may fan out over a worker pool.

The loop is strategy- and scorer-agnostic: a deterministic toy problem
shows the accounting contract (``iterations`` counts observe rounds,
``energy_evaluations`` counts scored states, and both land in every trace
entry)::

    >>> from repro.core.search import SearchConfig, SearchProblem
    >>> problem = SearchProblem(initial=3.0, neighbour=lambda x, rng: x - 1.0)
    >>> def score(states):
    ...     return [abs(x) for x in states]
    >>> result = run_search(problem, score, strategy="sa",
    ...                     config=SearchConfig(iterations=3))
    >>> (result.best_energy, result.iterations, result.energy_evaluations)
    (0.0, 3, 4)
    >>> [entry["energy_evaluations"] for entry in result.trace]
    [1, 2, 3, 4]

The trace depends only on the energies, not on where they were
computed: the same trace comes back whether ``score`` loops inline or
ships the batch to a process pool.  That invariance (plus the synthesis
cache's exact-resume contract) is what lets ``--jobs`` fan out without
perturbing paper-fidelity traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generic, Optional, Sequence, TypeVar, Union

from repro.obs import metrics as _metrics
from repro.obs.trace import get_tracer
from repro.core.search.strategy import (
    SearchConfig,
    SearchProblem,
    Strategy,
    make_strategy,
)

State = TypeVar("State")


@dataclass
class SaResult(Generic[State]):
    """Best state found plus the full search trace.

    ``iterations`` counts propose/observe rounds actually run;
    ``energy_evaluations`` counts states scored — the two diverge under
    ``stop_energy`` early exit and under batched strategies (one round of
    ``chains`` candidates is one iteration but many evaluations), so both
    are tracked and every trace entry carries the running
    ``energy_evaluations`` total.
    """

    best_state: State
    best_energy: float
    trace: list[dict] = field(default_factory=list)
    iterations: int = 0
    energy_evaluations: int = 0

    def energies(self) -> list[float]:
        return [entry["energy"] for entry in self.trace]

    def values(self, key: str) -> list:
        return [entry.get(key) for entry in self.trace]


def run_search(
    problem: SearchProblem,
    score: Callable[[Sequence[State]], Sequence[float]],
    strategy: Union[str, Strategy] = "sa",
    config: Optional[SearchConfig] = None,
    trace_fn: Optional[Callable[[State, float], dict]] = None,
    stop_energy: Optional[float] = None,
) -> SaResult:
    """Minimize over ``problem`` with the named (or given) strategy.

    ``score`` maps a batch of states to their energies, in order.
    ``trace_fn(state, energy)`` may add extra fields to every trace entry
    (the Fig. 4 benches log predicted accuracy); ``stop_energy``
    short-circuits once the best energy reaches it.
    """
    config = config if config is not None else SearchConfig()
    if isinstance(strategy, Strategy):
        engine = strategy
    else:
        engine = make_strategy(strategy, problem, config)

    trace: list[dict] = []
    evaluations = 0
    rounds = 0

    def absorb(rows) -> None:
        for entry, state in rows:
            entry["energy_evaluations"] = evaluations
            if trace_fn is not None:
                entry.update(trace_fn(state, entry["energy"]))
            trace.append(entry)

    tracer = get_tracer()
    states = engine.bootstrap()
    energies = [float(energy) for energy in score(states)]
    evaluations += len(states)
    _metrics.inc("search.energy_evaluations", len(states))
    absorb(engine.start(states, energies))
    while True:
        batch = engine.propose()
        if not batch:
            break
        with tracer.span("search.round", round=rounds + 1) as span:
            energies = [float(energy) for energy in score(batch)]
            evaluations += len(batch)
            rounds += 1
            _metrics.inc("search.rounds")
            _metrics.inc("search.energy_evaluations", len(batch))
            absorb(engine.observe(batch, energies))
            span.set(batch=len(batch), best_energy=engine.best_energy)
        # The stop check runs *after* each observed round, exactly like the
        # seed annealer (which always evaluated at least one neighbour even
        # when the initial state already satisfied stop_energy).
        if stop_energy is not None and engine.best_energy <= stop_energy:
            break
    return SaResult(
        best_state=engine.best_state,
        best_energy=engine.best_energy,
        trace=trace,
        iterations=rounds,
        energy_evaluations=evaluations,
    )
