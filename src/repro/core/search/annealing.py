"""Annealing strategies: the paper's serial SA and parallel tempering.

:class:`SaStrategy` re-expresses the seed annealer as a batch-of-one
strategy.  Its RNG call pattern — one ``neighbour`` draw per iteration and
one ``rng.random()`` only when the move is uphill — is identical to the
seed loop, so the ``sa`` strategy with paper defaults reproduces the seed
trace bit-for-bit on a fixed seed (pinned by
``benchmarks/test_bench_search.py``).

:class:`ParallelTemperingStrategy` runs ``chains`` replicas on a geometric
temperature ladder from ``t_initial`` up to ``T_HOT_FACTOR`` times it,
proposing one candidate per chain per round (a natural evaluation batch)
and attempting replica swaps between adjacent temperatures every
``SWAP_PERIOD`` rounds.  Each chain owns a derived RNG stream, so results
are deterministic per seed regardless of how the batch is evaluated.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from repro.core.search.strategy import (
    SearchConfig,
    SearchProblem,
    Strategy,
    register_strategy,
)
from repro.utils.rng import derive_seed, make_rng

T_HOT_FACTOR = 8.0   # tempering ladder top, in units of t_initial
SWAP_PERIOD = 5      # rounds between replica-swap attempts


@register_strategy("sa")
class SaStrategy(Strategy):
    """Single-chain Metropolis annealing (seed-trace compatible)."""

    def __init__(self, problem: SearchProblem, config: SearchConfig):
        super().__init__(problem, config)
        self.rng = make_rng(config.seed)
        self.current = problem.initial
        self.current_energy = math.inf
        self.temperature = config.t_initial
        self.round = 0

    def _entry(self, iteration: int, energy: float, accepted: bool) -> dict:
        return {
            "iteration": iteration,
            "energy": energy,
            "best_energy": self.best_energy,
            "temperature": self.temperature,
            "accepted": accepted,
        }

    def bootstrap(self) -> list:
        return [self.current]

    def start(self, states, energies):
        self.current_energy = energies[0]
        self._improve(self.current, energies[0])
        return [(self._entry(0, self.current_energy, True), self.current)]

    def propose(self) -> list:
        if self.round >= self.config.iterations:
            return []
        return [self.problem.neighbour(self.current, self.rng)]

    def observe(self, states, energies):
        self.round += 1
        candidate, candidate_energy = states[0], energies[0]
        delta = candidate_energy - self.current_energy
        if delta <= 0:
            # Downhill moves never touch the RNG (seed stream compatible).
            accepted = True
        else:
            probability = metropolis_probability(
                delta, self.temperature, self.config.acceptance
            )
            accepted = bool(self.rng.random() < probability)
        if accepted:
            self.current = candidate
            self.current_energy = candidate_energy
            self._improve(candidate, candidate_energy)
        rows = [
            (self._entry(self.round, self.current_energy, accepted), self.current)
        ]
        self.temperature *= self.config.cooling
        return rows


@register_strategy("pt")
class ParallelTemperingStrategy(Strategy):
    """Multi-chain SA on a temperature ladder with replica exchange."""

    def __init__(self, problem: SearchProblem, config: SearchConfig):
        super().__init__(problem, config)
        chains = config.chains
        self.rngs = [
            make_rng(derive_seed(config.seed, "pt-chain", index))
            for index in range(chains)
        ]
        self.swap_rng = make_rng(derive_seed(config.seed, "pt-swap"))
        if chains == 1:
            self.temperatures = [config.t_initial]
        else:
            ratio = T_HOT_FACTOR ** (1.0 / (chains - 1))
            self.temperatures = [
                config.t_initial * ratio**index for index in range(chains)
            ]
        self.states = [problem.initial] + [
            problem.sample_state(self.rngs[index]) for index in range(1, chains)
        ]
        self.energies = [math.inf] * chains
        self.round = 0

    def _entry(
        self, chain: int, energy: float, accepted: bool, swapped: bool
    ) -> dict:
        return {
            "iteration": self.round,
            "chain": chain,
            "energy": energy,
            "best_energy": self.best_energy,
            "temperature": self.temperatures[chain],
            "accepted": accepted,
            "swapped": swapped,
        }

    def bootstrap(self) -> list:
        return list(self.states)

    def start(self, states, energies):
        self.energies = [float(e) for e in energies]
        for state, energy in zip(states, energies):
            self._improve(state, energy)
        return [
            (self._entry(chain, self.energies[chain], True, False), state)
            for chain, state in enumerate(self.states)
        ]

    def propose(self) -> list:
        if self.round >= self.config.iterations:
            return []
        return [
            self.problem.neighbour(self.states[chain], self.rngs[chain])
            for chain in range(self.config.chains)
        ]

    def observe(self, states, energies):
        self.round += 1
        accepted_flags = []
        for chain, (candidate, candidate_energy) in enumerate(
            zip(states, energies)
        ):
            delta = candidate_energy - self.energies[chain]
            if delta <= 0:
                accepted = True
            else:
                probability = metropolis_probability(
                    delta, self.temperatures[chain], self.config.acceptance
                )
                accepted = bool(self.rngs[chain].random() < probability)
            if accepted:
                self.states[chain] = candidate
                self.energies[chain] = candidate_energy
                self._improve(candidate, candidate_energy)
            accepted_flags.append(accepted)
        swapped_flags = [False] * self.config.chains
        if self.round % SWAP_PERIOD == 0:
            self._attempt_swaps(swapped_flags)
        rows = [
            (
                self._entry(
                    chain,
                    self.energies[chain],
                    accepted_flags[chain],
                    swapped_flags[chain],
                ),
                self.states[chain],
            )
            for chain in range(self.config.chains)
        ]
        self.temperatures = [
            t * self.config.cooling for t in self.temperatures
        ]
        return rows

    def _attempt_swaps(self, swapped_flags: list[bool]) -> None:
        """Replica exchange between adjacent ladder rungs.

        Alternates even/odd pairings between swap rounds so every adjacent
        pair gets a chance.  A swap moving the lower energy to the colder
        rung is always taken; the reverse is Metropolis-weighted by the
        inverse-temperature gap.
        """
        phase = (self.round // SWAP_PERIOD) % 2
        for cold in range(phase, self.config.chains - 1, 2):
            hot = cold + 1
            beta_cold = 1.0 / max(self.temperatures[cold], 1e-9)
            beta_hot = 1.0 / max(self.temperatures[hot], 1e-9)
            argument = (
                (beta_cold - beta_hot)
                * (self.energies[cold] - self.energies[hot])
                * self.config.acceptance
            )
            if self.swap_rng.random() < math.exp(min(argument, 0.0)):
                self.states[cold], self.states[hot] = (
                    self.states[hot],
                    self.states[cold],
                )
                self.energies[cold], self.energies[hot] = (
                    self.energies[hot],
                    self.energies[cold],
                )
                swapped_flags[cold] = swapped_flags[hot] = True


def metropolis_probability(
    delta: float, temperature: float, acceptance: float
) -> float:
    """The paper's acceptance rule ``exp(-dE * acceptance / T)`` (clamped)."""
    if delta <= 0:
        return 1.0
    return math.exp(-delta * acceptance / max(temperature, 1e-9))
