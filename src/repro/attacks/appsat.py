"""AppSAT: approximate oracle-guided SAT attack (Shamsi et al., HOST'17).

The exact DIP loop is what point-function defenses (Anti-SAT, SARLock —
:mod:`repro.defenses`) starve: each DIP eliminates a vanishing fraction of
the wrong keys, so convergence takes ~``2^width`` iterations.  AppSAT's
observation is that those surviving "wrong" keys are *almost correct* —
they err on a single minterm — so an attacker content with an approximate
key can stop as soon as random sampling can no longer tell the candidate
apart from the oracle:

1. run the ordinary DIP loop (shared :class:`~repro.attacks.sat_attack.\
DipLoop` core);
2. every ``query_period`` DIPs, extract the current candidate key and
   estimate its error rate on ``random_queries`` random patterns against
   the oracle;
3. feed any disagreeing random pattern back as an I/O constraint (it acts
   like a free DIP), and once the measured error stays at or below
   ``error_threshold`` for ``settle_rounds`` consecutive estimates, return
   the candidate as an *approximate* key with its measured error rate.

Against compound RLL+point-function locks this recovers the RLL portion
exactly (its wrong keys corrupt many minterms, so random queries expose
them) while giving up on the point-function portion — precisely the
published failure mode of these defenses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.attacks.base import AttackResult
from repro.attacks.sat_attack import DipLoop, Oracle, resolve_oracle
from repro.errors import AttackError
from repro.locking.key import Key
from repro.locking.rll import LockedCircuit
from repro.netlist.netlist import Netlist
from repro.obs.trace import get_tracer
from repro.utils.rng import make_rng


@dataclass
class AppSatConfig:
    """Knobs for the approximate DIP loop."""

    max_iterations: int = 512
    query_period: int = 8       # estimate error every this many DIPs
    random_queries: int = 64    # patterns per error estimate
    error_threshold: float = 0.0  # acceptable estimated error rate
    settle_rounds: int = 2      # consecutive passing estimates before exit
    seed: int = 0

    def __post_init__(self) -> None:
        if self.query_period < 1:
            raise AttackError("AppSatConfig.query_period must be >= 1")
        if self.random_queries < 1:
            raise AttackError("AppSatConfig.random_queries must be >= 1")
        if not 0.0 <= self.error_threshold < 1.0:
            raise AttackError(
                "AppSatConfig.error_threshold must be in [0, 1)"
            )
        if self.settle_rounds < 1:
            raise AttackError("AppSatConfig.settle_rounds must be >= 1")


class AppSatAttack:
    """Approximate SAT attack: DIP loop + periodic random-query estimation."""

    name = "appsat"

    def __init__(self, config: Optional[AppSatConfig] = None):
        self.config = config if config is not None else AppSatConfig()

    def attack(
        self,
        locked: Union[Netlist, LockedCircuit],
        oracle: Optional[Oracle] = None,
        true_key: Optional[Key] = None,
    ) -> AttackResult:
        """Run the approximate loop; returns a key with a measured error.

        Termination is one of: *exact* (the miter went UNSAT — same proof
        as :class:`~repro.attacks.sat_attack.SatAttack`), *early exit*
        (error estimate settled at or below the threshold) or *budget
        exhaustion* (``details["budget_exhausted"] = True``, sharing the
        partial-result shape of the exact attack so grids keep running).
        """
        config = self.config
        netlist, oracle, true_key = resolve_oracle(locked, oracle, true_key)
        loop = DipLoop(netlist, oracle)
        rng = make_rng(config.seed)
        settled = 0
        estimates = 0
        reinforced = 0
        error_rate: Optional[float] = None
        candidate: Optional[tuple[int, ...]] = None
        exact = False
        early_exit = False
        budget_exhausted = False

        with get_tracer().span(
            "attack.appsat", circuit=netlist.name, keys=len(netlist.key_inputs)
        ) as span:
            while True:
                pattern = loop.find_dip()
                if pattern is None:
                    exact = True
                    break
                if loop.iterations >= config.max_iterations:
                    budget_exhausted = True
                    break
                loop.observe(pattern)
                if loop.iterations % config.query_period:
                    continue
                candidate = loop.extract_key()
                if candidate is None:
                    raise AttackError(
                        "no key survives the accumulated I/O constraints "
                        "(inconsistent oracle?)"
                    )
                estimates += 1
                error_rate, wrong = self._estimate_error(
                    loop, candidate, rng
                )
                for wrong_pattern, response in wrong:
                    loop.add_observation(wrong_pattern, response)
                reinforced += len(wrong)
                if error_rate <= config.error_threshold:
                    settled += 1
                    if settled >= config.settle_rounds:
                        early_exit = True
                        break
                else:
                    settled = 0

            if exact or budget_exhausted or candidate is None:
                candidate = loop.extract_key()
                if candidate is None:
                    raise AttackError(
                        "no key survives the accumulated I/O constraints "
                        "(inconsistent oracle?)"
                    )
            if exact:
                error_rate = 0.0
            elif not early_exit:
                # Budget exhaustion re-extracted a fresh candidate; any
                # earlier estimate belonged to a different key, so measure
                # this one.
                error_rate, _wrong = self._estimate_error(
                    loop, candidate, rng
                )
            key_unique = loop.key_is_unique(candidate) if exact else False
            span.set(
                iterations=loop.iterations,
                exact=exact,
                early_exit=early_exit,
                budget_exhausted=budget_exhausted,
            )
        confidence = 1.0 if exact else (0.5 if budget_exhausted else 0.9)
        details = loop.details()
        details.update(
            {
                "exact": exact,
                "early_exit": early_exit,
                "budget_exhausted": budget_exhausted,
                "error_rate": error_rate,
                "error_estimates": estimates,
                "reinforced_queries": reinforced,
                "key_unique": key_unique,
            }
        )
        return AttackResult(
            predicted_bits=candidate,
            true_key=true_key,
            confidence=tuple(confidence for _ in candidate),
            attack_name=self.name,
            details=details,
        )

    def _estimate_error(
        self,
        loop: DipLoop,
        candidate: tuple[int, ...],
        rng,
    ) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
        """Fraction of random patterns where the candidate key errs.

        Returns ``(error_rate, wrong)`` with ``wrong`` the disagreeing
        ``(pattern, oracle_response)`` pairs for constraint reinforcement.
        The whole estimate is one packed simulation pass when the oracle
        allows it (see :meth:`DipLoop.compare_key`); query accounting is
        unchanged — one oracle query per random pattern.
        """
        patterns = rng.integers(
            0, 2,
            size=(self.config.random_queries, len(loop.functional)),
            dtype=np.uint8,
        )
        expected, predicted = loop.compare_key(candidate, patterns)
        mismatch = (expected != predicted).any(axis=1)
        wrong = [
            (patterns[index], expected[index])
            for index in np.flatnonzero(mismatch)
        ]
        return float(mismatch.mean()), wrong
