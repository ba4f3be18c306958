"""The oracle-guided SAT attack on logic locking (Subramanyan et al., 2015).

This is the *oracle-guided* counterpart to the oracle-less ML family the
ALMOST paper defends against: the attacker holds the locked netlist **and**
a black-box functional chip (the oracle) and runs the classic DIP loop:

1. encode the locked circuit twice over shared functional inputs with two
   independent key vectors, and assert (under an activation assumption)
   that some output differs — a satisfying assignment is a *distinguishing
   input pattern* (DIP): an input on which the two candidate keys disagree;
2. query the oracle on the DIP and add, for each key vector, one more
   circuit copy whose functional inputs are the DIP's constants and whose
   outputs are pinned to the oracle's reply, eliminating every key
   inconsistent with that I/O observation.  The constants fold through the
   copy (:func:`repro.sat.cnf.tseitin_netlist`), so only the gates that
   still depend on the key are encoded — KC2's key-condition idea (Shamsi
   et al., DATE 2019) applied to one combinational observation;
3. repeat until UNSAT — no DIP remains, so all surviving keys are
   functionally equivalent — then drop the activation assumption and read
   any surviving key from the solver model.

The miter/DIP machinery lives in :class:`DipLoop` so attack variants can
drive it differently: :class:`SatAttack` here runs it to UNSAT (exact
recovery), :class:`repro.attacks.appsat.AppSatAttack` interleaves random
query-based error estimation and exits early with an approximate key — the
difference that matters against point-function defenses
(:mod:`repro.defenses`), where exact convergence needs exponentially many
DIPs but an approximate key is a few queries away.

The incremental CDCL solver keeps its learned clauses across iterations;
the activation literal is what lets the same solver instance alternate
between "find a DIP" and "give me a surviving key".
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from repro.attacks.base import AttackResult
from repro.errors import AttackError
from repro.locking.key import Key, KeyOracle, oracle_outputs
from repro.locking.rll import LockedCircuit
from repro.netlist.netlist import Netlist
from repro.obs import metrics as _metrics
from repro.obs.trace import get_tracer
from repro.sat.cnf import Cnf, add_xor_clauses, tseitin_netlist
from repro.sat.solver import CdclSolver

Oracle = Callable[[np.ndarray], np.ndarray]

#: Solver counters sampled into each per-iteration trace entry.
_TRACE_COUNTERS = ("conflicts", "decisions", "propagations", "restarts")


def oracle_from_key(locked: Netlist, key: Key) -> Oracle:
    """Black-box oracle simulating the locked netlist under the true key.

    Patterns follow ``locked.functional_inputs`` order; outputs follow
    ``locked.outputs`` order — the interface an unlocked chip on a tester
    would expose.  The returned callable is a
    :class:`~repro.locking.key.KeyOracle`, which the loop recognises to
    batch candidate-key evaluation into the oracle's own packed pass.
    """
    return KeyOracle(locked, key)


def resolve_oracle(
    locked: Union[Netlist, LockedCircuit],
    oracle: Optional[Oracle],
    true_key: Optional[Key],
) -> tuple[Netlist, Oracle, Optional[Key]]:
    """Normalize the (netlist, oracle, true key) triple attacks start from.

    ``locked`` may be a bare netlist (then ``oracle`` is required) or a
    :class:`LockedCircuit`, whose own key builds the oracle — the
    defender's netlist+key stand in for the physical unlocked chip.
    """
    if isinstance(locked, LockedCircuit):
        netlist = locked.netlist
        if oracle is None:
            oracle = oracle_from_key(netlist, locked.key)
        if true_key is None:
            true_key = locked.key
    else:
        netlist = locked
    if oracle is None:
        raise AttackError("SAT attack needs an oracle (or a LockedCircuit)")
    # Missing keyinput* pins are DipLoop's invariant; it raises on them.
    return netlist, oracle, true_key


class DipLoop:
    """Reusable miter/DIP core both SAT-family attacks drive.

    Owns the double encoding, the activation-gated miter constraint, the
    solver and the oracle bookkeeping.  One incremental
    :class:`CdclSolver` lives for the whole loop: learned clauses,
    activities and saved phases carry over every
    ``find_dip``/``extract_key``/``key_is_unique`` call, and each oracle
    observation only appends clauses to it.  Per-iteration solver effort
    (conflict/decision/propagation deltas and wall-clock time) is
    recorded in :attr:`trace` so callers can surface query-complexity
    curves without re-running anything.
    """

    def __init__(self, netlist: Netlist, oracle: Oracle):
        if not netlist.key_inputs:
            raise AttackError(
                "design has no keyinput* pins; nothing to recover"
            )
        self.netlist = netlist
        self.oracle = oracle
        self.key_nets = netlist.key_inputs
        self.functional = netlist.functional_inputs
        self.iterations = 0
        self.oracle_queries = 0
        self.trace: list[dict] = []
        self.started = time.perf_counter()
        self._iter_started = self.started
        self._iter_counters = dict.fromkeys(_TRACE_COUNTERS, 0)

        cnf = Cnf()
        self._copy_a = tseitin_netlist(netlist, cnf)
        self._shared = {
            net: self._copy_a.inputs[net] for net in self.functional
        }
        self._copy_b = tseitin_netlist(netlist, cnf, input_vars=self._shared)

        # Activation literal gating the "outputs differ" miter constraint.
        self.activate = cnf.new_var()
        diffs = []
        for net in netlist.outputs:
            diff = cnf.new_var()
            add_xor_clauses(
                cnf, diff, self._copy_a.outputs[net], self._copy_b.outputs[net]
            )
            diffs.append(diff)
        cnf.add_clause((-self.activate, *diffs))
        self.solver = CdclSolver(cnf)

    def find_dip(self) -> Optional[np.ndarray]:
        """Next distinguishing input pattern, or None once none remains.

        ``None`` is the convergence proof: every surviving key pair agrees
        on every input.  A globally unsatisfiable miter before any
        observation indicates a broken encoding and raises.
        """
        # Snapshot the counters *before* the miter solve so the matching
        # observe() call can attribute this DIP's search effort to its
        # trace entry.
        self._iter_started = time.perf_counter()
        stats = self.solver.stats
        self._iter_counters = {name: stats[name] for name in _TRACE_COUNTERS}
        result = self.solver.solve([self.activate])
        if not result.satisfiable:
            if not result.assumption_failed and self.iterations == 0:
                raise AttackError("miter unsatisfiable before any DIP")
            return None
        assert result.model is not None
        return np.array(
            [int(result.model[self._shared[net]]) for net in self.functional],
            dtype=np.uint8,
        )

    def observe(self, pattern: np.ndarray) -> np.ndarray:
        """Query the oracle on ``pattern`` and pin both copies to the reply.

        Returns the oracle response; increments the iteration counter and
        appends a trace entry with the solver-effort deltas this DIP cost
        (spanning the :meth:`find_dip` solve that produced the pattern).
        """
        response = self.query_oracle(pattern.reshape(1, -1))[0]
        self.add_observation(pattern, response)
        self.iterations += 1
        _metrics.inc("dip.iterations")
        entry = {
            "iteration": self.iterations,
            "elapsed_s": round(time.perf_counter() - self._iter_started, 6),
        }
        stats = self.solver.stats
        for name in _TRACE_COUNTERS:
            entry[name] = stats[name] - self._iter_counters[name]
        self.trace.append(entry)
        return response

    def query_oracle(self, patterns: np.ndarray) -> np.ndarray:
        """Raw oracle access with query accounting (one query per pattern)."""
        count = int(patterns.shape[0])
        self.oracle_queries += count
        _metrics.inc("dip.oracle_queries", count)
        return self.oracle(patterns)

    def compare_key(
        self, candidate: tuple[int, ...], patterns: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Oracle and candidate-key outputs on ``patterns``.

        Counts one oracle query per pattern, like :meth:`query_oracle`.
        When the oracle is a :class:`~repro.locking.key.KeyOracle` over
        this loop's netlist — the common case, built by
        :func:`resolve_oracle` from a ``LockedCircuit`` — the true key and
        the candidate ride one packed simulation pass; a foreign oracle
        falls back to a separate call plus a candidate simulation, with a
        bit-identical result either way.
        """
        count = int(patterns.shape[0])
        self.oracle_queries += count
        _metrics.inc("dip.oracle_queries", count)
        if (
            isinstance(self.oracle, KeyOracle)
            and self.oracle.netlist is self.netlist
        ):
            stacked = self.oracle.with_candidates([Key(candidate)], patterns)
            return stacked[0], stacked[1]
        expected = self.oracle(patterns)
        predicted = oracle_outputs(self.netlist, Key(candidate), patterns)
        return expected, predicted

    def add_observation(
        self, pattern: np.ndarray, response: np.ndarray
    ) -> None:
        """Constrain both key copies to reproduce one I/O observation.

        Used by :meth:`observe` for DIPs and directly by AppSAT to feed
        back disagreeing *random* queries without spending a miter solve.
        """
        self._pin_observation(pattern, response, self._copy_a)
        self._pin_observation(pattern, response, self._copy_b)

    def extract_key(self) -> Optional[tuple[int, ...]]:
        """A key consistent with every observation so far (miter disabled).

        ``None`` means no key survives — possible only with an
        inconsistent oracle.  Before convergence this is the *candidate*
        key AppSAT error-estimates; after convergence it is provably
        equivalent to the oracle.
        """
        result = self.solver.solve([-self.activate])
        if not result.satisfiable:
            return None
        assert result.model is not None
        return tuple(
            int(result.model[self._copy_a.inputs[net]])
            for net in self.key_nets
        )

    def key_is_unique(self, key_bits: tuple[int, ...]) -> bool:
        """True when no *other* key satisfies the accumulated observations.

        Blocks ``key_bits`` on the first copy's key variables and re-solves
        under the deactivated miter; a model is a different surviving key.
        After convergence the survivors are functionally equivalent, but
        they are still distinct keys — a table must not call them unique.
        The blocking clause is permanent, so call this after the loop is
        otherwise done with the solver.
        """
        blocking = tuple(
            -self._copy_a.inputs[net] if bit else self._copy_a.inputs[net]
            for net, bit in zip(self.key_nets, key_bits)
        )
        self.solver.add_clause(blocking)
        return not self.solver.solve([-self.activate]).satisfiable

    @property
    def elapsed_s(self) -> float:
        return time.perf_counter() - self.started

    def details(self) -> dict:
        """The instrumentation block shared by every DipLoop-based attack."""
        return {
            "iterations": self.iterations,
            "oracle_queries": self.oracle_queries,
            "trace": list(self.trace),
            "elapsed_s": self.elapsed_s,
            "solver": dict(self.solver.stats),
        }

    def _pin_observation(
        self, pattern: np.ndarray, response: np.ndarray, key_copy
    ) -> None:
        """Add a circuit copy constrained to one oracle observation.

        The fresh copy shares ``key_copy``'s key variables and holds its
        functional inputs at the DIP's constants, which fold away every
        gate the key cannot reach; its outputs are pinned to the oracle
        response, so every future model's key must reproduce this I/O
        pair.  An output the constants alone decide, against the oracle,
        leaves no key standing.
        """
        shared = {net: key_copy.inputs[net] for net in self.key_nets}
        extra = Cnf(self.solver.num_vars)
        observed = tseitin_netlist(
            self.netlist,
            extra,
            input_vars=shared,
            constants=dict(zip(self.functional, pattern)),
        )
        self.solver.ensure_vars(extra.num_vars)
        for clause in extra.clauses:
            self.solver.add_clause(clause)
        for net, bit in zip(self.netlist.outputs, response):
            lit = observed.outputs[net]
            self.solver.add_clause((lit if bit else -lit,))


@dataclass
class SatAttackConfig:
    """DIP budget of the exact attack (one oracle query per DIP)."""

    max_iterations: int = 512


class SatAttack:
    """Oracle-guided SAT key recovery; API-compatible with the other attacks."""

    name = "sat"

    def __init__(self, config: Optional[SatAttackConfig] = None):
        self.config = config if config is not None else SatAttackConfig()

    def attack(
        self,
        locked: Union[Netlist, LockedCircuit],
        oracle: Optional[Oracle] = None,
        true_key: Optional[Key] = None,
    ) -> AttackResult:
        """Run the DIP loop to convergence and return the recovered key.

        On DIP-budget exhaustion the attack does **not** raise: it returns
        a partial result flagged ``details["budget_exhausted"] = True``
        whose key merely satisfies the observations made so far — the
        expected outcome against point-function defenses, and the shape
        grid runs rely on so one resilient cell cannot kill a whole sweep.
        """
        netlist, oracle, true_key = resolve_oracle(locked, oracle, true_key)
        with get_tracer().span(
            "attack.sat", circuit=netlist.name, keys=len(netlist.key_inputs)
        ) as span:
            loop = DipLoop(netlist, oracle)
            budget_exhausted = False
            dips: list[dict[str, int]] = []
            while True:
                pattern = loop.find_dip()
                if pattern is None:
                    break
                if loop.iterations >= self.config.max_iterations:
                    budget_exhausted = True
                    break
                loop.observe(pattern)
                dips.append(
                    {net: int(bit) for net, bit in zip(loop.functional, pattern)}
                )
            span.set(
                iterations=loop.iterations, budget_exhausted=budget_exhausted
            )
            predicted = loop.extract_key()
        if predicted is None:
            raise AttackError(
                "no key survives the accumulated I/O constraints "
                "(inconsistent oracle?)"
            )
        # A budget-exhausted loop just found a DIP, i.e. two surviving keys
        # that disagree — the candidate is provably not unique.
        key_unique = (
            False if budget_exhausted else loop.key_is_unique(predicted)
        )
        confidence = 0.5 if budget_exhausted else 1.0
        details = loop.details()
        details.update(
            {
                "key_unique": key_unique,
                "budget_exhausted": budget_exhausted,
                "exact": not budget_exhausted,
                "dips": dips,
            }
        )
        return AttackResult(
            predicted_bits=predicted,
            true_key=true_key,
            confidence=tuple(confidence for _ in predicted),
            attack_name=self.name,
            details=details,
        )
