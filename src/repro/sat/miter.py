"""Miter construction and SAT-based combinational equivalence checking.

A *miter* joins two circuits over shared primary inputs and ORs the XORs of
their paired outputs: the miter output is 1 exactly on input patterns where
the circuits disagree.  :func:`check_equivalence` encodes the miter to CNF,
asks the CDCL solver for a disagreeing pattern, and returns either a proof
of equivalence (UNSAT) or a concrete counterexample — which is re-simulated
through :mod:`repro.aig.simulate` before being reported, so a returned
counterexample is always a *verified* functional difference.

Before encoding anything, a random-simulation prefilter pushes
``prefilter_width`` patterns through the miter as one bit-parallel integer
word per node; any set bit of the ``diff`` output is already a
counterexample, so grossly inequivalent pairs never pay for CNF
construction or a solver run.  Only the UNSAT-ish hard cases — equivalent
circuits, or differences on a vanishing input fraction — reach the
solver.

This is the exact complement of the randomized
:func:`repro.aig.simulate.functionally_equal`: same question, proof instead
of sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.aig.aig import Aig, lit_var
from repro.aig.build import aig_from_netlist
from repro.aig.simulate import po_words, random_signatures, simulate_words
from repro.errors import SatError
from repro.netlist.netlist import Netlist
from repro.sat.cnf import tseitin_aig
from repro.sat.solver import CdclSolver

Circuit = Union[Aig, Netlist]

#: Seed of the prefilter's random patterns.
PREFILTER_SEED = 1


@dataclass
class EquivalenceResult:
    """Verdict of a SAT equivalence check.

    ``counterexample`` maps primary-input names to 0/1 for a disagreeing
    pattern (None when equivalent); ``outputs_first``/``outputs_second`` give
    each circuit's named output values under that pattern.
    """

    equivalent: bool
    counterexample: Optional[dict[str, int]] = None
    outputs_first: Optional[dict[str, int]] = None
    outputs_second: Optional[dict[str, int]] = None
    stats: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.equivalent


def _as_aig(circuit: Circuit) -> Aig:
    if isinstance(circuit, Netlist):
        return aig_from_netlist(circuit)
    return circuit


def _copy_into(miter: Aig, source: Aig, pi_lits: dict[str, int]) -> list[int]:
    """Rebuild ``source``'s PO cone inside ``miter`` over shared PI literals."""
    mapping: dict[int, int] = {0: 0}
    for var, name in zip(source.pi_vars(), source.pi_names()):
        mapping[var] = pi_lits[name]
    for var in source.topological_ands(roots=source.po_lits()):
        f0, f1 = source.fanins(var)
        l0 = mapping[lit_var(f0)] ^ (f0 & 1)
        l1 = mapping[lit_var(f1)] ^ (f1 & 1)
        mapping[var] = miter.add_and(l0, l1)
    return [mapping[lit_var(po)] ^ (po & 1) for po in source.po_lits()]


def _match_outputs(first: Aig, second: Aig) -> list[tuple[int, int]]:
    """Pair up PO indices, by name when both sides name the same set."""
    if first.num_pos != second.num_pos:
        raise SatError(
            f"output count mismatch: {first.num_pos} vs {second.num_pos}"
        )
    names_a, names_b = first.po_names(), second.po_names()
    if sorted(names_a) == sorted(names_b) and len(set(names_a)) == len(names_a):
        index_b = {name: i for i, name in enumerate(names_b)}
        return [(i, index_b[name]) for i, name in enumerate(names_a)]
    return [(i, i) for i in range(first.num_pos)]


def build_miter(first: Circuit, second: Circuit) -> Aig:
    """Single-output miter AIG of two circuits with identical PI name sets.

    The miter's PO (named ``diff``) is 1 iff some paired primary output
    differs.  Outputs are paired by name when possible, by index otherwise.
    """
    aig_a, aig_b = _as_aig(first), _as_aig(second)
    if set(aig_a.pi_names()) != set(aig_b.pi_names()):
        only_a = set(aig_a.pi_names()) - set(aig_b.pi_names())
        only_b = set(aig_b.pi_names()) - set(aig_a.pi_names())
        raise SatError(
            f"primary-input mismatch: only-first={sorted(only_a)}, "
            f"only-second={sorted(only_b)}"
        )
    pairs = _match_outputs(aig_a, aig_b)
    miter = Aig(f"miter({aig_a.name},{aig_b.name})")
    pi_lits = {name: miter.add_pi(name) for name in aig_a.pi_names()}
    pos_a = _copy_into(miter, aig_a, pi_lits)
    pos_b = _copy_into(miter, aig_b, pi_lits)
    diffs = [miter.add_xor(pos_a[i], pos_b[j]) for i, j in pairs]
    miter.add_po(miter.add_many_or(diffs), "diff")
    return miter


def _prefilter_counterexample(
    miter: Aig, width: int
) -> Optional[dict[str, int]]:
    """Random simulation of the miter; first differing pattern or None.

    The returned pattern is the lowest-indexed random pattern whose
    ``diff`` bit is set — deterministic, as the seed is fixed.
    """
    words = random_signatures(miter, width, PREFILTER_SEED)
    diff = po_words(miter, words, width)[0]
    if not diff:
        return None
    offset = (diff & -diff).bit_length() - 1
    return {
        name: (words[var] >> offset) & 1
        for var, name in zip(miter.pi_vars(), miter.pi_names())
    }


def _output_values(aig: Aig, pattern: dict[str, int]) -> list[int]:
    pi_words = {
        var: pattern[name] & 1
        for var, name in zip(aig.pi_vars(), aig.pi_names())
    }
    words = simulate_words(aig, pi_words, width=1)
    return po_words(aig, words, width=1)


def _verified_counterexample(
    aig_a: Aig, aig_b: Aig, pattern: dict[str, int], stats: dict
) -> EquivalenceResult:
    """Re-simulate a claimed counterexample; raise if it is spurious."""
    values_a = _output_values(aig_a, pattern)
    values_b = _output_values(aig_b, pattern)
    pairs = _match_outputs(aig_a, aig_b)
    if all(values_a[i] == values_b[j] for i, j in pairs):
        raise SatError(
            "solver produced a spurious counterexample (encoder bug?)"
        )
    return EquivalenceResult(
        equivalent=False,
        counterexample=pattern,
        outputs_first=dict(zip(aig_a.po_names(), values_a)),
        outputs_second=dict(zip(aig_b.po_names(), values_b)),
        stats=stats,
    )


def check_equivalence(
    first: Circuit, second: Circuit, prefilter_width: int = 1024
) -> EquivalenceResult:
    """Prove two circuits combinationally equivalent or produce a witness.

    Accepts any mix of :class:`Aig` and :class:`Netlist`.  A
    random-simulation prefilter (``prefilter_width`` patterns drawn from
    seed ``PREFILTER_SEED``; 0 disables it) catches easy differences
    without touching the solver.  UNSAT on the miter is a proof of
    equivalence; on SAT the distinguishing pattern is verified by
    simulation before being returned (a :class:`SatError` on that
    verification would indicate an encoder/solver bug).
    """
    aig_a, aig_b = _as_aig(first), _as_aig(second)
    miter = build_miter(aig_a, aig_b)
    if prefilter_width:
        pattern = _prefilter_counterexample(miter, prefilter_width)
        if pattern is not None:
            return _verified_counterexample(
                aig_a,
                aig_b,
                pattern,
                {"prefiltered": True, "prefilter_patterns": prefilter_width},
            )
    encoded = tseitin_aig(miter)
    solver = CdclSolver(encoded.cnf)
    solver.add_clause((encoded.outputs["diff"],))
    result = solver.solve()
    if not result.satisfiable:
        return EquivalenceResult(equivalent=True, stats=result.stats)
    assert result.model is not None
    pattern = encoded.input_model(result.model)
    return _verified_counterexample(aig_a, aig_b, pattern, result.stats)
