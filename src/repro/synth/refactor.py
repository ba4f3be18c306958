"""Reconvergence-driven refactoring (ABC's ``refactor`` / ``refactor -z``).

For each node, grow a reconvergence-driven cut of up to ``max_leaves``
inputs, collapse the cone to its truth table, re-express it as an
ISOP-factored (or XOR-decomposed) multi-level form and accept the new
structure when it reduces the node count (or matches it, with ``-z``).
The candidate forms come compiled from the structure cache
(:func:`repro.synth.library.refactor_candidates`), keyed exactly on the
cone's truth table.
"""

from __future__ import annotations

from repro.aig.aig import Aig, make_lit
from repro.aig.cuts import reconvergence_cut
from repro.aig.simulate import cut_truth_table
from repro.synth.library import refactor_candidates
from repro.synth.opt_common import (
    constant_or_leaf_lit,
    evaluate_candidate,
    leaf_lits,
    realize_candidate,
    try_replace,
)


def refactor_pass(
    aig: Aig,
    zero_cost: bool = False,
    max_leaves: int = 10,
    min_leaves: int = 3,
) -> int:
    """Run one refactoring pass in place; returns replacements committed."""
    changed = 0
    for var in aig.topological_ands():
        if aig.is_dead(var) or not aig.is_and(var):
            continue
        cut = reconvergence_cut(aig, var, max_leaves=max_leaves)
        if len(cut) < min_leaves or var in cut:
            continue
        table = cut_truth_table(aig, make_lit(var), cut)
        handles = leaf_lits(cut)
        trivial = constant_or_leaf_lit(table.bits, table.nvars, handles)
        mffc_set = aig.mffc(var, cut)
        if trivial is not None:
            if try_replace(aig, var, cut, trivial, needs_cycle_check=False):
                changed += 1
            continue
        best = None
        for cand in refactor_candidates(table):
            evaluation = evaluate_candidate(
                aig, cut, mffc_set, cand.program, handles
            )
            if best is None or evaluation.gain > best[0]:
                best = (evaluation.gain, cand, evaluation.needs_cycle_check)
        if best is None:
            continue
        gain, cand, cycle_check = best
        if gain < 0 or (gain == 0 and not zero_cost):
            continue
        new_lit = realize_candidate(
            aig, cand.program, handles, cand.output_negated
        )
        if try_replace(aig, var, cut, new_lit, cycle_check):
            changed += 1
    return changed
