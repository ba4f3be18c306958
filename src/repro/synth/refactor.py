"""Reconvergence-driven refactoring (ABC's ``refactor`` / ``refactor -z``).

For each node, grow a reconvergence-driven cut of up to ``MAX_LEAVES``
(10) inputs, collapse the cone to its truth table, re-express it as an
ISOP-factored (or XOR-decomposed) multi-level form and accept the new
structure when it reduces the node count (or matches it, with ``-z``).
The candidate forms come compiled from the structure cache
(:func:`repro.synth.library.refactor_candidates`), keyed exactly on the
cone's truth table; a candidate's dry-run stops once it cannot beat the
best gain so far (see :mod:`repro.synth.opt_common`).
"""

from __future__ import annotations

from repro.aig.aig import Aig, make_lit
from repro.aig.cuts import reconvergence_cut
from repro.aig.simulate import cut_truth_table
from repro.obs import metrics as _metrics
from repro.synth.library import refactor_candidates
from repro.synth.opt_common import (
    constant_or_leaf_lit,
    evaluate_candidate,
    leaf_lits,
    realize_candidate,
    try_replace,
)


#: Leaf budget of the reconvergence-driven cut grown at each node.
MAX_LEAVES = 10
#: Cuts with fewer leaves are skipped.
MIN_LEAVES = 3


def refactor_pass(aig: Aig, zero_cost: bool = False) -> int:
    """Run one refactoring pass in place; returns replacements committed."""
    need = 0 if zero_cost else 1
    changed = cuts_seen = evaluated = pruned = 0
    fanin0, _ = aig.fanin_arrays()
    for var in aig.topological_ands():
        if fanin0[var] < 0:  # removed by an earlier replacement
            continue
        cut = reconvergence_cut(aig, var, max_leaves=MAX_LEAVES)
        if len(cut) < MIN_LEAVES or var in cut:
            continue
        cuts_seen += 1
        table = cut_truth_table(aig, make_lit(var), cut)
        trivial = constant_or_leaf_lit(table.bits, cut)
        if trivial is not None:
            if try_replace(aig, var, cut, trivial, needs_cycle_check=False):
                changed += 1
            continue
        handles = leaf_lits(cut)
        mffc_set = aig.mffc(var, cut)
        best = None
        for cand in refactor_candidates(table):
            # Ties keep the earlier candidate: a later one must beat the
            # best gain by one.
            floor = need if best is None or best[0] < need else best[0] + 1
            evaluated += 1
            evaluation = evaluate_candidate(
                aig, cut, mffc_set, cand.program, handles,
                len(mffc_set) - floor,
            )
            if evaluation is None:
                pruned += 1
                continue
            if best is None or evaluation.gain > best[0]:
                best = (evaluation.gain, cand, evaluation.needs_cycle_check)
        if best is None:
            continue
        gain, cand, cycle_check = best
        if gain < need:
            continue
        new_lit = realize_candidate(
            aig, cand.program, handles, cand.output_negated
        )
        if try_replace(aig, var, cut, new_lit, cycle_check):
            changed += 1
    _metrics.inc("synth.cuts", cuts_seen)
    _metrics.inc("synth.candidates_evaluated", evaluated)
    _metrics.inc("synth.candidates_pruned", pruned)
    return changed
