"""DAG-aware cut rewriting (ABC's ``rewrite`` / ``rewrite -z``).

For every AND node in topological order, enumerate its 4-feasible cuts
(each carries its function, see :mod:`repro.aig.cuts`) and test candidate
implementations of its NPN class from the structure cache
(:mod:`repro.synth.library`).  A candidate's dry-run stops once it cannot
reach the best gain so far (see :mod:`repro.synth.opt_common`).  A
candidate is committed when it strictly reduces the node count; with
``zero_cost=True`` (``rewrite -z``) equal-size replacements are also
committed, which reshapes localities and unlocks later passes — the
property ALMOST's recipe search exploits.

Pass-ordering safety: nodes are visited in a topological order snapshot;
replacements only rewire the *fanout* cone of the visited node (always later
in the order), so memoized cuts of earlier nodes can never go stale, and the
leaves of memoized cuts stay alive because live cones keep referencing them.
"""

from __future__ import annotations

from repro.aig.aig import Aig, lit_not
from repro.aig.cuts import CutManager
from repro.obs import metrics as _metrics
from repro.synth.library import rewrite_candidates
from repro.synth.opt_common import (
    constant_or_leaf_lit,
    evaluate_candidate,
    leaf_lits,
    realize_candidate,
    try_replace,
)
from repro.utils.truth import TruthTable


def rewrite_pass(aig: Aig, zero_cost: bool = False) -> int:
    """Run one rewriting pass in place; returns the number of replacements."""
    manager = CutManager(aig)
    need = 0 if zero_cost else 1
    changed = cuts_seen = evaluated = pruned = 0
    for var in aig.topological_ands():
        if aig.is_dead(var) or not aig.is_and(var):
            continue
        best = None  # (gain, -literal_cost, cut, tree, out_neg, cycle_check)
        for cut in manager.cuts(var):
            leaves = cut.leaves
            if len(leaves) < 2 or var in leaves:
                continue
            cuts_seen += 1
            handles = leaf_lits(leaves)
            trivial = constant_or_leaf_lit(cut.bits, len(leaves), handles)
            if trivial is not None:
                mffc_gain = len(aig.mffc(var, leaves))
                candidate = (mffc_gain, 0, leaves, None, trivial, False)
                if best is None or candidate[:2] > best[:2]:
                    best = candidate
                continue
            mffc_set = aig.mffc(var, leaves)
            candidates, transform = rewrite_candidates(
                TruthTable(cut.bits, len(leaves))
            )
            bound = [
                lit_not(handle) if neg else handle
                for handle, neg in transform.leaf_order(handles)
            ]
            for cand in candidates:
                # An equal gain can still win on literal cost: the floor is
                # the best gain so far, not one more.
                floor = need if best is None or best[0] < need else best[0]
                evaluated += 1
                evaluation = evaluate_candidate(
                    aig, leaves, mffc_set, cand.program, bound,
                    len(mffc_set) - floor,
                )
                if evaluation is None:
                    pruned += 1
                    continue
                entry = (
                    evaluation.gain,
                    -cand.literal_cost,
                    leaves,
                    (cand, bound),
                    transform.output_negation ^ cand.output_negated,
                    evaluation.needs_cycle_check,
                )
                if best is None or entry[:2] > best[:2]:
                    best = entry
        if best is None:
            continue
        gain, _, cut, payload, neg_or_lit, cycle_check = best
        if gain < need:
            continue
        if payload is None:
            new_lit = neg_or_lit  # trivial constant / leaf literal
        else:
            cand, bound = payload
            new_lit = realize_candidate(aig, cand.program, bound, neg_or_lit)
        if try_replace(aig, var, cut, new_lit, cycle_check):
            changed += 1
    _metrics.inc("synth.cuts", cuts_seen)
    _metrics.inc("synth.candidates_evaluated", evaluated)
    _metrics.inc("synth.candidates_pruned", pruned)
    return changed
