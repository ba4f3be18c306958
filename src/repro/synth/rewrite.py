"""DAG-aware cut rewriting (ABC's ``rewrite`` / ``rewrite -z``).

For every AND node in topological order, enumerate its 4-feasible cuts
(each carries its function, see :mod:`repro.aig.cuts`) and test candidate
implementations of its NPN class from the structure cache
(:mod:`repro.synth.library`, reached through its raw-table memo).  One
:class:`~repro.synth.opt_common.CutEvaluator` scores all of a cut's
candidates in one loop, and a candidate's dry-run stops once it cannot
reach the best gain so far.  A candidate is committed when it strictly
reduces the node count; with
``zero_cost=True`` (``rewrite -z``) equal-size replacements are also
committed, which reshapes localities and unlocks later passes — the
property ALMOST's recipe search exploits.

Pass-ordering safety: nodes are visited in a topological order snapshot;
replacements only rewire the *fanout* cone of the visited node (always later
in the order), so memoized cuts of earlier nodes can never go stale, and the
leaves of memoized cuts stay alive because live cones keep referencing them.
"""

from __future__ import annotations

from repro.aig.aig import Aig
from repro.aig.cuts import CutManager
from repro.obs import metrics as _metrics
from repro.synth.library import memoized_rewrite_entry, rewrite_entry
from repro.synth.opt_common import (
    NO_GAIN,
    CutEvaluator,
    constant_or_leaf_lit,
    realize_candidate,
    try_replace,
)


def rewrite_pass(aig: Aig, zero_cost: bool = False) -> int:
    """Run one rewriting pass in place; returns the number of replacements."""
    manager = CutManager(aig)
    fanin0, _ = aig.fanin_arrays()
    mffc = aig.mffc
    need = 0 if zero_cost else 1
    # An equal gain can still win on literal cost: the floor is the best
    # gain so far, not one more.
    evaluator = CutEvaluator(aig, need, tie_step=0)
    best_of_cut = evaluator.best
    changed = cuts_seen = memo_hits = 0
    for var in aig.topological_ands():
        if fanin0[var] < 0:  # removed by an earlier replacement
            continue
        best = None  # (gain, -literal_cost, cut, payload, out_neg, cycle_check)
        best_gain, best_neg_cost = NO_GAIN, 0
        for cut in manager.cuts(var):
            leaves = cut.leaves
            if len(leaves) < 2 or var in leaves:
                continue
            cuts_seen += 1
            trivial = constant_or_leaf_lit(cut.bits, leaves)
            if trivial is not None:
                gain = len(mffc(var, leaves))
                if (gain, 0) > (best_gain, best_neg_cost):
                    best_gain, best_neg_cost = gain, 0
                    best = (gain, 0, leaves, None, trivial, False)
                continue
            mffc_set = mffc(var, leaves)
            entry = memoized_rewrite_entry(cut.bits, len(leaves))
            if entry is None:
                entry = rewrite_entry(cut.bits, len(leaves))
            else:
                memo_hits += 1
            bound = [
                (leaves[index] << 1) | negated
                for index, negated in zip(entry.perm, entry.negations)
            ]
            won = best_of_cut(
                var, mffc_set, entry.candidates, bound, best_gain,
                best_neg_cost,
            )
            if won is not None:
                best_gain, best_neg_cost, cand, cycle_check = won
                best = (
                    best_gain,
                    best_neg_cost,
                    leaves,
                    (cand, bound),
                    entry.output_negation ^ cand.output_negated,
                    cycle_check,
                )
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
    if memo_hits:
        _metrics.inc("synth.struct_cache.hits", memo_hits)
    _metrics.inc("synth.cuts", cuts_seen)
    _metrics.inc("synth.candidates_evaluated", evaluator.evaluated)
    _metrics.inc("synth.candidates_pruned", evaluator.pruned)
    return changed
