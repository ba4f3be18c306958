"""DAG-aware cut rewriting (ABC's ``rewrite`` / ``rewrite -z``).

For every AND node in topological order, enumerate its 4-feasible cuts
(each carries its function, see :mod:`repro.aig.cuts`) and test candidate
implementations of its NPN class from the structure cache
(:mod:`repro.synth.library`, reached through its raw-table memo).  A
candidate's dry-run stops once it cannot reach the best gain so far (see
:mod:`repro.synth.opt_common`).  A candidate is committed when it strictly reduces the node count; with
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
from repro.synth.library import rewrite_entry
from repro.synth.opt_common import (
    constant_or_leaf_lit,
    evaluate_candidate,
    realize_candidate,
    try_replace,
)


def rewrite_pass(aig: Aig, zero_cost: bool = False) -> int:
    """Run one rewriting pass in place; returns the number of replacements."""
    manager = CutManager(aig)
    fanin0, _ = aig.fanin_arrays()
    mffc = aig.mffc
    need = 0 if zero_cost else 1
    changed = cuts_seen = evaluated = pruned = 0
    for var in aig.topological_ands():
        if fanin0[var] < 0:  # removed by an earlier replacement
            continue
        best = None  # (gain, -literal_cost, cut, tree, out_neg, cycle_check)
        for cut in manager.cuts(var):
            leaves = cut.leaves
            if len(leaves) < 2 or var in leaves:
                continue
            cuts_seen += 1
            trivial = constant_or_leaf_lit(cut.bits, leaves)
            if trivial is not None:
                gain = len(mffc(var, leaves))
                candidate = (gain, 0, leaves, None, trivial, False)
                if best is None or candidate[:2] > best[:2]:
                    best = candidate
                continue
            mffc_set = mffc(var, leaves)
            entry = rewrite_entry(cut.bits, len(leaves))
            bound = [
                (leaves[index] << 1) | negated
                for index, negated in zip(entry.perm, entry.negations)
            ]
            for cand in entry.candidates:
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
                candidate = (
                    evaluation.gain,
                    -cand.literal_cost,
                    leaves,
                    (cand, bound),
                    entry.output_negation ^ cand.output_negated,
                    evaluation.needs_cycle_check,
                )
                if best is None or candidate[:2] > best[:2]:
                    best = candidate
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
