"""Reconvergence-driven refactoring (ABC's ``refactor`` / ``refactor -z``).

For each node, grow a reconvergence-driven cut of up to ``MAX_LEAVES``
(10) inputs, collapse the cone to its truth table, re-express it as an
ISOP-factored (or XOR-decomposed) multi-level form and accept the new
structure when it reduces the node count (or matches it, with ``-z``).
The candidate forms come compiled from the structure cache
(:func:`repro.synth.library.refactor_candidates`), keyed exactly on the
cone's truth table, and are scored by the same per-cut evaluator as
``rewrite``'s (:class:`~repro.synth.opt_common.CutEvaluator`): a
candidate's dry-run stops once it cannot beat the best gain so far.
"""

from __future__ import annotations

from repro.aig.aig import Aig
from repro.aig.cuts import reconvergence_window
from repro.aig.simulate import cone_words
from repro.obs import metrics as _metrics
from repro.synth.library import (
    memoized_refactor_candidates,
    refactor_candidates,
)
from repro.synth.opt_common import (
    CutEvaluator,
    constant_or_leaf_lit,
    leaf_lits,
    realize_candidate,
    try_replace,
)
from repro.utils.truth import TruthTable


#: Leaf budget of the reconvergence-driven cut grown at each node.
MAX_LEAVES = 10
#: Cuts with fewer leaves are skipped.
MIN_LEAVES = 3


def refactor_pass(aig: Aig, zero_cost: bool = False) -> int:
    """Run one refactoring pass in place; returns replacements committed."""
    need = 0 if zero_cost else 1
    # Ties keep the earlier candidate: a later one must beat the best gain
    # by one.
    evaluator = CutEvaluator(aig, need, tie_step=1)
    changed = cuts_seen = cache_hits = 0
    fanin0, _ = aig.fanin_arrays()
    for var in aig.topological_ands():
        if fanin0[var] < 0:  # removed by an earlier replacement
            continue
        cut, cone = reconvergence_window(aig, var, max_leaves=MAX_LEAVES)
        if len(cut) < MIN_LEAVES or var in cut:
            continue
        cuts_seen += 1
        table = TruthTable(cone_words(aig, cut, cone)[0][var], len(cut))
        trivial = constant_or_leaf_lit(table.bits, cut)
        if trivial is not None:
            if try_replace(aig, var, cut, trivial, needs_cycle_check=False):
                changed += 1
            continue
        candidates = memoized_refactor_candidates(table)
        if candidates is None:
            candidates = refactor_candidates(table)
        else:
            cache_hits += 1
        handles = leaf_lits(cut)
        won = evaluator.best(var, aig.mffc(var, cut), candidates, handles)
        if won is None:
            continue
        gain, _, cand, cycle_check = won
        if gain < need:
            continue
        new_lit = realize_candidate(
            aig, cand.program, handles, cand.output_negated
        )
        if try_replace(aig, var, cut, new_lit, cycle_check):
            changed += 1
    if cache_hits:
        _metrics.inc("synth.struct_cache.hits", cache_hits)
    _metrics.inc("synth.cuts", cuts_seen)
    _metrics.inc("synth.candidates_evaluated", evaluator.evaluated)
    _metrics.inc("synth.candidates_pruned", evaluator.pruned)
    return changed
