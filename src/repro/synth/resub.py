"""Resubstitution (ABC's ``resub`` / ``resub -z``).

For each node, build a reconvergence-driven window and try to re-express the
node's function using *divisors* — other nodes of the window cone that are
not in the node's MFFC.  Zero-resub replaces the node by a single divisor
(possibly complemented); one-resub by an AND/OR of two divisors.  Candidate
functions are compared exactly on window truth tables; one-resub forms only
the ANDs of divisor pairs that can cover the target (:func:`find_pair`).
"""

from __future__ import annotations

from typing import Optional

from repro.aig.aig import Aig, lit_not, make_lit
from repro.aig.cuts import reconvergence_window
from repro.aig.simulate import cone_words
from repro.obs import metrics as _metrics
from repro.synth.opt_common import try_replace


#: Leaf budget of the window grown at each node.
MAX_LEAVES = 8
#: At most this many window nodes are tried as divisors.
MAX_DIVISORS = 24


def find_pair(
    divisors: list[int], words: dict[int, int], target: int, mask: int
) -> tuple[Optional[tuple[int, int, int, int, bool]], int]:
    """First ``(d1, p1, d2, p2, out_neg)`` with ``a & b`` equal to ``target``
    (``out_neg`` False) or to its complement, and the ANDs formed.

    ``a`` is ``d1``'s word complemented when ``p1`` is 1, ``b`` likewise.
    ``a & b == target`` needs both sides to contain ``target``, and the
    complemented output needs both to contain ``target ^ mask``, so each
    phased divisor is classified once and only pairs that share a class
    form an AND.  Pairs come in the order of the full nested search
    (``i < j``, then ``p1``, ``p2``, plain before complemented), so the
    first match is the one that search finds.
    """
    offset = target ^ mask
    # Per divisor with a phase covering the target (class 1) or the
    # offset (class 2): (divisor, [(phase, word, classes), ...]).
    phased: list[tuple[int, list[tuple[int, int, int]]]] = []
    for div in divisors:
        word = words[div]
        entries = []
        for phase, a in ((0, word), (1, word ^ mask)):
            classes = ((target & a) == target) | ((offset & a) == offset) << 1
            if classes:
                entries.append((phase, a, classes))
        if entries:
            phased.append((div, entries))
    formed = 0
    for i, (d1, first) in enumerate(phased):
        for d2, second in phased[i + 1:]:
            for p1, a, c1 in first:
                for p2, b, c2 in second:
                    if c1 & c2:
                        formed += 1
                        both = a & b
                        if both == target:
                            return (d1, p1, d2, p2, False), formed
                        if both == offset:
                            return (d1, p1, d2, p2, True), formed
    return None, formed


def resub_pass(aig: Aig, zero_cost: bool = False) -> int:
    """Run one resubstitution pass in place; returns replacements."""
    max_divisors = MAX_DIVISORS
    changed = windows = pair_ands = 0
    fanin0, _ = aig.fanin_arrays()
    for root in aig.topological_ands():
        if fanin0[root] < 0:  # removed by an earlier replacement
            continue
        leaves, cone = reconvergence_window(aig, root, max_leaves=MAX_LEAVES)
        if len(leaves) < 2 or root in leaves:
            continue
        windows += 1
        words, mask = cone_words(aig, leaves, cone)
        target = words[root]
        mffc_set = aig.mffc(root, leaves)
        divisors = [
            v
            for v in words
            if v != root and v != 0 and v not in mffc_set
        ][:max_divisors]
        min_gain = 0 if zero_cost else 1

        # 0-resub: a divisor equals the target function (either phase).
        # It saves the whole MFFC, which holds at least the root, so it
        # meets either mode's gain.
        committed = False
        for div in divisors:
            if words[div] == target:
                committed = try_replace(
                    aig, root, leaves, make_lit(div), needs_cycle_check=False
                )
            elif words[div] == target ^ mask:
                committed = try_replace(
                    aig, root, leaves, make_lit(div, True), needs_cycle_check=False
                )
            if committed:
                changed += 1
                break
        if committed:
            continue
        # 1-resub: target = AND/OR of two (possibly complemented) divisors.
        if len(mffc_set) - 1 < min_gain:
            continue
        found, formed = find_pair(divisors, words, target, mask)
        pair_ands += formed
        if found is None:
            continue
        d1, p1, d2, p2, out_neg = found
        new_lit = aig.add_and(make_lit(d1, bool(p1)), make_lit(d2, bool(p2)))
        if out_neg:
            new_lit = lit_not(new_lit)
        if try_replace(aig, root, leaves, new_lit, needs_cycle_check=True):
            changed += 1
    _metrics.inc("synth.resub_windows", windows)
    _metrics.inc("synth.resub_pair_ands", pair_ands)
    return changed
