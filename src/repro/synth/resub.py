"""Resubstitution (ABC's ``resub`` / ``resub -z``).

For each node, build a reconvergence-driven window and try to re-express the
node's function using *divisors* — other nodes of the window cone that are
not in the node's MFFC.  Zero-resub replaces the node by a single divisor
(possibly complemented); one-resub by an AND/OR of two divisors.  Candidate
functions are compared exactly on window truth tables.
"""

from __future__ import annotations

from repro.aig.aig import Aig, lit_not, make_lit
from repro.aig.cuts import reconvergence_cut
from repro.synth.opt_common import try_replace
from repro.utils.truth import _var_mask


def _window_tables(
    aig: Aig, root: int, leaves: tuple[int, ...]
) -> tuple[dict[int, int], int]:
    """Truth-table bits for every cone node over the window leaves."""
    nvars = len(leaves)
    mask = (1 << (1 << nvars)) - 1
    words: dict[int, int] = {0: 0}
    for index, leaf in enumerate(leaves):
        words[leaf] = _var_mask(index, nvars)
    fanin0, fanin1 = aig.fanin_arrays()
    for var in aig.cone_vars(make_lit(root), leaves):
        f0 = fanin0[var]
        f1 = fanin1[var]
        w0 = words[f0 >> 1] ^ (mask if f0 & 1 else 0)
        w1 = words[f1 >> 1] ^ (mask if f1 & 1 else 0)
        words[var] = w0 & w1
    return words, mask


#: Leaf budget of the window grown at each node.
MAX_LEAVES = 8
#: At most this many window nodes are tried as divisors.
MAX_DIVISORS = 24


def resub_pass(aig: Aig, zero_cost: bool = False) -> int:
    """Run one resubstitution pass in place; returns replacements."""
    max_divisors = MAX_DIVISORS
    changed = 0
    fanin0, _ = aig.fanin_arrays()
    for root in aig.topological_ands():
        if fanin0[root] < 0:  # removed by an earlier replacement
            continue
        leaves = reconvergence_cut(aig, root, max_leaves=MAX_LEAVES)
        if len(leaves) < 2 or root in leaves:
            continue
        words, mask = _window_tables(aig, root, leaves)
        target = words[root]
        mffc_set = aig.mffc(root, leaves)
        divisors = [
            v
            for v in words
            if v != root and v != 0 and v not in mffc_set
        ][:max_divisors]
        min_gain = 0 if zero_cost else 1

        committed = False
        # 0-resub: a divisor equals the target function (either phase).
        for div in divisors:
            saved = len(mffc_set)
            if saved < max(1, min_gain):
                break
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
        saved = len(mffc_set)
        if saved - 1 < min_gain:
            continue
        found = None
        for i, d1 in enumerate(divisors):
            if found:
                break
            w1 = words[d1]
            for d2 in divisors[i + 1:]:
                w2 = words[d2]
                for p1 in (0, 1):
                    a = w1 ^ (mask if p1 else 0)
                    for p2 in (0, 1):
                        b = w2 ^ (mask if p2 else 0)
                        if (a & b) == target:
                            found = (d1, p1, d2, p2, False)
                            break
                        if (a & b) == target ^ mask:
                            found = (d1, p1, d2, p2, True)
                            break
                    if found:
                        break
                if found:
                    break
        if found is None:
            continue
        d1, p1, d2, p2, out_neg = found
        new_lit = aig.add_and(make_lit(d1, bool(p1)), make_lit(d2, bool(p2)))
        if out_neg:
            new_lit = lit_not(new_lit)
        if try_replace(aig, root, leaves, new_lit, needs_cycle_check=True):
            changed += 1
    return changed
