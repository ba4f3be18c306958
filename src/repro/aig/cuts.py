"""Cut computation on AIGs.

Two flavours, matching what the synthesis passes need:

* :class:`CutManager` — classic bottom-up
  k-feasible cut enumeration with a per-node cut limit, used by ``rewrite``
  (k = 4).  Each stored :class:`Cut` carries its sorted leaf tuple, a leaf
  bitset (bit ``v`` set for leaf ``v``) and its truth table over the
  leaves, as ABC's cut manager does.  Merging two fanin cuts is bitset
  arithmetic: the union is ``s0 | s1``, its size ``.bit_count()``, and a
  cut (or a repeated union) dominates another when its bitset is a subset.
  The merged table is the AND of the two fanin tables, each re-indexed onto
  the union's leaves by :func:`_stretch` and complemented by its fanin
  phase, so ``rewrite`` never re-simulates a cut cone.
* :func:`reconvergence_window` — Mishchenko-style reconvergence-driven cut
  growing with its cone, used by ``refactor`` and ``resub`` for larger
  windows (k = 8-10); :func:`repro.aig.simulate.cone_words` simulates it.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple, Optional

from repro.aig.aig import Aig


class Cut(NamedTuple):
    """A stored cut: leaves, leaf bitset, and the node's function over them.

    ``bits`` is a truth table in :mod:`repro.utils.truth` layout: variable
    ``i`` is ``leaves[i]``.
    """

    leaves: tuple[int, ...]
    sig: int
    bits: int


#: The table of a single variable over one input (the trivial cut's).
_PROJECTION = 0b10


@lru_cache(maxsize=1 << 16)
def _stretch(bits: int, positions: tuple[int, ...], nvars: int) -> int:
    """Re-index a table onto ``nvars`` inputs: its variable ``i`` becomes
    variable ``positions[i]`` of the result."""
    out = 0
    for minterm in range(1 << nvars):
        source = 0
        for index, position in enumerate(positions):
            source |= (minterm >> position & 1) << index
        out |= (bits >> source & 1) << minterm
    return out


class CutManager:
    """Lazily computes and memoizes k-feasible cuts per node.

    Safe to use during an in-place optimization pass: memoized entries belong
    to nodes upstream of the pass cursor, which the pass never mutates (see
    the pass-ordering argument in ``repro.synth.rewrite``).
    """

    def __init__(self, aig: Aig, k: int = 4, limit: int = 8):
        self.aig = aig
        self.k = k
        self.limit = limit
        self._memo: dict[int, list[Cut]] = {}

    def cuts(self, var: int) -> list[Cut]:
        """All stored cuts of ``var``, trivial cut first."""
        memo = self._memo
        cached = memo.get(var)
        if cached is not None:
            return cached
        fanin0, fanin1 = self.aig.fanin_arrays()
        # Iterative post-order computation to avoid deep recursion.
        stack = [var]
        while stack:
            v = stack[-1]
            if v in memo:
                stack.pop()
                continue
            f0 = fanin0[v]
            if f0 < 0:  # not a live AND: only the trivial cut
                memo[v] = [Cut((v,), 1 << v, _PROJECTION)]
                stack.pop()
                continue
            f1 = fanin1[v]
            c0, c1 = f0 >> 1, f1 >> 1
            cuts0 = memo.get(c0)
            cuts1 = memo.get(c1)
            if cuts0 is None or cuts1 is None:
                if cuts0 is None:
                    stack.append(c0)
                if cuts1 is None:
                    stack.append(c1)
                continue
            stack.pop()
            memo[v] = self._merge(v, f0, f1, cuts0, cuts1)
        return memo[var]

    def _merge(
        self, var: int, f0: int, f1: int, cuts0: list[Cut], cuts1: list[Cut]
    ) -> list[Cut]:
        k = self.k
        merged: list[tuple[int, int, Cut, Cut]] = []
        for cut0 in cuts0:
            sig0 = cut0.sig
            for cut1 in cuts1:
                sig = sig0 | cut1.sig
                size = sig.bit_count()
                if size <= k:
                    merged.append((size, sig, cut0, cut1))
        # Drop dominated cuts (a cut is dominated if a subset cut exists);
        # the sort is stable, so equal sizes keep their merge order, and a
        # repeated union goes too: its first copy is kept or dropped first.
        merged.sort(key=itemgetter(0))
        kept_sigs: list[int] = []
        kept = [Cut((var,), 1 << var, _PROJECTION)]
        for size, sig, cut0, cut1 in merged:
            for other in kept_sigs:
                if other & sig == other:
                    break
            else:
                kept_sigs.append(sig)
                leaves0, bits0 = cut0.leaves, cut0.bits
                leaves1, bits1 = cut1.leaves, cut1.bits
                # A fanin cut as wide as the union is the union itself:
                # its leaves and table are reused, only the other's table
                # is stretched.
                if len(leaves0) == size:
                    leaves = leaves0
                    if len(leaves1) != size:
                        bits1 = _stretch(
                            bits1, tuple(map(leaves.index, leaves1)), size
                        )
                elif len(leaves1) == size:
                    leaves = leaves1
                    bits0 = _stretch(
                        bits0, tuple(map(leaves.index, leaves0)), size
                    )
                else:
                    leaves = tuple(sorted({*leaves0, *leaves1}))
                    bits0 = _stretch(
                        bits0, tuple(map(leaves.index, leaves0)), size
                    )
                    bits1 = _stretch(
                        bits1, tuple(map(leaves.index, leaves1)), size
                    )
                if f0 & 1:
                    bits0 ^= (1 << (1 << size)) - 1
                if f1 & 1:
                    bits1 ^= (1 << (1 << size)) - 1
                kept.append(Cut(leaves, sig, bits0 & bits1))
                if len(kept_sigs) >= self.limit:
                    break
        return kept


#: Expansion steps after which :func:`reconvergence_window` stops growing.
MAX_VISITS = 200


def reconvergence_window(
    aig: Aig, root: int, max_leaves: int = 8
) -> tuple[tuple[int, ...], list[int]]:
    """Grow a reconvergence-driven cut of at most ``max_leaves`` leaves;
    returns ``(leaves, cone)``.

    Starting from the root's fanins, repeatedly expands the leaf whose
    replacement by its own fanins increases the leaf count the least
    (preferring expansions that *reduce* it, i.e. reconvergence).  Stops when
    no expansion fits the leaf budget, or after ``MAX_VISITS`` expansions.

    ``cone`` is the AND nodes between the leaves and the root, walked from
    the root in :meth:`Aig.cone_vars` order.  It is not the set of expanded
    nodes: an expansion can re-add an expanded node as a leaf.
    """
    fanin0, fanin1 = aig.fanin_arrays()
    if fanin0[root] < 0:
        return (root,), []
    leaves = {fanin0[root] >> 1, fanin1[root] >> 1}
    for _ in range(MAX_VISITS):
        best_leaf: Optional[int] = None
        best_cost = 2  # above any real cost
        size = len(leaves)
        # sorted(): ties on cost must break by node id, not set hashing —
        # the chosen expansion decides the final cut.
        for leaf in sorted(leaves):
            g0 = fanin0[leaf]
            if g0 < 0:
                continue
            # Expanding a leaf adds each of its two fanins not yet a leaf
            # (neither is the leaf itself), so the cost is -1, 0 or 1.
            cost = (
                (g0 >> 1 not in leaves) + (fanin1[leaf] >> 1 not in leaves) - 1
            )
            if cost < best_cost and size + cost <= max_leaves:
                best_cost = cost
                best_leaf = leaf
                if cost < 0:  # the least cost; the first minimum wins ties
                    break
        if best_leaf is None:
            break
        leaves.discard(best_leaf)
        leaves.add(fanin0[best_leaf] >> 1)
        leaves.add(fanin1[best_leaf] >> 1)
        if best_cost > 0 and len(leaves) >= max_leaves:
            break
    cut = tuple(sorted(leaves))
    # Post-order from the root, fanin0 first, stopping at the leaves.  Every
    # node it reaches was expanded or is a leaf: no escape check is needed.
    cone: list[int] = []
    done = leaves
    stack = [root]
    while stack:
        var = stack.pop()
        if var in done:
            continue
        c0, c1 = fanin0[var] >> 1, fanin1[var] >> 1
        if c0 in done and c1 in done:
            done.add(var)
            cone.append(var)
        else:
            stack += (var, c1, c0)
    return cut, cone
