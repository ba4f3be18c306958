"""Differential tests of the cut machinery.

``CutManager`` merges fanin cuts as leaf bitsets and builds each cut's
truth table from its fanins' tables.  Both are checked against simple
references: a set-based enumerator kept here as the oracle (the merge the
manager replaced), and ``cut_truth_table``, which simulates the cut cone
directly.  An earlier bitset merge, which tested a seen set of unions and
rebuilt every union's leaves, is kept as a third oracle: the manager must
store exactly the cuts, in the order, it stored.

``Aig.mffc`` and ``reconvergence_window`` read the AIG's fanin arrays
directly.  They are checked against the accessor-based bodies they
replaced, kept here as oracles, on random AIGs and on AIGs caught in the
middle of a pass, where dead and detached slots occur.  The window's cone
must equal ``Aig.cone_vars`` (order included), and ``cone_words`` the
window simulation ``resub`` ran before it, words and key order both: on
every window of quick c1908 and c3540, statically and as the passes grow
them, including windows where the growth re-added an expanded node as a
leaf and left expanded nodes outside the cone.
"""

from __future__ import annotations

from typing import Optional
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import Aig, aig_from_netlist, lit_var, make_lit
from repro.aig.cuts import (
    _PROJECTION,
    MAX_VISITS,
    Cut,
    CutManager,
    _stretch,
    reconvergence_window,
)
from repro.aig.simulate import cone_words, cut_truth_table
from repro.circuits import load_iscas85
from repro.synth import Recipe, apply_recipe
from repro.synth import refactor as refactor_module
from repro.synth import resub as resub_module
from repro.synth import rewrite as rewrite_module
from repro.utils.truth import TruthTable
from tests.conftest import build_random_netlist


def _reference_merge(var, cuts0, cuts1, k, limit):
    seen = set()
    merged = []
    for cut0 in cuts0:
        for cut1 in cuts1:
            union = tuple(sorted(set(cut0) | set(cut1)))
            if len(union) > k or union in seen:
                continue
            seen.add(union)
            merged.append(union)
    merged.sort(key=len)
    kept = []
    for cut in merged:
        cut_set = set(cut)
        if any(set(other) <= cut_set for other in kept):
            continue
        kept.append(cut)
        if len(kept) >= limit:
            break
    return [(var,)] + kept


def _reference_cuts(aig: Aig, k: int, limit: int) -> dict:
    cuts: dict[int, list[tuple[int, ...]]] = {}
    for var in aig.topological_ands():
        c0, c1 = (lit_var(lit) for lit in aig.fanins(var))
        cuts[var] = _reference_merge(
            var, cuts.get(c0, [(c0,)]), cuts.get(c1, [(c1,)]), k, limit
        )
    return cuts


class _ReferenceBitsetManager(CutManager):
    """``CutManager`` with the bitset merge it had before: every pair
    probes the seen set, and every kept union sorts its leaves and
    stretches both fanin tables unless that fanin is as wide."""

    def _merge(self, var, f0, f1, cuts0, cuts1):
        k = self.k
        seen = set()
        merged = []
        for cut0 in cuts0:
            sig0 = cut0.sig
            for cut1 in cuts1:
                sig = sig0 | cut1.sig
                if sig in seen:
                    continue
                seen.add(sig)
                size = sig.bit_count()
                if size <= k:
                    merged.append((size, sig, cut0, cut1))
        merged.sort(key=lambda entry: entry[0])
        kept_sigs = []
        kept = [Cut((var,), 1 << var, _PROJECTION)]
        for size, sig, cut0, cut1 in merged:
            for other in kept_sigs:
                if other & sig == other:
                    break
            else:
                kept_sigs.append(sig)
                leaves0, leaves1 = cut0.leaves, cut1.leaves
                leaves = tuple(sorted({*leaves0, *leaves1}))
                full = (1 << (1 << size)) - 1
                bits0 = cut0.bits if len(leaves0) == size else _stretch(
                    cut0.bits, tuple(map(leaves.index, leaves0)), size
                )
                bits1 = cut1.bits if len(leaves1) == size else _stretch(
                    cut1.bits, tuple(map(leaves.index, leaves1)), size
                )
                if f0 & 1:
                    bits0 ^= full
                if f1 & 1:
                    bits1 ^= full
                kept.append(Cut(leaves, sig, bits0 & bits1))
                if len(kept_sigs) >= self.limit:
                    break
        return kept


def _check_manager(aig: Aig, k: int, limit: int) -> None:
    manager = CutManager(aig, k=k, limit=limit)
    bitset_reference = _ReferenceBitsetManager(aig, k=k, limit=limit)
    reference = _reference_cuts(aig, k, limit)
    for var in aig.topological_ands():
        cuts = manager.cuts(var)
        assert cuts == bitset_reference.cuts(var)
        assert [cut.leaves for cut in cuts] == reference[var]
        for cut in cuts:
            assert cut.sig == sum(1 << leaf for leaf in cut.leaves)
            table = cut_truth_table(aig, make_lit(var), cut.leaves)
            assert cut.bits == table.bits, (var, cut.leaves)


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    num_gates=st.integers(min_value=5, max_value=60),
    k=st.integers(min_value=2, max_value=6),
    limit=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=60, deadline=None)
def test_random_aigs_match_the_references(seed, num_gates, k, limit):
    netlist = build_random_netlist(seed=seed, num_gates=num_gates)
    _check_manager(aig_from_netlist(netlist), k, limit)


@pytest.mark.parametrize("k,limit", [(4, 8), (3, 2), (5, 4)])
def test_quick_c432_matches_the_references(c432_quick, k, limit):
    _check_manager(aig_from_netlist(c432_quick), k, limit)


def test_quick_c880_matches_the_references(c880_quick):
    _check_manager(aig_from_netlist(c880_quick), 4, 8)


def _reconvergent_aig() -> Aig:
    """Nodes whose fanin reconverges, so one fanin's cut is as wide as the
    union and the other's narrower, on either side and in either phase."""
    aig = Aig()
    a, b, c, d = (aig.add_pi(name) for name in "abcd")
    ab = aig.add_and(a, b)
    abc = aig.add_and(ab, c ^ 1)
    # Built after abc, so abc is the lower fanin and the wider one.
    ac = aig.add_and(a, c)
    for x, y in [(ab, a), (ab ^ 1, a), (ab, a ^ 1), (a ^ 1, ab ^ 1),
                 (abc, b), (abc ^ 1, ab), (c, abc), (aig.add_and(c, d), abc),
                 (abc, ac), (abc ^ 1, ac ^ 1)]:
        aig.add_po(aig.add_and(x, y))
    return aig


@pytest.mark.parametrize("k,limit", [(4, 8), (3, 2), (5, 4)])
def test_fanin_cuts_as_wide_as_the_union_match_the_references(k, limit):
    aig = _reconvergent_aig()
    manager = CutManager(aig, k=k, limit=limit)
    fanin0, fanin1 = aig.fanin_arrays()
    sides = set()
    for var in aig.topological_ands():
        cuts0 = manager.cuts(fanin0[var] >> 1)
        cuts1 = manager.cuts(fanin1[var] >> 1)
        for cut0 in cuts0:
            for cut1 in cuts1:
                union = len(set(cut0.leaves) | set(cut1.leaves))
                if union <= k and len(cut0.leaves) != len(cut1.leaves):
                    sides.add(0 if len(cut0.leaves) == union else 1)
    assert sides == {0, 1}
    _check_manager(aig, k, limit)


def _reference_mffc(aig: Aig, root_var: int, leaves) -> set[int]:
    """The recursive dereference ``Aig.mffc`` replaced."""
    leaf_set = set(leaves)
    if not aig.is_and(root_var):
        return set()
    decremented: dict[int, int] = {}
    mffc_nodes: set[int] = set()

    def deref(var: int) -> None:
        mffc_nodes.add(var)
        for lit in (aig._fanin0[var], aig._fanin1[var]):
            child = lit_var(lit)
            if child in leaf_set or not aig.is_and(child):
                continue
            decremented[child] = decremented.get(child, 0) + 1
            if decremented[child] == aig.num_refs(child):
                deref(child)

    deref(root_var)
    return mffc_nodes


def _reference_reconvergence_cut(
    aig: Aig, root: int, max_leaves: int, expanded: Optional[list] = None
):
    """The set-algebra cut growth ``reconvergence_window`` replaced.

    ``expanded``, when given, receives the root and then every expanded
    leaf, in expansion order.
    """
    if expanded is None:
        expanded = []
    if not aig.is_and(root):
        return (root,)
    expanded.append(root)
    f0, f1 = aig.fanins(root)
    leaves = {lit_var(f0), lit_var(f1)}
    visits = 0
    while visits < MAX_VISITS:
        visits += 1
        best_leaf: Optional[int] = None
        best_cost = None
        for leaf in sorted(leaves):
            if not aig.is_and(leaf):
                continue
            g0, g1 = aig.fanins(leaf)
            candidates = {lit_var(g0), lit_var(g1)}
            new_size = len(leaves) - 1 + len(candidates - (leaves - {leaf}))
            cost = new_size - len(leaves)
            if new_size > max_leaves:
                continue
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_leaf = leaf
        if best_leaf is None:
            break
        expanded.append(best_leaf)
        g0, g1 = aig.fanins(best_leaf)
        leaves.discard(best_leaf)
        leaves.add(lit_var(g0))
        leaves.add(lit_var(g1))
        if best_cost is not None and best_cost > 0 and len(leaves) >= max_leaves:
            break
    return tuple(sorted(leaves))


def _reference_window_tables(aig: Aig, root: int, leaves) -> dict[int, int]:
    """The window simulation ``resub`` ran before ``cone_words``."""
    nvars = len(leaves)
    mask = (1 << (1 << nvars)) - 1
    words = {0: 0}
    for index, leaf in enumerate(leaves):
        words[leaf] = TruthTable.var(index, nvars).bits
    for var in aig.cone_vars(make_lit(root), leaves):
        f0, f1 = aig.fanins(var)
        w0 = words[lit_var(f0)] ^ (mask if f0 & 1 else 0)
        w1 = words[lit_var(f1)] ^ (mask if f1 & 1 else 0)
        words[var] = w0 & w1
    return words


def _check_window(aig: Aig, root: int, max_leaves: int) -> tuple[bool, bool]:
    """Check one window against the references; returns whether its growth
    re-added an expanded node as a leaf, and whether expanded nodes other
    than the leaves lie outside its cone."""
    expanded: list[int] = []
    leaves, cone = reconvergence_window(aig, root, max_leaves)
    assert leaves == _reference_reconvergence_cut(
        aig, root, max_leaves, expanded
    )
    if not aig.is_and(root):
        assert cone == []
        return False, False
    if root in leaves:  # a leaf set no pass simulates
        return False, False
    assert cone == aig.cone_vars(make_lit(root), leaves)
    words, mask = cone_words(aig, leaves, cone)
    assert mask == (1 << (1 << len(leaves))) - 1
    assert list(words.items()) == list(
        _reference_window_tables(aig, root, leaves).items()
    )
    for var in cone:
        assert words[var] == cut_truth_table(aig, make_lit(var), leaves).bits
    leaf_set = set(leaves)
    readded = len(set(expanded)) < len(expanded) or not leaf_set.isdisjoint(
        expanded
    )
    outside = bool(set(expanded) - leaf_set - set(cone))
    return readded, outside


#: Steps that grow windows in both passes, in both modes.
_WINDOW_RECIPE = Recipe(
    ("resub", "refactor", "balance", "resub -z", "refactor -z", "rewrite",
     "resub", "refactor")
)


def test_windows_match_the_references_on_quick_c1908_and_c3540():
    readded = outside = windows = 0

    def tally(flags):
        nonlocal readded, outside, windows
        windows += 1
        readded += flags[0]
        outside += flags[1]

    def checking(aig, root, max_leaves=8):
        tally(_check_window(aig, root, max_leaves))
        return reconvergence_window(aig, root, max_leaves)

    for name in ("c1908", "c3540"):
        aig = aig_from_netlist(load_iscas85(name, scale="quick"))
        for max_leaves in (8, 10):
            for root in range(aig.num_vars):
                tally(_check_window(aig, root, max_leaves))
        with mock.patch.object(
            refactor_module, "reconvergence_window", checking
        ), mock.patch.object(resub_module, "reconvergence_window", checking):
            apply_recipe(aig, _WINDOW_RECIPE)
    assert windows > 2000
    # Both cases the cone walk exists for are reached.
    assert readded > 0
    assert outside > 0


class _Stop(Exception):
    pass


def _mid_pass(aig: Aig, module, pass_fn, commits: int) -> Aig:
    """``aig`` after ``pass_fn`` committed ``commits`` replacements, with
    the rest of the pass abandoned: dead slots, and nodes the pass has not
    reached yet."""
    real = module.try_replace
    done = 0

    def counting(*args, **kwargs):
        nonlocal done
        committed = real(*args, **kwargs)
        done += committed
        if done >= commits:
            raise _Stop
        return committed

    aig = aig.clone()
    with mock.patch.object(module, "try_replace", counting):
        try:
            pass_fn(aig, zero_cost=True)
        except _Stop:
            pass
    return aig


def _inside_replace(aig: Aig, limit: int = 3) -> list[Aig]:
    """Clones taken inside ``replace``, right after a reader folded and was
    detached (its fanins -2) and before its own readers were rewired."""
    snapshots: list[Aig] = []
    real = Aig._substitute_fanin

    def spying(self, fan, old_var, new_lit):
        folded = real(self, fan, old_var, new_lit)
        if folded is not None and len(snapshots) < limit:
            snapshots.append(self.clone())
        return folded

    with mock.patch.object(Aig, "_substitute_fanin", spying):
        rewrite_module.rewrite_pass(aig.clone(), zero_cost=True)
    return snapshots


def _check_against_references(aig: Aig) -> None:
    fanin0, _ = aig.fanin_arrays()
    manager = CutManager(aig)
    for var in range(aig.num_vars):
        assert (fanin0[var] >= 0) == aig.is_and(var)
        for max_leaves in (3, 8, 10):
            _check_window(aig, var, max_leaves)
        cut, _ = reconvergence_window(aig, var, 10)
        assert aig.mffc(var, cut) == _reference_mffc(aig, var, cut)
        if fanin0[var] < 0:
            continue
        for stored in manager.cuts(var):
            assert aig.mffc(var, stored.leaves) == _reference_mffc(
                aig, var, stored.leaves
            ), (var, stored.leaves)


_PASSES = [
    (rewrite_module, rewrite_module.rewrite_pass),
    (refactor_module, refactor_module.refactor_pass),
    (resub_module, resub_module.resub_pass),
]


@given(
    seed=st.integers(min_value=0, max_value=10**6),
    num_gates=st.integers(min_value=5, max_value=70),
    which=st.integers(min_value=0, max_value=len(_PASSES) - 1),
    commits=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=40, deadline=None)
def test_mffc_and_reconvergence_cut_match_the_references(
    seed, num_gates, which, commits
):
    aig = aig_from_netlist(
        build_random_netlist(seed=seed, num_inputs=6, num_gates=num_gates)
    )
    _check_against_references(aig)
    module, pass_fn = _PASSES[which]
    _check_against_references(_mid_pass(aig, module, pass_fn, commits))


@pytest.mark.parametrize("seed", range(6))
def test_references_hold_on_detached_slots(seed):
    aig = aig_from_netlist(
        build_random_netlist(seed=seed, num_inputs=5, num_gates=60)
    )
    snapshots = _inside_replace(aig)
    assert snapshots
    for snapshot in snapshots:
        assert -2 in snapshot.fanin_arrays()[0]
        _check_against_references(snapshot)


def test_quick_c432_mid_pass_matches_the_references(c432_quick):
    aig = aig_from_netlist(c432_quick)
    _check_against_references(aig)
    _check_against_references(
        _mid_pass(aig, rewrite_module, rewrite_module.rewrite_pass, 5)
    )
