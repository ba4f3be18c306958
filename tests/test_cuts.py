"""Differential tests of the bitset cut manager.

``CutManager`` merges fanin cuts as leaf bitsets and builds each cut's
truth table from its fanins' tables.  Both are checked against simple
references: a set-based enumerator kept here as the oracle (the merge the
manager replaced), and ``cut_truth_table``, which simulates the cut cone
directly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import Aig, aig_from_netlist, lit_var, make_lit
from repro.aig.cuts import CutManager
from repro.aig.simulate import cut_truth_table
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


def _check_manager(aig: Aig, k: int, limit: int) -> None:
    manager = CutManager(aig, k=k, limit=limit)
    reference = _reference_cuts(aig, k, limit)
    for var in aig.topological_ands():
        cuts = manager.cuts(var)
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

