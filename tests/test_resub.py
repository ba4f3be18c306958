"""Differential tests for resubstitution's divisor-pair search.

``find_pair`` classifies each phased divisor by whether it covers the
target or its complement and forms only ANDs of pairs in a shared class.
``reference_find_pair`` below is the full nested search it replaced: every
pair ``i < j``, every phase ``p1``, ``p2``, plain output before
complemented.  Both must return the same first match, and a pass run on
either search must build the same AIG.
"""

from __future__ import annotations

import pytest

from repro.aig import aig_from_netlist
from repro.synth import resub as resub_module
from repro.synth.resub import MAX_DIVISORS, find_pair, resub_pass
from repro.utils.rng import make_rng
from tests.conftest import build_random_netlist


def reference_find_pair(divisors, words, target, mask):
    """The nested search: first ``(d1, p1, d2, p2, out_neg)`` or ``None``,
    and the phased ANDs it formed."""
    formed = 0
    for i, d1 in enumerate(divisors):
        w1 = words[d1]
        for d2 in divisors[i + 1:]:
            w2 = words[d2]
            for p1 in (0, 1):
                a = w1 ^ (mask if p1 else 0)
                for p2 in (0, 1):
                    b = w2 ^ (mask if p2 else 0)
                    formed += 1
                    if (a & b) == target:
                        return (d1, p1, d2, p2, False), formed
                    if (a & b) == target ^ mask:
                        return (d1, p1, d2, p2, True), formed
    return None, formed


def _random_window(seed: int):
    """Divisor words biased towards covering the target in either phase.

    Random words alone almost never AND to the target; supersets of the
    target or of its complement make several pairs match, so the order
    of the search decides which one is first.
    """
    rng = make_rng(seed)
    nvars = int(rng.integers(1, 7))
    mask = (1 << (1 << nvars)) - 1

    def word():
        return int.from_bytes(rng.bytes(8), "little") & mask

    shape = seed % 5
    if shape == 0:
        target = 0
    elif shape == 1:
        target = mask
    else:
        target = word()
    count = int(rng.integers(0, MAX_DIVISORS + 16))
    values = []
    for _ in range(count):
        kind = int(rng.integers(0, 8))
        if kind == 0:
            value = word()
        elif kind in (1, 2):
            value = target | word()
        elif kind in (3, 4):
            value = (target ^ mask) | word()
        elif kind == 5:
            value = target ^ (mask if rng.random() < 0.5 else 0)
        elif kind == 6 and values:
            value = values[int(rng.integers(0, len(values)))]
        else:
            value = (target | word()) & (target | word())
        if rng.random() < 0.5:
            value ^= mask
        values.append(value)
    divisors = [int(v) + 2 for v in rng.permutation(len(values) + 4)[:count]]
    words = dict(zip(divisors, values))
    return divisors, words, target, mask


@pytest.mark.parametrize("seed", range(300))
def test_find_pair_matches_the_nested_search(seed):
    divisors, words, target, mask = _random_window(seed)
    found, formed = find_pair(divisors, words, target, mask)
    reference, reference_formed = reference_find_pair(
        divisors, words, target, mask
    )
    assert found == reference
    assert formed <= reference_formed


def test_random_windows_cover_every_case():
    """The seeds above reach both outputs, misses and the corner shapes."""
    outcomes = set()
    long_lists = constant_targets = 0
    for seed in range(300):
        divisors, words, target, mask = _random_window(seed)
        found, _ = reference_find_pair(divisors, words, target, mask)
        outcomes.add(None if found is None else found[4])
        long_lists += len(divisors) > MAX_DIVISORS
        constant_targets += target in (0, mask)
    assert outcomes == {None, False, True}
    assert long_lists > 0 and constant_targets > 0


def test_find_pair_corner_windows():
    mask = 0b1111
    words = {2: 0b0011, 3: 0b0101, 4: 0b0011, 5: 0b1100, 6: mask}
    # Duplicate words: (2, 4) in plain phase is the first AND to 0b0011.
    assert find_pair([2, 3, 4], words, 0b0011, mask)[0] == (2, 0, 4, 0, False)
    # Constant targets: any disjoint pair gives 0; only mask & mask gives mask.
    for target in (0, mask):
        for divisors in ([2, 3, 4, 5], [2, 6, 3], [5, 6]):
            assert find_pair(divisors, words, target, mask)[0] == (
                reference_find_pair(divisors, words, target, mask)[0]
            )
    # A divisor equal to the target's complement pairs in either output.
    assert find_pair([5, 2], words, 0b0011, mask)[0] == (
        reference_find_pair([5, 2], words, 0b0011, mask)[0]
    )
    assert find_pair([], words, 0b0011, mask) == (None, 0)


def _pass_result(aig, zero_cost):
    aig = aig.clone()
    changed = resub_pass(aig, zero_cost=zero_cost)
    return changed, aig.fingerprint()


@pytest.mark.parametrize("zero_cost", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_pass_builds_what_the_nested_search_builds(seed, zero_cost, monkeypatch):
    aig = aig_from_netlist(
        build_random_netlist(seed=seed, num_inputs=8, num_gates=70)
    )
    classified = _pass_result(aig, zero_cost)

    monkeypatch.setattr(resub_module, "find_pair", reference_find_pair)
    assert _pass_result(aig, zero_cost) == classified
