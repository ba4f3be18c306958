"""Property tests: uint64-lane AIG simulation (:func:`simulate_lanes`) is
bit-identical to the integer-word reference (:func:`simulate_words`).

Lane simulation flips whole lanes on complement and never masks, so the
dangerous widths are the non-multiples of 64 (garbage tail bits) and
width < 64 (a single partial lane).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aig import aig_from_netlist
from repro.aig.simulate import random_signatures, simulate_lanes
from repro.circuits import available_benchmarks, load_iscas85

from tests.conftest import build_random_netlist

# 1 and 63: single partial lane.  64: exactly one lane.  65 and 100:
# partial tail lane.  256: multiple exact lanes.  331: multiple lanes
# with a tail.
WIDTHS = (1, 63, 64, 65, 100, 256, 331)


def word_to_lanes(word: int, width: int) -> np.ndarray:
    nlanes = max(1, (width + 63) // 64)
    return np.frombuffer(word.to_bytes(nlanes * 8, "little"), dtype="<u8")


def lanes_to_int(lanes: np.ndarray, width: int) -> int:
    """Tail-masked integer word of a lane array."""
    raw = np.ascontiguousarray(lanes, dtype="<u8").tobytes()
    return int.from_bytes(raw, "little") & ((1 << width) - 1)


def assert_lanes_match_words(aig, width: int, seed: int) -> None:
    reference = random_signatures(aig, width, seed)
    lanes = simulate_lanes(
        aig,
        {var: word_to_lanes(reference[var], width) for var in aig.pi_vars()},
        width,
    )
    assert {
        var: lanes_to_int(arr, width) for var, arr in lanes.items()
    } == reference


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("width", WIDTHS)
def test_packed_matches_reference_on_random_aigs(seed, width):
    netlist = build_random_netlist(
        num_inputs=5 + seed % 3, num_gates=20 + 5 * seed, seed=seed
    )
    assert_lanes_match_words(aig_from_netlist(netlist), width, seed)


@pytest.mark.parametrize("name", available_benchmarks())
def test_packed_matches_reference_on_iscas85(name):
    aig = aig_from_netlist(load_iscas85(name, scale="quick"))
    for width in (64, 100):
        assert_lanes_match_words(aig, width, seed=7)
