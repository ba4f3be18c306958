"""Property tests: uint64-lane AIG simulation (:func:`simulate_lanes`,
:func:`po_lanes`) is bit-identical to the integer-word reference
(:func:`simulate_words`, :func:`po_words`).

Lane simulation masks tail bits only at extraction and flips whole lanes
on complement, so the dangerous widths are the non-multiples of 64
(garbage tail bits in-flight) and width < 64 (a single partial lane).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aig import Aig, aig_from_netlist, lit_not, lit_var
from repro.aig.simulate import (
    cut_truth_table,
    output_truth_tables,
    po_lanes,
    po_words,
    simulate_lanes,
    simulate_words,
    word_to_lanes,
)
from repro.circuits import available_benchmarks, load_iscas85
from repro.utils.rng import make_rng

from tests.conftest import build_random_netlist

# 1 and 63: single partial lane.  64: exactly one lane.  65 and 100:
# partial tail lane.  256: multiple exact lanes.  331: multiple lanes
# with a tail.
WIDTHS = (1, 63, 64, 65, 100, 256, 331)


def random_stimulus(aig, width: int, seed: int) -> dict[int, int]:
    rng = make_rng(seed)
    mask = (1 << width) - 1
    return {
        var: int.from_bytes(rng.bytes((width + 7) // 8), "big") & mask
        for var in aig.pi_vars()
    }


def lanes_to_int(lanes: np.ndarray, width: int) -> int:
    """Tail-masked integer word of a lane array."""
    raw = np.ascontiguousarray(lanes, dtype="<u8").tobytes()
    return int.from_bytes(raw, "little") & ((1 << width) - 1)


def assert_backends_identical(aig, width: int, seed: int) -> None:
    stimulus = random_stimulus(aig, width, seed)
    reference = simulate_words(aig, stimulus, width)
    lanes = simulate_lanes(
        aig,
        {var: word_to_lanes(word, width) for var, word in stimulus.items()},
        width,
    )
    assert {
        var: lanes_to_int(arr, width) for var, arr in lanes.items()
    } == reference
    # po_lanes zeroes the tail itself: read its lanes back unmasked.
    outputs = po_lanes(aig, lanes, width)
    assert [lanes_to_int(arr, 64 * len(arr)) for arr in outputs] == (
        po_words(aig, reference, width)
    )


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("width", WIDTHS)
def test_packed_matches_reference_on_random_aigs(seed, width):
    netlist = build_random_netlist(
        num_inputs=5 + seed % 3, num_gates=20 + 5 * seed, seed=seed
    )
    assert_backends_identical(aig_from_netlist(netlist), width, seed)


@pytest.mark.parametrize("name", available_benchmarks())
def test_packed_matches_reference_on_iscas85(name):
    aig = aig_from_netlist(load_iscas85(name, scale="quick"))
    for width in (64, 100):
        assert_backends_identical(aig, width, seed=7)


@pytest.mark.slow
@pytest.mark.parametrize("name", available_benchmarks())
@pytest.mark.parametrize("seed", range(3))
def test_packed_matches_reference_on_iscas85_seed_sweep(name, seed):
    aig = aig_from_netlist(load_iscas85(name, scale="quick", seed=seed))
    for width in WIDTHS:
        assert_backends_identical(aig, width, seed=seed)


@pytest.mark.parametrize("width", WIDTHS)
def test_lanes_round_trip(width):
    rng = make_rng(width)
    for _ in range(8):
        word = int.from_bytes(rng.bytes((width + 7) // 8), "big") & (
            (1 << width) - 1
        )
        lanes = word_to_lanes(word, width)
        assert lanes.dtype == np.uint64
        assert lanes_to_int(lanes, width) == word


def test_po_lanes_masks_garbage_tail():
    # In-flight lanes legitimately carry garbage above `width`; extraction
    # must zero it without mutating the simulation's arrays.
    aig = Aig()
    a = aig.add_pi("a")
    b = aig.add_pi("b")
    aig.add_po(a)  # plain PO: masked on a copy
    aig.add_po(lit_not(aig.add_and(lit_not(a), b)))  # complemented
    full = np.array([0xFFFF_FFFF_FFFF_FFFF], dtype=np.uint64)
    zero = np.zeros(1, dtype=np.uint64)
    lanes = simulate_lanes(aig, {lit_var(a): full, lit_var(b): zero}, 4)
    outputs = po_lanes(aig, lanes, 4)
    assert [int(arr[0]) for arr in outputs] == [0xF, 0xF]
    assert int(lanes[lit_var(a)][0]) == 0xFFFF_FFFF_FFFF_FFFF


@pytest.mark.parametrize("seed", range(4))
def test_cut_truth_table_agrees_with_packed_exhaustive(seed):
    # The PI cut of each PO cone reduces cut_truth_table to the full PO
    # truth table, which output_truth_tables derives via exhaustive
    # signatures — cross-checking the cut simulator against whole-AIG
    # simulation.
    aig = aig_from_netlist(build_random_netlist(num_inputs=5, seed=seed))
    leaves = aig.pi_vars()
    tables = output_truth_tables(aig)
    for po, expected in zip(aig.po_lits(), tables):
        assert cut_truth_table(aig, po, leaves).bits == expected.bits
