"""Tests for technology mapping and PPA analysis."""

import pickle

import numpy as np
import pytest

from repro.aig import Aig, aig_from_netlist
from repro.errors import MappingError
from repro.mapping import (
    analyze_ppa,
    map_aig,
    nangate45_library,
    optimize_mapping,
)
from repro.netlist.simulate import random_patterns, simulate_patterns
from tests.conftest import build_random_netlist


def _assert_mapping_equivalent(netlist, mapped):
    expanded = mapped.to_netlist()
    patterns = random_patterns(len(netlist.inputs), 256, seed=3)
    want = simulate_patterns(netlist, patterns)
    got = simulate_patterns(expanded, patterns, input_order=netlist.inputs)
    order = [expanded.outputs.index(o) for o in netlist.outputs]
    assert (want == got[:, order]).all()


class TestLibrary:
    def test_variants(self):
        lib = nangate45_library()
        x1 = lib["NAND2_X1"]
        x2 = lib.variant("NAND2_X1", "X2")
        assert x2.area > x1.area
        assert x2.intrinsic_delay < x1.intrinsic_delay

    def test_missing_cell(self):
        with pytest.raises(MappingError):
            nangate45_library()["FLUX_CAPACITOR_X1"]

    def test_cell_functions(self):
        lib = nangate45_library()
        a = np.array([0, 0, 1, 1], dtype=bool)
        b = np.array([0, 1, 0, 1], dtype=bool)
        assert list(lib["NAND2_X1"].evaluate([a, b])) == [True, True, True, False]
        assert list(lib["XOR2_X1"].evaluate([a, b])) == [False, True, True, False]
        assert list(lib["ANDNOT2_X1"].evaluate([a, b])) == [
            False, False, True, False,
        ]

    def test_arity_enforced(self):
        lib = nangate45_library()
        with pytest.raises(MappingError):
            lib["INV_X1"].evaluate([np.zeros(2, bool), np.zeros(2, bool)])

    def test_pickled_mapped_circuit_reports_the_same_ppa(self):
        netlist = build_random_netlist(seed=2, num_gates=30)
        mapped = map_aig(aig_from_netlist(netlist))
        copy = pickle.loads(pickle.dumps(mapped))
        assert copy.library.name == mapped.library.name
        want, got = analyze_ppa(mapped), analyze_ppa(copy)
        assert (got.area, got.delay, got.power) == (
            want.area, want.delay, want.power
        )


class TestMapper:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_mapping_equivalence_random(self, seed):
        netlist = build_random_netlist(seed=seed, num_gates=30)
        aig = aig_from_netlist(netlist)
        mapped = map_aig(aig)
        _assert_mapping_equivalent(netlist, mapped)

    def test_mapping_equivalence_benchmark(self, c880_quick):
        aig = aig_from_netlist(c880_quick)
        mapped = map_aig(aig)
        _assert_mapping_equivalent(c880_quick, mapped)

    def test_xor_cells_used_on_parity(self):
        aig = Aig("parity")
        pis = [aig.add_pi(f"p{i}") for i in range(4)]
        acc = pis[0]
        for lit in pis[1:]:
            acc = aig.add_xor(acc, lit)
        aig.add_po(acc, "y")
        mapped = map_aig(aig)
        histogram = mapped.cell_histogram()
        assert histogram.get("XOR2", 0) + histogram.get("XNOR2", 0) >= 3

    def test_constant_output(self):
        aig = Aig("const")
        aig.add_pi("a")
        aig.add_po(1, "one")
        aig.add_po(0, "zero")
        mapped = map_aig(aig)
        expanded = mapped.to_netlist()
        out = simulate_patterns(
            expanded, np.array([[0], [1]], dtype=np.uint8), input_order=["a"]
        )
        one_col = expanded.outputs.index("one")
        zero_col = expanded.outputs.index("zero")
        assert (out[:, one_col] == 1).all()
        assert (out[:, zero_col] == 0).all()

    def test_area_positive(self, c432_quick):
        mapped = map_aig(aig_from_netlist(c432_quick))
        assert mapped.total_area() > 0
        assert mapped.num_cells() > 0


class TestPpa:
    def test_report_fields(self, c432_quick):
        mapped = map_aig(aig_from_netlist(c432_quick))
        report = analyze_ppa(mapped)
        assert report.area > 0
        assert report.delay > 0
        assert report.power > 0
        assert report.leakage_power > 0
        assert report.dynamic_power > 0

    def test_overhead_vs(self, c432_quick):
        mapped = map_aig(aig_from_netlist(c432_quick))
        report = analyze_ppa(mapped)
        overheads = report.overhead_vs(report)
        assert all(abs(v) < 1e-9 for v in overheads.values())

    def test_optimize_improves_delay(self, c880_quick):
        mapped = map_aig(aig_from_netlist(c880_quick))
        base = analyze_ppa(mapped)
        optimized = optimize_mapping(mapped)
        tuned = analyze_ppa(optimized)
        assert tuned.delay < base.delay
        # Upsizing costs area.
        assert tuned.area >= base.area

    def test_optimize_preserves_function(self, c432_quick):
        aig = aig_from_netlist(c432_quick)
        mapped = map_aig(aig)
        optimized = optimize_mapping(mapped)
        _assert_mapping_equivalent(c432_quick, optimized)

    def test_deeper_circuit_larger_delay(self):
        shallow = build_random_netlist(seed=1, num_gates=10)
        deep = build_random_netlist(seed=1, num_gates=60)
        d1 = analyze_ppa(map_aig(aig_from_netlist(shallow))).delay
        d2 = analyze_ppa(map_aig(aig_from_netlist(deep))).delay
        assert d2 > d1
