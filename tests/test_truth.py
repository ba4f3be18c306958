"""Tests for the truth-table engine, including NPN canonization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.truth import NpnTransform, TruthTable


def tables(nvars=st.integers(min_value=0, max_value=4)):
    return nvars.flatmap(
        lambda n: st.integers(min_value=0, max_value=(1 << (1 << n)) - 1).map(
            lambda bits: TruthTable(bits, n)
        )
    )


class TestBasics:
    def test_const(self):
        assert TruthTable.const(False, 3).is_const0()
        assert TruthTable.const(True, 3).is_const1()

    def test_var_projection(self):
        t = TruthTable.var(1, 3)
        for minterm in range(8):
            assert ((t.bits >> minterm) & 1) == ((minterm >> 1) & 1)

    def test_from_values_roundtrip(self):
        values = [0, 1, 1, 0]
        t = TruthTable.from_values(values)
        assert [t.evaluate([m & 1, (m >> 1) & 1]) for m in range(4)] == values

    def test_from_values_rejects_bad_length(self):
        with pytest.raises(ValueError):
            TruthTable.from_values([0, 1, 1])

    def test_bits_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            TruthTable(1 << 4, 2)

    def test_algebra(self):
        a = TruthTable.var(0, 2)
        b = TruthTable.var(1, 2)
        assert (a & b).bits == 0b1000
        assert (a | b).bits == 0b1110
        assert (a ^ b).bits == 0b0110
        assert (~a).bits == 0b0101

    def test_mismatched_nvars_rejected(self):
        with pytest.raises(ValueError):
            TruthTable.var(0, 2) & TruthTable.var(0, 3)

    def test_count_ones_and_minterms(self):
        t = TruthTable(0b1010, 2)
        assert t.count_ones() == 2
        assert list(t.minterms()) == [1, 3]


class TestCofactors:
    def test_cofactor_fixes_variable(self):
        a = TruthTable.var(0, 3)
        b = TruthTable.var(1, 3)
        f = a ^ b
        assert f.cofactor(0, 0).bits == b.bits
        assert f.cofactor(0, 1).bits == (~b).bits

    def test_support(self):
        a = TruthTable.var(0, 3)
        c = TruthTable.var(2, 3)
        assert (a & c).support() == (0, 2)

    @given(tables())
    @settings(max_examples=60, deadline=None)
    def test_shannon_expansion(self, t):
        for var in range(t.nvars):
            c0 = t.cofactor(var, 0)
            c1 = t.cofactor(var, 1)
            v = TruthTable.var(var, t.nvars)
            rebuilt = (~v & c0) | (v & c1)
            assert rebuilt.bits == t.bits


class TestTransforms:
    def test_flip(self):
        a = TruthTable.var(0, 2)
        assert a.flip(0).bits == (~a).bits

    def test_permute_swap(self):
        a = TruthTable.var(0, 2)
        swapped = a.permute([1, 0])
        assert swapped.bits == TruthTable.var(1, 2).bits

    @given(tables())
    @settings(max_examples=60, deadline=None)
    def test_flip_involution(self, t):
        for var in range(t.nvars):
            assert t.flip(var).flip(var).bits == t.bits


class TestNpn:
    @given(tables())
    @settings(max_examples=60, deadline=None)
    def test_transform_maps_to_canonical(self, t):
        canonical, transform = t.npn_canon()
        assert transform.apply(t).bits == canonical.bits

    @given(tables())
    @settings(max_examples=40, deadline=None)
    def test_npn_class_invariance(self, t):
        canonical, _ = t.npn_canon()
        # Complementing the output must not change the class.
        canonical2, _ = (~t).npn_canon()
        assert canonical.bits == canonical2.bits
        # Flipping an input must not change the class.
        if t.nvars:
            canonical3, _ = t.flip(0).npn_canon()
            assert canonical.bits == canonical3.bits

    def test_and_class_has_representatives(self):
        and2 = TruthTable(0b1000, 2)
        nand2 = ~and2
        c1, _ = and2.npn_canon()
        c2, _ = nand2.npn_canon()
        assert c1.bits == c2.bits

    def test_leaf_order_semantics(self):
        t = TruthTable.var(0, 2) & ~TruthTable.var(1, 2)
        canonical, transform = t.npn_canon()
        order = transform.leaf_order(["x0", "x1"])
        assert len(order) == 2
        assert {leaf for leaf, _neg in order} == {"x0", "x1"}
