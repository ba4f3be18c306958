"""Tests for the AIG data structure: strashing, folding, replacement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import (
    Aig,
    aig_from_netlist,
    lit_not,
    lit_var,
    make_lit,
)
from repro.aig.simulate import (
    cut_truth_table,
    exhaustive_signatures,
    functionally_equal,
    output_truth_tables,
    random_signatures,
)
from repro.errors import AigError
from tests.conftest import build_random_netlist


class TestLiterals:
    def test_encoding(self):
        assert make_lit(3) == 6
        assert make_lit(3, True) == 7
        assert lit_var(7) == 3
        assert lit_not(6) == 7
        assert lit_not(7) == 6


class TestConstruction:
    def test_constant_folding(self):
        aig = Aig()
        a = aig.add_pi("a")
        assert aig.add_and(a, 0) == 0
        assert aig.add_and(a, 1) == a
        assert aig.add_and(a, a) == a
        assert aig.add_and(a, lit_not(a)) == 0

    def test_structural_hashing(self):
        aig = Aig()
        a = aig.add_pi("a")
        b = aig.add_pi("b")
        n1 = aig.add_and(a, b)
        n2 = aig.add_and(b, a)
        assert n1 == n2
        assert aig.num_ands() == 1

    def test_xor_mux_helpers(self):
        aig = Aig()
        a = aig.add_pi("a")
        b = aig.add_pi("b")
        s = aig.add_pi("s")
        aig.add_po(aig.add_xor(a, b), "x")
        aig.add_po(aig.add_mux(s, a, b), "m")
        tables = output_truth_tables(aig)
        for minterm in range(8):
            bits = [(minterm >> i) & 1 for i in range(3)]
            va, vb, vs = bits
            assert ((tables[0].bits >> minterm) & 1) == va ^ vb
            assert ((tables[1].bits >> minterm) & 1) == (vb if vs else va)

    def test_many_and_or(self):
        aig = Aig()
        pis = [aig.add_pi(f"p{i}") for i in range(5)]
        aig.add_po(aig.add_many_and(pis), "a")
        aig.add_po(aig.add_many_or(pis), "o")
        tables = output_truth_tables(aig)
        assert tables[0].count_ones() == 1
        assert tables[1].count_ones() == 31

    def test_dead_literal_rejected(self):
        aig = Aig()
        a = aig.add_pi("a")
        b = aig.add_pi("b")
        n = aig.add_and(a, b)
        aig.add_po(n, "y")
        aig.set_po(0, a)  # kills the AND node
        with pytest.raises(AigError):
            aig.add_and(n, a)

    def test_check_passes_on_valid(self, c432_quick):
        aig = aig_from_netlist(c432_quick)
        aig.check()


class TestReplace:
    def test_replace_with_constant(self):
        aig = Aig()
        a = aig.add_pi("a")
        b = aig.add_pi("b")
        n1 = aig.add_and(a, b)
        n2 = aig.add_and(n1, lit_not(a))
        aig.add_po(n2, "y")
        aig.replace(lit_var(n1), 1)
        aig.check()
        # y = 1 & ~a = ~a
        assert aig.po_lits()[0] == lit_not(a)

    def test_replace_cascades_strash_merge(self):
        aig = Aig()
        a = aig.add_pi("a")
        b = aig.add_pi("b")
        c = aig.add_pi("c")
        n1 = aig.add_and(a, b)
        n2 = aig.add_and(c, b)
        m1 = aig.add_and(n1, c)
        m2 = aig.add_and(n2, a)
        aig.add_po(m1, "y1")
        aig.add_po(m2, "y2")
        # Replacing n2 by n1 makes m2 = n1 & a; then further logic can merge.
        aig.replace(lit_var(n2), n1)
        aig.check()
        sigs = exhaustive_signatures(aig)
        width = 1 << 3

        def po_word(index):
            po = aig.po_lits()[index]
            word = sigs[lit_var(po)]
            if po & 1:
                word ^= (1 << width) - 1
            return word

        # y1 = (a&b)&c = minterm 7; y2 = (a&b)&a = a&b = minterms 3, 7.
        assert po_word(0) == 0b10000000
        assert po_word(1) == 0b10001000

    def test_replace_updates_pos(self):
        aig = Aig()
        a = aig.add_pi("a")
        b = aig.add_pi("b")
        n = aig.add_and(a, b)
        aig.add_po(lit_not(n), "y")
        aig.replace(lit_var(n), a)
        assert aig.po_lits()[0] == lit_not(a)

    def test_replace_rejects_self(self):
        aig = Aig()
        a = aig.add_pi("a")
        b = aig.add_pi("b")
        n = aig.add_and(a, b)
        with pytest.raises(AigError):
            aig.replace(lit_var(n), n)

    def test_dead_cone_reclaimed(self):
        aig = Aig()
        a = aig.add_pi("a")
        b = aig.add_pi("b")
        c = aig.add_pi("c")
        n1 = aig.add_and(a, b)
        n2 = aig.add_and(n1, c)
        aig.add_po(n2, "y")
        assert aig.num_ands() == 2
        aig.replace(lit_var(n2), a)
        aig.check()
        assert aig.num_ands() == 0


class TestTraversal:
    def test_topological_order_property(self, c432_quick):
        aig = aig_from_netlist(c432_quick)
        position = {var: i for i, var in enumerate(aig.topological_ands())}
        for var in aig.topological_ands():
            for lit in aig.fanins(var):
                child = lit_var(lit)
                if aig.is_and(child):
                    assert position[child] < position[var]

    def test_levels_and_depth(self):
        aig = Aig()
        a = aig.add_pi("a")
        b = aig.add_pi("b")
        c = aig.add_pi("c")
        n1 = aig.add_and(a, b)
        n2 = aig.add_and(n1, c)
        aig.add_po(n2, "y")
        assert aig.depth() == 2

    def test_mffc(self):
        aig = Aig()
        a = aig.add_pi("a")
        b = aig.add_pi("b")
        c = aig.add_pi("c")
        n1 = aig.add_and(a, b)        # shared
        n2 = aig.add_and(n1, c)       # only in n3's cone
        n3 = aig.add_and(n2, lit_not(a))
        aig.add_po(n3, "y")
        aig.add_po(n1, "z")           # n1 referenced by a PO too
        leaves = {lit_var(a), lit_var(b), lit_var(c)}
        mffc = aig.mffc(lit_var(n3), leaves)
        assert lit_var(n3) in mffc
        assert lit_var(n2) in mffc
        assert lit_var(n1) not in mffc  # kept alive by PO z

    def test_reaches(self):
        aig = Aig()
        a = aig.add_pi("a")
        b = aig.add_pi("b")
        n1 = aig.add_and(a, b)
        n2 = aig.add_and(n1, lit_not(a))
        aig.add_po(n2, "y")
        assert aig.reaches(n2, lit_var(n1), stop_vars=set())
        assert not aig.reaches(n1, lit_var(n2), stop_vars=set())


class TestCompact:
    def test_compact_preserves_function(self, c880_quick):
        aig = aig_from_netlist(c880_quick)
        compacted = aig.compact()
        compacted.check()
        assert functionally_equal(aig, compacted)

    def test_compact_drops_dangling(self):
        aig = Aig()
        a = aig.add_pi("a")
        b = aig.add_pi("b")
        used = aig.add_and(a, b)
        aig.add_po(used, "y")
        # set_po to a kills the node; rebuild to verify compaction.
        compacted = aig.compact()
        assert compacted.num_ands() == 1

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=15, deadline=None)
    def test_roundtrip_random(self, seed):
        netlist = build_random_netlist(seed=seed)
        aig = aig_from_netlist(netlist)
        aig.check()
        assert functionally_equal(aig, aig.compact())


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
