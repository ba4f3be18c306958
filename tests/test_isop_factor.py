"""Tests for ISOP covers and algebraic factoring."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.synth.factor import FNode, _most_frequent_literal, factor_sop
from repro.synth.isop import (
    cube_literal_count,
    cube_table,
    isop,
    sop_table,
)
from repro.utils.truth import TruthTable


def tables(max_vars=5, min_vars=0):
    return st.integers(min_value=min_vars, max_value=max_vars).flatmap(
        lambda n: st.integers(min_value=0, max_value=(1 << (1 << n)) - 1).map(
            lambda bits: TruthTable(bits, n)
        )
    )


def eval_fnode(node: FNode, assignment) -> int:
    if node.kind == "const":
        return int(node.value)
    if node.kind == "lit":
        value = assignment[node.var]
        return value ^ int(node.negated)
    child_values = [eval_fnode(c, assignment) for c in node.children]
    if node.kind == "and":
        return int(all(child_values))
    if node.kind == "or":
        return int(any(child_values))
    if node.kind == "xor":
        acc = 0
        for value in child_values:
            acc ^= value
        return acc
    raise AssertionError(node.kind)


def fnode_table(node: FNode, nvars: int) -> TruthTable:
    """Truth table of a factored form, by table operations."""
    if node.kind == "const":
        return TruthTable.const(node.value, nvars)
    if node.kind == "lit":
        table = TruthTable.var(node.var, nvars)
        return ~table if node.negated else table
    child_tables = [fnode_table(child, nvars) for child in node.children]
    acc = child_tables[0]
    for table in child_tables[1:]:
        if node.kind == "and":
            acc = acc & table
        elif node.kind == "or":
            acc = acc | table
        else:
            acc = acc ^ table
    return acc


def cube_sums(min_vars, max_vars):
    """Tables given as a sum of random cubes (structured, like cones)."""
    return st.integers(min_value=min_vars, max_value=max_vars).flatmap(
        lambda n: st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=(1 << n) - 1),
                st.integers(min_value=0, max_value=(1 << n) - 1),
            ),
            min_size=1,
            max_size=12,
        ).map(
            lambda pairs: sop_table([(a & ~b, b & ~a) for a, b in pairs], n)
        )
    )


# ``refactor`` collapses cones of up to 10 inputs.
WIDE_TABLES = st.one_of(tables(max_vars=10, min_vars=6), cube_sums(6, 10))


class TestIsop:
    def test_constants(self):
        assert isop(TruthTable.const(False, 2)) == []
        assert isop(TruthTable.const(True, 2)) == [(0, 0)]

    def test_single_variable(self):
        cubes = isop(TruthTable.var(0, 2))
        assert cubes == [(1, 0)]

    def test_and(self):
        f = TruthTable.var(0, 2) & TruthTable.var(1, 2)
        assert isop(f) == [(0b11, 0)]

    @given(tables())
    @settings(max_examples=120, deadline=None)
    def test_cover_is_exact(self, t):
        cubes = isop(t)
        assert sop_table(cubes, t.nvars).bits == t.bits

    @given(tables())
    @settings(max_examples=60, deadline=None)
    def test_cover_is_irredundant(self, t):
        cubes = isop(t)
        # Dropping any cube must lose some minterm.
        for index in range(len(cubes)):
            reduced = cubes[:index] + cubes[index + 1:]
            assert sop_table(reduced, t.nvars).bits != t.bits

    @given(WIDE_TABLES)
    @settings(max_examples=50, deadline=None)
    def test_wide_cover_is_exact_and_irredundant(self, t):
        cubes = isop(t)
        cube_bits = [cube_table(cube, t.nvars).bits for cube in cubes]
        # prefix[i] | suffix[i + 1] is the cover without cube i.
        prefix = [0]
        for bits in cube_bits:
            prefix.append(prefix[-1] | bits)
        suffix = [0]
        for bits in reversed(cube_bits):
            suffix.append(suffix[-1] | bits)
        suffix.reverse()
        assert prefix[-1] == t.bits
        for index in range(len(cubes)):
            assert prefix[index] | suffix[index + 1] != t.bits

    def test_parity_cover_size(self):
        # XOR of 3 variables needs all 4 odd-parity cubes.
        f = (
            TruthTable.var(0, 3)
            ^ TruthTable.var(1, 3)
            ^ TruthTable.var(2, 3)
        )
        assert len(isop(f)) == 4

    def test_cube_table(self):
        cube = (0b01, 0b10)  # x0 & ~x1
        t = cube_table(cube, 2)
        assert t.bits == 0b0010

    def test_literal_count(self):
        assert cube_literal_count([(0b11, 0), (0, 0b1)]) == 3


class TestFactor:
    @given(tables(max_vars=4))
    @settings(max_examples=100, deadline=None)
    def test_factored_form_is_equivalent(self, t):
        tree = factor_sop(isop(t))
        for minterm in range(1 << t.nvars):
            assignment = [(minterm >> i) & 1 for i in range(t.nvars)]
            assert eval_fnode(tree, assignment) == t.evaluate(assignment)

    @given(WIDE_TABLES)
    @settings(max_examples=50, deadline=None)
    def test_wide_factored_form_is_equivalent(self, t):
        for table in (t, ~t):
            tree = factor_sop(isop(table))
            assert fnode_table(tree, t.nvars).bits == table.bits

    def test_factoring_shares_literals(self):
        # f = a b + a c should factor as a (b + c): 3 literals, not 4.
        cubes = [(0b011, 0), (0b101, 0)]
        tree = factor_sop(cubes)
        assert tree.num_literals() == 3

    def test_constants(self):
        assert factor_sop([]).kind == "const"
        assert factor_sop([(0, 0)]).value is True

    def test_rename(self):
        tree = factor_sop([(0b11, 0)])
        renamed = tree.rename({0: 5, 1: 7})
        vars_seen = set()

        def collect(node):
            if node.kind == "lit":
                vars_seen.add(node.var)
            for child in node.children:
                collect(child)

        collect(renamed)
        assert vars_seen == {5, 7}


class TestMostFrequentLiteral:
    """Factoring divides by this literal, so its tie-breaks shape every
    factored form and must not drift."""

    def test_highest_count_wins(self):
        # x1 occurs three times, x0 twice.
        cubes = [(0b011, 0), (0b110, 0), (0b011, 0)]
        assert _most_frequent_literal(cubes) == (1, False)

    def test_equal_count_lowest_var_wins(self):
        # x3 and x0 occur twice each; x3 is met first.
        cubes = [(0b1000, 0), (0b1001, 0), (0b0001, 0)]
        assert _most_frequent_literal(cubes) == (0, False)

    def test_equal_count_and_var_first_met_wins(self):
        # ~x0 and x0 occur twice each; ~x0 is met first (cube 0).
        cubes = [(0b10, 0b01), (0b01, 0b10), (0b00, 0b01), (0b01, 0b00)]
        assert _most_frequent_literal(cubes) == (0, True)
        assert _most_frequent_literal(cubes[1:] + cubes[:1]) == (0, False)

    def test_positive_before_negative_within_a_cube(self):
        # x0 and ~x0 occur twice each, both first in cube 0.
        cubes = [(0b01, 0b01), (0b01, 0b00), (0b10, 0b01)]
        assert _most_frequent_literal(cubes) == (0, False)

    def test_wide_variables_count(self):
        cubes = [(1 << 9, 0b1), (1 << 9, 0b10), (0b1, 1 << 8)]
        assert _most_frequent_literal(cubes) == (9, False)

    def test_none_unless_some_literal_repeats(self):
        assert _most_frequent_literal([(0b1, 0), (0b10, 0), (0, 0b1)]) is None
        assert _most_frequent_literal([(0, 0), (0b1, 0)]) is None
