"""Irredundant sum-of-products computation (Minato–Morreale ISOP).

Cubes are pairs of variable bitmasks ``(pos, neg)``: variable ``v`` appears
as a positive literal when bit ``v`` of ``pos`` is set and as a negative
literal when bit ``v`` of ``neg`` is set.  The empty cube ``(0, 0)`` is the
constant-1 cube.

The recursion operates on raw truth-table integers (not
:class:`~repro.utils.truth.TruthTable` objects) because it sits on the
miss path of the structure cache (:mod:`repro.synth.library`), which runs
for every cut function ``refactor`` and ``rewrite`` meet first.  Within
one :func:`isop` call it memoizes each ``(lower, upper)`` subproblem, as
the computed table of BDD-based ISOP does (Minato, SASIMI 1992): the
cofactor intervals of wide tables repeat often, and a subproblem's cover
is a pure function of its interval.  Nothing is kept between calls; the
structure cache keeps the results that are worth keeping.
"""

from __future__ import annotations

from functools import lru_cache

from repro.utils.truth import TruthTable, _full_mask, _var_mask

Cube = tuple[int, int]


def cube_table(cube: Cube, nvars: int) -> TruthTable:
    """Truth table of a single cube."""
    pos, neg = cube
    table = TruthTable.const(True, nvars)
    for var in range(nvars):
        if (pos >> var) & 1:
            table = table & TruthTable.var(var, nvars)
        if (neg >> var) & 1:
            table = table & ~TruthTable.var(var, nvars)
    return table


def sop_table(cubes: list[Cube], nvars: int) -> TruthTable:
    """Truth table of a sum of cubes."""
    table = TruthTable.const(False, nvars)
    for cube in cubes:
        table = table | cube_table(cube, nvars)
    return table


def isop(table: TruthTable) -> list[Cube]:
    """Irredundant SOP cover of ``table`` (exact: onset == cover).

    Implements the Minato–Morreale procedure on interval ``[L, U]`` with
    ``L = U = table``; the result is an irredundant cover whose function
    equals ``table`` exactly.
    """
    nvars = table.nvars
    mask = _full_mask(nvars)
    splits = _splits(nvars)
    memo: dict[tuple[int, int], tuple[list[Cube], int]] = {}

    def cover(lower: int, upper: int) -> tuple[list[Cube], int]:
        """Cover any function in ``[lower, upper]``; (cubes, cover bits)."""
        if lower == 0:
            return [], 0
        if upper == mask:
            return [(0, 0)], mask
        key = (lower, upper)
        result = memo.get(key)
        if result is not None:
            return result
        # Split on the highest variable on which either bound depends.
        for bit, vpos, vneg in splits:
            if ((lower >> bit ^ lower) | (upper >> bit ^ upper)) & vneg:
                break
        else:  # constant interval handled above; defensive
            return [(0, 0)], mask
        lo = lower & vneg
        l0 = lo | lo << bit
        hi = lower & vpos
        l1 = hi | hi >> bit
        lo = upper & vneg
        u0 = lo | lo << bit
        hi = upper & vpos
        u1 = hi | hi >> bit

        cubes0, cover0 = cover(l0 & ~u1, u0)
        cubes1, cover1 = cover(l1 & ~u0, u1)
        cubes2, cover2 = cover((l0 & ~cover0) | (l1 & ~cover1), u0 & u1)
        result = memo[key] = (
            [(pos, neg | bit) for pos, neg in cubes0]
            + [(pos | bit, neg) for pos, neg in cubes1]
            + cubes2,
            (cover0 & vneg) | (cover1 & vpos) | cover2,
        )
        return result

    return cover(table.bits, table.bits)[0]


@lru_cache(maxsize=None)
def _splits(nvars: int) -> tuple[tuple[int, int, int], ...]:
    """``(1 << var, var mask, its complement)`` per variable, highest first.

    ``1 << var`` is both the table shift between the two cofactors of
    ``var`` and the cube bit of its literal.
    """
    mask = _full_mask(nvars)
    return tuple(
        (1 << var, _var_mask(var, nvars), _var_mask(var, nvars) ^ mask)
        for var in reversed(range(nvars))
    )


def cube_literal_count(cubes: list[Cube]) -> int:
    """Total literal count of a cover (a standard SOP cost measure)."""
    return sum(bin(pos).count("1") + bin(neg).count("1") for pos, neg in cubes)
