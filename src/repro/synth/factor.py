"""Algebraic factoring of SOP covers into factored-form trees.

The factored form is the bridge between two-level covers (from ISOP) and
multi-level AIG structure: ``refactor`` and the rewriting library both
collapse a cone to SOP and re-express it through :func:`factor_sop`.

Factored forms are trees of :class:`FNode`:

* ``('lit', var, negated)`` — a literal leaf,
* ``('and', children)`` / ``('or', children)`` — n-ary connectives,
* ``('xor', children)`` — used by the XOR-decomposition shortcut,
* ``('const', value)`` — constants.

Factoring runs only on a structure-cache miss (:mod:`repro.synth.library`),
the first time a process meets a cut function.  :func:`factor_sop` factors
each distinct sub-cover once per call and shares the resulting subtree.
On the 385 tables the proxy training of ``repro defend`` misses on, a
miss costs about 0.2 ms of ISOP and 0.4 ms of factoring per table
(CPython 3.11, one core of a 2-core x86 host).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.synth.isop import Cube


@dataclass(frozen=True)
class FNode:
    """One factored-form tree node."""

    kind: str  # 'lit' | 'and' | 'or' | 'xor' | 'const'
    var: int = -1
    negated: bool = False
    value: bool = False
    children: tuple["FNode", ...] = ()

    @staticmethod
    def lit(var: int, negated: bool = False) -> "FNode":
        return FNode(kind="lit", var=var, negated=negated)

    @staticmethod
    def const(value: bool) -> "FNode":
        return FNode(kind="const", value=value)

    @staticmethod
    def and_(children: Sequence["FNode"]) -> "FNode":
        children = tuple(children)
        if len(children) == 1:
            return children[0]
        return FNode(kind="and", children=children)

    @staticmethod
    def or_(children: Sequence["FNode"]) -> "FNode":
        children = tuple(children)
        if len(children) == 1:
            return children[0]
        return FNode(kind="or", children=children)

    @staticmethod
    def xor(children: Sequence["FNode"]) -> "FNode":
        children = tuple(children)
        if len(children) == 1:
            return children[0]
        return FNode(kind="xor", children=children)

    def num_literals(self) -> int:
        if self.kind == "lit":
            return 1
        return sum(child.num_literals() for child in self.children)

    def rename(self, mapping: dict[int, int]) -> "FNode":
        """Relabel leaf variables through ``mapping``."""
        if self.kind == "lit":
            return FNode.lit(mapping[self.var], self.negated)
        if self.kind == "const":
            return self
        return FNode(
            kind=self.kind,
            children=tuple(child.rename(mapping) for child in self.children),
        )


def _cube_to_fnode(cube: Cube) -> FNode:
    pos, neg = cube
    literals: list[FNode] = []
    var = 0
    rest_pos, rest_neg = pos, neg
    while rest_pos or rest_neg:
        if (rest_pos >> var) & 1 or (rest_neg >> var) & 1:
            if (rest_pos >> var) & 1:
                literals.append(FNode.lit(var, False))
                rest_pos &= ~(1 << var)
            if (rest_neg >> var) & 1:
                literals.append(FNode.lit(var, True))
                rest_neg &= ~(1 << var)
        var += 1
    if not literals:
        return FNode.const(True)
    return FNode.and_(literals)


def _most_frequent_literal(cubes: Sequence[Cube]) -> Optional[tuple[int, bool]]:
    """The literal occurring in the most cubes, if any occurs at least twice.

    Ties go to the lowest variable, then to the polarity met first scanning
    the cubes in order (positive first within one cube).
    """
    any_pos = any_neg = 0
    for pos, neg in cubes:
        any_pos |= pos
        any_neg |= neg
    best = None
    best_count = 1
    for var in range((any_pos | any_neg).bit_length()):
        bit = 1 << var
        count_pos = count_neg = 0
        if any_pos & bit:
            count_pos = len([1 for pos, _ in cubes if pos & bit])
        if any_neg & bit:
            count_neg = len([1 for _, neg in cubes if neg & bit])
        if count_pos == count_neg:
            if count_pos <= best_count:
                continue
            first_pos = next(i for i, (pos, _) in enumerate(cubes) if pos & bit)
            first_neg = next(i for i, (_, neg) in enumerate(cubes) if neg & bit)
            negated = first_neg < first_pos
        else:
            negated = count_neg > count_pos
        count = count_neg if negated else count_pos
        if count > best_count:
            best, best_count = (var, negated), count
    return best


def factor_sop(cubes: Sequence[Cube]) -> FNode:
    """Factor a cube cover into a multi-level form (quick-factor flavour).

    Repeatedly divides by the most frequent literal:
    ``F = l * factor(F / l) + factor(remainder)``.  Within one call each
    distinct sub-cover is factored once and its tree shared (trees are
    immutable), because quotients and remainders of a wide cover repeat.
    """
    memo: dict[tuple[Cube, ...], FNode] = {}

    def factor(cubes: tuple[Cube, ...]) -> FNode:
        if not cubes:
            return FNode.const(False)
        if (0, 0) in cubes:
            return FNode.const(True)
        if len(cubes) == 1:
            return _cube_to_fnode(cubes[0])
        tree = memo.get(cubes)
        if tree is not None:
            return tree
        best = _most_frequent_literal(cubes)
        if best is None:
            tree = FNode.or_([_cube_to_fnode(cube) for cube in cubes])
        else:
            var, negated = best
            bit = 1 << var
            quotient: list[Cube] = []
            remainder: list[Cube] = []
            for pos, neg in cubes:
                if not negated and (pos & bit):
                    quotient.append((pos & ~bit, neg))
                elif negated and (neg & bit):
                    quotient.append((pos, neg & ~bit))
                else:
                    remainder.append((pos, neg))
            tree = FNode.and_(
                [FNode.lit(var, negated), factor(tuple(quotient))]
            )
            if remainder:
                tree = FNode.or_([tree, factor(tuple(remainder))])
        memo[cubes] = tree
        return tree

    return factor(tuple(cubes))
