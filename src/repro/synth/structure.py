"""Flat AND programs compiled from factored-form trees, and the loop that
builds them.

``rewrite`` and ``refactor`` try several candidate structures at every
node.  Each candidate is a factored-form tree (:class:`FNode`), compiled
once, when the structure cache (:mod:`repro.synth.library`) first sees
its truth table, into a :class:`Program`: a flat list of two-input ANDs
over *operands*.

An operand is ``2*slot + neg``.  Slot 0 is constant false (so operand 0 is
false and operand 1 is true), slots ``1..n`` are the cut leaves, and slot
``n + 1 + k`` is the result of op ``k``.  The ops replay the exact
``make_and`` sequence the tree's n-ary connectives expand to (balanced
AND/OR trees, three ANDs per XOR).  Constant folding and repeated operand
pairs are resolved at compile time: both are side-effect free when the
program runs, so resolving them early changes no result.

A program stores its ops decoded, once, at compile time: one
``(slot_a, neg_a, slot_b, neg_b)`` quad per AND, which is what the loops
that run a program iterate over.  ``Program.ops`` re-encodes them as the
flat operand list (the structure cache's digest reads it).  Quads are
interned: the structure cache of a proxy training and search holds about
10,000 of them but only about 1,100 distinct ones, and a tuple each would
cost that cache 0.9 MB.

At a site, leaf ``i`` is bound to an AIG literal and the program runs in
one of two loops:

* the per-cut evaluator (:class:`repro.synth.opt_common.CutEvaluator`)
  dry-runs every candidate of a cut: it mirrors :meth:`Aig.add_and`
  (constant folding plus structural-hash lookups) without mutating the
  graph.  A node that would be created is a *ghost*: ghost ``g`` in phase
  ``p`` has the negative handle ``~(2*g + p)``, so ``h ^ 1`` complements
  real and ghost handles alike;
* :func:`realize` builds the program into the AIG with ``add_and``.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from repro.aig.aig import Aig
from repro.synth.factor import FNode


#: One shared tuple per distinct quad (see the module docstring).
_QUADS: dict[tuple[int, int, int, int], tuple[int, int, int, int]] = {}


class Program(NamedTuple):
    """A compiled candidate: one ``(slot_a, neg_a, slot_b, neg_b)`` quad
    per AND, and the output operand."""

    quads: tuple[tuple[int, int, int, int], ...]
    out: int

    @property
    def ops(self) -> tuple[int, ...]:
        """The operands ``a0, b0, a1, b1, ...``, one pair per AND."""
        return tuple(
            operand
            for slot_a, neg_a, slot_b, neg_b in self.quads
            for operand in (2 * slot_a + neg_a, 2 * slot_b + neg_b)
        )


def compile_fnode(tree: FNode, num_leaves: int) -> Program:
    """Compile ``tree`` over leaves ``0..num_leaves-1`` into a program."""
    ops: list[int] = []
    seen: dict[tuple[int, int], int] = {}

    def make_and(a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        if a == 0 or a == b ^ 1:
            return 0
        if a == 1 or a == b:
            return b
        operand = seen.get((a, b))
        if operand is None:
            operand = 2 * (num_leaves + 1 + len(ops) // 2)
            ops.extend((a, b))
            seen[(a, b)] = operand
        return operand

    def balanced(operands: list[int]) -> int:
        while len(operands) > 1:
            paired = [
                make_and(operands[i], operands[i + 1])
                for i in range(0, len(operands) - 1, 2)
            ]
            if len(operands) % 2:
                paired.append(operands[-1])
            operands = paired
        return operands[0]

    def build(node: FNode) -> int:
        if node.kind == "const":
            return int(node.value)
        if node.kind == "lit":
            return 2 * (node.var + 1) + node.negated
        children = [build(child) for child in node.children]
        if node.kind == "and":
            return balanced(children)
        if node.kind == "or":
            return balanced([child ^ 1 for child in children]) ^ 1
        if node.kind == "xor":
            acc = children[0]
            for child in children[1:]:
                left = make_and(acc, child ^ 1)
                right = make_and(acc ^ 1, child)
                acc = make_and(left ^ 1, right ^ 1) ^ 1
            return acc
        raise ValueError(f"unknown FNode kind {node.kind}")  # pragma: no cover

    out = build(tree)
    quads = tuple(
        _QUADS.setdefault(quad, quad)
        for quad in (
            (a >> 1, a & 1, b >> 1, b & 1)
            for a, b in zip(ops[::2], ops[1::2])
        )
    )
    return Program(quads, out)


def realize(aig: Aig, program: Program, leaf_handles: Sequence[int]) -> int:
    """Build ``program`` into ``aig``; returns the output literal."""
    values = [0, *leaf_handles]
    add_and = aig.add_and
    for slot_a, neg_a, slot_b, neg_b in program.quads:
        values.append(add_and(values[slot_a] ^ neg_a, values[slot_b] ^ neg_b))
    out = program.out
    return values[out >> 1] ^ (out & 1)
