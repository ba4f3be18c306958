"""Flat AND programs compiled from factored-form trees, and the loops that
dry-run or build them.

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
pairs are resolved at compile time: both are side-effect free in the
loops below, so resolving them early changes no result.

At a site, leaf ``i`` is bound to an AIG literal and the program runs in
one of two loops:

* :func:`dry_run` mirrors :meth:`Aig.add_and` (constant folding plus
  structural-hash lookups) without mutating the graph: it folds inline
  and probes :attr:`Aig.strash` directly.  It reports how many genuinely
  new nodes the candidate needs and which existing AND nodes it reuses,
  which is exactly what gain evaluation needs.  A node that would be
  created is a *ghost*: ghost ``g`` in phase ``p`` has the negative
  handle ``~(2*g + p)``, so ``h ^ 1`` complements real and ghost handles
  alike.  Given a ``limit``, it gives up as soon as a candidate needs more
  than ``limit`` ghosts: the caller has derived that such a candidate
  cannot win (see :mod:`repro.synth.opt_common`).
* :func:`realize` builds the program into the AIG with ``add_and``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from repro.aig.aig import Aig
from repro.synth.factor import FNode


class Program(NamedTuple):
    """A compiled candidate: flat operand pairs, one pair per AND."""

    ops: tuple[int, ...]  # a0, b0, a1, b1, ...
    out: int


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
    return Program(tuple(ops), out)


def dry_run(
    aig: Aig,
    program: Program,
    leaf_handles: Sequence[int],
    limit: Optional[int] = None,
) -> Optional[tuple[int, set[int]]]:
    """``(added, hits)``: fresh nodes ``program`` would need at this site,
    and the existing AND variables it would reuse.

    With ``limit``, returns ``None`` as soon as the candidate would need
    more than ``limit`` fresh nodes, and exactly then.
    """
    ops = program.ops
    if limit is None:
        limit = len(ops) >> 1  # a program never needs more nodes than ops
    elif limit < 0:
        return None
    values = [0, *leaf_handles]  # handle of each slot, positive phase
    strash = aig.strash
    ghosts: dict[tuple[int, int], int] = {}
    hits: set[int] = set()
    for index in range(0, len(ops), 2):
        a = ops[index]
        a = values[a >> 1] ^ (a & 1)
        b = ops[index + 1]
        b = values[b >> 1] ^ (b & 1)
        if a == 0 or b == 0 or a == b ^ 1:
            values.append(0)
            continue
        if a == 1:
            values.append(b)
            continue
        if b == 1 or a == b:
            values.append(a)
            continue
        key = (a, b) if a < b else (b, a)
        if key[0] >= 0:  # both real: a structural-hash hit reuses a node
            var = strash.get(key)
            if var is not None:
                hits.add(var)
                values.append(var << 1)
                continue
        ghost = ghosts.get(key)
        if ghost is None:
            if len(ghosts) == limit:
                return None
            ghost = ghosts[key] = ~(2 * len(ghosts))
        values.append(ghost)
    return len(ghosts), hits


def realize(aig: Aig, program: Program, leaf_handles: Sequence[int]) -> int:
    """Build ``program`` into ``aig``; returns the output literal."""
    values = [0, *leaf_handles]
    ops = program.ops
    add_and = aig.add_and
    for index in range(0, len(ops), 2):
        a = ops[index]
        b = ops[index + 1]
        values.append(
            add_and(values[a >> 1] ^ (a & 1), values[b >> 1] ^ (b & 1))
        )
    out = program.out
    return values[out >> 1] ^ (out & 1)
