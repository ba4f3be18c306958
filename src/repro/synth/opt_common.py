"""Shared gain evaluation and candidate realization for rewrite/refactor.

Gain accounting follows ABC's DAG-aware scheme: replacing node ``n`` saves the
nodes of its maximum fanout-free cone (bounded by the cut) and costs the
genuinely new nodes of the candidate structure.  Two corrections keep the
estimate honest:

* candidate strash hits *inside* the MFFC keep those nodes (and their in-MFFC
  cones) alive, so they are subtracted from the savings;
* a candidate whose reused nodes lie in the replaced node's fanout cone would
  create a cycle; such candidates are rejected with an explicit reachability
  check before the replacement is committed.

Candidates arrive as compiled AND programs from the structure cache
(:mod:`repro.synth.library`).  :class:`CutEvaluator` dry-runs all of one
cut's candidates in one loop and returns the one that beats the pass's
best so far; :func:`realize_candidate` builds the winner with
:func:`~repro.synth.structure.realize`.

The gain ``|MFFC| - |kept| - added`` is at most ``|MFFC| - added``, so a
candidate can only matter if ``|MFFC| - added`` reaches the pass's floor
(the gain it must match or beat).  The evaluator stops a candidate's
dry-run once it needs more than ``limit = |MFFC| - floor`` new nodes and
counts it as pruned; about half of ``rewrite``'s candidates end there.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

from repro.aig.aig import Aig, lit_not, lit_var, make_lit
from repro.synth.structure import Program, realize
from repro.utils.truth import TruthTable

#: The best gain before any candidate is scored: below every real gain.
NO_GAIN = -(1 << 62)


class CutEvaluator:
    """Scores every candidate of one cut in one loop, one pass at a time.

    ``need`` is the smallest gain the pass commits (0 for ``-z``, else 1).
    ``tie_step`` is the pass's tie rule: with 0 (``rewrite``) the floor is
    the best gain so far and an equal gain still wins on a lower literal
    cost; with 1 (``refactor``) a candidate must beat the best gain by one
    and ties keep the earlier candidate.

    The dry-run mirrors :meth:`Aig.add_and` (constant folding, then a
    structural-hash probe) without touching the graph; a node it would
    create is a ghost (see :mod:`repro.synth.structure`).  It allocates
    the ghost table and the hit list only when a ghost or a hit occurs.
    When the root itself is a hit, every MFFC node stays alive and the
    saving is 0 without walking the kept closure.

    ``evaluated`` and ``pruned`` accumulate over the evaluator's life, so
    a pass folds them into its metrics once.
    """

    __slots__ = ("strash", "fanin0", "fanin1", "need", "tie_step",
                 "evaluated", "pruned")

    def __init__(self, aig: Aig, need: int, tie_step: int):
        self.strash = aig.strash
        self.fanin0, self.fanin1 = aig.fanin_arrays()
        self.need = need
        self.tie_step = tie_step
        self.evaluated = 0
        self.pruned = 0

    def best(
        self,
        root: int,
        mffc_set: set[int],
        candidates: Sequence,
        leaf_handles: Sequence[int],
        best_gain: int = NO_GAIN,
        best_neg_cost: int = 0,
    ) -> Optional[tuple]:
        """``(gain, -literal_cost, candidate, needs_cycle_check)`` of the
        cut's best candidate when it beats ``(best_gain, best_neg_cost)``
        under the pass's tie rule, else ``None``.

        ``mffc_set`` is the MFFC of ``root`` bounded by the cut (it holds
        no leaf); ``leaf_handles`` binds the programs' leaves.
        """
        strash = self.strash
        need = self.need
        tie_step = self.tie_step
        size = len(mffc_set)
        base = [0, *leaf_handles]  # handle of each slot, positive phase
        winner = None
        pruned = 0
        for cand in candidates:
            limit = size - (
                need if best_gain < need else best_gain + tie_step
            )
            if limit < 0:
                pruned += 1
                continue
            values = base.copy()
            append = values.append
            ghosts = hits = None
            for slot_a, neg_a, slot_b, neg_b in cand.program.quads:
                a = values[slot_a] ^ neg_a
                b = values[slot_b] ^ neg_b
                if a == 0 or b == 0 or a == b ^ 1:
                    append(0)
                    continue
                if a == 1:
                    append(b)
                    continue
                if b == 1 or a == b:
                    append(a)
                    continue
                key = (a, b) if a < b else (b, a)
                if key[0] >= 0:  # both real: a strash hit reuses a node
                    var = strash.get(key)
                    if var is not None:
                        if hits is None:
                            hits = [var]
                        else:
                            hits.append(var)
                        append(var << 1)
                        continue
                if ghosts is None:
                    if not limit:
                        break
                    ghosts = {key: -1}
                    append(-1)
                    continue
                ghost = ghosts.get(key)
                if ghost is None:
                    count = len(ghosts)
                    if count == limit:
                        break
                    ghost = ghosts[key] = ~(2 * count)
                append(ghost)
            else:
                gain = size - (len(ghosts) if ghosts else 0)
                needs_cycle_check = False
                if hits is not None:
                    if root in hits:
                        gain -= size
                    else:
                        gain -= self._kept(hits, mffc_set)
                    needs_cycle_check = not mffc_set.issuperset(hits)
                neg_cost = -cand.literal_cost
                if gain > best_gain or (
                    gain == best_gain
                    and not tie_step
                    and neg_cost > best_neg_cost
                ):
                    best_gain, best_neg_cost = gain, neg_cost
                    winner = (gain, neg_cost, cand, needs_cycle_check)
                continue
            pruned += 1
        self.evaluated += len(candidates)
        self.pruned += pruned
        return winner

    def _kept(self, hits: list[int], mffc_set: set[int]) -> int:
        """Size of the downward closure of the hits inside the MFFC: the
        nodes they keep alive.  The MFFC holds no leaf, so the walk stops
        at the cut by itself."""
        stack = [hit for hit in hits if hit in mffc_set]
        if not stack:
            return 0
        fanin0, fanin1 = self.fanin0, self.fanin1
        kept: set[int] = set()
        while stack:
            node = stack.pop()
            if node in kept:
                continue
            kept.add(node)
            for child in (fanin0[node] >> 1, fanin1[node] >> 1):
                if child in mffc_set and child not in kept:
                    stack.append(child)
        return len(kept)


def realize_candidate(
    aig: Aig,
    program: Program,
    leaf_handles: Sequence[int],
    output_negated: bool,
) -> int:
    """Build the candidate for real; returns the output literal."""
    out = realize(aig, program, leaf_handles)
    return lit_not(out) if output_negated else out


def try_replace(
    aig: Aig,
    var: int,
    cut: Sequence[int],
    new_lit: int,
    needs_cycle_check: bool,
) -> bool:
    """Commit ``replace(var, new_lit)`` unless it is a no-op or makes a cycle."""
    if lit_var(new_lit) == var:
        aig.recycle(new_lit)
        return False
    if needs_cycle_check and aig.reaches(new_lit, var, stop_vars=set(cut)):
        aig.recycle(new_lit)
        return False
    aig.replace(var, new_lit)
    return True


def constant_or_leaf_lit(
    table_bits: int, leaves: Sequence[int]
) -> Optional[int]:
    """Detect trivial cut functions: the constant or (complemented) leaf
    literal a table over ``leaves`` denotes, else ``None``."""
    trivial = _trivial_functions(len(leaves)).get(table_bits)
    if trivial is None:
        return None
    index, negated = trivial
    return negated if index < 0 else make_lit(leaves[index], negated)


@lru_cache(maxsize=None)
def _trivial_functions(nvars: int) -> dict[int, tuple[int, int]]:
    """``bits -> (leaf index, negated)`` for every constant and (negated)
    projection on ``nvars`` inputs; index -1 marks the constants."""
    full = (1 << (1 << nvars)) - 1
    functions = {0: (-1, 0), full: (-1, 1)}
    for index in range(nvars):
        var_bits = TruthTable.var(index, nvars).bits
        functions[var_bits] = (index, 0)
        functions[var_bits ^ full] = (index, 1)
    return functions


def leaf_lits(cut: Sequence[int]) -> list[int]:
    return [make_lit(leaf) for leaf in cut]
