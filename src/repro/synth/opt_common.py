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
(:mod:`repro.synth.library`); :func:`evaluate_candidate` scores one with
:func:`~repro.synth.structure.dry_run` and :func:`realize_candidate`
builds the winner with :func:`~repro.synth.structure.realize`.

The gain ``|MFFC| - |kept| - added`` is at most ``|MFFC| - added``, so a
candidate can only matter if ``|MFFC| - added`` reaches the caller's floor
(the gain it must match or beat).  Callers pass ``limit = |MFFC| - floor``
and the dry-run stops, returning ``None``, once the candidate needs more
than ``limit`` new nodes; about half of ``rewrite``'s candidates end there.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from repro.aig.aig import Aig, lit_not, lit_var, make_lit
from repro.synth.structure import Program, dry_run, realize
from repro.utils.truth import TruthTable


class Evaluation(NamedTuple):
    """Outcome of dry-running one candidate at one site."""

    gain: int
    added: int
    needs_cycle_check: bool


def evaluate_candidate(
    aig: Aig,
    cut: Sequence[int],
    mffc_set: set[int],
    program: Program,
    leaf_handles: Sequence[int],
    limit: Optional[int] = None,
) -> Optional[Evaluation]:
    """Estimate the node gain of replacing the cut cone with ``program``.

    ``None`` when the candidate needs more than ``limit`` new nodes.
    """
    outcome = dry_run(aig, program, leaf_handles, limit)
    if outcome is None:
        return None
    added, hits = outcome
    saved = len(mffc_set)
    hits_inside = hits & mffc_set
    if hits_inside:
        saved -= len(_closure_within(aig, hits_inside, mffc_set, set(cut)))
    return Evaluation(saved - added, added, not hits <= mffc_set)


def _closure_within(
    aig: Aig, seeds: set[int], universe: set[int], leaves: set[int]
) -> set[int]:
    """Downward closure of ``seeds`` inside ``universe`` (stop at leaves)."""
    fanin0, fanin1 = aig.fanin_arrays()
    kept: set[int] = set()
    # Canonical seed order: the closure *membership* is order-independent,
    # but DFS visit order must not vary with set hashing (exact-replay).
    stack = sorted(seeds)
    while stack:
        node = stack.pop()
        if node in kept or node not in universe:
            continue
        kept.add(node)
        for child in (fanin0[node] >> 1, fanin1[node] >> 1):
            if child not in leaves and child in universe:
                stack.append(child)
    return kept


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
