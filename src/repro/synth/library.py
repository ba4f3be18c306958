"""The structure cache: compiled candidate structures per cut truth table.

``rewrite`` and ``refactor`` both replace a cut's cone with a cheaper
structure computing the same function.  This module generates those
candidate structures and caches them, compiled into flat AND programs
(:mod:`repro.synth.structure`), in one bounded module-level cache:

* ``rewrite`` looks up the NPN class of its 4-input cut function.  ABC
  ships a precomputed database of optimal 4-input structures per class;
  here the library is synthesized on demand: ISOP of the function, ISOP of
  its complement, XOR decompositions (crucial for parity-heavy logic, where
  SOP covers explode) and a single-variable Shannon decomposition, keeping
  the few cheapest.
* ``refactor`` looks up its (up to 10-input) cone function exactly, keyed
  on ``(bits, nvars)``: ISOP of the function, ISOP of its complement, and
  one XOR decomposition when the function is xor-separable.

Candidates are pure functions of the truth table, so a lookup hit returns
exactly what regeneration would.  The cache holds compiled programs and
never the factored-form trees: for the 222 tables the synthesis bench's
recipes look up, the trees took about 15 MB and their programs 0.3 MB.
Each lookup counts one ``synth.struct_cache.hits`` or ``.misses``.

``rewrite`` reaches the NPN-keyed cache through a second bounded memo on
the raw cut table (:func:`rewrite_entry`), which also keeps the NPN leaf
binding, so a repeated table skips canonization.  :func:`clear_structure_cache`
empties both.  The passes probe both without counting
(:func:`memoized_rewrite_entry`, :func:`memoized_refactor_candidates`),
add their hits once per pass, and count a miss through the counting
lookup.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, NamedTuple, Optional

from repro.obs import metrics as _metrics
from repro.synth.factor import FNode, factor_sop
from repro.synth.isop import isop
from repro.synth.structure import Program, compile_fnode
from repro.utils.truth import NpnTransform, TruthTable

#: Candidates kept per NPN class for ``rewrite``.
MAX_CANDIDATES = 4

#: Entries the structure cache holds before evicting the least recently used.
STRUCT_CACHE_SIZE = 1 << 14

#: Raw cut tables the ``rewrite`` memo holds, least recently used evicted
#: first.  Of the 2**16 + 2**8 + 2**4 tables of 2..4 inputs, proxy
#: training plus eight ALMOST searches on quick c1355 meet 248.
RAW_MEMO_SIZE = 1 << 14


class Candidate(NamedTuple):
    """A compiled structure computing a cut function (maybe complemented)."""

    program: Program
    output_negated: bool
    literal_cost: int


_CACHE: OrderedDict[tuple[str, int, int], tuple[Candidate, ...]] = OrderedDict()


def _lookup(
    kind: str,
    table: TruthTable,
    generate: Callable[[TruthTable], list[tuple[FNode, bool]]],
) -> tuple[Candidate, ...]:
    key = (kind, table.bits, table.nvars)
    cached = _CACHE.get(key)
    if cached is not None:
        _metrics.inc("synth.struct_cache.hits")
        _CACHE.move_to_end(key)
        return cached
    _metrics.inc("synth.struct_cache.misses")
    cached = tuple(
        Candidate(compile_fnode(tree, table.nvars), negated, tree.num_literals())
        for tree, negated in generate(table)
    )
    if len(_CACHE) >= STRUCT_CACHE_SIZE:
        _CACHE.popitem(last=False)
    _CACHE[key] = cached
    return cached


def clear_structure_cache() -> None:
    """Empty the structure cache and the raw-table memo (for cold-start
    measurements)."""
    _CACHE.clear()
    _RAW_MEMO.clear()


def rewrite_candidates(
    table: TruthTable,
) -> tuple[tuple[Candidate, ...], NpnTransform]:
    """Candidates for the NPN class of ``table`` plus the transform.

    The candidates compute the *canonical* function; callers must bind
    canonical variable ``i`` to the original leaf given by
    ``transform.leaf_order`` and complement the output when
    ``transform.output_negation ^ candidate.output_negated`` is set.
    """
    canonical, transform = table.npn_canon()
    return _lookup("npn", canonical, _rewrite_trees), transform


class RewriteEntry(NamedTuple):
    """What ``rewrite`` needs of one raw cut table, resolved once.

    Canonical variable ``i`` reads leaf ``perm[i]``, complemented when
    ``negations[i]`` is 1; ``output_negation`` is the NPN transform's
    output phase.
    """

    candidates: tuple[Candidate, ...]
    perm: tuple[int, ...]
    negations: tuple[int, ...]
    output_negation: bool


_RAW_MEMO: OrderedDict[tuple[int, int], RewriteEntry] = OrderedDict()


def rewrite_entry(bits: int, nvars: int) -> RewriteEntry:
    """:func:`rewrite_candidates` of the raw table ``(bits, nvars)``, memoized.

    Most cuts a pass sees repeat a raw table seen before; the memo saves
    their NPN canonization and the objects it builds.  Each call counts
    one ``synth.struct_cache`` hit or miss, as :func:`rewrite_candidates`
    does: a memo hit counts a hit, and a memo miss counts whatever the
    structure cache lookup behind it counts.
    """
    key = (bits, nvars)
    entry = _RAW_MEMO.get(key)
    if entry is not None:
        _metrics.inc("synth.struct_cache.hits")
        _RAW_MEMO.move_to_end(key)
        return entry
    candidates, transform = rewrite_candidates(TruthTable(bits, nvars))
    entry = RewriteEntry(
        candidates,
        transform.perm,
        tuple(transform.input_negation >> i & 1 for i in range(nvars)),
        transform.output_negation,
    )
    if len(_RAW_MEMO) >= RAW_MEMO_SIZE:
        _RAW_MEMO.popitem(last=False)
    _RAW_MEMO[key] = entry
    return entry


def memoized_rewrite_entry(bits: int, nvars: int) -> Optional[RewriteEntry]:
    """The memo's entry for ``(bits, nvars)``, or ``None``; counts nothing.

    A pass that probes the memo this way counts its hits itself and folds
    them into ``synth.struct_cache.hits`` once, and calls
    :func:`rewrite_entry` on a miss, which counts what the structure cache
    lookup behind it counts.
    """
    key = (bits, nvars)
    entry = _RAW_MEMO.get(key)
    if entry is not None:
        _RAW_MEMO.move_to_end(key)
    return entry


def refactor_candidates(table: TruthTable) -> tuple[Candidate, ...]:
    """Candidates computing ``table`` itself (output maybe complemented)."""
    return _lookup("exact", table, _refactor_trees)


def memoized_refactor_candidates(
    table: TruthTable,
) -> Optional[tuple[Candidate, ...]]:
    """The cached :func:`refactor_candidates` of ``table``, or ``None``;
    counts nothing, as :func:`memoized_rewrite_entry`."""
    key = ("exact", table.bits, table.nvars)
    cached = _CACHE.get(key)
    if cached is not None:
        _CACHE.move_to_end(key)
    return cached


def _refactor_trees(table: TruthTable) -> list[tuple[FNode, bool]]:
    """Factored forms for a (possibly wide) cone function."""
    trees = [
        (factor_sop(isop(table)), False),
        (factor_sop(isop(~table)), True),
    ]
    # XOR decomposition on any xor-separable variable (parity cones).
    for var in table.support():
        if table.flip(var).bits == (~table).bits:
            residual = table.cofactor(var, 0)
            sub = factor_sop(isop(residual))
            trees.append((FNode.xor([FNode.lit(var, False), sub]), False))
            break
    return trees


def _rewrite_trees(table: TruthTable) -> list[tuple[FNode, bool]]:
    """The ``MAX_CANDIDATES`` cheapest distinct forms, by literal count."""
    seen: set[tuple] = set()
    trees = []
    for tree, negated in _decompose(table, depth=0):
        key = (repr(tree), negated)
        if key not in seen:
            seen.add(key)
            trees.append((tree, negated))
    trees.sort(key=lambda entry: entry[0].num_literals())
    return trees[:MAX_CANDIDATES]


def _decompose(table: TruthTable, depth: int) -> list[tuple[FNode, bool]]:
    """Generate factored forms for ``table`` (possibly via its complement)."""
    if table.is_const0():
        return [(FNode.const(False), False)]
    if table.is_const1():
        return [(FNode.const(True), False)]
    results: list[tuple[FNode, bool]] = []
    results.append((factor_sop(isop(table)), False))
    results.append((factor_sop(isop(~table)), True))
    # XOR decomposition: f = x_i XOR g  <=>  flipping x_i complements f.
    for var in table.support():
        if table.flip(var).bits == (~table).bits:
            residual = table.cofactor(var, 0)
            for sub_tree, sub_neg in _decompose(residual, depth + 1)[:2]:
                tree = FNode.xor(
                    [FNode.lit(var, sub_neg), sub_tree]
                )
                results.append((tree, False))
            break
    # One level of Shannon decomposition on the most binate variable.
    if depth == 0 and len(table.support()) >= 3:
        var = _most_binate(table)
        if var is not None:
            f0 = table.cofactor(var, 0)
            f1 = table.cofactor(var, 1)
            t0 = factor_sop(isop(f0))
            t1 = factor_sop(isop(f1))
            # f = (~v & f0) | (v & f1)
            tree = FNode.or_(
                [
                    FNode.and_([FNode.lit(var, True), t0]),
                    FNode.and_([FNode.lit(var, False), t1]),
                ]
            )
            results.append((tree, False))
    return results


def _most_binate(table: TruthTable) -> int | None:
    """Variable whose cofactors are most balanced (best Shannon pivot)."""
    best_var = None
    best_score = None
    total = 1 << table.nvars
    for var in table.support():
        ones0 = table.cofactor(var, 0).count_ones()
        ones1 = table.cofactor(var, 1).count_ones()
        score = abs(ones0 - total // 2) + abs(ones1 - total // 2)
        if best_score is None or score < best_score:
            best_score = score
            best_var = var
    return best_var
