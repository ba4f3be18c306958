"""Differential tests for the per-cut candidate evaluator.

:class:`~repro.synth.opt_common.CutEvaluator` dry-runs all of a cut's
candidates in one loop over decoded operand quads.  It replaced two
per-candidate functions, kept below as the reference: ``reference_dry_run``
(fold, probe the structural hash, count ghosts, give up past ``limit``)
and ``reference_evaluate_candidate`` (savings minus the kept closure of
the hits inside the MFFC, and the cycle flag), driven by the selection
loops ``rewrite`` and ``refactor`` ran around them.  On seeded random
AIGs both must pick the same winner with the same gain and cycle flag, and
count the same evaluated and pruned candidates; a pass run on either must
build the same AIG.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import pytest

from repro.aig import Aig, aig_from_netlist, lit_var, make_lit
from repro.aig.cuts import CutManager, reconvergence_window
from repro.aig.simulate import cut_truth_table
from repro.obs.metrics import REGISTRY
from repro.synth import refactor as refactor_module
from repro.synth import rewrite as rewrite_module
from repro.synth.factor import FNode
from repro.synth.library import Candidate, refactor_candidates, rewrite_entry
from repro.synth.opt_common import NO_GAIN, CutEvaluator, leaf_lits
from repro.synth.structure import Program, compile_fnode
from repro.utils.rng import make_rng
from tests.conftest import build_random_netlist


class Evaluation(NamedTuple):
    """Outcome of dry-running one candidate at one site."""

    gain: int
    added: int
    needs_cycle_check: bool


def reference_dry_run(
    aig: Aig,
    program: Program,
    leaf_handles: Sequence[int],
    limit: Optional[int] = None,
    seen: Optional[set] = None,
) -> Optional[tuple[int, set[int]]]:
    """``(added, hits)``, or ``None`` once more than ``limit`` ghosts are
    needed.  ``seen`` collects which paths of the loop ran."""
    seen = set() if seen is None else seen
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
            seen.add("fold")
            values.append(0)
            continue
        if a == 1:
            seen.add("fold")
            values.append(b)
            continue
        if b == 1 or a == b:
            seen.add("fold")
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
        else:
            seen.add("repeated ghost")
        values.append(ghost)
    return len(ghosts), hits


def reference_evaluate_candidate(
    aig: Aig,
    cut: Sequence[int],
    mffc_set: set[int],
    program: Program,
    leaf_handles: Sequence[int],
    limit: Optional[int] = None,
    seen: Optional[set] = None,
) -> Optional[Evaluation]:
    """Estimate the node gain of replacing the cut cone with ``program``."""
    outcome = reference_dry_run(aig, program, leaf_handles, limit, seen)
    if outcome is None:
        return None
    added, hits = outcome
    saved = len(mffc_set)
    hits_inside = hits & mffc_set
    if seen is not None:
        if hits_inside:
            seen.add("hit inside")
        if hits - mffc_set:
            seen.add("hit outside")
    if hits_inside:
        saved -= len(_closure_within(aig, hits_inside, mffc_set, set(cut)))
    return Evaluation(saved - added, added, not hits <= mffc_set)


def _closure_within(
    aig: Aig, seeds: set[int], universe: set[int], leaves: set[int]
) -> set[int]:
    """Downward closure of ``seeds`` inside ``universe`` (stop at leaves)."""
    fanin0, fanin1 = aig.fanin_arrays()
    kept: set[int] = set()
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


class ReferenceEvaluator:
    """:class:`CutEvaluator`'s interface over the reference functions, with
    each pass's own selection loop: ``rewrite`` (``tie_step`` 0) keeps the
    larger ``(gain, -literal_cost)`` above a floor of the best gain, and
    ``refactor`` (``tie_step`` 1) a larger gain above the best gain plus
    one.  ``bounded=False`` dry-runs every candidate in full."""

    def __init__(self, aig: Aig, need: int, tie_step: int, bounded=True):
        self.aig = aig
        self.need = need
        self.tie_step = tie_step
        self.bounded = bounded
        self.evaluated = 0
        self.pruned = 0
        self.seen: set[str] = set()

    def best(
        self, root, mffc_set, candidates, leaf_handles,
        best_gain=NO_GAIN, best_neg_cost=0,
    ):
        need = self.need
        cut = [handle >> 1 for handle in leaf_handles]
        best = None if best_gain == NO_GAIN else (best_gain, best_neg_cost)
        winner = None
        for cand in candidates:
            if self.tie_step == 0:
                floor = need if best is None or best[0] < need else best[0]
            else:
                floor = need if best is None or best[0] < need else best[0] + 1
            limit = len(mffc_set) - floor
            self.seen.add(("limit", min(limit, 3)))
            self.evaluated += 1
            evaluation = reference_evaluate_candidate(
                self.aig, cut, mffc_set, cand.program, leaf_handles,
                limit if self.bounded else None, self.seen,
            )
            if evaluation is None:
                self.pruned += 1
                continue
            candidate = (evaluation.gain, -cand.literal_cost)
            if self.tie_step == 0:
                better = best is None or candidate > best
            else:
                better = best is None or evaluation.gain > best[0]
            if better:
                best = candidate
                winner = (
                    *candidate, cand, evaluation.needs_cycle_check
                )
        return winner


def _random_tree(rng, nvars, depth):
    """A random and/or/xor tree over ``nvars`` leaves, with constants."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.1:
            return FNode.const(bool(rng.integers(2)))
        return FNode.lit(int(rng.integers(nvars)), bool(rng.integers(2)))
    kind = ["and", "or", "xor"][int(rng.integers(3))]
    children = [
        _random_tree(rng, nvars, depth - 1)
        for _ in range(int(rng.integers(2, 4)))
    ]
    return FNode(kind=kind, children=tuple(children))


def _random_candidates(rng, nvars, count):
    candidates = []
    for _ in range(count):
        tree = _random_tree(rng, nvars, depth=3)
        candidates.append(
            Candidate(
                compile_fnode(tree, nvars),
                bool(rng.integers(2)),
                tree.num_literals(),
            )
        )
    return candidates


def _sites(aig: Aig, rng):
    """``(root, mffc, candidates, handles)`` per rewrite and refactor cut.

    Besides the structure cache's own candidates, random programs run
    over leaf bindings that repeat, complement or pin leaves to constants,
    so folds and repeated ghost keys occur; and the root's own cone is a
    candidate, so the root is a hit.
    """
    manager = CutManager(aig)
    for var in aig.topological_ands():
        for cut in manager.cuts(var):
            leaves = cut.leaves
            if len(leaves) < 2 or var in leaves:
                continue
            entry = rewrite_entry(cut.bits, len(leaves))
            bound = [
                (leaves[index] << 1) | negated
                for index, negated in zip(entry.perm, entry.negations)
            ]
            yield var, aig.mffc(var, leaves), entry.candidates, bound
        cut, _ = reconvergence_window(aig, var, max_leaves=6)
        if len(cut) < 2 or var in cut:
            continue
        mffc = aig.mffc(var, cut)
        handles = leaf_lits(cut)
        table = cut_truth_table(aig, make_lit(var), cut)
        yield var, mffc, refactor_candidates(table), handles
        yield var, mffc, _random_candidates(rng, len(cut), 4), handles
        choices = handles + [h ^ 1 for h in handles] + [0, 1]
        bound = [choices[int(rng.integers(len(choices)))] for _ in cut]
        yield var, mffc, _random_candidates(rng, len(cut), 4), bound


def _best_states(rng, mffc_size):
    """Incoming bests: none, and gains around the floor's range."""
    yield NO_GAIN, 0
    for _ in range(3):
        gain = int(rng.integers(-2, mffc_size + 2))
        yield gain, -int(rng.integers(0, 8))


def _check_seed(seed: int, seen: set) -> None:
    """Compare evaluator and reference at every site of one random AIG;
    ``seen`` collects the cases the reference went through."""
    rng = make_rng(seed)
    aig = aig_from_netlist(
        build_random_netlist(
            seed=seed, num_inputs=int(rng.integers(4, 8)),
            num_gates=int(rng.integers(20, 70)),
        )
    )
    sites = 0
    for root, mffc, candidates, handles in _sites(aig, rng):
        for need in (0, 1):
            for tie_step in (0, 1):
                for best_gain, best_neg_cost in _best_states(rng, len(mffc)):
                    evaluator = CutEvaluator(aig, need, tie_step)
                    reference = ReferenceEvaluator(aig, need, tie_step)
                    won = evaluator.best(
                        root, mffc, candidates, handles, best_gain,
                        best_neg_cost,
                    )
                    expected = reference.best(
                        root, mffc, candidates, handles, best_gain,
                        best_neg_cost,
                    )
                    assert won == expected, (root, handles, best_gain)
                    if won is not None:
                        assert won[2] is expected[2]
                    assert (evaluator.evaluated, evaluator.pruned) == (
                        reference.evaluated, reference.pruned
                    )
                    seen.update(reference.seen)
                    sites += 1
        # The root rebuilt from its own fanins: the root itself is a hit.
        f0, f1 = aig.fanins(root)
        cut = sorted({lit_var(f0), lit_var(f1)})
        if len(cut) == 2:
            program = compile_fnode(
                FNode.and_([
                    FNode.lit(cut.index(lit_var(f0)), bool(f0 & 1)),
                    FNode.lit(cut.index(lit_var(f1)), bool(f1 & 1)),
                ]),
                2,
            )
            own = [Candidate(program, False, 2)]
            mffc = aig.mffc(root, cut)
            for need in (0, 1):
                evaluator = CutEvaluator(aig, need, 0)
                reference = ReferenceEvaluator(aig, need, 0)
                won = evaluator.best(root, mffc, own, leaf_lits(cut))
                assert won == reference.best(root, mffc, own, leaf_lits(cut))
                assert won is not None and won[0] == 0
                seen.add("root hit")
    assert sites > 0


SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
def test_evaluator_matches_the_reference_on_random_aigs(seed):
    _check_seed(seed, set())


def test_the_random_sites_reach_every_case():
    """The seeds above reach every limit from -1 to 3 and beyond, hits
    inside and outside the MFFC, the root as a hit, constant folds and
    repeated ghost keys."""
    seen: set = set()
    for seed in SEEDS:
        _check_seed(seed, seen)
    expected = {("limit", limit) for limit in range(-1, 4)} | {
        "hit inside", "hit outside", "root hit", "fold", "repeated ghost",
    }
    assert expected <= seen, expected - seen


def _pass_outcome(aig, pass_fn, zero_cost):
    """Fingerprint, return value and candidate counts of one pass."""
    aig = aig.clone()
    before = REGISTRY.counters()
    changed = pass_fn(aig, zero_cost=zero_cost)
    after = REGISTRY.counters()
    counts = tuple(
        after.get(name, 0) - before.get(name, 0)
        for name in ("synth.candidates_evaluated", "synth.candidates_pruned")
    )
    return aig.fingerprint(), changed, counts


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("zero_cost", [False, True])
@pytest.mark.parametrize(
    "module,pass_fn",
    [(rewrite_module, rewrite_module.rewrite_pass),
     (refactor_module, refactor_module.refactor_pass)],
    ids=["rewrite", "refactor"],
)
def test_pass_builds_what_the_reference_builds(
    monkeypatch, module, pass_fn, zero_cost, seed
):
    aig = aig_from_netlist(
        build_random_netlist(seed=seed, num_inputs=6, num_gates=50)
    )
    outcome = _pass_outcome(aig, pass_fn, zero_cost)
    monkeypatch.setattr(module, "CutEvaluator", ReferenceEvaluator)
    assert _pass_outcome(aig, pass_fn, zero_cost) == outcome
