"""Differential harness: CdclSolver vs. exhaustive enumeration.

The incremental-solver work (persistent learned clauses, assumption-only
resets, clause-DB reduction, learned-clause minimization) is only safe if
every configuration stays *logically equivalent* to a fresh solve.  These
tests pin that by brute force on small random CNFs: enumerate all 2^n
assignments, then check

- one-shot solves agree on satisfiability and return genuine models;
- an *incremental* solver — same instance, a stream of assumption probes
  and clause additions — agrees with enumeration at every step, even when
  ``reduce_base`` is cranked low enough to force several DB reductions;
- minimization on/off never changes a verdict;
- with the activity ceiling cranked low, so rescales fire every few
  conflicts, verdicts and models still agree, no pick is an assigned
  variable, and the deduplicated decision heap picks exactly what a heap
  holding every pushed copy would.

A handful of seeds run in tier-1; the wide sweep is ``slow``-marked (CI
runs it with ``-m ""``).
"""

from __future__ import annotations

import heapq
import itertools

import pytest

from repro.sat import Cnf, CdclSolver
from repro.sat import solver as solver_module
from repro.utils.rng import make_rng

FAST_SEEDS = range(8)
SLOW_SEEDS = range(8, 120)
#: An activity ceiling low enough that rescales fire every few conflicts,
#: so the decision heap is rebuilt from current activities most of the time.
LOW_RESCALE = 2.0


def random_cnf(seed: int, max_vars: int = 12) -> Cnf:
    """A random mixed 2/3-CNF, 3 to 5 clauses per variable.

    No unit clauses: with them, level-0 propagation refuted almost every
    instance before the first decision, and the checks below never
    reached conflict analysis.
    """
    rng = make_rng(seed)
    num_vars = int(rng.integers(3, max_vars + 1))
    num_clauses = int(num_vars * (3.0 + 2.0 * rng.random()))
    cnf = Cnf(num_vars)
    for _ in range(num_clauses):
        width = 2 if rng.random() < 0.3 else 3
        variables = rng.choice(num_vars, size=min(width, num_vars), replace=False)
        clause = tuple(
            int(v) + 1 if rng.random() < 0.5 else -(int(v) + 1)
            for v in variables
        )
        cnf.add_clause(clause)
    return cnf


def enumerate_models(cnf: Cnf, fixed: dict[int, bool] | None = None):
    """All satisfying assignments, as frozensets of true variables."""
    fixed = fixed or {}
    models = []
    free = [v for v in range(1, cnf.num_vars + 1) if v not in fixed]
    for bits in itertools.product((False, True), repeat=len(free)):
        assignment = dict(fixed)
        assignment.update(zip(free, bits))
        if all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in cnf.clauses
        ):
            models.append(assignment)
    return models


def assert_model_satisfies(cnf: Cnf, model: dict[int, bool]) -> None:
    for clause in cnf.clauses:
        assert any(model[abs(lit)] == (lit > 0) for lit in clause), clause


def check_one_shot(seed: int, make_cnf=random_cnf, **solver_kwargs) -> None:
    cnf = make_cnf(seed)
    expected = bool(enumerate_models(cnf))
    result = CdclSolver(cnf, **solver_kwargs).solve()
    assert result.satisfiable == expected, f"seed={seed}"
    if result.satisfiable:
        assert_model_satisfies(cnf, result.model)


def check_incremental(seed: int, make_cnf=random_cnf, **solver_kwargs) -> None:
    """One persistent solver vs. enumeration across a probe/add stream."""
    cnf = make_cnf(seed)
    rng = make_rng(seed + 10_000)
    solver = CdclSolver(cnf, **solver_kwargs)
    for step in range(6):
        num_assumed = int(rng.integers(0, min(4, cnf.num_vars) + 1))
        assumed_vars = rng.choice(cnf.num_vars, size=num_assumed, replace=False)
        fixed = {int(v) + 1: bool(rng.integers(2)) for v in assumed_vars}
        assumptions = [v if val else -v for v, val in fixed.items()]
        expected = enumerate_models(cnf, fixed)
        result = solver.solve(assumptions)
        assert result.satisfiable == bool(expected), (
            f"seed={seed} step={step} assumptions={assumptions}"
        )
        if result.satisfiable:
            assert_model_satisfies(cnf, result.model)
            assert all(result.model[abs(a)] == (a > 0) for a in assumptions)
        if step == 2 and expected:
            # Block one known model mid-stream; later probes must see the
            # shrunken solution space through the same learned-clause DB.
            blocked = expected[0]
            clause = tuple(
                -v if blocked[v] else v for v in range(1, cnf.num_vars + 1)
            )
            solver.add_clause(clause)
            cnf.add_clause(clause)


def test_fast_seeds_reach_conflict_analysis():
    # The checks on random_cnf mean little if propagation alone decides.
    conflicted = [
        seed for seed in FAST_SEEDS
        if CdclSolver(random_cnf(seed)).solve().stats["conflicts"] > 0
    ]
    assert len(conflicted) > len(FAST_SEEDS) // 2, conflicted


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_one_shot_agrees_with_enumeration(seed):
    check_one_shot(seed)


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_incremental_agrees_with_enumeration(seed):
    check_incremental(seed)


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_incremental_with_forced_db_reduction(seed):
    # reduce_base=4 forces reductions on even these tiny instances, so the
    # keep/delete policy itself is under differential test.
    check_incremental(seed, reduce_base=4, reduce_growth=4)


def test_db_reduction_actually_fires():
    # A threshold-ratio 3-CNF big enough to generate real conflict traffic;
    # two solvers, reduced and unreduced, must agree on the verdict.
    rng = make_rng(99)
    cnf = Cnf(24)
    for _ in range(103):
        variables = rng.choice(24, size=3, replace=False)
        cnf.add_clause(tuple(
            int(v) + 1 if rng.random() < 0.5 else -(int(v) + 1)
            for v in variables
        ))
    reduced = CdclSolver(cnf, reduce_base=8, reduce_growth=8)
    verdict = reduced.solve().satisfiable
    assert reduced.stats["db_reductions"] > 0, (
        "instance never exercised _reduce_db — make it harder"
    )
    assert reduced.stats["learned_deleted"] > 0
    assert CdclSolver(cnf).solve().satisfiable == verdict


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_minimization_off_agrees(seed):
    check_one_shot(seed, minimize=False)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_slow_sweep_one_shot(seed):
    check_one_shot(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_slow_sweep_incremental(seed):
    check_incremental(seed, reduce_base=8, reduce_growth=8)


def random_3cnf(seed: int, num_vars: int = 40, ratio: float = 4.26) -> Cnf:
    """A random 3-CNF at the satisfiability threshold.

    Unlike :func:`random_cnf`, whose unit clauses settle most instances
    before the first decision, these need real search: conflicts, learned
    clauses and activity bumps.
    """
    rng = make_rng(seed)
    cnf = Cnf(num_vars)
    for _ in range(int(num_vars * ratio)):
        variables = rng.choice(num_vars, size=3, replace=False)
        cnf.add_clause(tuple(
            int(v) + 1 if rng.random() < 0.5 else -(int(v) + 1)
            for v in variables
        ))
    return cnf


def small_3cnf(seed: int) -> Cnf:
    """A threshold 3-CNF small enough to enumerate."""
    return random_3cnf(seed, num_vars=10)


class PlainHeapSolver(CdclSolver):
    """The reference decision heap: one push per unassign and per bump.

    It holds every copy of every ``(key, var)`` entry, backtracks level by
    level, and pops until it meets an unassigned variable.
    """

    def _queue(self, var):
        heapq.heappush(self._heap, (-self._activity[var], var))

    def _backtrack(self, level):
        while len(self._trail_lim) > level:
            limit = self._trail_lim.pop()
            for idx in self._trail[limit:]:
                var = idx >> 1
                self._phase[var] = not idx & 1
                self._val[idx] = self._val[idx ^ 1] = None
                self._reason[var] = None
                self._queue(var)
            del self._trail[limit:]
        self._qhead = min(self._qhead, len(self._trail))

    def _pick_branch(self):
        while self._heap:
            _, var = heapq.heappop(self._heap)
            if self._val[var << 1] is None:
                return (var << 1) | (not self._phase[var])
        return None


@pytest.fixture
def rescale_spy(monkeypatch):
    """Low activity ceiling; counts rescales and rejects assigned picks."""
    monkeypatch.setattr(solver_module, "_ACTIVITY_RESCALE", LOW_RESCALE)
    counts = {"rescales": 0, "picks": 0}
    bump, pick = CdclSolver._bump, CdclSolver._pick_branch

    def counting_bump(self, var):
        before = self._var_inc
        bump(self, var)
        counts["rescales"] += self._var_inc < before

    def checked_pick(self):
        lit = pick(self)
        if lit is not None:
            assert self._val[lit] is None, f"picked assigned literal {lit}"
            counts["picks"] += 1
        return lit

    monkeypatch.setattr(CdclSolver, "_bump", counting_bump)
    monkeypatch.setattr(CdclSolver, "_pick_branch", checked_pick)
    return counts


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_frequent_rescales_agree_with_enumeration(seed, rescale_spy):
    check_one_shot(seed, small_3cnf)
    check_incremental(seed, small_3cnf)
    check_incremental(seed, small_3cnf, reduce_base=8, reduce_growth=8)
    assert rescale_spy["picks"] > 0
    assert rescale_spy["rescales"] > 0, "no rescale fired: lower LOW_RESCALE"


def _probe_stream(solver: CdclSolver, seed: int) -> list:
    """Solve under six random assumption sets; every result in full."""
    rng = make_rng(seed + 20_000)
    results = []
    for _ in range(6):
        assumed = rng.choice(solver.num_vars, size=4, replace=False)
        assumptions = [
            int(v) + 1 if rng.random() < 0.5 else -(int(v) + 1)
            for v in assumed
        ]
        result = solver.solve(assumptions)
        results.append((
            result.satisfiable, result.assumption_failed, result.model,
            result.stats,
        ))
    return results


@pytest.mark.parametrize("rescale", [LOW_RESCALE, solver_module._ACTIVITY_RESCALE])
@pytest.mark.parametrize("seed", range(4))
def test_deduplicated_heap_picks_as_the_plain_heap(seed, rescale, monkeypatch):
    # Same stats and models, call by call, so the same decisions in the
    # same order; between rescales the copies a plain heap holds of an
    # entry decide picks, and the copy counts must stand in for them.  A
    # rescale rebuilds either heap to one current entry per unassigned
    # variable (PlainHeapSolver inherits _bump).
    monkeypatch.setattr(solver_module, "_ACTIVITY_RESCALE", rescale)
    cnf = random_3cnf(seed)
    streams = [
        _probe_stream(cls(cnf, reduce_base=8, reduce_growth=8), seed)
        for cls in (CdclSolver, PlainHeapSolver)
    ]
    assert streams[0] == streams[1]


@pytest.mark.parametrize("seed", range(4))
def test_pick_after_a_rescale_follows_current_activity(seed, monkeypatch):
    # Right after a rescale, no key pushed before it may outrank a later
    # bump: the pick is the unassigned variable of highest activity, the
    # lowest index on ties.
    monkeypatch.setattr(solver_module, "_ACTIVITY_RESCALE", LOW_RESCALE)
    bump, pick = CdclSolver._bump, CdclSolver._pick_branch
    counts = {"rescaled": False, "checked": 0}

    def spying_bump(self, var):
        before = self._var_inc
        bump(self, var)
        counts["rescaled"] |= self._var_inc < before

    def checked_pick(self):
        if counts["rescaled"]:
            counts["rescaled"] = False
            free = [
                v for v in range(1, self.num_vars + 1)
                if self._val[v << 1] is None
            ]
            expected = min(free, key=lambda v: (-self._activity[v], v))
            lit = pick(self)
            assert lit >> 1 == expected
            counts["checked"] += 1
            return lit
        return pick(self)

    monkeypatch.setattr(CdclSolver, "_bump", spying_bump)
    monkeypatch.setattr(CdclSolver, "_pick_branch", checked_pick)
    _probe_stream(CdclSolver(random_3cnf(seed), reduce_base=8,
                             reduce_growth=8), seed)
    assert counts["checked"] > 0
