"""A pure-Python CDCL SAT solver.

Implements the standard modern-solver loop at a scale suited to this
repository's quick-scale circuits:

* two-watched-literal unit propagation,
* first-UIP conflict analysis with clause learning and self-subsumption
  clause minimization (``stats["minimized_lits"]`` counts removed
  literals),
* VSIDS-style variable activities with exponential decay and phase saving,
* geometric restarts,
* glue/LBD-scored learned-clause database reduction, so long incremental
  sessions (a DIP loop retaining everything it learned) do not grow the
  clause store without bound (``stats["db_reductions"]`` /
  ``stats["learned_deleted"]``),
* incremental use: clauses may be added between ``solve`` calls and each
  call may carry *assumptions* — temporary unit decisions the SAT attack
  uses to toggle its miter constraint while accumulating learned I/O
  constraints across DIP iterations.

Literals follow the DIMACS convention externally (signed non-zero ints);
internally each literal is an even/odd index ``2*var + sign`` so negation
is ``^ 1``.

The hot loop follows MiniSat's layout (Eén & Sörensson, "An Extensible
SAT-solver", SAT 2003) under three order contracts, which the DIP
goldens (``tests/test_dip_golden.py``: every DIP, conflict, decision,
propagation and restart count) pin:

* **A value per literal.** ``_val[idx]`` is ``True``, ``False`` or
  ``None`` for every literal index; assigning a literal writes both it
  and its negation, so a reader never derives a literal's value from its
  variable's.
* **Watch lists walked last-to-first.** ``_propagate`` visits a watch
  list from its end and rebuilds it in visit order: the clauses that stay
  come first, in the order visited, and on a conflict the unvisited
  prefix follows unchanged.
* **One heap entry per distinct key.** The decision heap is lazy: a
  variable is pushed under ``-activity`` whenever it is unassigned or
  bumped, and stale entries are skipped when popped.  ``_queued`` counts
  how many copies of each ``(key, var)`` entry a heap that pushed every
  time would hold, and the heap holds the entry once.  Picks come out in
  the same order as from the heap with every copy.  An activity rescale
  rebuilds the heap with one current ``(-activity, var)`` entry per
  unassigned variable, so keys pushed before it cannot outrank later
  bumps: the next pick is the unassigned variable of highest activity,
  lowest index on ties.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.errors import SatError
from repro.obs import metrics as _metrics
from repro.obs.trace import get_tracer
from repro.sat.cnf import Cnf

_RESTART_BASE = 100
_RESTART_GROWTH = 1.5
_ACTIVITY_RESCALE = 1e100
#: VSIDS decay: the activity increment grows by ``1 / _VAR_DECAY`` per
#: conflict.
_VAR_DECAY = 0.95
#: Learned clauses with LBD at or below this are "glue" and never deleted.
_GLUE_LBD = 2


@dataclass
class SolverResult:
    """Outcome of one ``solve`` call."""

    satisfiable: bool
    model: Optional[dict[int, bool]] = None
    assumption_failed: bool = False
    stats: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.satisfiable

    def value(self, var: int) -> bool:
        if self.model is None:
            raise SatError("no model: instance was unsatisfiable")
        return self.model[var]


class CdclSolver:
    """Conflict-driven clause-learning solver over DIMACS-style literals."""

    def __init__(
        self,
        cnf: Optional[Cnf] = None,
        reduce_base: int = 2000,
        reduce_growth: int = 512,
        minimize: bool = True,
    ):
        self._nvars = 0
        self._clauses: list[list[int]] = []
        self._learned: list[list[int]] = []
        self._lbd: dict[int, int] = {}  # id(clause) -> glue score
        self._learned_count = 0
        self._reduce_limit = reduce_base
        self._reduce_growth = reduce_growth
        self._minimize = minimize
        self._watches: list[list[list[int]]] = [[], []]
        self._val: list[Optional[bool]] = [None, None]
        self._level: list[int] = [0]
        self._reason: list[Optional[list[int]]] = [None]
        self._activity: list[float] = [0.0]
        self._phase: list[bool] = [False]
        self._heap: list[tuple[float, int]] = []
        # Copies of each heap entry (see the module docstring).
        self._queued: dict[tuple[float, int], int] = {}
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._var_inc = 1.0
        self._unsat = False
        self.stats = {
            "decisions": 0,
            "conflicts": 0,
            "propagations": 0,
            "restarts": 0,
            "learned": 0,
            "minimized_lits": 0,
            "learned_kept": 0,
            "learned_deleted": 0,
            "db_reductions": 0,
        }
        # High-water marks of what solve() has already folded into the
        # metrics registry (see repro.obs.metrics).
        self._stats_folded: dict[str, int] = {}
        if cnf is not None:
            self.ensure_vars(cnf.num_vars)
            for clause in cnf.clauses:
                self.add_clause(clause)

    # -- variables ------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self._nvars

    def new_var(self) -> int:
        """Allocate one fresh variable and return it."""
        self.ensure_vars(self._nvars + 1)
        return self._nvars

    def ensure_vars(self, count: int) -> None:
        while self._nvars < count:
            self._nvars += 1
            self._watches.extend(([], []))
            self._val.extend((None, None))
            self._level.append(0)
            self._reason.append(None)
            self._activity.append(0.0)
            self._phase.append(False)
            self._queue(self._nvars)

    def _to_idx(self, lit: int) -> int:
        var = abs(lit)
        if lit == 0 or var > self._nvars:
            raise SatError(f"literal {lit} out of range (have {self._nvars} vars)")
        return (var << 1) | (lit < 0)

    # -- clause management ----------------------------------------------------

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a clause; may be called between ``solve`` calls."""
        self._backtrack(0)
        clause: list[int] = []
        seen: set[int] = set()
        for lit in lits:
            idx = self._to_idx(lit)
            if idx in seen:
                continue
            if idx ^ 1 in seen:
                return  # tautology
            value = self._val[idx]
            if value is True:
                return  # satisfied by a permanent (level-0) assignment
            if value is False:
                continue  # permanently false literal
            seen.add(idx)
            clause.append(idx)
        if not clause:
            self._unsat = True
            return
        if len(clause) == 1:
            self._enqueue(clause[0], None)
            if self._propagate() is not None:
                self._unsat = True
            return
        self._attach(clause)

    def _attach(
        self, clause: list[int], learned: bool = False, lbd: Optional[int] = None
    ) -> None:
        if learned:
            self._learned.append(clause)
            self._lbd[id(clause)] = lbd if lbd is not None else len(clause)
        else:
            self._clauses.append(clause)
        self._watches[clause[0]].append(clause)
        self._watches[clause[1]].append(clause)

    def _reduce_db(self) -> None:
        """Delete the worst half of the deletable learned clauses.

        Called at decision level 0.  Glue clauses (LBD <= ``_GLUE_LBD``),
        binary clauses and clauses currently acting as the reason for a
        trail assignment are always kept; the rest are ranked by
        (LBD, length) and the worse half dropped, rebuilding the watch
        lists from the survivors.  Deleting a learned clause is always
        sound — every learned clause is implied by the problem clauses.
        """
        locked = {
            id(self._reason[idx >> 1])
            for idx in self._trail
            if self._reason[idx >> 1] is not None
        }
        keep: list[list[int]] = []
        deletable: list[tuple[int, int, int, list[int]]] = []
        for position, clause in enumerate(self._learned):
            glue = self._lbd.get(id(clause), len(clause))
            if glue <= _GLUE_LBD or len(clause) <= 2 or id(clause) in locked:
                keep.append(clause)
            else:
                deletable.append((glue, len(clause), position, clause))
        deletable.sort(key=lambda entry: entry[:3])
        half = len(deletable) // 2
        keep.extend(entry[3] for entry in deletable[:half])
        dropped = deletable[half:]
        for _, _, _, clause in dropped:
            self._lbd.pop(id(clause), None)
        self._learned = keep
        self._watches = [[] for _ in range(2 * self._nvars + 2)]
        for clause in self._clauses:
            self._watches[clause[0]].append(clause)
            self._watches[clause[1]].append(clause)
        for clause in self._learned:
            self._watches[clause[0]].append(clause)
            self._watches[clause[1]].append(clause)
        self.stats["db_reductions"] += 1
        self.stats["learned_deleted"] += len(dropped)
        self.stats["learned_kept"] = len(self._learned)
        self._reduce_limit += self._reduce_growth

    # -- assignment and propagation -------------------------------------------

    def _enqueue(self, idx: int, reason: Optional[list[int]]) -> None:
        self._val[idx] = True
        self._val[idx ^ 1] = False
        var = idx >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(idx)

    def _propagate(self) -> Optional[list[int]]:
        """Unit propagation to fixpoint; returns a conflicting clause or None."""
        trail = self._trail
        watches = self._watches
        val = self._val
        level = self._level
        reason = self._reason
        depth = len(self._trail_lim)
        qhead = self._qhead
        propagated = 0
        conflict = None
        while qhead < len(trail):
            falsified = trail[qhead] ^ 1
            qhead += 1
            propagated += 1
            watchers = watches[falsified]
            kept: list[list[int]] = []
            watches[falsified] = kept
            i = len(watchers)
            while i:
                i -= 1
                clause = watchers[i]
                first = clause[0]
                if first == falsified:
                    first = clause[0] = clause[1]
                    clause[1] = falsified
                if val[first]:
                    kept.append(clause)
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if val[lit] is not False:
                        clause[1] = lit
                        clause[k] = falsified
                        watches[lit].append(clause)
                        break
                else:
                    kept.append(clause)
                    if val[first] is False:
                        kept.extend(watchers[:i])
                        conflict = clause
                        break
                    val[first] = True
                    val[first ^ 1] = False
                    var = first >> 1
                    level[var] = depth
                    reason[var] = clause
                    trail.append(first)
            if conflict is not None:
                qhead = len(trail)
                break
        self._qhead = qhead
        self.stats["propagations"] += propagated
        return conflict

    def _backtrack(self, level: int) -> None:
        trail_lim = self._trail_lim
        if len(trail_lim) > level:
            trail = self._trail
            limit = trail_lim[level]
            del trail_lim[level:]
            val = self._val
            phase = self._phase
            reason = self._reason
            activity = self._activity
            queued = self._queued
            heap = self._heap
            heappush = heapq.heappush
            for idx in trail[limit:]:
                var = idx >> 1
                phase[var] = not idx & 1
                val[idx] = val[idx ^ 1] = None
                reason[var] = None
                # _queue(var), inlined.
                entry = (-activity[var], var)
                copies = queued.get(entry, 0)
                queued[entry] = copies + 1
                if not copies:
                    heappush(heap, entry)
            del trail[limit:]
        self._qhead = min(self._qhead, len(self._trail))

    def _queue(self, var: int) -> None:
        """Push ``var`` on the decision heap under its current activity."""
        entry = (-self._activity[var], var)
        copies = self._queued.get(entry, 0)
        self._queued[entry] = copies + 1
        if not copies:
            heapq.heappush(self._heap, entry)

    # -- conflict analysis -----------------------------------------------------

    def _bump(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > _ACTIVITY_RESCALE:
            self._rescale()
        self._queue(var)

    def _rescale(self) -> None:
        """Scale every activity down, and rebuild the heap to match.

        Keys pushed before a rescale would outrank every later one, so the
        heap gets one current ``(-activity, var)`` entry per unassigned
        variable.  It is rebuilt in place: callers hold it as a local.
        """
        activity = self._activity
        for v in range(1, self._nvars + 1):
            activity[v] *= 1.0 / _ACTIVITY_RESCALE
        self._var_inc *= 1.0 / _ACTIVITY_RESCALE
        val = self._val
        heap = self._heap
        heap[:] = [
            (-activity[v], v)
            for v in range(1, self._nvars + 1)
            if val[v << 1] is None
        ]
        heapq.heapify(heap)
        self._queued.clear()
        self._queued.update(dict.fromkeys(heap, 1))

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int, int]:
        """First-UIP analysis: (learned clause, backjump level, LBD).

        The learned clause's first literal is the asserting (UIP) literal.
        The LBD ("glue") is the number of distinct decision levels in the
        clause — low-LBD clauses are the valuable ones the database
        reduction pass must never delete.
        """
        current = len(self._trail_lim)
        seen = bytearray(self._nvars + 1)
        learned: list[int] = []
        counter = 0
        uip: Optional[int] = None
        index = len(self._trail)
        clause: Optional[list[int]] = conflict
        while True:
            assert clause is not None
            start = 1 if uip is not None else 0
            for lit in clause[start:]:
                var = lit >> 1
                if not seen[var] and self._level[var] > 0:
                    seen[var] = 1
                    self._bump(var)
                    if self._level[var] >= current:
                        counter += 1
                    else:
                        learned.append(lit)
            while True:
                index -= 1
                if seen[self._trail[index] >> 1]:
                    break
            uip = self._trail[index]
            clause = self._reason[uip >> 1]
            seen[uip >> 1] = 0
            counter -= 1
            if counter == 0:
                break
        result = [uip ^ 1] + learned
        if self._minimize and len(result) > 1:
            # Self-subsumption: a non-asserting literal is redundant when its
            # reason's other literals are all in the clause (or fixed at
            # level 0) — resolving it away, in reverse trail order, only
            # reintroduces literals already present.
            marked = {lit >> 1 for lit in result}
            kept = [result[0]]
            for lit in result[1:]:
                reason = self._reason[lit >> 1]
                if reason is not None and all(
                    (rlit >> 1) in marked or self._level[rlit >> 1] == 0
                    for rlit in reason
                    if (rlit >> 1) != (lit >> 1)
                ):
                    self.stats["minimized_lits"] += 1
                else:
                    kept.append(lit)
            result = kept
        glue = len({self._level[lit >> 1] for lit in result})
        if len(result) == 1:
            return result, 0, glue
        # Watch the highest-level non-asserting literal at position 1 so the
        # clause stays correctly watched right after the backjump.
        best = max(range(1, len(result)), key=lambda i: self._level[result[i] >> 1])
        result[1], result[best] = result[best], result[1]
        return result, self._level[result[1] >> 1], glue

    # -- search ----------------------------------------------------------------

    def _pick_branch(self) -> Optional[int]:
        heap = self._heap
        val = self._val
        queued = self._queued
        while heap:
            entry = heap[0]
            var = entry[1]
            if val[var << 1] is None:
                copies = queued[entry]
                if copies > 1:
                    queued[entry] = copies - 1
                else:
                    heapq.heappop(heap)
                    del queued[entry]
                return (var << 1) | (not self._phase[var])
            heapq.heappop(heap)
            del queued[entry]
        for var in range(1, self._nvars + 1):
            if val[var << 1] is None:
                return (var << 1) | (not self._phase[var])
        return None

    def solve(self, assumptions: Sequence[int] = ()) -> SolverResult:
        """Search for a model extending ``assumptions``.

        Returns a :class:`SolverResult`; ``assumption_failed`` distinguishes
        "unsatisfiable under these assumptions" from global unsatisfiability.
        Learned clauses and activities persist across calls.
        """
        # Telemetry wraps the whole call: the hot CDCL loop below touches
        # only the private stats dict, and deltas are folded into the
        # process metrics registry exactly once on the way out.  The fold
        # covers everything since the *previous* fold — clause additions
        # between calls propagate at level 0, and those counts would
        # otherwise never reach the registry.
        with get_tracer().span("sat.solve", vars=self._nvars) as span:
            result = self._solve_impl(assumptions)
            for key in (
                "conflicts",
                "decisions",
                "propagations",
                "restarts",
                "db_reductions",
                "learned_deleted",
            ):
                delta = self.stats[key] - self._stats_folded.get(key, 0)
                if delta:
                    _metrics.inc(f"sat.{key}", delta)
                    self._stats_folded[key] = self.stats[key]
            span.set(sat=result.satisfiable)
        return result

    def _solve_impl(self, assumptions: Sequence[int] = ()) -> SolverResult:
        if self._unsat:
            return SolverResult(False, stats=dict(self.stats))
        self._backtrack(0)
        assumed = [self._to_idx(lit) for lit in assumptions]
        if self._propagate() is not None:
            self._unsat = True
            return SolverResult(False, stats=dict(self.stats))
        conflicts_before_restart = _RESTART_BASE
        restart_limit = float(_RESTART_BASE)
        var_decay = _VAR_DECAY
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats["conflicts"] += 1
                if not self._trail_lim:
                    self._unsat = True
                    return SolverResult(False, stats=dict(self.stats))
                learned, backjump, glue = self._analyze(conflict)
                self._backtrack(backjump)
                if len(learned) == 1:
                    self._enqueue(learned[0], None)
                else:
                    self._attach(learned, learned=True, lbd=glue)
                    self._learned_count += 1
                    self.stats["learned"] += 1
                    self._enqueue(learned[0], learned)
                self._var_inc /= var_decay
                conflicts_before_restart -= 1
                if conflicts_before_restart <= 0:
                    self.stats["restarts"] += 1
                    restart_limit *= _RESTART_GROWTH
                    conflicts_before_restart = int(restart_limit)
                    self._backtrack(0)
                if len(self._learned) >= self._reduce_limit:
                    self._backtrack(0)
                    self._reduce_db()
                continue
            branch: Optional[int] = None
            failed = False
            while len(self._trail_lim) < len(assumed):
                lit = assumed[len(self._trail_lim)]
                value = self._val[lit]
                if value is True:
                    self._trail_lim.append(len(self._trail))
                elif value is False:
                    failed = True
                    break
                else:
                    branch = lit
                    break
            if failed:
                self._backtrack(0)
                return SolverResult(
                    False, assumption_failed=True, stats=dict(self.stats)
                )
            if branch is None:
                branch = self._pick_branch()
                if branch is None:
                    val = self._val
                    model = {
                        var: val[var << 1] for var in range(1, self._nvars + 1)
                    }
                    self._backtrack(0)
                    return SolverResult(True, model=model, stats=dict(self.stats))
                self.stats["decisions"] += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(branch, None)


def solve_cnf(cnf: Cnf) -> SolverResult:
    """One-shot convenience: build a solver for ``cnf`` and solve."""
    return CdclSolver(cnf).solve()
