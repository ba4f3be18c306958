"""The mutable AIG data structure with structural hashing and replacement.

Literal encoding follows the AIGER/ABC convention: literal ``2*v`` is the
positive phase of variable ``v`` and ``2*v + 1`` the complemented phase.
Variable 0 is the constant-FALSE node, so literal 0 is constant 0 and literal
1 is constant 1.

The class supports the two usage styles synthesis needs:

* *append-only construction* (:meth:`add_and` with folding + strashing), used
  when converting netlists and when rebuilding (balance, compaction);
* *in-place surgery* (:meth:`replace`), used by DAG-aware rewriting,
  refactoring and resubstitution.  ``replace`` rewires all fanouts of a node
  onto a replacement literal, cascading constant folding and strash merges
  downstream exactly like ABC's ``Abc_AigReplace``, and deletes the dead cone.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional, Sequence

from repro.errors import AigError

CONST_VAR = 0

# Fanin sentinel values for non-AND nodes.
_FANIN_PI = -1
_FANIN_DETACHED = -2
_FANIN_DEAD = -3


def make_lit(var: int, compl: bool = False) -> int:
    """Build a literal from a variable index and complement flag."""
    return (var << 1) | int(compl)


def lit_var(lit: int) -> int:
    """Variable index of a literal."""
    return lit >> 1


def lit_not(lit: int) -> int:
    """Complement a literal."""
    return lit ^ 1


def lit_is_compl(lit: int) -> bool:
    """True when the literal is the complemented phase."""
    return bool(lit & 1)


class Aig:
    """A combinational AIG with named primary inputs and outputs."""

    def __init__(self, name: str = "aig"):
        self.name = name
        # Node storage, indexed by variable id.  Variable 0 is constant-0.
        self._fanin0: list[int] = [_FANIN_PI]
        self._fanin1: list[int] = [_FANIN_PI]
        self._fanouts: list[set[int]] = [set()]
        self._po_refs: list[int] = [0]
        self._is_pi: list[bool] = [False]
        self._dead: list[bool] = [False]
        self._strash: dict[tuple[int, int], int] = {}
        self._pis: list[int] = []
        self._pi_names: list[str] = []
        self._pos: list[int] = []
        self._po_names: list[str] = []

    # -- introspection -------------------------------------------------------

    @property
    def num_vars(self) -> int:
        """Total allocated variables, including dead ones."""
        return len(self._fanin0)

    @property
    def num_pis(self) -> int:
        return len(self._pis)

    @property
    def num_pos(self) -> int:
        return len(self._pos)

    def num_ands(self) -> int:
        """Number of live AND nodes."""
        return sum(
            1
            for v in range(self.num_vars)
            if not self._dead[v] and self.is_and(v)
        )

    def pi_vars(self) -> list[int]:
        return list(self._pis)

    def pi_names(self) -> list[str]:
        return list(self._pi_names)

    def po_lits(self) -> list[int]:
        return list(self._pos)

    def po_names(self) -> list[str]:
        return list(self._po_names)

    def is_pi(self, var: int) -> bool:
        return self._is_pi[var]

    def is_and(self, var: int) -> bool:
        return not self._is_pi[var] and var != CONST_VAR and self._fanin0[var] >= 0

    def fanins(self, var: int) -> tuple[int, int]:
        """The two fanin literals of an AND node."""
        if not self.is_and(var):
            raise AigError(f"variable {var} is not a live AND node")
        return self._fanin0[var], self._fanin1[var]

    def fanin_arrays(self) -> tuple[list[int], list[int]]:
        """The fanin lists themselves, for passes' inner loops: read-only.

        ``fanin0[v]``/``fanin1[v]`` are node ``v``'s fanin literals when it
        is a live AND.  Otherwise ``fanin0[v]`` is negative: -1 for a PI or
        the constant, -2 for a node detached mid-``replace``, -3 for a dead
        slot.  So ``fanin0[v] >= 0`` is exactly :meth:`is_and`.  The AIG
        mutates these lists in place and never rebinds them, so a pass may
        bind them to locals once and keep reading them across ``replace``
        and ``add_and`` calls; it must never write to them.
        """
        return self._fanin0, self._fanin1

    def fanout_vars(self, var: int) -> set[int]:
        """Variables of the AND nodes reading ``var`` (live ones)."""
        return {f for f in self._fanouts[var] if not self._dead[f]}

    def num_refs(self, var: int) -> int:
        """Fanout count plus primary-output references."""
        return len(self._fanouts[var]) + self._po_refs[var]

    # -- construction ---------------------------------------------------------

    def add_pi(self, name: Optional[str] = None) -> int:
        """Create a primary input; returns its positive literal."""
        var = self._new_var(is_pi=True)
        self._pis.append(var)
        self._pi_names.append(name if name is not None else f"pi{len(self._pis) - 1}")
        return make_lit(var)

    def add_po(self, lit: int, name: Optional[str] = None) -> int:
        """Register a primary output literal; returns the PO index."""
        self._check_lit(lit)
        self._pos.append(lit)
        self._po_names.append(name if name is not None else f"po{len(self._pos) - 1}")
        self._po_refs[lit_var(lit)] += 1
        return len(self._pos) - 1

    def _new_var(self, is_pi: bool) -> int:
        var = len(self._fanin0)
        self._fanin0.append(_FANIN_PI)
        self._fanin1.append(_FANIN_PI)
        self._fanouts.append(set())
        self._po_refs.append(0)
        self._is_pi.append(is_pi)
        self._dead.append(False)
        return var

    def _check_lit(self, lit: int) -> None:
        var = lit_var(lit)
        if not 0 <= var < self.num_vars or self._dead[var]:
            raise AigError(f"literal {lit} references a missing or dead node")

    @staticmethod
    def _normalize(lit0: int, lit1: int) -> tuple[int, int]:
        return (lit1, lit0) if lit0 > lit1 else (lit0, lit1)

    @staticmethod
    def fold_and(lit0: int, lit1: int) -> Optional[int]:
        """Constant-fold AND(lit0, lit1); None when a real node is needed."""
        lit0, lit1 = Aig._normalize(lit0, lit1)
        if lit0 == 0 or lit0 == lit_not(lit1):
            return 0
        if lit0 == 1:
            return lit1
        if lit0 == lit1:
            return lit0
        return None

    def add_and(self, lit0: int, lit1: int) -> int:
        """AND with constant folding and structural hashing."""
        self._check_lit(lit0)
        self._check_lit(lit1)
        folded = self.fold_and(lit0, lit1)
        if folded is not None:
            return folded
        lit0, lit1 = self._normalize(lit0, lit1)
        existing = self._strash.get((lit0, lit1))
        if existing is not None:
            return make_lit(existing)
        var = self._new_var(is_pi=False)
        self._fanin0[var] = lit0
        self._fanin1[var] = lit1
        self._strash[(lit0, lit1)] = var
        self._fanouts[lit_var(lit0)].add(var)
        self._fanouts[lit_var(lit1)].add(var)
        return make_lit(var)

    @property
    def strash(self) -> Mapping[tuple[int, int], int]:
        """The structural-hash table, read-only: fanin pair -> AND variable.

        Keys are normalized (smaller literal first) and never constant-
        foldable; callers fold first, then probe (see ``structure.dry_run``).
        """
        return self._strash

    # -- derived operators ----------------------------------------------------

    def add_or(self, lit0: int, lit1: int) -> int:
        return lit_not(self.add_and(lit_not(lit0), lit_not(lit1)))

    def add_xor(self, lit0: int, lit1: int) -> int:
        return self.add_or(
            self.add_and(lit0, lit_not(lit1)), self.add_and(lit_not(lit0), lit1)
        )

    def add_mux(self, sel: int, lit0: int, lit1: int) -> int:
        """``lit1`` when ``sel`` else ``lit0``."""
        return self.add_or(
            self.add_and(sel, lit1), self.add_and(lit_not(sel), lit0)
        )

    def add_many_and(self, lits: Sequence[int]) -> int:
        """Balanced AND over any number of literals (1 for empty)."""
        lits = list(lits)
        if not lits:
            return 1
        while len(lits) > 1:
            nxt = [
                self.add_and(lits[i], lits[i + 1]) for i in range(0, len(lits) - 1, 2)
            ]
            if len(lits) % 2:
                nxt.append(lits[-1])
            lits = nxt
        return lits[0]

    def add_many_or(self, lits: Sequence[int]) -> int:
        return lit_not(self.add_many_and([lit_not(l) for l in lits]))

    # -- traversal -------------------------------------------------------------

    def live_vars(self) -> Iterator[int]:
        """All live variables (const, PIs, ANDs) in id order."""
        for var in range(self.num_vars):
            if not self._dead[var]:
                yield var

    def topological_ands(self, roots: Optional[Iterable[int]] = None) -> list[int]:
        """Live AND variables in topological (fanin-first) order.

        Restricted to the cone of ``roots`` (literals) when given, otherwise
        the cone of all primary outputs plus every live AND node.
        """
        if roots is None:
            fanin0 = self._fanin0
            root_vars = [po >> 1 for po in self._pos]
            root_vars.extend(v for v in range(len(fanin0)) if fanin0[v] >= 0)
        else:
            root_vars = [r >> 1 for r in roots]
        return self._post_order(root_vars, None)

    def _post_order(
        self, root_vars: list[int], leaf_set: Optional[set[int]]
    ) -> list[int]:
        """AND variables below ``root_vars``, post-order, fanin0 first.

        The walk stops at non-ANDs, and at ``leaf_set`` when given; then any
        other non-AND it reaches raises (the cone escapes the cut).
        """
        fanin0, fanin1 = self._fanin0, self._fanin1
        order: list[int] = []
        # Leaves start out finished, so the walk stops at them.
        state: dict[int, int] = dict.fromkeys(leaf_set or (), 2)
        for root in root_vars:
            if fanin0[root] < 0 or state.get(root) == 2:
                continue
            stack: list[tuple[int, int]] = [(root, 0)]
            while stack:
                var, phase = stack.pop()
                if state.get(var) == 2:
                    continue
                if phase == 0:
                    state[var] = 1
                    stack.append((var, 1))
                    for child in (fanin1[var] >> 1, fanin0[var] >> 1):
                        if fanin0[child] < 0:
                            if leaf_set is None or child in leaf_set:
                                continue
                            raise AigError(
                                f"cone of {root} escapes cut at var {child}"
                            )
                        seen = state.get(child)
                        if seen != 2:
                            if seen == 1:
                                raise AigError(f"cycle detected at var {child}")
                            stack.append((child, 0))
                else:
                    state[var] = 2
                    order.append(var)
        return order

    def levels(self) -> dict[int, int]:
        """Level (AND depth) of every live variable; PIs/const are level 0."""
        level = {CONST_VAR: 0}
        for var in self._pis:
            level[var] = 0
        for var in self.topological_ands():
            f0, f1 = self._fanin0[var], self._fanin1[var]
            level[var] = 1 + max(level[lit_var(f0)], level[lit_var(f1)])
        return level

    def depth(self) -> int:
        """Maximum PO level."""
        level = self.levels()
        return max((level[lit_var(po)] for po in self._pos), default=0)

    def cone_vars(self, root_lit: int, leaves: Iterable[int]) -> list[int]:
        """AND variables between cut ``leaves`` and ``root_lit``, topo order.

        Raises :class:`AigError` if the cone escapes the leaves (reaches a PI
        or constant not in the leaf set) — that means ``leaves`` is not a
        valid cut of the root.
        """
        return self._post_order([root_lit >> 1], set(leaves))

    def reaches(self, start_lit: int, target_var: int, stop_vars: set[int]) -> bool:
        """True when ``target_var`` is reachable from ``start_lit`` downward.

        The search walks fanins and prunes at ``stop_vars`` (and at PIs).
        Used to reject rewrite candidates that would create cycles.
        """
        start = lit_var(start_lit)
        if start == target_var:
            return True
        seen = {start}
        stack = [start]
        while stack:
            var = stack.pop()
            if not self.is_and(var) or var in stop_vars:
                continue
            for lit in (self._fanin0[var], self._fanin1[var]):
                child = lit_var(lit)
                if child == target_var:
                    return True
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return False

    # -- MFFC ------------------------------------------------------------------

    def mffc(self, root_var: int, leaves: Iterable[int]) -> set[int]:
        """Maximum fanout-free cone of ``root_var`` bounded by ``leaves``.

        The set of AND nodes (including the root) that would become dead if
        the root were replaced — nodes all of whose fanout paths lead back to
        the root.  One iterative dereference: a node joins once every one
        of its references comes from a node already in the cone, which
        does not depend on the order the cone is walked in.
        """
        fanin0 = self._fanin0
        if fanin0[root_var] < 0:
            return set()
        fanin1 = self._fanin1
        fanouts = self._fanouts
        po_refs = self._po_refs
        leaf_set = set(leaves)
        decremented: dict[int, int] = {}
        nodes = {root_var}
        stack = [root_var]
        pop = stack.pop
        push = stack.append
        while stack:
            var = pop()
            for child in (fanin0[var] >> 1, fanin1[var] >> 1):
                if fanin0[child] < 0 or child in leaf_set:
                    continue
                count = decremented.get(child, 0) + 1
                decremented[child] = count
                if count == len(fanouts[child]) + po_refs[child]:
                    nodes.add(child)
                    push(child)
        return nodes

    # -- in-place replacement ---------------------------------------------------

    def replace(self, old_var: int, new_lit: int) -> None:
        """Rewire every reader of ``old_var`` to ``new_lit`` and clean up.

        Cascades constant folding and structural-hash merges through the
        fanout cone, then deletes the dead cone of the replaced node.  The
        caller must guarantee ``new_lit`` is not in the fanout cone of
        ``old_var`` (checked cheaply for the direct case).
        """
        self._check_lit(new_lit)
        if self._dead[old_var]:
            raise AigError(f"cannot replace dead node {old_var}")
        if lit_var(new_lit) == old_var:
            raise AigError("replacement literal references the replaced node")
        # Worklist entries hold a protection reference on the replacement
        # node (via _po_refs) so cascading deletions cannot reclaim it before
        # the entry is processed.  ``forward`` records, for every node already
        # replaced during this call, the literal that superseded it: a pending
        # entry whose target was itself replaced in the interim is resolved
        # through the chain instead of attaching readers to a detached node.
        worklist: list[tuple[int, int]] = [(old_var, new_lit)]
        self._po_refs[lit_var(new_lit)] += 1
        forward: dict[int, int] = {}
        guards: list[int] = []
        replaced: list[int] = []
        while worklist:
            old, new = worklist.pop()
            pushed_var = lit_var(new)
            self._po_refs[pushed_var] -= 1
            seen: set[int] = set()
            while lit_var(new) in forward and lit_var(new) not in seen:
                seen.add(lit_var(new))
                new = forward[lit_var(new)] ^ (new & 1)
            new_var = lit_var(new)
            if self._dead[old] or new_var == old:
                self._delete_if_dead(pushed_var)
                continue
            # Redirect primary outputs.
            for index, po in enumerate(self._pos):
                if lit_var(po) == old:
                    self._pos[index] = new ^ (po & 1)
                    self._po_refs[old] -= 1
                    self._po_refs[new_var] += 1
            # Redirect fanout AND nodes.  Iterate in sorted order: raw set
            # order depends on the set's insertion/deletion history, which a
            # synthesis-cache snapshot (clone()) cannot reproduce — the cascade
            # below is order-sensitive through strash merges, so a canonical
            # order is what keeps cache-resumed synthesis bit-identical to
            # uncached on any circuit.
            for fan in sorted(self._fanouts[old]):
                if self._dead[fan]:
                    self._fanouts[old].discard(fan)
                    continue
                folded = self._substitute_fanin(fan, old, new)
                if folded is not None:
                    # _substitute_fanin already holds a protection reference
                    # on the folded literal's node for this entry.
                    worklist.append((fan, folded))
            forward[old] = new
            # Guard every forward target until the cascade fully drains, so
            # later resolutions never land on a reclaimed node.
            guards.append(new_var)
            self._po_refs[new_var] += 1
            replaced.append(old)
        for guard in guards:
            self._po_refs[guard] -= 1
        for old in replaced:
            self._delete_if_dead(old)
        for guard in guards:
            self._delete_if_dead(guard)

    def _substitute_fanin(self, fan: int, old_var: int, new_lit: int) -> Optional[int]:
        """Replace ``old_var`` inside node ``fan``'s fanins.

        Returns a literal when the updated node folds to a constant, a fanin,
        or an existing strash entry — in that case ``fan`` is detached and the
        caller must replace it by the returned literal.  Returns ``None``
        when ``fan`` stays a proper AND node.
        """
        f0, f1 = self._fanin0[fan], self._fanin1[fan]
        self._strash.pop((f0, f1), None)
        for lit in (f0, f1):
            self._fanouts[lit_var(lit)].discard(fan)
        nf0 = (new_lit ^ (f0 & 1)) if lit_var(f0) == old_var else f0
        nf1 = (new_lit ^ (f1 & 1)) if lit_var(f1) == old_var else f1
        nf0, nf1 = self._normalize(nf0, nf1)
        folded = self.fold_and(nf0, nf1)
        if folded is None:
            existing = self._strash.get((nf0, nf1))
            if existing is not None and existing != fan:
                folded = make_lit(existing)
        if folded is not None:
            self._fanin0[fan] = _FANIN_DETACHED
            self._fanin1[fan] = _FANIN_DETACHED
            # Protect the fold target *before* reclaiming fan's former
            # fanins: the target may be one of those fanins (e.g.
            # AND(1, y) -> y) and must survive until the caller's worklist
            # entry consumes this protection reference.
            self._po_refs[lit_var(folded)] += 1
            for lit in (f0, f1):
                self._delete_if_dead(lit_var(lit))
            return folded
        self._fanin0[fan] = nf0
        self._fanin1[fan] = nf1
        self._strash[(nf0, nf1)] = fan
        self._fanouts[lit_var(nf0)].add(fan)
        self._fanouts[lit_var(nf1)].add(fan)
        return None

    def _delete_if_dead(self, var: int) -> None:
        """Delete ``var`` if it has no readers, cascading to its fanins."""
        stack = [var]
        while stack:
            v = stack.pop()
            if (
                v == CONST_VAR
                or self._is_pi[v]
                or self._dead[v]
                or self._fanouts[v]
                or self._po_refs[v] > 0
            ):
                continue
            f0, f1 = self._fanin0[v], self._fanin1[v]
            self._dead[v] = True
            if f0 >= 0:
                self._strash.pop((f0, f1), None)
                for lit in (f0, f1):
                    child = lit_var(lit)
                    self._fanouts[child].discard(v)
                    stack.append(child)
            self._fanin0[v] = _FANIN_DEAD
            self._fanin1[v] = _FANIN_DEAD

    def recycle(self, lit: int) -> None:
        """Reclaim the cone of ``lit`` if nothing references it.

        Used by optimization passes to clean up candidate structures that
        were built speculatively and then rejected.
        """
        self._delete_if_dead(lit_var(lit))

    # -- rebuilding ---------------------------------------------------------------

    def compact(self) -> "Aig":
        """Copy the live PO cone into a fresh AIG (drops dangling logic)."""
        out = Aig(self.name)
        mapping: dict[int, int] = {CONST_VAR: 0}
        for var, name in zip(self._pis, self._pi_names):
            mapping[var] = out.add_pi(name)
        for var in self.topological_ands(roots=self._pos):
            f0, f1 = self._fanin0[var], self._fanin1[var]
            l0 = mapping[lit_var(f0)] ^ (f0 & 1)
            l1 = mapping[lit_var(f1)] ^ (f1 & 1)
            mapping[var] = out.add_and(l0, l1)
        for po, name in zip(self._pos, self._po_names):
            out.add_po(mapping[lit_var(po)] ^ (po & 1), name)
        return out

    def copy(self) -> "Aig":
        return self.compact()

    def clone(self) -> "Aig":
        """Exact structural copy preserving variable ids, dead slots, the
        strash table and fanout sets (unlike :meth:`compact`, which renumbers
        into the live PO cone).

        In-place passes resumed on a clone behave exactly as they would have
        on the original — the property the synthesis cache
        (:mod:`repro.synth.cache`) relies on when it serves a stored state
        instead of recomputing it.  Fanout sets are rebuilt in sorted order
        so clones are deterministic regardless of the source set's history.
        """
        out = Aig.__new__(Aig)
        out.name = self.name
        out._fanin0 = list(self._fanin0)
        out._fanin1 = list(self._fanin1)
        out._fanouts = [set(sorted(s)) for s in self._fanouts]
        out._po_refs = list(self._po_refs)
        out._is_pi = list(self._is_pi)
        out._dead = list(self._dead)
        out._strash = dict(self._strash)
        out._pis = list(self._pis)
        out._pi_names = list(self._pi_names)
        out._pos = list(self._pos)
        out._po_names = list(self._po_names)
        return out

    def fingerprint(self) -> str:
        """SHA-256 of the exact structural state (ids included).

        Two AIGs with equal fingerprints are interchangeable as synthesis
        inputs: every deterministic transform produces the same result on
        both.  The synthesis cache (:mod:`repro.synth.cache`) keys its
        stored states and its ``(state, step)`` transitions on it.  The
        strash table, fanout sets and PO reference counts are left out
        because they are derived from the hashed fields; :meth:`check`
        verifies that they are.
        """
        import hashlib

        payload = (
            self._fanin0,
            self._fanin1,
            self._is_pi,
            self._dead,
            self._pis,
            self._pi_names,
            self._pos,
            self._po_names,
        )
        return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()

    def check(self) -> None:
        """Validate internal invariants; raises :class:`AigError` on failure.

        Besides the node structure this checks the state that
        :meth:`fingerprint` leaves out, as it must be between operations:
        the strash table holds exactly the live ANDs, every fanout set is
        exactly the live readers of its node, and the PO reference counts
        match the primary outputs.
        """
        readers: list[set[int]] = [set() for _ in range(self.num_vars)]
        live_ands = 0
        for var in range(self.num_vars):
            if self._dead[var]:
                continue
            if self.is_and(var):
                live_ands += 1
                f0, f1 = self._fanin0[var], self._fanin1[var]
                if f0 > f1:
                    raise AigError(f"node {var} fanins not normalized")
                if self.fold_and(f0, f1) is not None:
                    raise AigError(f"node {var} should have been folded")
                if self._strash.get((f0, f1)) != var:
                    raise AigError(f"node {var} missing from strash table")
                for lit in (f0, f1):
                    child = lit_var(lit)
                    if self._dead[child]:
                        raise AigError(f"node {var} reads dead node {child}")
                    readers[child].add(var)
        if len(self._strash) != live_ands:
            raise AigError(
                f"strash table has {len(self._strash)} entries for "
                f"{live_ands} live AND nodes"
            )
        for var in range(self.num_vars):
            if self._fanouts[var] != readers[var]:
                raise AigError(
                    f"fanout set of {var} is {sorted(self._fanouts[var])}, "
                    f"live readers are {sorted(readers[var])}"
                )
        po_refs = [0] * self.num_vars
        for po in self._pos:
            if self._dead[lit_var(po)]:
                raise AigError("primary output references a dead node")
            po_refs[lit_var(po)] += 1
        if self._po_refs != po_refs:
            raise AigError("PO reference counts do not match the outputs")
        self.topological_ands()  # raises on cycles

    def stats(self) -> dict[str, int]:
        return {
            "pis": self.num_pis,
            "pos": self.num_pos,
            "ands": self.num_ands(),
            "depth": self.depth(),
        }

    def __repr__(self) -> str:
        return (
            f"Aig(name={self.name!r}, pis={self.num_pis}, pos={self.num_pos}, "
            f"ands={self.num_ands()})"
        )
