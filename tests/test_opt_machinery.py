"""Deeper tests of the optimization machinery: programs, gains, stress.

These cover the parts of rewrite/refactor that are easy to get subtly wrong:
compiling factored forms into AND programs, the per-cut evaluator's node
counting vs. real construction, MFFC-based gain accounting, the structure
cache, and long random pass sequences as a structural stress test.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import Aig, aig_from_netlist, lit_var
from repro.aig.simulate import cut_truth_table, functionally_equal
from repro.obs.metrics import REGISTRY
from repro.synth import apply_transform, random_recipe
from repro.synth.factor import FNode
from repro.synth import library
from repro.synth.library import (
    Candidate,
    refactor_candidates,
    rewrite_candidates,
)
from repro.synth.opt_common import NO_GAIN, CutEvaluator, leaf_lits
from repro.synth import refactor as refactor_module
from repro.synth import rewrite as rewrite_module
from repro.synth.refactor import refactor_pass
from repro.synth.resub import resub_pass
from repro.synth.rewrite import rewrite_pass
from repro.synth.structure import compile_fnode, realize
from repro.utils.rng import make_rng
from repro.utils.truth import TruthTable
from tests.conftest import build_random_netlist
from tests.test_cut_evaluator import (
    ReferenceEvaluator,
    _random_tree,
    reference_dry_run,
)


def _score(aig, root, mffc, program, handles, limit=None):
    """The evaluator's ``(gain, -cost, candidate, needs_cycle_check)`` for
    ``program`` alone, or ``None`` when it needs more than ``limit`` new
    nodes (no limit by default).  The pass's ``need`` sets the limit to
    ``|MFFC| - need``."""
    need = NO_GAIN if limit is None else len(mffc) - limit
    evaluator = CutEvaluator(aig, need, tie_step=0)
    won = evaluator.best(root, mffc, [Candidate(program, False, 0)], handles)
    assert evaluator.pruned == (won is None)
    return won


def _dry_run(aig, program, handles, limit=None):
    """``(added, reused)`` of ``program`` at a site that replaces nothing:
    with an empty MFFC the gain is minus the nodes added, and every hit
    lies outside the MFFC, so the cycle flag says whether a node was
    reused.  ``None`` past ``limit``."""
    won = _score(aig, -1, set(), program, handles, limit)
    return None if won is None else (-won[0], won[3])


def _tree_table(node: FNode, nvars: int) -> TruthTable:
    """The function a factored tree denotes, evaluated directly."""
    if node.kind == "const":
        return TruthTable.const(node.value, nvars)
    if node.kind == "lit":
        table = TruthTable.var(node.var, nvars)
        return ~table if node.negated else table
    tables = [_tree_table(child, nvars) for child in node.children]
    result = tables[0]
    for table in tables[1:]:
        if node.kind == "and":
            result = result & table
        elif node.kind == "or":
            result = result | table
        else:
            result = result ^ table
    return result


def _site_with_structure():
    """Four PIs plus some existing logic, so strash hits occur."""
    aig = Aig()
    leaves = [aig.add_pi(f"p{i}") for i in range(4)]
    aig.add_po(aig.add_and(leaves[0], leaves[1]), "pre")
    aig.add_po(aig.add_and(leaves[2], leaves[3] ^ 1), "pre2")
    return aig, leaves


class TestHandleEncoding:
    """``h ^ 1`` complements real literals and ghost handles alike."""

    def test_real_handles(self):
        aig = Aig()
        leaf = aig.add_pi("a")
        program = compile_fnode(FNode.lit(0, True), 1)
        assert realize(aig, program, [leaf]) == leaf ^ 1
        assert realize(aig, program, [leaf ^ 1]) == leaf

    def test_ghost_handles(self):
        ghost = ~(2 * 3)  # ghost 3, phase 0
        assert ghost < 0
        assert ghost ^ 1 == ~(2 * 3 + 1)
        assert (ghost ^ 1) ^ 1 == ghost
        # XOR feeds complemented ghosts into its third AND: three new nodes.
        aig = Aig()
        leaves = [aig.add_pi("a"), aig.add_pi("b")]
        xor = FNode.xor([FNode.lit(0), FNode.lit(1)])
        assert _dry_run(aig, compile_fnode(xor, 2), leaves) == (3, False)


class TestCompile:
    def test_constants_and_literals_compile_to_no_ops(self):
        assert compile_fnode(FNode.const(False), 3) == ((), 0)
        assert compile_fnode(FNode.const(True), 3) == ((), 1)
        assert compile_fnode(FNode.lit(2, True), 3) == ((), 2 * 3 + 1)

    def test_quads_decode_the_ops(self):
        xor = FNode.xor([FNode.lit(0), FNode.lit(1, True)])
        program = compile_fnode(xor, 2)
        assert len(program.quads) == len(program.ops) // 2 == 3
        for (a, b), quad in zip(
            zip(program.ops[::2], program.ops[1::2]), program.quads
        ):
            assert quad == (a >> 1, a & 1, b >> 1, b & 1)


class TestDryRunMatchesReal:
    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_added_count_matches(self, seed):
        """Dry-run `added` must equal the real builder's node delta.

        Leaves are bound to PIs, their complements, repeats and constants,
        so the runtime folding rules all fire.
        """
        rng = make_rng(seed)
        aig, pis = _site_with_structure()
        choices = pis + [pi ^ 1 for pi in pis] + [0, 1]
        leaves = [choices[int(rng.integers(len(choices)))] for _ in range(4)]
        program = compile_fnode(_random_tree(rng, 4, depth=3), 4)
        added, reused = _dry_run(aig, program, leaves)
        reference_added, hits = reference_dry_run(aig, program, leaves)
        assert (added, reused) == (reference_added, bool(hits))
        before = aig.num_ands()
        existing = set(aig.live_vars())
        realize(aig, program, leaves)
        assert added == aig.num_ands() - before
        assert hits <= existing

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_limit_stops_exactly_past_the_bound(self, seed):
        """A bounded dry-run gives up exactly when the unbounded one
        needs more than ``limit`` new nodes, and agrees with it otherwise."""
        rng = make_rng(seed)
        aig, pis = _site_with_structure()
        choices = pis + [pi ^ 1 for pi in pis] + [0, 1]
        leaves = [choices[int(rng.integers(len(choices)))] for _ in range(4)]
        program = compile_fnode(_random_tree(rng, 4, depth=3), 4)
        unbounded = _dry_run(aig, program, leaves)
        added = unbounded[0]
        for limit in range(-2, added + 3):
            bounded = _dry_run(aig, program, leaves, limit)
            if added > limit:
                assert bounded is None
            else:
                assert bounded == unbounded

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_realized_program_computes_the_tree(self, seed):
        """The realized cut function equals the tree's own function."""
        rng = make_rng(seed)
        tree = _random_tree(rng, 4, depth=3)
        aig, leaves = _site_with_structure()
        out = realize(aig, compile_fnode(tree, 4), leaves)
        cut = [lit_var(leaf) for leaf in leaves]
        assert cut_truth_table(aig, out, cut) == _tree_table(tree, 4)


def _wasteful_and3():
    """a & b & c built as ((a&b)&(a&c))&(b&c): 5-node MFFC."""
    aig = Aig()
    a, b, c = (aig.add_pi(name) for name in "abc")
    top = aig.add_and(aig.add_and(a, b), aig.add_and(a, c))
    root = aig.add_and(top, aig.add_and(b, c))
    aig.add_po(root, "y")
    return aig, root, (lit_var(a), lit_var(b), lit_var(c))


def _partial_and3():
    """(a & b) & c: a 2-node MFFC the candidate can partly reuse."""
    aig = Aig()
    a, b, c = (aig.add_pi(name) for name in "abc")
    root = aig.add_and(aig.add_and(a, b), c)
    aig.add_po(root, "y")
    return aig, root, (lit_var(a), lit_var(b), lit_var(c))


def _shared_fanin():
    """(a & b) & (b & c) where a & b also drives a PO (outside the MFFC)."""
    aig = Aig()
    a, b, c = (aig.add_pi(name) for name in "abc")
    ab = aig.add_and(a, b)
    root = aig.add_and(ab, aig.add_and(b, c))
    aig.add_po(root, "y")
    aig.add_po(ab, "z")
    return aig, root, (lit_var(a), lit_var(b), lit_var(c))


_AND3 = FNode.and_([FNode.lit(0), FNode.lit(1), FNode.lit(2)])
_NOR3N = FNode.or_([FNode.lit(0, True), FNode.lit(1, True), FNode.lit(2, True)])
_XOR_AND = FNode.xor([FNode.lit(2), FNode.and_([FNode.lit(0), FNode.lit(1)])])
_AND_C_AB = FNode.and_([FNode.lit(2), FNode.lit(0), FNode.lit(1)])


class TestEvaluateCandidate:
    # (gain, added, needs_cycle_check) per hand-built site and candidate,
    # as the tree-walking dry-run builder scored them.  ``added`` is the
    # smallest limit the candidate survives.
    @pytest.mark.parametrize(
        "site, tree, expected",
        [
            (_wasteful_and3, _AND3, (3, 1, False)),
            (_wasteful_and3, _NOR3N, (3, 1, False)),
            (_wasteful_and3, _XOR_AND, (1, 3, False)),
            (_wasteful_and3, _AND_C_AB, (3, 1, False)),
            (_partial_and3, _AND3, (0, 0, False)),
            (_partial_and3, _NOR3N, (0, 0, False)),
            (_partial_and3, _XOR_AND, (-2, 3, False)),
            (_partial_and3, _AND_C_AB, (0, 2, False)),
            (_shared_fanin, _AND3, (1, 1, True)),
            (_shared_fanin, _NOR3N, (1, 1, True)),
            (_shared_fanin, _XOR_AND, (-1, 3, True)),
            (_shared_fanin, _AND_C_AB, (0, 2, False)),
        ],
    )
    def test_gains_on_hand_built_sites(self, site, tree, expected):
        aig, root, cut = site()
        mffc = aig.mffc(lit_var(root), cut)
        program = compile_fnode(tree, 3)
        gain, _, _, needs_cycle_check = _score(
            aig, lit_var(root), mffc, program, leaf_lits(cut)
        )
        added = next(
            limit for limit in range(8)
            if _score(aig, lit_var(root), mffc, program, leaf_lits(cut), limit)
        )
        assert (gain, added, needs_cycle_check) == expected

    def test_positive_gain_for_simplification(self):
        # The candidate AND-tree reuses a&b and adds one node for the 5
        # wasted ones: gain 3.
        aig, root, cut = _wasteful_and3()
        mffc = aig.mffc(lit_var(root), cut)
        won = _score(
            aig, lit_var(root), mffc, compile_fnode(_AND3, 3), leaf_lits(cut)
        )
        assert won[0] == 3

    def test_bounded_evaluation_gives_up_past_the_limit(self):
        aig, root, cut = _wasteful_and3()
        mffc = aig.mffc(lit_var(root), cut)
        program = compile_fnode(_XOR_AND, 3)
        full = _score(aig, lit_var(root), mffc, program, leaf_lits(cut))
        added, _ = reference_dry_run(aig, program, leaf_lits(cut))
        assert added > 0
        at_limit = _score(
            aig, lit_var(root), mffc, program, leaf_lits(cut), added
        )
        assert at_limit == full
        assert _score(
            aig, lit_var(root), mffc, program, leaf_lits(cut), added - 1
        ) is None

    def test_hits_inside_mffc_reduce_savings(self):
        aig, root, cut = _partial_and3()
        mffc = aig.mffc(lit_var(root), cut)
        assert len(mffc) == 2
        # The candidate reuses (a&b) and then the root itself: both MFFC
        # nodes survive, so nothing is saved and nothing is added.
        program = compile_fnode(_AND3, 3)
        assert reference_dry_run(aig, program, leaf_lits(cut)) == (0, mffc)
        won = _score(aig, lit_var(root), mffc, program, leaf_lits(cut))
        assert (won[0], won[3]) == (0, False)


class TestStructureCache:
    @pytest.mark.parametrize("nvars", [3, 4, 5, 6])
    def test_cached_programs_compute_their_table(self, nvars):
        rng = make_rng(nvars)
        for _ in range(20):
            bits = int.from_bytes(rng.bytes(8), "little")
            table = TruthTable(bits & ((1 << (1 << nvars)) - 1), nvars)
            aig = Aig()
            leaves = [aig.add_pi() for _ in range(nvars)]
            cut = [lit_var(leaf) for leaf in leaves]
            for cand in refactor_candidates(table):
                out = realize(aig, cand.program, leaves) ^ cand.output_negated
                assert cut_truth_table(aig, out, cut) == table
            if nvars <= 4:
                candidates, transform = rewrite_candidates(table)
                canonical = transform.apply(table)
                for cand in candidates:
                    out = realize(aig, cand.program, leaves)
                    out ^= cand.output_negated
                    assert cut_truth_table(aig, out, cut) == canonical

    def test_bounded_cache_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(library, "STRUCT_CACHE_SIZE", 2)
        library.clear_structure_cache()
        t1, t2, t3 = (TruthTable(bits, 3) for bits in (0x96, 0xE8, 0x1E))

        def hit(table) -> bool:
            before = REGISTRY.counters().get("synth.struct_cache.hits", 0)
            refactor_candidates(table)
            after = REGISTRY.counters().get("synth.struct_cache.hits", 0)
            return after > before

        assert [hit(t1), hit(t2), hit(t1)] == [False, False, True]
        assert not hit(t3)  # evicts t2, the least recently used
        assert [hit(t1), hit(t2)] == [True, False]
        library.clear_structure_cache()

    def test_second_pass_over_a_clone_only_hits(self, c432_quick):
        aig = aig_from_netlist(c432_quick)
        refactor_pass(aig.clone())
        before = REGISTRY.counters()
        refactor_pass(aig.clone())
        after = REGISTRY.counters()
        hits = after.get("synth.struct_cache.hits", 0) - before.get(
            "synth.struct_cache.hits", 0
        )
        misses = after.get("synth.struct_cache.misses", 0) - before.get(
            "synth.struct_cache.misses", 0
        )
        assert hits > 0
        assert misses == 0


class TestRawTableMemo:
    """``rewrite`` resolves each raw cut table once through a bounded memo."""

    @staticmethod
    def _pass_counts(aig, monkeypatch):
        """Hit/miss deltas of one rewrite pass, and its non-trivial cuts."""
        trivial = 0
        real = rewrite_module.constant_or_leaf_lit

        def counting(bits, leaves):
            nonlocal trivial
            lit = real(bits, leaves)
            trivial += lit is not None
            return lit

        with monkeypatch.context() as patch:
            patch.setattr(rewrite_module, "constant_or_leaf_lit", counting)
            before = REGISTRY.counters()
            rewrite_pass(aig)
            after = REGISTRY.counters()

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        return (
            delta("synth.struct_cache.hits"),
            delta("synth.struct_cache.misses"),
            delta("synth.cuts") - trivial,
        )

    def test_cold_then_warm_pass_counts_one_lookup_per_cut(
        self, locked_c432, monkeypatch
    ):
        aig = aig_from_netlist(locked_c432.netlist)
        library.clear_structure_cache()
        assert not library._RAW_MEMO
        hits, misses, looked_up = self._pass_counts(aig.clone(), monkeypatch)
        assert misses > 0
        assert hits + misses == looked_up
        hits, misses, looked_up = self._pass_counts(aig.clone(), monkeypatch)
        assert misses == 0
        assert hits == looked_up > 0
        library.clear_structure_cache()
        assert not library._RAW_MEMO

    def test_memo_stays_within_its_bound(self, locked_c432, monkeypatch):
        monkeypatch.setattr(library, "RAW_MEMO_SIZE", 3)
        library.clear_structure_cache()
        t1, t2, t3 = (0x6, 2), (0x8, 2), (0x96, 3)

        def memoized(table) -> bool:
            present = table in library._RAW_MEMO
            library.rewrite_entry(*table)
            return present

        assert [memoized(t) for t in (t1, t2, t1)] == [False, False, True]
        assert not memoized(t3)
        assert not memoized((0xE8, 3))  # evicts t2, the least recently used
        assert [memoized(t1), memoized(t2)] == [True, False]
        rewrite_pass(aig_from_netlist(locked_c432.netlist))
        assert len(library._RAW_MEMO) == 3
        library.clear_structure_cache()

    def test_entry_binds_leaves_as_the_transform_does(self):
        for bits in (0x6, 0x8, 0x96, 0xE8, 0x1E, 0xCA, 0x6996, 0x8000, 0x1234):
            nvars = 2 if bits < 0x10 else 3 if bits < 0x100 else 4
            entry = library.rewrite_entry(bits, nvars)
            candidates, transform = rewrite_candidates(TruthTable(bits, nvars))
            assert entry.candidates == candidates
            assert entry.output_negation == transform.output_negation
            leaves = list(range(10, 10 + nvars))
            assert [
                (leaves[index], bool(negated))
                for index, negated in zip(entry.perm, entry.negations)
            ] == transform.leaf_order(leaves)


class TestBoundedPasses:
    """Bounded dry-runs commit exactly what unbounded ones would: the pass
    runs once on :class:`CutEvaluator` and once on the reference evaluator
    with every candidate dry-run in full."""

    @staticmethod
    def _fingerprint(aig, pass_fn, zero_cost):
        aig = aig.clone()
        pass_fn(aig, zero_cost=zero_cost)
        return aig.fingerprint()

    # Random circuit 47 has a rewrite site where a later candidate of equal
    # gain wins on literal cost, so a floor of best gain + 1 would differ.
    @pytest.mark.parametrize("seed", [3, 11, 47])
    @pytest.mark.parametrize("zero_cost", [False, True])
    @pytest.mark.parametrize(
        "module,pass_fn",
        [(rewrite_module, rewrite_pass), (refactor_module, refactor_pass)],
        ids=["rewrite", "refactor"],
    )
    def test_same_result_as_unbounded(
        self, monkeypatch, module, pass_fn, zero_cost, seed
    ):
        aig = aig_from_netlist(
            build_random_netlist(seed=seed, num_inputs=6, num_gates=40)
        )
        bounded = self._fingerprint(aig, pass_fn, zero_cost)

        def unbounded(aig, need, tie_step):
            return ReferenceEvaluator(aig, need, tie_step, bounded=False)

        monkeypatch.setattr(module, "CutEvaluator", unbounded)
        assert self._fingerprint(aig, pass_fn, zero_cost) == bounded


class TestPassCounters:
    def test_rewrite_prunes_candidates_below_the_floor(self, locked_c432):
        aig = aig_from_netlist(locked_c432.netlist)
        before = REGISTRY.counters()
        rewrite_pass(aig)
        after = REGISTRY.counters()

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        assert delta("synth.cuts") > 0
        pruned = delta("synth.candidates_pruned")
        assert 0 < pruned <= delta("synth.candidates_evaluated")

    def test_resub_counts_windows_and_pair_ands(self, locked_c432):
        aig = aig_from_netlist(locked_c432.netlist)
        ands = aig.num_ands()
        before = REGISTRY.counters()
        resub_pass(aig, zero_cost=True)
        after = REGISTRY.counters()

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        assert 0 < delta("synth.resub_windows") <= ands
        assert delta("synth.resub_pair_ands") > 0


class TestStress:
    @given(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=6, deadline=None)
    def test_long_random_pass_sequences(self, circuit_seed, recipe_seed):
        """Ten random passes in sequence keep the AIG valid and equivalent."""
        netlist = build_random_netlist(
            seed=circuit_seed, num_inputs=7, num_gates=35
        )
        aig = aig_from_netlist(netlist)
        reference = aig.compact()
        recipe = random_recipe(10, seed=recipe_seed)
        current = aig
        for step in recipe:
            current = apply_transform(current, step)
            current.check()
        assert functionally_equal(reference, current.compact())

    def test_idempotent_convergence(self, c432_quick):
        """Repeating rewrite to fixpoint terminates and stays equivalent."""
        aig = aig_from_netlist(c432_quick)
        reference = aig.compact()
        from repro.synth.rewrite import rewrite_pass

        sizes = [aig.num_ands()]
        for _ in range(6):
            rewrite_pass(aig)
            sizes.append(aig.num_ands())
            if sizes[-1] == sizes[-2]:
                break
        assert sizes[-1] <= sizes[0]
        assert functionally_equal(reference, aig.compact())
