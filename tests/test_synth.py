"""Tests for synthesis passes: equivalence, gains, recipes, the engine.

Every transformation is checked for functional equivalence on random and
benchmark circuits (exhaustive simulation when input counts allow), plus
pass-specific properties: rewrite/refactor/resub never increase node count,
balance never increases depth on tree-like logic.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import aig_from_netlist
from repro.aig.cuts import CutManager, reconvergence_window
from repro.aig.simulate import cut_truth_table, functionally_equal
from repro.errors import SynthesisError
from repro.sat import check_equivalence
from repro.synth import RESYN2, Recipe, apply_recipe, apply_transform, random_recipe
from repro.synth.balance import balance
from repro.synth.refactor import refactor_pass
from repro.synth.resub import resub_pass
from repro.synth.rewrite import rewrite_pass
from tests.conftest import build_random_netlist


def random_aig(seed, num_gates=25):
    return aig_from_netlist(build_random_netlist(seed=seed, num_gates=num_gates))


class TestCuts:
    def test_trivial_cut_first(self, c432_quick):
        aig = aig_from_netlist(c432_quick)
        manager = CutManager(aig)
        for var in aig.topological_ands()[:10]:
            cuts = manager.cuts(var)
            assert cuts[0].leaves == (var,)

    def test_cut_sizes_bounded(self, c432_quick):
        aig = aig_from_netlist(c432_quick)
        manager = CutManager(aig, k=4)
        for var in aig.topological_ands():
            for cut in manager.cuts(var):
                assert len(cut.leaves) <= 4

    def test_cut_truth_table_consistency(self, c432_quick):
        aig = aig_from_netlist(c432_quick)
        manager = CutManager(aig)
        for var in aig.topological_ands()[:20]:
            for cut in manager.cuts(var)[1:3]:
                table = cut_truth_table(aig, var << 1, cut.leaves)
                assert 0 <= table.bits < (1 << (1 << len(cut.leaves)))
                assert table.bits == cut.bits

    def test_reconvergence_cut_bounds(self, c880_quick):
        aig = aig_from_netlist(c880_quick)
        for var in aig.topological_ands()[:30]:
            cut, cone = reconvergence_window(aig, var, max_leaves=8)
            assert 1 <= len(cut) <= 8
            assert var not in cut
            assert cone[-1] == var


class TestPassEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_rewrite_preserves_function(self, seed):
        aig = random_aig(seed)
        reference = aig.compact()
        rewrite_pass(aig)
        aig.check()
        assert functionally_equal(reference, aig.compact())

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_rewrite_z_preserves_function(self, seed):
        aig = random_aig(seed + 50)
        reference = aig.compact()
        rewrite_pass(aig, zero_cost=True)
        aig.check()
        assert functionally_equal(reference, aig.compact())

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_refactor_preserves_function(self, seed):
        aig = random_aig(seed + 100)
        reference = aig.compact()
        refactor_pass(aig)
        aig.check()
        assert functionally_equal(reference, aig.compact())

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_resub_preserves_function(self, seed):
        aig = random_aig(seed + 150)
        reference = aig.compact()
        resub_pass(aig)
        aig.check()
        assert functionally_equal(reference, aig.compact())

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_balance_preserves_function(self, seed):
        aig = random_aig(seed + 200)
        balanced = balance(aig)
        balanced.check()
        assert functionally_equal(aig, balanced)

    def test_benchmark_resyn2_equivalence(self, c432_quick):
        aig = aig_from_netlist(c432_quick)
        optimized = apply_recipe(aig, RESYN2)
        optimized.check()
        # c432-quick has too many inputs for exhaustive simulation, so the
        # sampled check alone is probabilistic — the SAT miter makes it a
        # proof.
        assert functionally_equal(aig, optimized)
        assert check_equivalence(aig, optimized).equivalent


class TestPassGains:
    def test_rewrite_never_increases_nodes(self):
        for seed in range(5):
            aig = random_aig(seed, num_gates=40)
            before = aig.num_ands()
            rewrite_pass(aig)
            assert aig.num_ands() <= before

    def test_refactor_never_increases_nodes(self):
        for seed in range(4):
            aig = random_aig(seed + 10, num_gates=40)
            before = aig.num_ands()
            refactor_pass(aig)
            assert aig.num_ands() <= before

    def test_resub_never_increases_nodes(self):
        for seed in range(4):
            aig = random_aig(seed + 20, num_gates=40)
            before = aig.num_ands()
            resub_pass(aig)
            assert aig.num_ands() <= before

    def test_rewrite_reduces_redundant_logic(self):
        # Build a netlist with obvious redundancy: y = (a&b) | (a&b).
        from repro.aig import Aig

        aig = Aig()
        a = aig.add_pi("a")
        b = aig.add_pi("b")
        c = aig.add_pi("c")
        ab = aig.add_and(a, b)
        ab_or_c = aig.add_or(ab, c)
        again = aig.add_or(ab, c)
        assert ab_or_c == again  # strash already shares this
        # Double negation through structure: ~(~x & ~x) = x
        double = aig.add_and(ab_or_c, ab_or_c)
        assert double == ab_or_c

    def test_balance_reduces_depth_on_chains(self):
        from repro.aig import Aig

        aig = Aig()
        pis = [aig.add_pi(f"p{i}") for i in range(8)]
        acc = pis[0]
        for lit in pis[1:]:
            acc = aig.add_and(acc, lit)  # depth-7 chain
        aig.add_po(acc, "y")
        assert aig.depth() == 7
        balanced = balance(aig)
        assert balanced.depth() == 3
        assert functionally_equal(aig, balanced)

    def test_resyn2_reduces_benchmark(self, c880_quick):
        aig = aig_from_netlist(c880_quick)
        optimized = apply_recipe(aig, RESYN2)
        assert optimized.num_ands() <= aig.num_ands()


class TestRecipe:
    def test_resyn2_is_ten_steps(self):
        assert len(RESYN2) == 10

    def test_parse_short_names(self):
        recipe = Recipe.parse("b; rw; rwz; rf; rfz; rs; rsz")
        assert recipe.steps == (
            "balance", "rewrite", "rewrite -z", "refactor",
            "refactor -z", "resub", "resub -z",
        )

    def test_parse_rejects_unknown(self):
        with pytest.raises(SynthesisError):
            Recipe.parse("b; frobnicate")

    def test_unknown_step_rejected(self):
        with pytest.raises(SynthesisError):
            Recipe(("madness",))

    def test_short_roundtrip(self):
        assert Recipe.parse(RESYN2.short()).steps == RESYN2.steps

    def test_with_step(self):
        modified = RESYN2.with_step(0, "resub")
        assert modified.steps[0] == "resub"
        assert RESYN2.steps[0] == "balance"
        with pytest.raises(SynthesisError):
            RESYN2.with_step(99, "resub")

    def test_random_recipe_deterministic(self):
        assert random_recipe(10, seed=5).steps == random_recipe(10, seed=5).steps
        assert random_recipe(10, seed=5).steps != random_recipe(10, seed=6).steps

    def test_apply_transform_unknown(self, c432_quick):
        aig = aig_from_netlist(c432_quick)
        with pytest.raises(SynthesisError):
            apply_transform(aig, "nonsense")


class TestEngineProperty:
    @given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=8, deadline=None)
    def test_random_recipe_equivalence(self, circuit_seed, recipe_seed):
        aig = random_aig(circuit_seed, num_gates=30)
        recipe = random_recipe(5, seed=recipe_seed)
        optimized = apply_recipe(aig, recipe)
        optimized.check()
        assert functionally_equal(aig, optimized)
        assert check_equivalence(aig, optimized).equivalent

    def test_recipe_copy_semantics(self, c432_quick):
        aig = aig_from_netlist(c432_quick)
        before = aig.num_ands()
        apply_recipe(aig, RESYN2, copy=True)
        assert aig.num_ands() == before
