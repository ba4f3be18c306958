"""Tests for the ALMOST core: SA, proxy models, adversarial training, defense."""

import pytest

from repro.core import (
    AlmostConfig,
    AlmostDefense,
    ProxyConfig,
    SearchConfig,
    SearchProblem,
    run_search,
    train_adversarial_attack,
)
from repro.core.adversarial import AdversarialConfig
from repro.core.proxy import (
    build_random_proxy,
    build_resyn2_proxy,
)
from repro.locking import lock_rll
from repro.synth import RESYN2, Recipe, random_recipe


class TestSimulatedAnnealing:
    def test_minimizes_quadratic(self):
        result = run_search(
            SearchProblem(
                initial=10.0, neighbour=lambda x, rng: x + rng.normal(0, 1.0)
            ),
            lambda xs: [(x - 3.0) ** 2 for x in xs],
            strategy="sa",
            config=SearchConfig(iterations=300, t_initial=5.0, seed=1),
        )
        assert abs(result.best_state - 3.0) < 0.5

    def test_trace_structure(self):
        result = run_search(
            SearchProblem(
                initial=0.0, neighbour=lambda x, rng: x + rng.normal()
            ),
            lambda xs: [abs(x) for x in xs],
            strategy="sa",
            config=SearchConfig(iterations=10, seed=2),
            trace_fn=lambda state, energy: {"state": state},
        )
        assert len(result.trace) == 11  # initial + 10 iterations
        assert {"iteration", "energy", "best_energy", "state"} <= set(
            result.trace[0]
        )

    def test_stop_energy_short_circuits(self):
        result = run_search(
            SearchProblem(initial=100.0, neighbour=lambda x, rng: x / 2),
            lambda xs: [abs(x) for x in xs],
            strategy="sa",
            config=SearchConfig(iterations=100, seed=3),
            stop_energy=1.0,
        )
        assert len(result.trace) < 101
        assert result.best_energy <= 1.0

    def test_deterministic(self):
        def run():
            return run_search(
                SearchProblem(
                    initial=5.0, neighbour=lambda x, rng: x + rng.normal()
                ),
                lambda xs: [x * x for x in xs],
                strategy="sa",
                config=SearchConfig(iterations=50, seed=9),
            ).best_state

        assert run() == run()

    def test_accepts_worse_moves_at_high_temperature(self):
        # With huge T, the walk should wander to worse states sometimes.
        states = []
        run_search(
            SearchProblem(initial=0.0, neighbour=lambda x, rng: x + 1.0),
            lambda xs: [abs(x) for x in xs],
            strategy="sa",
            config=SearchConfig(iterations=20, t_initial=1e9, seed=4),
            trace_fn=lambda s, e: states.append(s) or {},
        )
        assert max(states) > 0.0


@pytest.fixture(scope="module")
def tiny_locked():
    from repro.circuits import load_iscas85

    netlist = load_iscas85("c432", scale="quick")
    return lock_rll(netlist, key_size=8, seed=33)


_TINY = ProxyConfig(
    num_samples=16, epochs=4, relock_key_bits=8, num_random_recipes=2, seed=3
)


class TestProxyModels:
    def test_resyn2_proxy(self, tiny_locked):
        proxy = build_resyn2_proxy(tiny_locked, _TINY)
        accuracy = proxy.predicted_accuracy(RESYN2)
        assert 0.0 <= accuracy <= 1.0
        assert proxy.name == "M_resyn2"

    def test_cache_hit(self, tiny_locked):
        proxy = build_resyn2_proxy(tiny_locked, _TINY)
        first = proxy.predicted_accuracy(RESYN2)
        assert proxy.predicted_accuracy(RESYN2) == first
        # Memo entries are keyed on the full step tuple, not the short
        # rendering (collision-proof by construction).
        assert RESYN2.steps in proxy._cache

    def test_random_proxy(self, tiny_locked):
        proxy = build_random_proxy(tiny_locked, _TINY)
        assert proxy.name == "M_random"
        recipes = [random_recipe(10, seed=i) for i in range(2)]
        accuracies = proxy.predicted_accuracy_batch(recipes)
        assert len(accuracies) == 2

    def test_adversarial_proxy(self, tiny_locked, monkeypatch):
        from repro.attacks.omla import OmlaAttack

        # Every relock round run once the model exists is an adversarial
        # one (the SA energy or the S_adv top-up).
        adversarial_graphs = []
        relock_round = OmlaAttack.relock_round

        def spy(attack, *args, **kwargs):
            graphs = relock_round(attack, *args, **kwargs)
            if attack.model is not None:
                adversarial_graphs.extend(graphs)
            return graphs

        monkeypatch.setattr(OmlaAttack, "relock_round", spy)
        proxy = train_adversarial_attack(
            tiny_locked,
            _TINY,
            AdversarialConfig(
                period=2, augment_samples=8, sa_iterations=2, max_rounds=1
            ),
        )
        assert proxy.name == "M*"
        accuracy = proxy.predicted_accuracy(RESYN2)
        assert 0.0 <= accuracy <= 1.0
        # Adversarial augmentation must have mined at least the budget.
        assert len(adversarial_graphs) >= 8

    def test_adversarial_synth_cache_is_exact(self, tiny_locked, monkeypatch):
        """The state-keyed synthesis cache must not change M* at all:
        same weights, same predictions, cached or not."""
        adv = AdversarialConfig(
            period=2, augment_samples=8, sa_iterations=2, max_rounds=1
        )
        cached = train_adversarial_attack(tiny_locked, _TINY, adv)
        monkeypatch.setattr(
            "repro.core.adversarial.SynthCache", lambda **kwargs: None
        )
        uncached = train_adversarial_attack(tiny_locked, _TINY, adv)
        for ours, theirs in zip(
            cached.attack.model.state_dict(),
            uncached.attack.model.state_dict(),
        ):
            assert (ours == theirs).all()
        for recipe in (RESYN2, random_recipe(10, seed=21)):
            assert cached.predicted_accuracy(
                recipe
            ) == uncached.predicted_accuracy(recipe)

    def test_adversarial_energy_reuses_relock_snapshots(self, tiny_locked):
        """Re-evaluating one (recipe, relock seed) resumes from the full
        snapshot — zero new steps — and reproduces the localities exactly."""
        from repro.attacks.omla import OmlaAttack
        from repro.core.proxy import _omla_config
        from repro.ml.train import evaluate_accuracy
        from repro.synth import SynthCache

        attack = OmlaAttack(RESYN2, _omla_config(_TINY, "cache-test"))
        data = attack.generate_training_data(
            tiny_locked.netlist, num_samples=8, recipes=[RESYN2], seed=1
        )
        attack.train(data)
        cache = SynthCache()
        recipe = random_recipe(10, seed=7)
        first_graphs = attack.relock_round(
            tiny_locked.netlist, recipe, 17, cache=cache
        )
        first_acc = evaluate_accuracy(attack.model, first_graphs)
        executed = cache.steps_executed
        assert executed == 10 and cache.steps_saved == 0
        second_graphs = attack.relock_round(
            tiny_locked.netlist, recipe, 17, cache=cache
        )
        second_acc = evaluate_accuracy(attack.model, second_graphs)
        assert cache.steps_executed == executed  # full-prefix resume
        assert cache.steps_saved == 10
        assert second_acc == first_acc
        assert len(second_graphs) == len(first_graphs)
        # A different relock seed is a different circuit: its own chain.
        attack.relock_round(tiny_locked.netlist, recipe, 18, cache=cache)
        assert cache.steps_executed == executed + 10


class TestAlmostDefense:
    def test_search_with_synthetic_evaluator(self):
        # Evaluator: accuracy = 0.5 + 0.05 * (#balance steps); SA should
        # remove balance steps to reach ~0.5.
        def evaluator(recipe: Recipe) -> float:
            return 0.5 + 0.05 * sum(1 for s in recipe if s == "balance")

        defense = AlmostDefense(
            evaluator,
            AlmostConfig(sa_iterations=60, seed=1, stop_margin=0.001),
        )
        result = defense.generate_recipe(initial=RESYN2)
        assert result.predicted_accuracy <= 0.55
        assert "balance" not in result.recipe.steps or (
            result.predicted_accuracy < 0.56
        )

    def test_trace_records_accuracy(self):
        defense = AlmostDefense(
            lambda recipe: 0.6, AlmostConfig(sa_iterations=5, seed=2)
        )
        result = defense.generate_recipe()
        trace = result.accuracy_trace()
        assert len(trace) == 6
        assert all(a == 0.6 for a in trace)

    def test_recipe_length_fixed(self):
        defense = AlmostDefense(
            lambda recipe: 0.5, AlmostConfig(recipe_length=10, sa_iterations=3, seed=4)
        )
        result = defense.generate_recipe()
        assert len(result.recipe) == 10

    def test_end_to_end_defense(self, tiny_locked):
        from repro.core.almost import defend

        proxy = build_resyn2_proxy(tiny_locked, _TINY)
        result, netlist, mapped = defend(
            tiny_locked, proxy, AlmostConfig(sa_iterations=3, seed=5)
        )
        # The shipped netlist keeps all key inputs and is a valid circuit.
        assert netlist.key_inputs == tiny_locked.netlist.key_inputs
        netlist.validate()
        assert mapped.num_cells() > 0
