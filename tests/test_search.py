"""Tests for the batched search engine, state-keyed cached synthesis, and
the vectorized proxy scorer."""

import math
import os

import pytest

from repro.aig.build import aig_from_netlist
from repro.aig.export import netlist_from_aig
from repro.circuits import load_iscas85
from repro.core.almost import AlmostConfig, AlmostDefense
from repro.core.proxy import ProxyConfig, build_resyn2_proxy
from repro.core.search import (
    CallableEvaluator,
    ProcessPoolEvaluator,
    SearchConfig,
    SearchProblem,
    available_strategies,
    get_strategy,
    register_strategy,
    run_search,
)
from repro.errors import SearchError, SpecError
from repro.locking import lock_rll
from repro.pipeline.spec import DefenseSpec
from repro.synth import RESYN2, Recipe, SynthCache, random_recipe
from repro.synth.engine import apply_recipe, apply_transform, synthesize_netlist
from repro.synth.recipe import TRANSFORM_NAMES
from repro.utils.rng import derive_seed, make_rng


# -- shared toy problem ----------------------------------------------------

def quadratic_problem():
    return SearchProblem(
        initial=10.0,
        neighbour=lambda x, rng: x + rng.normal(0, 1.0),
        sample=lambda rng: float(rng.uniform(-20, 20)),
    )


def quadratic_energy(x: float) -> float:
    return (x - 3.0) ** 2


def recipe_problem(length: int = 10) -> SearchProblem:
    from repro.synth.recipe import TRANSFORM_NAMES

    def neighbour(recipe, rng):
        position = int(rng.integers(len(recipe)))
        step = TRANSFORM_NAMES[int(rng.integers(len(TRANSFORM_NAMES)))]
        return recipe.with_step(position, step)

    return SearchProblem(
        initial=random_recipe(length, seed=7),
        neighbour=neighbour,
        sample=lambda rng: random_recipe(length, rng=rng),
    )


def synthetic_recipe_energy(recipe) -> float:
    """Deterministic pseudo-accuracy distance, unique-ish per recipe."""
    return abs(derive_seed(99, *recipe.steps) % 10_000 / 10_000 - 0.5)


# -- registry --------------------------------------------------------------

class TestStrategyRegistry:
    def test_builtins_registered(self):
        assert {"sa", "pt", "beam", "random"} <= set(available_strategies())

    def test_unknown_name_rejected(self):
        with pytest.raises(SearchError, match="unknown search strategy"):
            get_strategy("gradient-descent")
        with pytest.raises(SearchError, match="available"):
            run_search(quadratic_problem(), quadratic_energy, strategy="nope")

    def test_duplicate_name_rejected(self):
        with pytest.raises(SearchError, match="already registered"):
            register_strategy("sa")(lambda problem, config: None)


# -- seed-trace fidelity ---------------------------------------------------

def _seed_annealer(initial_state, energy_fn, neighbour_fn, config,
                   trace_fn=None, stop_energy=None):
    """Verbatim re-implementation of the seed (pre-refactor) SA loop."""
    rng = make_rng(config.seed)
    current = initial_state
    current_energy = energy_fn(current)
    best = current
    best_energy = current_energy
    temperature = config.t_initial
    trace = []

    def record(iteration, state, energy, accepted):
        entry = {
            "iteration": iteration,
            "energy": energy,
            "best_energy": best_energy,
            "temperature": temperature,
            "accepted": accepted,
        }
        if trace_fn is not None:
            entry.update(trace_fn(state, energy))
        trace.append(entry)

    record(0, current, current_energy, True)
    for iteration in range(1, config.iterations + 1):
        candidate = neighbour_fn(current, rng)
        candidate_energy = energy_fn(candidate)
        delta = candidate_energy - current_energy
        if delta <= 0:
            accepted = True
        else:
            probability = math.exp(
                -delta * config.acceptance / max(temperature, 1e-9)
            )
            accepted = bool(rng.random() < probability)
        if accepted:
            current = candidate
            current_energy = candidate_energy
            if current_energy < best_energy:
                best = current
                best_energy = current_energy
        record(iteration, current, current_energy, accepted)
        temperature *= config.cooling
        if stop_energy is not None and best_energy <= stop_energy:
            break
    return best, best_energy, trace


class TestSaFidelity:
    @pytest.mark.parametrize("seed", [0, 1, 5])
    def test_trace_matches_seed_annealer(self, seed):
        problem = recipe_problem()
        config = SearchConfig(iterations=60, seed=seed)
        best, best_energy, legacy = _seed_annealer(
            problem.initial, synthetic_recipe_energy, problem.neighbour, config
        )
        result = run_search(
            problem, synthetic_recipe_energy, strategy="sa", config=config
        )
        assert result.best_state == best
        assert result.best_energy == best_energy
        assert len(result.trace) == len(legacy)
        for new, old in zip(result.trace, legacy):
            # Every seed-produced field is reproduced bit-for-bit; the new
            # engine only *adds* the energy_evaluations counter.
            assert {key: new[key] for key in old} == old

    def test_stop_energy_matches_seed_annealer(self):
        config = SearchConfig(iterations=100, seed=3)
        best, best_energy, legacy = _seed_annealer(
            100.0, abs, lambda x, rng: x / 2, config, stop_energy=1.0
        )
        result = run_search(
            SearchProblem(initial=100.0, neighbour=lambda x, rng: x / 2),
            abs, strategy="sa", config=config, stop_energy=1.0,
        )
        assert result.best_energy == best_energy
        assert len(result.trace) == len(legacy)


# -- strategies ------------------------------------------------------------

class TestParallelTempering:
    def run(self, seed=0, chains=3, iterations=25):
        return run_search(
            quadratic_problem(),
            quadratic_energy,
            strategy="pt",
            config=SearchConfig(
                iterations=iterations, chains=chains, seed=seed, swap_period=2
            ),
        )

    def test_deterministic_per_seed(self):
        first, second = self.run(seed=4), self.run(seed=4)
        assert first.best_state == second.best_state
        assert first.trace == second.trace

    def test_seeds_differ(self):
        assert self.run(seed=1).trace != self.run(seed=2).trace

    def test_batch_accounting_and_chain_rows(self):
        result = self.run(chains=3, iterations=10)
        assert result.iterations == 10
        assert result.energy_evaluations == 3 * (10 + 1)
        assert {entry["chain"] for entry in result.trace} == {0, 1, 2}
        assert result.best_energy <= quadratic_energy(10.0)

    def test_single_chain_degenerates_cleanly(self):
        result = self.run(chains=1, iterations=5)
        assert result.energy_evaluations == 6

    def test_converges_on_quadratic(self):
        result = self.run(seed=11, chains=4, iterations=60)
        assert abs(result.best_state - 3.0) < 1.0


class TestBeamAndRandom:
    @pytest.mark.parametrize("strategy", ["beam", "random"])
    def test_deterministic_and_batched(self, strategy):
        config = SearchConfig(iterations=12, chains=3, seed=8)
        runs = [
            run_search(
                quadratic_problem(), quadratic_energy, strategy=strategy,
                config=config,
            )
            for _ in range(2)
        ]
        assert runs[0].trace == runs[1].trace
        assert runs[0].energy_evaluations == 3 * 13

    def test_beam_best_monotone(self):
        result = run_search(
            quadratic_problem(),
            quadratic_energy,
            strategy="beam",
            config=SearchConfig(iterations=20, chains=3, seed=2),
        )
        best_series = [entry["best_energy"] for entry in result.trace]
        assert all(b <= a + 1e-12 for a, b in zip(best_series, best_series[1:]))

    def test_random_uses_sampler(self):
        # Without a neighbour ever being called the random strategy must
        # still run (sampler-only problem).
        problem = SearchProblem(
            initial=10.0,
            neighbour=lambda x, rng: (_ for _ in ()).throw(AssertionError),
            sample=lambda rng: float(rng.uniform(-20, 20)),
        )
        result = run_search(
            problem, quadratic_energy, strategy="random",
            config=SearchConfig(iterations=5, chains=4, seed=0),
        )
        assert result.energy_evaluations == 4 * 6


class TestDriverAccounting:
    def test_energy_evaluations_vs_iterations_diverge(self):
        # stop_energy satisfied by the initial state: like the seed
        # annealer, one neighbour round still runs before the stop check,
        # so the counters read 1 iteration / 2 evaluations — distinct.
        result = run_search(
            quadratic_problem(),
            quadratic_energy,
            strategy="sa",
            config=SearchConfig(iterations=50, seed=0),
            stop_energy=1000.0,
        )
        assert result.iterations == 1
        assert result.energy_evaluations == 2
        assert [e["energy_evaluations"] for e in result.trace] == [1, 2]

    def test_stop_at_initial_matches_seed_annealer(self):
        # The exact edge case: initial best energy already below the stop
        # threshold must reproduce the seed loop's one-extra-iteration.
        config = SearchConfig(iterations=40, seed=6)
        best, best_energy, legacy = _seed_annealer(
            0.5, abs, lambda x, rng: x + rng.normal(), config,
            stop_energy=10.0,
        )
        result = run_search(
            SearchProblem(
                initial=0.5, neighbour=lambda x, rng: x + rng.normal()
            ),
            abs, strategy="sa", config=config, stop_energy=10.0,
        )
        assert result.best_energy == best_energy
        assert len(result.trace) == len(legacy) == 2
        for new, old in zip(result.trace, legacy):
            assert {key: new[key] for key in old} == old

    def test_max_evaluations_budget(self):
        result = run_search(
            quadratic_problem(),
            quadratic_energy,
            strategy="pt",
            config=SearchConfig(
                iterations=100, chains=4, seed=0, max_evaluations=20
            ),
        )
        assert result.energy_evaluations == 20
        assert result.iterations == 4  # 4 bootstrap + 4 rounds of 4

    def test_trace_carries_running_evaluations(self):
        result = run_search(
            quadratic_problem(),
            quadratic_energy,
            strategy="pt",
            config=SearchConfig(iterations=3, chains=2, seed=0),
        )
        counts = [entry["energy_evaluations"] for entry in result.trace]
        assert counts == sorted(counts)
        assert counts[-1] == result.energy_evaluations

    def test_config_validation(self):
        with pytest.raises(SearchError):
            SearchConfig(chains=0)
        with pytest.raises(SearchError):
            SearchConfig(iterations=-1)
        with pytest.raises(SearchError):
            SearchConfig(max_evaluations=-5)


# -- evaluators ------------------------------------------------------------

_PARENT_PID = os.getpid()


def _square(x: float) -> float:  # module-level: picklable for the pool
    return x * x


class TestEvaluators:
    def test_callable_evaluator(self):
        assert CallableEvaluator(_square).evaluate([1, 2, 3]) == [1.0, 4.0, 9.0]

    def test_process_pool_matches_serial(self):
        with ProcessPoolEvaluator(_square, jobs=2) as pool:
            assert pool.evaluate([1, 2, 3, 4]) == [1.0, 4.0, 9.0, 16.0]
            assert pool.evaluate([]) == []

    def test_pool_rejects_bad_jobs(self):
        with pytest.raises(SearchError):
            ProcessPoolEvaluator(_square, jobs=0)

    def test_pool_workers_die_on_sigterm(self):
        """``Pool.terminate()`` must kill scoring workers, whatever the
        parent's SIGTERM handler (``Runner.run`` maps it to
        KeyboardInterrupt): each worker scores its own handler."""
        import signal

        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            with ProcessPoolEvaluator(_sigterm_is_default, jobs=2) as pool:
                assert pool.evaluate([0, 1, 2, 3]) == [1.0] * 4
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_pool_worker_error_reraises(self):
        pool = ProcessPoolEvaluator(_reject_odd, jobs=2)
        try:
            with pytest.raises(ValueError, match="odd state 3"):
                pool.evaluate([2, 3, 4])
        finally:
            pool.close()  # returns although a task failed


def _sigterm_is_default(_state) -> float:
    import signal

    assert os.getpid() != _PARENT_PID
    return float(signal.getsignal(signal.SIGTERM) is signal.SIG_DFL)


def _reject_odd(state: int) -> float:
    if state % 2:
        raise ValueError(f"odd state {state}")
    return float(state)


# -- state-keyed cached synthesis ------------------------------------------

@pytest.fixture(scope="module")
def c432_netlist():
    return load_iscas85("c432", scale="quick")


def replayed_pairs(netlist, recipes) -> set:
    """Distinct ``(state, step)`` pairs an uncached replay of ``recipes``
    runs — exactly the steps a state-keyed cache must execute when it
    never evicts."""
    pairs = set()
    for recipe in recipes:
        aig = aig_from_netlist(netlist).compact()  # apply_recipe's input
        for step in recipe:
            pairs.add((aig.fingerprint(), step))
            aig = apply_transform(aig, step)
    return pairs


def convergent_recipes(netlist, base):
    """Two copies of ``base`` that differ in one step only, at the first
    position where two different steps both leave the AIG unchanged."""
    aig = aig_from_netlist(netlist).compact()
    for position, step in enumerate(base):
        state = aig.fingerprint()
        noops = [
            name for name in TRANSFORM_NAMES
            if apply_transform(aig.clone(), name).fingerprint() == state
        ]
        if len(noops) >= 2:
            return base.with_step(position, noops[0]), base.with_step(
                position, noops[1]
            )
        aig = apply_transform(aig, step)
    raise AssertionError(f"{base.short()} has no position with two no-ops")


def assert_bounded(cache) -> None:
    """States within ``max_entries``; transitions only on stored states,
    at most one per distinct step."""
    stats = cache.stats()
    assert len(cache) == stats["entries"] <= cache.max_entries
    assert set(cache._moves.keys()) == set(cache._snapshots.keys())
    assert set(cache._ticks.keys()) == set(cache._snapshots.keys())
    assert stats["transitions"] == sum(
        len(moves) for moves in cache._moves.values()
    )
    assert stats["transitions"] <= stats["entries"] * len(TRANSFORM_NAMES)


class TestSynthCache:
    def test_cached_equals_uncached_exactly(self, c432_netlist):
        cache = SynthCache()
        recipes = [random_recipe(10, seed=s) for s in range(4)]
        # Evaluate each recipe twice through the cache, interleaved with
        # one-step mutations, and compare against uncached synthesis.
        mutated = [r.with_step(7, "balance") for r in recipes]
        for recipe in recipes + mutated + recipes:
            aig = aig_from_netlist(c432_netlist)
            cached = apply_recipe(aig, recipe, cache=cache)
            uncached = apply_recipe(aig_from_netlist(c432_netlist), recipe)
            assert cached.fingerprint() == uncached.fingerprint()

    def test_prefix_resume_is_sat_equivalent(self, c432_netlist):
        # verify="sat" proves the (cache-served) output equivalent to the
        # input; a broken snapshot/resume would be caught by the miter.
        cache = SynthCache()
        recipe = random_recipe(8, seed=1)
        synthesize_netlist(c432_netlist, recipe, verify="sat", cache=cache)
        synthesize_netlist(
            c432_netlist, recipe.with_step(5, "rewrite"), verify="sat",
            cache=cache,
        )
        assert cache.steps_saved >= 5

    def test_mutation_resumes_from_prefix(self, c432_netlist):
        cache = SynthCache()
        recipe = random_recipe(10, seed=3)
        mutated = recipe.with_step(9, "resub")
        apply_recipe(aig_from_netlist(c432_netlist), recipe, cache=cache)
        # Each distinct (state, step) pair runs once.  This recipe repeats
        # some of its own pairs, so even the cold call is served a step
        # and counts as a hit.
        first = len(replayed_pairs(c432_netlist, [recipe]))
        assert first < 10
        assert cache.steps_executed == first
        assert cache.steps_saved == 10 - first
        assert (cache.prefix_hits, cache.prefix_misses) == (1, 0)
        apply_recipe(aig_from_netlist(c432_netlist), mutated, cache=cache)
        # The shared 9-step prefix is served; at most the tail step runs.
        assert cache.steps_executed == len(
            replayed_pairs(c432_netlist, [recipe, mutated])
        )
        assert cache.steps_executed <= first + 1
        assert cache.steps_saved + cache.steps_executed == 20
        assert (cache.prefix_hits, cache.prefix_misses) == (2, 0)
        assert 0.0 < cache.hit_rate < 1.0

    def test_convergent_prefixes_share_later_steps(self, c432_netlist):
        first, second = convergent_recipes(
            c432_netlist, random_recipe(10, seed=3)
        )
        cache = SynthCache()
        executed = []
        for recipe in (first, second):
            cached = apply_recipe(
                aig_from_netlist(c432_netlist), recipe, cache=cache
            )
            uncached = apply_recipe(aig_from_netlist(c432_netlist), recipe)
            assert cached.fingerprint() == uncached.fingerprint()
            executed.append(cache.steps_executed)
        # Only the differing no-op step is new; it lands back on a state
        # whose every later step the first recipe already ran.
        assert executed[1] - executed[0] == 1
        assert executed[1] == len(
            replayed_pairs(c432_netlist, [first, second])
        )
        assert cache.steps_saved + cache.steps_executed == 20

    def test_full_recipe_repeat_is_free(self, c432_netlist):
        cache = SynthCache()
        recipe = random_recipe(6, seed=5)
        first = apply_recipe(
            aig_from_netlist(c432_netlist), recipe, cache=cache
        )
        executed = cache.steps_executed
        second = apply_recipe(
            aig_from_netlist(c432_netlist), recipe, cache=cache
        )
        assert cache.steps_executed == executed
        assert first.fingerprint() == second.fingerprint()

    def test_lru_bound(self, c432_netlist):
        cache = SynthCache(max_entries=4)
        recipes = [random_recipe(5, seed=seed) for seed in range(3)]
        for recipe in recipes + recipes:
            cached = apply_recipe(
                aig_from_netlist(c432_netlist), recipe, cache=cache
            )
            uncached = apply_recipe(aig_from_netlist(c432_netlist), recipe)
            assert cached.fingerprint() == uncached.fingerprint()
            assert_bounded(cache)
        stats = cache.stats()
        assert stats["entries"] == 4  # full: states were evicted
        assert stats["steps_saved"] + stats["steps_executed"] == 30
        # Eviction only ever costs re-runs, never a skipped step.
        assert stats["steps_executed"] >= len(
            replayed_pairs(c432_netlist, recipes)
        )

    def test_rejects_bad_bound(self):
        with pytest.raises(Exception):
            SynthCache(max_entries=0)

    def test_clone_is_exact(self, c432_netlist):
        aig = aig_from_netlist(c432_netlist)
        clone = aig.clone()
        assert clone.fingerprint() == aig.fingerprint()
        clone.check()
        # Mutating the clone must not touch the original.
        from repro.synth.engine import apply_transform

        apply_transform(clone, "rewrite")
        assert aig.fingerprint() == aig_from_netlist(c432_netlist).fingerprint()


# -- proxy scoring ---------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_proxy():
    netlist = load_iscas85("c432", scale="quick")
    locked = lock_rll(netlist, key_size=6, seed=11)
    return build_resyn2_proxy(
        locked,
        ProxyConfig(
            num_samples=12, epochs=2, relock_key_bits=6,
            num_random_recipes=2, seed=5,
        ),
    )


class TestProxyBatchScoring:
    def test_batch_matches_per_item(self, tiny_proxy):
        recipes = [RESYN2] + [random_recipe(10, seed=s) for s in range(3)]
        per_item = [tiny_proxy.predicted_accuracy(r) for r in recipes]
        tiny_proxy._cache.clear()  # force the batch path to recompute
        batch = tiny_proxy.predicted_accuracy_batch(recipes)
        assert batch == per_item

    def test_batch_handles_duplicates_and_memo_hits(self, tiny_proxy):
        recipe = random_recipe(10, seed=9)
        expected = tiny_proxy.predicted_accuracy(recipe)
        values = tiny_proxy.predicted_accuracy_batch([recipe, recipe, RESYN2])
        assert values[0] == values[1] == expected

    def test_lru_is_bounded_and_tuple_keyed(self, tiny_proxy):
        tiny_proxy.cache_size = 3
        tiny_proxy._cache.clear()
        recipes = [random_recipe(10, seed=100 + s) for s in range(5)]
        for recipe in recipes:
            tiny_proxy.predicted_accuracy(recipe)
            assert recipe.steps in tiny_proxy._cache
        assert len(tiny_proxy._cache) == 3
        # Most recently used survive, oldest evicted.
        assert recipes[0].steps not in tiny_proxy._cache
        assert recipes[-1].steps in tiny_proxy._cache
        tiny_proxy.cache_size = 1024

    def test_prefix_cache_fed_by_scoring(self, tiny_proxy):
        tiny_proxy.synth_cache.clear()
        base = random_recipe(10, seed=42)
        tiny_proxy.predicted_accuracy(base)
        tiny_proxy.predicted_accuracy_batch([base.with_step(8, "balance")])
        assert tiny_proxy.synth_cache.steps_saved >= 8


# -- ALMOST strategy surface ----------------------------------------------

class TestAlmostStrategies:
    def evaluator(self):
        def predicted(recipe):
            return 0.5 + synthetic_recipe_energy(recipe)

        return predicted

    @pytest.mark.parametrize("strategy", ["pt", "beam", "random"])
    def test_strategies_run_and_are_deterministic(self, strategy):
        def result():
            defense = AlmostDefense(
                self.evaluator(),
                AlmostConfig(
                    sa_iterations=6, seed=3, strategy=strategy, chains=3,
                    stop_margin=-1.0,
                ),
            )
            return defense.generate_recipe()

        first, second = result(), result()
        assert first.recipe == second.recipe
        assert first.trace == second.trace
        assert first.strategy == strategy
        assert first.energy_evaluations == 3 * 7
        assert first.iterations == 6
        assert first.predicted_accuracy == pytest.approx(
            0.5 + abs(first.predicted_accuracy - 0.5)
        )

    def test_default_sa_unchanged(self):
        defense = AlmostDefense(
            self.evaluator(), AlmostConfig(sa_iterations=10, seed=1)
        )
        result = defense.generate_recipe()
        assert result.strategy == "sa"
        assert len(result.trace) == result.iterations + 1
        assert result.accuracy_trace()[0] is not None

    def test_proxy_batch_path_on_real_model(self, tiny_proxy):
        defense = AlmostDefense(
            tiny_proxy,
            AlmostConfig(
                sa_iterations=2, seed=2, strategy="pt", chains=2,
                stop_margin=-1.0,
            ),
        )
        result = defense.generate_recipe()
        assert result.energy_evaluations == 2 * 3
        assert 0.0 <= result.predicted_accuracy <= 1.0


# -- pipeline + reporting surfaces ----------------------------------------

class TestPipelineKnobs:
    def test_defense_spec_round_trip(self):
        spec = DefenseSpec(name="almost", strategy="pt", chains=4, jobs=2)
        assert DefenseSpec.from_dict(spec.to_dict()) == spec

    def test_defense_spec_validation(self):
        with pytest.raises(SpecError):
            DefenseSpec(chains=0)
        with pytest.raises(SpecError):
            DefenseSpec(jobs=0)
        with pytest.raises(SpecError):
            DefenseSpec(strategy="")

    def test_runner_validates_strategy_before_any_work(self):
        from repro.pipeline import (
            BenchmarkSpec,
            ExperimentSpec,
            LockSpec,
            Runner,
        )

        spec = ExperimentSpec(
            name="typo",
            benchmarks=(BenchmarkSpec(name="c432"),),
            lock=LockSpec(locker="rll", key_size=6),
            defense=DefenseSpec(name="almost", strategy="beem"),
        )
        with pytest.raises(SearchError, match="unknown search strategy"):
            Runner(use_cache=False).validate(spec)

    def test_search_comparison_table(self):
        from repro.reporting import (
            SearchStrategyRecord,
            render_search_comparison_table,
        )

        records = [
            SearchStrategyRecord(
                strategy="sa", chains=1, jobs=1, best_energy=0.01,
                predicted_accuracy=0.51, iterations=100,
                energy_evaluations=101, elapsed_s=2.0, cache_hit_rate=0.45,
            ),
            SearchStrategyRecord(
                strategy="pt", chains=4, jobs=2, best_energy=0.005,
                predicted_accuracy=0.505, iterations=25,
                energy_evaluations=104, elapsed_s=1.0,
            ),
        ]
        table = render_search_comparison_table(records)
        assert "sa" in table and "pt" in table
        assert "45.0%" in table and "n/a" in table
        assert "52.00" in table or "52.0" in table or "50.50" in table


class TestCliAlmost:
    def test_strategy_flag_end_to_end(self, tmp_path, capsys):
        from repro.cli import main
        from repro.locking import lock_rll
        from repro.netlist.bench_io import save_bench

        netlist = load_iscas85("c432", scale="quick")
        locked = lock_rll(netlist, key_size=6, seed=2)
        design = tmp_path / "locked.bench"
        save_bench(locked.netlist, design)
        out = tmp_path / "defended.bench"
        code = main([
            "defend", str(design),
            "--key", str(locked.key),
            "--strategy", "random", "--chains", "2",
            "--iterations", "2", "--samples", "12", "--epochs", "2",
            "--no-cache", "--out", str(out),
        ])
        captured = capsys.readouterr().out
        assert code == 0
        assert "strategy: random (chains=2, jobs=1)" in captured
        assert "security-aware recipe:" in captured
        assert "energy evaluations" in captured
        assert out.exists()

    def test_unknown_strategy_rejected(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["defend", "x.bench", "--strategy", "nope"]
            )

    @pytest.mark.parametrize(
        "flags", [["--strategy", "pt"], ["--chains", "2"], ["--jobs", "2"]]
    )
    def test_structural_scheme_rejects_search_flags(
        self, tmp_path, capsys, flags
    ):
        from repro.cli import main
        from repro.netlist.bench_io import save_bench

        design = tmp_path / "c432.bench"
        save_bench(load_iscas85("c432", scale="quick"), design)
        out = tmp_path / "locked.bench"
        code = main([
            "defend", str(design), "--scheme", "rll+antisat",
            "--out", str(out), *flags,
        ])
        assert code == 2
        assert "--scheme almost" in capsys.readouterr().err
        assert not out.exists()


# -- cross-worker shared state-keyed cache ---------------------------------

def _shared_cache_energy(cache, netlist, recipe) -> float:
    """Module-level (picklable) pool scorer synthesizing through ``cache``."""
    synthesize_netlist(netlist, recipe, cache=cache)
    return abs(derive_seed(55, *recipe.steps) % 10_000 / 10_000 - 0.5)


def _shared_cache_fingerprint(cache, netlist, recipe) -> str:
    """Module-level pool task: cached synthesis, reported by fingerprint."""
    return apply_recipe(
        aig_from_netlist(netlist), recipe, cache=cache
    ).fingerprint()


class TestSharedSynthCache:
    def _fresh(self, max_entries=64):
        from repro.synth import SharedSynthCache

        return SharedSynthCache(max_entries=max_entries)

    def test_cached_equals_uncached_exactly(self, c432_netlist):
        cache = self._fresh()
        try:
            recipes = [random_recipe(10, seed=s) for s in range(3)]
            mutated = [r.with_step(7, "balance") for r in recipes]
            for recipe in recipes + mutated + recipes:
                cached = apply_recipe(
                    aig_from_netlist(c432_netlist), recipe, cache=cache
                )
                uncached = apply_recipe(
                    aig_from_netlist(c432_netlist), recipe
                )
                assert cached.fingerprint() == uncached.fingerprint()
            assert cache.steps_saved > 0
        finally:
            cache.close()

    def test_workers_share_one_store_and_totals_are_parent_visible(
        self, c432_netlist
    ):
        """The satellite-fix pin: every worker feeds the same store, and the
        aggregated hit/miss totals survive pool teardown in the parent."""
        import functools

        from repro.core.search import run_search

        cache = self._fresh()
        pool = ProcessPoolEvaluator(
            functools.partial(_shared_cache_energy, cache, c432_netlist),
            jobs=2,
            shared_cache=cache,
        )
        result = run_search(
            recipe_problem(),
            pool,
            strategy="pt",
            config=SearchConfig(iterations=3, chains=4, seed=9),
        )
        # Every energy evaluation synthesizes exactly once through the
        # shared store: one hit or miss each, and every one of the 10
        # recipe steps is either served from a snapshot or executed.
        # These totals are exact regardless of how the pool scheduled the
        # candidates across workers.
        stats = pool.cache_stats()
        evals = result.energy_evaluations
        assert evals == 4 * 4  # bootstrap + 3 rounds of 4 chains
        assert stats["prefix_hits"] + stats["prefix_misses"] == evals
        assert stats["steps_saved"] + stats["steps_executed"] == 10 * evals
        assert stats["prefix_hits"] > 0
        assert stats["shared"] is True
        pool.close()
        # close() froze the final totals; they remain readable.
        assert pool.cache_stats() == stats

    def test_pool_workers_run_each_state_step_pair_once(self, c432_netlist):
        """The serial checks, with the steps spread over a 2-worker pool:
        exact step counts, convergent prefixes, cached == uncached."""
        import multiprocessing

        base = random_recipe(10, seed=3)
        first, second = convergent_recipes(c432_netlist, base)
        recipes = [base, base.with_step(9, "resub"), first, second]
        uncached = {
            recipe: apply_recipe(
                aig_from_netlist(c432_netlist), recipe
            ).fingerprint()
            for recipe in recipes
        }
        cache = self._fresh()
        try:
            with multiprocessing.get_context("spawn").Pool(2) as pool:
                # One task at a time, so the counts are exact whichever
                # worker runs each recipe.
                executed = []
                for recipe in recipes:
                    assert pool.apply(
                        _shared_cache_fingerprint,
                        (cache, c432_netlist, recipe),
                    ) == uncached[recipe]
                    executed.append(cache.steps_executed)
                # Concurrent tasks may race on a step, never on a result.
                assert pool.starmap(
                    _shared_cache_fingerprint,
                    [(cache, c432_netlist, recipe) for recipe in recipes],
                ) == [uncached[recipe] for recipe in recipes]
            assert executed == [
                len(replayed_pairs(c432_netlist, recipes[:count]))
                for count in range(1, len(recipes) + 1)
            ]
            assert executed[3] - executed[2] == 1  # the convergent pair
            stats = cache.stats()
            assert stats["prefix_hits"] + stats["prefix_misses"] == 8
            assert stats["steps_saved"] + stats["steps_executed"] == 80
            assert_bounded(cache)
        finally:
            cache.close()

    def test_lru_bound_holds_across_stores(self, c432_netlist):
        cache = self._fresh(max_entries=4)
        try:
            recipes = [random_recipe(5, seed=seed) for seed in range(3)]
            for recipe in recipes + recipes:
                cached = apply_recipe(
                    aig_from_netlist(c432_netlist), recipe, cache=cache
                )
                uncached = apply_recipe(
                    aig_from_netlist(c432_netlist), recipe
                )
                assert cached.fingerprint() == uncached.fingerprint()
                assert_bounded(cache)
            stats = cache.stats()
            assert stats["entries"] == 4
            assert stats["steps_saved"] + stats["steps_executed"] == 30
            assert stats["steps_executed"] >= len(
                replayed_pairs(c432_netlist, recipes)
            )
        finally:
            cache.close()

    def test_rejects_bad_bound(self):
        from repro.synth import SharedSynthCache

        with pytest.raises(Exception):
            SharedSynthCache(max_entries=0)

    def test_pickles_without_manager(self):
        import pickle

        cache = self._fresh()
        try:
            handle = pickle.loads(pickle.dumps(cache))
            # The manager stays behind; the handle still reaches the store.
            assert handle._manager is None
            assert handle.stats()["prefix_hits"] == 0
        finally:
            cache.close()


class TestSharedCacheAlmost:
    def _fresh_proxy(self, proxy):
        import collections
        import dataclasses

        return dataclasses.replace(
            proxy,
            synth_cache=SynthCache(),
            _cache=collections.OrderedDict(),
        )

    def test_jobs_fanout_matches_serial_and_reports_stats(self, tiny_proxy):
        """jobs=2 must reproduce the serial search bit-for-bit while the
        shared store's aggregated stats land in AlmostResult.synth_cache."""
        config = dict(
            sa_iterations=2, seed=4, strategy="pt", chains=3,
            stop_margin=-1.0,
        )
        serial = AlmostDefense(
            self._fresh_proxy(tiny_proxy), AlmostConfig(jobs=1, **config)
        ).generate_recipe()
        shared = AlmostDefense(
            self._fresh_proxy(tiny_proxy), AlmostConfig(jobs=2, **config)
        ).generate_recipe()
        assert shared.recipe == serial.recipe
        assert shared.predicted_accuracy == serial.predicted_accuracy
        assert shared.trace == serial.trace
        # Pre-fix these were all zero: the worker-side caches died with
        # the pool.  Now the totals aggregate across workers.
        stats = shared.synth_cache
        assert stats.get("shared") is True
        assert stats["steps_saved"] + stats["steps_executed"] > 0
        assert stats["prefix_hits"] + stats["prefix_misses"] > 0
        assert serial.synth_cache["steps_executed"] > 0
