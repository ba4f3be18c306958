"""Search-engine benchmark: cached parallel search vs the seed SA.

Two pins, matching the search-engine refactor's contract:

1. **Fidelity** — the default ``sa`` strategy with paper defaults
   reproduces the seed annealer's trace bit-for-bit on a fixed seed, both
   on a synthetic energy (full 100-iteration schedule) and through the
   real ALMOST + proxy stack (cached synthesis included — exact
   AIG-snapshot resume keeps the energies identical).
2. **Throughput** — on the same energy-evaluation budget, the
   cached parallel search (``pt`` chains + process fan-out when
   cores are available) beats a faithful re-implementation of the seed
   serial SA by >= 3x with >= 2 workers, and by >= 1.5x from synthesis
   caching alone on a single core.
3. **Shared cache** — with ``jobs`` >= 2 the workers synthesize through
   one cross-process :class:`~repro.synth.cache.SharedSynthCache`; its
   aggregated hit rate must stay >= 0.9x the serial run's on the
   identical candidate stream (per-worker private caches would start
   cold and forfeit the fan-out win).

The measured numbers — including ``serial_hit_rate`` / ``shared_hit_rate``
— are written to ``BENCH_search.json`` (uploaded as a CI artifact) so the
perf trajectory accumulates data points; ``docs/benchmarks.md`` documents
the format.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import pytest

from repro.circuits import load_iscas85
from repro.core.almost import AlmostConfig, AlmostDefense
from repro.core.proxy import ProxyConfig, ProxyModel, build_resyn2_proxy
from repro.locking import lock_rll
from repro.reporting import (
    SearchStrategyRecord,
    render_search_comparison_table,
)
from repro.synth.cache import SynthCache
from repro.synth.recipe import mutate_step, random_recipe
from repro.utils.rng import derive_seed, make_rng

pytestmark = pytest.mark.slow  # minute-scale search bench; tier-1 skips it (CI runs -m "")

BENCH_SEED = 2023
CIRCUIT = "c1355"
KEY_SIZE = 16
CHAINS = 8
ROUNDS = 3                      # pt budget: CHAINS * (ROUNDS + 1) evals
BUDGET = CHAINS * (ROUNDS + 1)  # == seed SA iterations + 1


def _seed_annealer(initial_state, energy_fn, neighbour_fn, *, iterations,
                   seed, t_initial=120.0, acceptance=1.8, cooling=0.95,
                   trace_fn=None, stop_energy=None):
    """Verbatim re-implementation of the seed (pre-refactor) SA loop."""
    rng = make_rng(seed)
    current = initial_state
    current_energy = energy_fn(current)
    best = current
    best_energy = current_energy
    temperature = t_initial
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
    for iteration in range(1, iterations + 1):
        candidate = neighbour_fn(current, rng)
        candidate_energy = energy_fn(candidate)
        delta = candidate_energy - current_energy
        if delta <= 0:
            accepted = True
        else:
            probability = math.exp(
                -delta * acceptance / max(temperature, 1e-9)
            )
            accepted = bool(rng.random() < probability)
        if accepted:
            current = candidate
            current_energy = candidate_energy
            if current_energy < best_energy:
                best = current
                best_energy = current_energy
        record(iteration, current, current_energy, accepted)
        temperature *= cooling
        if stop_energy is not None and best_energy <= stop_energy:
            break
    return best, best_energy, trace


@pytest.fixture(scope="module")
def locked():
    netlist = load_iscas85(CIRCUIT, scale="quick")
    return lock_rll(
        netlist, key_size=KEY_SIZE, seed=derive_seed(BENCH_SEED, CIRCUIT)
    )


@pytest.fixture(scope="module")
def trained_attack(locked):
    proxy = build_resyn2_proxy(
        locked,
        ProxyConfig(
            num_samples=24, epochs=4, relock_key_bits=KEY_SIZE,
            seed=derive_seed(BENCH_SEED, "bench-proxy"),
        ),
    )
    return proxy.attack


def _fresh_proxy(trained_attack, locked, name, cached: bool) -> ProxyModel:
    """A proxy sharing the trained model but with private score caches."""
    return ProxyModel(
        name=name,
        attack=trained_attack,
        locked=locked,
        synth_cache=SynthCache() if cached else None,
    )


def test_bench_sa_strategy_reproduces_seed_trace(
    locked, trained_attack, benchmark
):
    """Paper-fidelity pin: default sa == seed annealer, bit for bit."""
    # Full paper schedule on a deterministic synthetic energy.
    from repro.core.search import SearchConfig, SearchProblem, run_search

    def synthetic_energy(recipe):
        return abs(derive_seed(7, *recipe.steps) % 10_000 / 10_000 - 0.5)

    start = random_recipe(10, seed=derive_seed(BENCH_SEED, "fidelity"))
    config = SearchConfig()  # paper defaults: 100 iterations, T0=120, a=1.8
    best, best_energy, legacy = _seed_annealer(
        start, synthetic_energy, mutate_step,
        iterations=config.iterations, seed=config.seed,
    )
    result = benchmark.pedantic(
        lambda: run_search(
            SearchProblem(initial=start, neighbour=mutate_step),
            lambda recipes: [synthetic_energy(r) for r in recipes],
            strategy="sa", config=config,
        ),
        rounds=1, iterations=1,
    )
    assert result.best_state == best
    assert result.best_energy == best_energy
    assert len(result.trace) == len(legacy)
    for new, old in zip(result.trace, legacy):
        assert {key: new[key] for key in old} == old

    # Short run through the real ALMOST + proxy stack: the seed reference
    # scores without the synthesis cache, the new engine with it — exact
    # snapshot resume must keep every accuracy (hence the trace) identical.
    almost_seed = derive_seed(BENCH_SEED, "fidelity-almost")
    reference_proxy = _fresh_proxy(trained_attack, locked, "seed", cached=False)

    def reference_energy(recipe):
        return abs(reference_proxy.predicted_accuracy(recipe) - 0.5)

    ref_best, _ref_energy, ref_trace = _seed_annealer(
        random_recipe(10, seed=derive_seed(almost_seed, "start")),
        reference_energy,
        mutate_step,
        iterations=6,
        seed=derive_seed(almost_seed, "sa"),
        stop_energy=0.005,
        trace_fn=lambda recipe, energy: {"recipe": recipe.short()},
    )
    modern_proxy = _fresh_proxy(trained_attack, locked, "new", cached=True)
    modern = AlmostDefense(
        modern_proxy, AlmostConfig(sa_iterations=6, seed=almost_seed)
    ).generate_recipe()
    assert modern.recipe == ref_best
    assert len(modern.trace) == len(ref_trace)
    for new, old in zip(modern.trace, ref_trace):
        assert {key: new[key] for key in old} == old
    print(
        f"\nfidelity: sa trace identical to seed annealer over "
        f"{len(legacy)} synthetic + {len(ref_trace)} proxy-scored entries"
    )


def test_bench_prefix_cached_parallel_search_speedup(locked, trained_attack):
    """Throughput pins on the same energy-evaluation budget:

    * speedup — >= 3x over the seed serial SA with >= 2 cores
      (>= 1.5x from synthesis caching alone on a single core);
    * shared cache — with ``jobs`` >= 2 every worker synthesizes through
      one :class:`~repro.synth.cache.SharedSynthCache`, whose aggregated
      hit rate must stay >= 0.9x the serial run's (a private
      per-worker cache would start cold in every process and fail this).
    """
    search_seed = derive_seed(BENCH_SEED, "bench-search")

    # -- seed serial SA: per-candidate synthesis, no synthesis cache ------
    seed_proxy = _fresh_proxy(trained_attack, locked, "seed", cached=False)

    def seed_energy(recipe):
        return abs(seed_proxy.predicted_accuracy(recipe) - 0.5)

    started = time.perf_counter()
    _best, seed_best_energy, seed_trace = _seed_annealer(
        random_recipe(10, seed=derive_seed(search_seed, "start")),
        seed_energy,
        mutate_step,
        iterations=BUDGET - 1,
        seed=derive_seed(search_seed, "sa"),
    )
    seed_elapsed = time.perf_counter() - started
    seed_evaluations = len(seed_trace)  # initial + one per iteration

    def cached_search(jobs: int):
        proxy = _fresh_proxy(
            trained_attack, locked, f"new-j{jobs}", cached=True
        )
        defense = AlmostDefense(
            proxy,
            AlmostConfig(
                sa_iterations=ROUNDS,
                seed=search_seed,
                strategy="pt",
                chains=CHAINS,
                jobs=jobs,
                stop_margin=-1.0,  # never early-exit: spend the whole budget
            ),
        )
        started = time.perf_counter()
        result = defense.generate_recipe()
        return result, time.perf_counter() - started

    # -- cached serial search: the single-process hit-rate baseline
    serial_result, serial_elapsed = cached_search(jobs=1)
    serial_stats = serial_result.synth_cache
    serial_hit_rate = serial_stats["hit_rate"]
    assert serial_result.energy_evaluations == BUDGET == seed_evaluations
    assert serial_hit_rate >= 0.25, serial_stats

    # -- same search, same budget, >= 2 workers on one shared cache -------
    cpus = os.cpu_count() or 1
    shared_jobs = max(2, min(4, cpus))
    shared_result, shared_elapsed = cached_search(jobs=shared_jobs)
    shared_stats = shared_result.synth_cache
    shared_hit_rate = shared_stats["hit_rate"]
    assert shared_result.energy_evaluations == BUDGET
    # pt is deterministic per seed under any evaluator, so the fan-out must
    # land on the exact serial result (shared snapshots are exact resumes).
    assert shared_result.recipe == serial_result.recipe
    assert shared_result.predicted_accuracy == serial_result.predicted_accuracy

    # The wall-clock pin follows the hardware: parallel 3x needs real
    # cores, the 1.5x single-core pin isolates the synthesis-cache win.
    if cpus >= 2:
        fast_elapsed, jobs, minimum = shared_elapsed, shared_jobs, 3.0
    else:
        fast_elapsed, jobs, minimum = serial_elapsed, 1, 1.5
    speedup = seed_elapsed / fast_elapsed
    records = [
        SearchStrategyRecord(
            strategy="sa (seed, uncached)", chains=1, jobs=1,
            best_energy=seed_best_energy,
            predicted_accuracy=None,
            iterations=seed_evaluations - 1,
            energy_evaluations=seed_evaluations,
            elapsed_s=seed_elapsed,
        ),
        SearchStrategyRecord(
            strategy="pt (cached)", chains=CHAINS, jobs=1,
            best_energy=abs(serial_result.predicted_accuracy - 0.5),
            predicted_accuracy=serial_result.predicted_accuracy,
            iterations=serial_result.iterations,
            energy_evaluations=serial_result.energy_evaluations,
            elapsed_s=serial_elapsed,
            cache_hit_rate=serial_hit_rate,
        ),
        SearchStrategyRecord(
            strategy="pt (shared cache)", chains=CHAINS, jobs=shared_jobs,
            best_energy=abs(shared_result.predicted_accuracy - 0.5),
            predicted_accuracy=shared_result.predicted_accuracy,
            iterations=shared_result.iterations,
            energy_evaluations=shared_result.energy_evaluations,
            elapsed_s=shared_elapsed,
            cache_hit_rate=shared_hit_rate,
        ),
    ]
    print()
    print(render_search_comparison_table(
        records,
        title=f"Search engines on {CIRCUIT} (budget {BUDGET} evals)",
    ))
    print(f"speedup: {speedup:.2f}x (jobs={jobs}); shared-cache hit rate "
          f"{100 * shared_hit_rate:.1f}% vs serial "
          f"{100 * serial_hit_rate:.1f}%")

    payload = {
        "bench": "search",
        "circuit": CIRCUIT,
        "key_size": KEY_SIZE,
        "budget_evaluations": BUDGET,
        "jobs": jobs,
        "shared_jobs": shared_jobs,
        "chains": CHAINS,
        "seed_serial_s": round(seed_elapsed, 3),
        "prefix_cached_serial_s": round(serial_elapsed, 3),
        "prefix_cached_parallel_s": round(shared_elapsed, 3),
        "speedup": round(speedup, 3),
        "seed_evals_per_s": round(seed_evaluations / seed_elapsed, 3),
        # Throughput of the run the speedup is measured on (parallel when
        # cores allow, serial-cached otherwise) — same semantics as the
        # pre-shared-cache bench, so the trajectory stays comparable.
        "new_evals_per_s": round(BUDGET / fast_elapsed, 3),
        "serial_evals_per_s": round(BUDGET / serial_elapsed, 3),
        "serial_hit_rate": serial_hit_rate,
        "shared_hit_rate": shared_hit_rate,
        "prefix_cache": serial_stats,
        "shared_cache": shared_stats,
    }
    Path("BENCH_search.json").write_text(json.dumps(payload, indent=2) + "\n")

    # Cross-worker sharing pin: fan-out must keep (within tolerance — two
    # workers can race to run the same step once each) the hit
    # rate the serial path gets on the identical candidate stream.
    assert shared_hit_rate >= 0.9 * serial_hit_rate, payload

    assert speedup >= minimum, (
        f"cached {'parallel ' if jobs >= 2 else ''}search managed "
        f"only {speedup:.2f}x over the seed serial SA "
        f"(needed {minimum}x, jobs={jobs}): {payload}"
    )
