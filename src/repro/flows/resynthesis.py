"""Attacker-side re-synthesis analysis (paper Sec. IV-E, Fig. 5).

Threat: the attacker takes the ALMOST-synthesized locked netlist and
re-synthesizes it for area or delay, hoping PPA-driven restructuring
re-exposes learnable key-gate localities.  The flow runs an SA search over
recipes minimizing area (or delay) on the ALMOST output and, at every
iteration, records both the PPA metric (normalized to the resyn2 baseline)
and the proxy-model attack accuracy — Fig. 5 plots the two series and the
defense claim is the absence of correlation between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.aig.build import aig_from_netlist
from repro.core.proxy import ProxyModel
from repro.core.search import SearchConfig, SearchProblem, run_search
from repro.mapping.mapper import map_aig
from repro.mapping.ppa import analyze_ppa
from repro.netlist.netlist import Netlist
from repro.synth.cache import SynthCache
from repro.synth.engine import apply_recipe
from repro.synth.recipe import RESYN2, Recipe, mutate_step, random_recipe
from repro.utils.rng import derive_seed


@dataclass
class ResynthesisPoint:
    """One SA iteration of the attacker's re-synthesis search."""

    iteration: int
    recipe: str
    metric_ratio: float      # area or delay vs. the resyn2 baseline
    attack_accuracy: float


def attacker_resynthesis_sweep(
    almost_netlist: Netlist,
    proxy: ProxyModel,
    objective: str = "delay",
    iterations: int = 20,
    recipe_length: int = 10,
    seed: int = 0,
    exact_verify: bool = False,
) -> list[ResynthesisPoint]:
    """Run the attacker's PPA-driven recipe search on an ALMOST netlist.

    Returns per-iteration points pairing the optimized metric (normalized to
    the resyn2 baseline of the same netlist) with the attack accuracy of the
    proxy model on the re-synthesized circuit.

    With ``exact_verify`` every evaluated recipe's output is SAT-proven
    equivalent to the input netlist (see :mod:`repro.sat`) instead of being
    trusted — the re-synthesis threat analysis is only meaningful while the
    attacker's transformations stay function-preserving.
    """
    if objective not in ("area", "delay"):
        raise ValueError("objective must be 'area' or 'delay'")
    aig = aig_from_netlist(almost_netlist)
    baseline_mapped = map_aig(apply_recipe(aig, RESYN2))
    baseline = analyze_ppa(baseline_mapped)
    baseline_value = baseline.area if objective == "area" else baseline.delay

    points: list[ResynthesisPoint] = []
    evaluations: dict[str, tuple[float, float]] = {}
    # The attacker's SA mutates one step at a time, so its evaluations pass
    # through the same AIG states — the same synthesis cache the defender
    # uses.
    synth_cache = SynthCache()

    def measure(recipe: Recipe) -> tuple[float, float]:
        cached = evaluations.get(recipe.short())
        if cached is not None:
            return cached
        optimized = apply_recipe(aig, recipe, cache=synth_cache)
        if exact_verify:
            from repro.synth.engine import verify_transformation

            verify_transformation(aig, optimized, "sat")
        mapped = map_aig(optimized)
        report = analyze_ppa(mapped)
        value = report.area if objective == "area" else report.delay
        ratio = value / baseline_value if baseline_value else 1.0
        accuracy = proxy.predicted_accuracy_on_circuit(mapped)
        evaluations[recipe.short()] = (ratio, accuracy)
        return ratio, accuracy

    start = random_recipe(recipe_length, seed=derive_seed(seed, "start"))
    result = run_search(
        SearchProblem(initial=start, neighbour=mutate_step),
        lambda recipes: [measure(recipe)[0] for recipe in recipes],
        strategy="sa",
        config=SearchConfig(iterations=iterations, seed=derive_seed(seed, "sa")),
        trace_fn=lambda recipe, e: {"recipe": recipe.short()},
    )
    for entry in result.trace:
        ratio, accuracy = evaluations[entry["recipe"]]
        points.append(
            ResynthesisPoint(
                iteration=entry["iteration"],
                recipe=entry["recipe"],
                metric_ratio=ratio,
                attack_accuracy=accuracy,
            )
        )
    return points


def resynthesis_sweep_from_spec(
    spec,
    proxy_config=None,
    objective: str = "delay",
    iterations: int = 20,
    recipe_length: int = 10,
    seed: int = 0,
    exact_verify: bool = False,
    runner=None,
) -> list[ResynthesisPoint]:
    """Spec-driven entry: run the sweep on a pipeline-built ALMOST netlist.

    ``spec`` is an :class:`repro.pipeline.ExperimentSpec` whose
    benchmark/lock/defense/synth stages produce the defender's shipped
    netlist — executed through the :class:`repro.pipeline.Runner` so a
    warm artifact cache skips straight to the SA search.  The proxy is the
    defender-side ``M_resyn2`` rebuilt from the cached lock artifact.
    """
    from repro.core.proxy import build_resyn2_proxy
    from repro.pipeline import Runner

    runner = runner if runner is not None else Runner()
    runner.validate(spec)
    artifacts = runner.cell_artifacts(spec)
    locked = artifacts["lock"].as_locked_circuit()
    proxy = build_resyn2_proxy(locked, proxy_config)
    return attacker_resynthesis_sweep(
        artifacts["synth"].netlist,
        proxy,
        objective=objective,
        iterations=iterations,
        recipe_length=recipe_length,
        seed=seed,
        exact_verify=exact_verify,
    )


def accuracy_metric_correlation(points: list[ResynthesisPoint]) -> float:
    """Pearson correlation between metric ratio and attack accuracy.

    Fig. 5's claim is that this stays near zero: optimizing PPA does not
    hand the attacker accuracy back.
    """
    import numpy as np

    ratios = np.array([p.metric_ratio for p in points])
    accs = np.array([p.attack_accuracy for p in points])
    if ratios.std() == 0 or accs.std() == 0:
        return 0.0
    return float(np.corrcoef(ratios, accs)[0, 1])
