"""SAT-attack scaling — DIP-loop growth over circuits and key sizes.

Not a paper table: the paper's defense targets *oracle-less* attacks, and
this bench characterizes the contrasting oracle-guided threat the SAT
subsystem introduces.  It tracks how many distinguishing-input iterations
and how much solver effort the DIP loop needs on ISCAS-85-style circuits as
the key widens, and cross-checks every recovered key exactly: a key the
miter cannot distinguish from the oracle's is a functionally correct
unlock, whatever its bit-level Hamming distance to the defender's key.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.attacks import SatAttack, SatAttackConfig
from repro.attacks.sat_attack import DipLoop, oracle_from_key
from repro.circuits import load_iscas85
from repro.defenses import lock_antisat
from repro.locking import apply_key
from repro.locking.key import Key
from repro.reporting import SatAttackRecord, render_sat_attack_table
from repro.sat import check_equivalence
from repro.utils.rng import derive_seed

DIP_BUDGET = 512
ARM_SEED = 2023  # pinned DIP-loop workload (see BENCH_sat.json)
ANTISAT_WIDTH = 4
ARM_STATS = (
    "conflicts", "decisions", "propagations", "restarts",
    "db_reductions", "learned_deleted", "minimized_lits",
)


def _run_one(locked):
    result = SatAttack(SatAttackConfig(max_iterations=DIP_BUDGET)).attack(locked)
    recovered = apply_key(locked.netlist, Key(result.predicted_bits))
    reference = apply_key(locked.netlist, locked.key)
    verdict = check_equivalence(recovered, reference)
    return result, verdict


def test_bench_sat_attack_dip_scaling(workspace, scale, benchmark):
    smallest = scale.benchmarks[0]
    locked0 = workspace.locked(smallest)
    benchmark.pedantic(
        lambda: SatAttack(SatAttackConfig(max_iterations=DIP_BUDGET)).attack(
            locked0
        ),
        rounds=1,
        iterations=1,
    )

    records = []
    key_sizes = sorted({*scale.key_sizes, max(4, scale.key_sizes[0] // 2)})
    for name in scale.benchmarks:
        for key_size in key_sizes:
            locked = workspace.locked(name, key_size)
            result, verdict = _run_one(locked)
            records.append(
                SatAttackRecord.from_result(
                    f"{name}/k{key_size}",
                    result,
                    functionally_correct=verdict.equivalent,
                )
            )
            assert verdict.equivalent, (
                f"SAT attack returned a wrong key on {name} k={key_size}"
            )
            assert result.details["iterations"] <= DIP_BUDGET

    print()
    print(render_sat_attack_table(records))
    # The DIP loop must terminate well inside the budget at these scales.
    assert max(r.iterations for r in records) < DIP_BUDGET


def _run_loop(locked):
    """Drive the production DipLoop to completion; DIPs, key, effort."""
    oracle = oracle_from_key(locked.netlist, locked.key)
    started = time.perf_counter()
    loop = DipLoop(locked.netlist, oracle)
    dips = []
    while len(dips) <= DIP_BUDGET:
        pattern = loop.find_dip()
        if pattern is None:
            break
        dips.append(tuple(int(b) for b in pattern))
        loop.observe(pattern)
    key = loop.extract_key()
    elapsed = time.perf_counter() - started
    stats = loop.solver.stats
    return {
        "elapsed_s": round(elapsed, 4),
        "iterations": loop.iterations,
        **{name: stats[name] for name in ARM_STATS},
    }, dips, key


def test_bench_sat_attack_dip_loop(scale):
    """The DIP loop's cost on one pinned workload, run twice.

    Anti-SAT on c432 is the pinned workload because its point-function
    structure forces a long DIP sequence over one growing CNF.  Both runs
    must ask the same DIPs and recover the same key, and that key must
    unlock the circuit; the faster run's time is recorded.

    Writes ``BENCH_sat.json`` (schema in docs/benchmarks.md).
    """
    netlist = load_iscas85("c432", scale=scale.circuit_scale, seed=ARM_SEED)
    locked = lock_antisat(
        netlist, width=ANTISAT_WIDTH, seed=derive_seed(ARM_SEED, "antisat")
    )
    runs = [_run_loop(locked) for _ in range(2)]

    # Correctness before speed: the loop is deterministic and the
    # recovered key actually unlocks the circuit.
    (first, first_dips, first_key), (second, second_dips, second_key) = runs
    assert second_dips == first_dips, "DIP sequences diverged between runs"
    assert second_key == first_key, "recovered keys diverged between runs"
    assert {k: v for k, v in second.items() if k != "elapsed_s"} == {
        k: v for k, v in first.items() if k != "elapsed_s"
    }
    unlocked = apply_key(locked.netlist, Key(first_key))
    assert check_equivalence(unlocked, netlist).equivalent

    arm = min((run for run, _dips, _key in runs), key=lambda r: r["elapsed_s"])
    payload = {
        "bench": "sat_attack",
        "workload": {
            "circuit": "c432",
            "circuit_scale": scale.circuit_scale,
            "defense": "antisat",
            "antisat_width": ANTISAT_WIDTH,
            "key_size": len(locked.key.bits),
            "dip_budget": DIP_BUDGET,
            "seed": ARM_SEED,
        },
        "dip_loop": arm,
        "identical_replay": True,
    }
    Path("BENCH_sat.json").write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(
        f"DIP loop {arm['elapsed_s']:.3f}s over {arm['iterations']} DIPs; "
        f"{arm['conflicts']} conflicts, {arm['decisions']} decisions"
    )


def test_bench_sat_attack_vs_oracle_less(workspace, scale):
    """Side-by-side: exact oracle-guided recovery vs. the paper's ML attack."""
    from repro.attacks import ScopeAttack

    name = scale.benchmarks[0]
    locked = workspace.locked(name)
    sat_result, verdict = _run_one(locked)
    netlist, _mapped = workspace.victim(name)
    scope_acc = ScopeAttack().attack(netlist, locked.key).accuracy

    print()
    print(
        render_sat_attack_table(
            [
                SatAttackRecord.from_result(
                    name, sat_result, functionally_correct=verdict.equivalent
                )
            ],
            ml_accuracies={name: scope_acc},
        )
    )
    # The oracle-guided attack fully breaks RLL where oracle-less SCOPE
    # hovers near guessing — the gap ALMOST's threat model is scoped to.
    assert verdict.equivalent
