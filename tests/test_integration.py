"""Cross-module integration and property tests.

These exercise whole pipelines (lock -> synthesize -> map -> attack-view)
and invariants that only show up when modules compose.
"""

import numpy as np
import pytest

from repro.aig import aig_from_netlist, netlist_from_aig
from repro.aig.simulate import functionally_equal
from repro.attacks.subgraph import extract_localities, victim_key_inputs
from repro.locking import lock_rll, oracle_outputs
from repro.mapping import map_aig
from repro.netlist.simulate import random_patterns, simulate_patterns
from repro.synth import RESYN2, random_recipe
from repro.synth.engine import synthesize_and_map
from tests.conftest import build_random_netlist


class TestFullPipeline:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_lock_synth_map_preserves_oracle(self, seed):
        """The mapped, synthesized locked circuit equals the original
        under the correct key — the tape-out guarantee."""
        netlist = build_random_netlist(
            seed=seed, num_inputs=6, num_gates=30, num_outputs=3
        )
        locked = lock_rll(netlist, key_size=6, seed=seed)
        recipe = random_recipe(6, seed=seed + 1)
        _synth, mapped = synthesize_and_map(locked.netlist, recipe)
        expanded = mapped.to_netlist()

        patterns = random_patterns(len(netlist.inputs), 128, seed=seed + 2)
        want = simulate_patterns(netlist, patterns)
        got = oracle_outputs(expanded, locked.key, patterns)
        # Locking may rename PO nets (when the PO itself was locked), but
        # the positional order of outputs is preserved through the flow.
        order = [expanded.outputs.index(o) for o in locked.netlist.outputs]
        assert (want == got[:, order]).all()

    def test_localities_deterministic(self, locked_c432):
        _synth, mapped = synthesize_and_map(locked_c432.netlist, RESYN2)
        keys = victim_key_inputs(mapped)
        first = extract_localities(mapped, keys, [0] * len(keys))
        second = extract_localities(mapped, keys, [0] * len(keys))
        for a, b in zip(first, second):
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.edges, b.edges)

    def test_every_quick_benchmark_survives_the_pipeline(self):
        from repro.circuits import load_iscas85

        for name in ("c1355", "c6288"):
            netlist = load_iscas85(name, scale="quick")
            locked = lock_rll(netlist, key_size=8, seed=1)
            _synth, mapped = synthesize_and_map(locked.netlist, RESYN2)
            assert len(victim_key_inputs(mapped)) == 8


class TestFormatsCompose:
    def test_bench_aiger_bench_chain(self, c432_quick):
        """AIG -> netlist -> ``.bench`` text -> netlist -> AIG is lossless."""
        from repro.netlist.bench_io import parse_bench, write_bench

        aig = aig_from_netlist(c432_quick)
        back = netlist_from_aig(aig)
        reparsed = parse_bench(write_bench(back), name="roundtrip")
        assert functionally_equal(aig, aig_from_netlist(reparsed))


class TestProxyContract:
    def test_predicted_accuracy_on_circuit_matches_recipe_path(self):
        """Both proxy entry points must agree for the same recipe."""
        from repro.circuits import load_iscas85
        from repro.core.proxy import ProxyConfig, build_resyn2_proxy

        netlist = load_iscas85("c432", scale="quick")
        locked = lock_rll(netlist, key_size=8, seed=2)
        proxy = build_resyn2_proxy(
            locked, ProxyConfig(num_samples=16, epochs=3, relock_key_bits=8, seed=1)
        )
        via_recipe = proxy.predicted_accuracy(RESYN2)
        _synth, mapped = synthesize_and_map(locked.netlist, RESYN2)
        via_circuit = proxy.predicted_accuracy_on_circuit(mapped)
        assert via_recipe == via_circuit


class TestSaInvariants:
    def test_best_energy_monotone_in_trace(self):
        from repro.core.search import SearchConfig, SearchProblem, run_search

        result = run_search(
            SearchProblem(
                initial=10.0, neighbour=lambda x, rng: x + rng.normal()
            ),
            lambda xs: [abs(x - 2.0) for x in xs],
            strategy="sa",
            config=SearchConfig(iterations=40, seed=5),
        )
        best_values = [entry["best_energy"] for entry in result.trace]
        assert all(b1 >= b2 for b1, b2 in zip(best_values, best_values[1:])) or (
            sorted(best_values, reverse=True) == best_values
        )
        assert result.best_energy == min(entry["energy"] for entry in result.trace)
