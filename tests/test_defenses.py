"""Tests for the SAT-resilient defenses (Anti-SAT, SARLock, compounds),
the shared DipLoop core, and the AppSAT approximate attack."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.attacks import (
    AppSatAttack,
    AppSatConfig,
    DipLoop,
    SatAttack,
    SatAttackConfig,
    oracle_from_key,
)
from repro.circuits import CircuitBuilder
from repro.defenses import (
    POINT_FUNCTION_SCHEMES,
    compound,
    lock_antisat,
    lock_sarlock,
    lock_scheme,
    next_key_index,
)
from repro.errors import AttackError, LockingError, PipelineError
from repro.locking import Key, apply_key, lock_rll, oracle_outputs
from repro.netlist.simulate import exhaustive_patterns
from repro.pipeline import registry
from repro.sat import check_equivalence
from tests.conftest import build_random_netlist


def partition_bits(locked, scheme: str) -> tuple[int, ...]:
    """The key bits of ``locked``'s ``scheme`` partition."""
    by_name = dict(zip(locked.key_input_names, locked.key.bits))
    (partition,) = [p for p in locked.partitions if p.scheme == scheme]
    return tuple(by_name[net] for net in partition.key_inputs)


def small_circuit(num_inputs: int = 4, seed: int = 0):
    return build_random_netlist(
        num_inputs=num_inputs, num_gates=12, num_outputs=2, seed=seed
    )


class TestAntiSat:
    def test_function_preserved_under_correct_key(self, c432_quick):
        """SAT-proven: the Anti-SAT block is silent under the correct key."""
        locked = lock_antisat(c432_quick, seed=3)
        assert len(locked.key) == 2 * len(c432_quick.inputs)
        unlocked = apply_key(locked.netlist, locked.key)
        assert check_equivalence(unlocked, c432_quick).equivalent

    def test_every_equal_half_key_is_correct(self):
        """Anti-SAT's correct keys are exactly the B||B pairs."""
        netlist = small_circuit(3)
        locked = lock_antisat(netlist, width=2, seed=1)
        for bits in itertools.product((0, 1), repeat=2):
            key = Key(bits + bits)
            unlocked = apply_key(locked.netlist, key)
            assert check_equivalence(unlocked, netlist).equivalent, bits

    def test_wrong_key_corrupts(self):
        netlist = small_circuit(4)
        locked = lock_antisat(netlist, width=4, seed=2)
        half = locked.key.bits[:4]
        other = tuple(1 - b for b in locked.key.bits[4:])
        wrong = Key(half + other)
        unlocked = apply_key(locked.netlist, wrong)
        assert not check_equivalence(unlocked, netlist).equivalent

    def test_mismatched_halves_rejected(self):
        netlist = small_circuit(4)
        with pytest.raises(LockingError, match="halves"):
            lock_antisat(netlist, width=2, key=Key((0, 1, 1, 0)))

    def test_partition_metadata(self, c432_quick):
        locked = lock_antisat(c432_quick, width=4, seed=5)
        assert [p.scheme for p in locked.partitions] == ["antisat"]
        assert locked.partitions[0].key_inputs == locked.key_input_names
        assert partition_bits(locked, "antisat") == locked.key.bits

    def test_width_validation(self):
        netlist = small_circuit(3)
        with pytest.raises(LockingError, match="width"):
            lock_antisat(netlist, width=7)


class TestSarLock:
    def test_function_preserved_under_correct_key(self, c432_quick):
        """SAT-proven: the mask silences the block under the secret key."""
        locked = lock_sarlock(c432_quick, seed=4)
        assert len(locked.key) == len(c432_quick.inputs)
        unlocked = apply_key(locked.netlist, locked.key)
        assert check_equivalence(unlocked, c432_quick).equivalent

    def test_wrong_key_corrupts_exactly_one_minterm(self):
        """The SARLock contract: every wrong key errs on exactly X = K."""
        netlist = small_circuit(3, seed=5)
        locked = lock_sarlock(netlist, seed=6)
        width = len(netlist.inputs)
        patterns = exhaustive_patterns(width)
        correct = oracle_outputs(locked.netlist, locked.key, patterns)
        for bits in itertools.product((0, 1), repeat=width):
            key = Key(bits)
            if key.bits == locked.key.bits:
                continue
            outputs = oracle_outputs(locked.netlist, key, patterns)
            wrong_rows = np.flatnonzero((outputs != correct).any(axis=1))
            assert len(wrong_rows) == 1, bits
            # ... and the corrupted minterm is X = K, by construction.
            assert tuple(patterns[wrong_rows[0]]) == bits

    def test_key_is_unique(self):
        """Unlike Anti-SAT, exactly one key unlocks a SARLocked design."""
        netlist = small_circuit(3, seed=7)
        locked = lock_sarlock(netlist, seed=8)
        result = SatAttack().attack(locked)
        assert result.details["key_unique"] is True
        assert result.predicted_bits == locked.key.bits

    def test_explicit_key_is_honored(self):
        netlist = small_circuit(3)
        key = Key((1, 0, 1))
        locked = lock_sarlock(netlist, key=key)
        assert locked.key == key
        unlocked = apply_key(locked.netlist, key)
        assert check_equivalence(unlocked, netlist).equivalent


class TestCompound:
    def test_rll_plus_antisat_partitions_and_numbering(self, c432_quick):
        locked = lock_scheme(c432_quick, "rll+antisat", key_size=4, seed=9)
        assert [p.scheme for p in locked.partitions] == ["rll", "antisat"]
        assert len(locked.partitions[0]) == 4
        assert len(locked.partitions[1]) == 2 * len(c432_quick.inputs)
        # Key-input numbering continues across stages, so the concatenated
        # key bits line up with netlist.key_inputs order.
        assert list(locked.key_input_names) == locked.netlist.key_inputs
        assert locked.key_input_names[4] == "keyinput4"
        assert len(locked.key) == len(locked.key_input_names)

    def test_function_preserved(self, c432_quick):
        for scheme in ("rll+antisat", "rll+sarlock"):
            locked = lock_scheme(c432_quick, scheme, key_size=4, seed=10)
            unlocked = apply_key(locked.netlist, locked.key)
            assert check_equivalence(unlocked, c432_quick).equivalent, scheme

    def test_partition_bits_roundtrip(self, c432_quick):
        locked = lock_scheme(c432_quick, "rll+sarlock", key_size=4, seed=11)
        assert [p.scheme for p in locked.partitions] == ["rll", "sarlock"]
        rll_bits = partition_bits(locked, "rll")
        sar_bits = partition_bits(locked, "sarlock")
        assert rll_bits + sar_bits == locked.key.bits

    def test_compound_requires_lockers(self, c432_quick):
        with pytest.raises(LockingError):
            compound(c432_quick)
        with pytest.raises(LockingError, match="scheme"):
            lock_scheme(c432_quick, "rll+telepathy")

    def test_next_key_index_continues(self, c432_quick):
        locked = lock_rll(c432_quick, key_size=3, seed=1)
        assert next_key_index(locked.netlist) == 3
        assert next_key_index(c432_quick) == 0


class TestDipLoopOnDefenses:
    def test_antisat_forces_exponential_dips(self):
        """Anti-SAT's DIP lower bound: each DIP kills one K1 group, so the
        loop needs at least 2^(k-1) iterations at block width k."""
        netlist = small_circuit(4, seed=12)
        for k in (2, 3):
            locked = lock_antisat(netlist, width=k, seed=k)
            result = SatAttack(
                SatAttackConfig(max_iterations=256)
            ).attack(locked)
            assert result.details["exact"], k
            assert result.details["iterations"] >= 2 ** (k - 1), (
                k, result.details["iterations"]
            )
            unlocked = apply_key(locked.netlist, Key(result.predicted_bits))
            assert check_equivalence(unlocked, netlist).equivalent

    def test_antisat_recovered_key_never_unique(self):
        """Every B||B key is correct, so the survivor can't be unique."""
        netlist = small_circuit(4, seed=13)
        locked = lock_antisat(netlist, width=3, seed=14)
        result = SatAttack().attack(locked)
        assert result.details["exact"]
        assert result.details["key_unique"] is False

    def test_dip_loop_unit(self, c432_quick):
        """Drive the DipLoop core directly, the way both attacks do."""
        locked = lock_rll(c432_quick, key_size=6, seed=15)
        oracle = oracle_from_key(locked.netlist, locked.key)
        loop = DipLoop(locked.netlist, oracle)
        while True:
            pattern = loop.find_dip()
            if pattern is None:
                break
            response = loop.observe(pattern)
            assert response.shape == (len(locked.netlist.outputs),)
        assert loop.iterations == len(loop.trace)
        assert loop.oracle_queries == loop.iterations
        predicted = loop.extract_key()
        assert predicted is not None
        unlocked = apply_key(locked.netlist, Key(predicted))
        assert check_equivalence(unlocked, c432_quick).equivalent
        details = loop.details()
        assert details["iterations"] == loop.iterations
        assert details["solver"]["propagations"] > 0

    def test_dip_loop_needs_key_inputs(self, c432_quick):
        with pytest.raises(AttackError):
            DipLoop(c432_quick, lambda p: p)


class TestAppSat:
    def test_registered(self):
        assert registry.registered("attack", "appsat")
        with pytest.raises(PipelineError):
            registry.get("attack", "no-such-attack")

    def test_exact_on_plain_rll(self, c432_quick):
        """With nothing starving the loop, AppSAT degenerates to exact."""
        locked = lock_rll(c432_quick, key_size=6, seed=16)
        result = AppSatAttack().attack(locked)
        assert result.details["exact"]
        assert result.details["error_rate"] == 0.0
        assert not result.details["budget_exhausted"]
        unlocked = apply_key(locked.netlist, Key(result.predicted_bits))
        assert check_equivalence(unlocked, c432_quick).equivalent

    def test_early_exit_on_point_function(self, c432_quick):
        """Full-width Anti-SAT needs ~2^n DIPs; AppSAT settles early with
        a low-error approximate key instead."""
        locked = lock_scheme(c432_quick, "rll+antisat", key_size=4, seed=17)
        config = AppSatConfig(
            max_iterations=128, query_period=4, random_queries=48, seed=18
        )
        result = AppSatAttack(config).attack(locked)
        assert result.details["early_exit"]
        assert not result.details["exact"]
        assert result.details["error_rate"] <= 0.05
        assert result.details["iterations"] < 128
        # The approximate key really is approximately correct: measure the
        # output error rate on fresh random patterns.
        rng = np.random.default_rng(99)
        patterns = rng.integers(
            0, 2, size=(128, len(locked.netlist.functional_inputs)),
            dtype=np.uint8,
        )
        expected = oracle_outputs(locked.netlist, locked.key, patterns)
        predicted = oracle_outputs(
            locked.netlist, Key(result.predicted_bits), patterns
        )
        error = (expected != predicted).any(axis=1).mean()
        assert error <= 0.05

    def test_budget_exhaustion_shares_partial_shape(self, c432_quick):
        locked = lock_antisat(c432_quick, seed=19)
        config = AppSatConfig(
            max_iterations=3, query_period=100, settle_rounds=1
        )
        result = AppSatAttack(config).attack(locked)
        assert result.details["budget_exhausted"] is True
        assert not result.details["exact"]
        assert result.key_size == len(locked.key)

    def test_config_validation(self):
        with pytest.raises(AttackError):
            AppSatConfig(query_period=0)
        with pytest.raises(AttackError):
            AppSatConfig(error_threshold=1.5)
        with pytest.raises(AttackError):
            AppSatConfig(random_queries=0)
        with pytest.raises(AttackError):
            AppSatConfig(settle_rounds=0)

    def test_point_function_schemes_exported(self):
        assert set(POINT_FUNCTION_SCHEMES) == {"antisat", "sarlock"}


class TestReviewRegressions:
    def test_flip_target_that_is_also_an_input(self):
        """A primary output that is directly a primary input must not
        close a combinational cycle through the block's comparators."""
        from repro.circuits import CircuitBuilder

        builder = CircuitBuilder("passthrough")
        a = builder.input("a")
        b = builder.input("b")
        builder.output(a, name="a")         # PO == PI
        builder.output(builder.and_(a, b), name="y")
        netlist = builder.build()
        for lock_fn in (lock_antisat, lock_sarlock):
            locked = lock_fn(netlist, target="a", seed=1)
            locked.netlist.validate()
            unlocked = apply_key(locked.netlist, locked.key)
            assert check_equivalence(unlocked, netlist).equivalent

    def test_trace_attributes_solver_effort_to_iterations(self, c432_quick):
        """Per-DIP deltas must span the miter solve, not just the oracle
        query — totals and trace sums must agree."""
        locked = lock_rll(c432_quick, key_size=8, seed=21)
        result = SatAttack().attack(locked)
        trace = result.details["trace"]
        totals = result.details["solver"]
        for counter in ("decisions", "propagations"):
            assert sum(e[counter] for e in trace) <= totals[counter]
        # The DIP searches do real work; the old bug recorded all zeros.
        assert sum(e["propagations"] for e in trace) > 0
        assert sum(e["decisions"] for e in trace) > 0

    def test_appsat_budget_error_rate_matches_returned_key(self, c432_quick):
        """On budget exhaustion the reported error rate is measured for
        the key actually returned, not a stale earlier candidate."""
        locked = lock_antisat(c432_quick, seed=22)
        config = AppSatConfig(
            max_iterations=6, query_period=2, random_queries=64,
            error_threshold=0.0, settle_rounds=50, seed=23,
        )
        result = AppSatAttack(config).attack(locked)
        assert result.details["budget_exhausted"]
        reported = result.details["error_rate"]
        assert reported is not None
        # Re-measure independently: a wrong Anti-SAT key errs on at most
        # one minterm, so the measured rate must be tiny either way.
        patterns = np.random.default_rng(24).integers(
            0, 2, size=(256, len(locked.netlist.functional_inputs)),
            dtype=np.uint8,
        )
        expected = oracle_outputs(locked.netlist, locked.key, patterns)
        predicted = oracle_outputs(
            locked.netlist, Key(result.predicted_bits), patterns
        )
        measured = float((expected != predicted).any(axis=1).mean())
        assert abs(measured - reported) <= 0.05

    def test_given_locker_partition_survives_structural_defense(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        design = tmp_path / "c432.bench"
        locked = tmp_path / "locked.bench"
        main(["gen", "c432", "--out", str(design)])
        main(["lock", str(design), "--key-size", "4", "--out", str(locked)])
        key_line = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("key (keep secret!): ")
        ][-1]
        assert main([
            "defend", str(locked), "--scheme", "antisat",
            "--key", key_line.split(": ")[1].strip(),
            "--workdir", str(tmp_path / "cache"),
        ]) == 0
        out = capsys.readouterr().out
        assert "partition given: 4 key bits" in out
        assert "partition antisat: 18 key bits" in out

    def test_point_function_locker_rejects_explicit_key(self, tmp_path):
        from repro.errors import PipelineError
        from repro.pipeline import (
            BenchmarkSpec, ExperimentSpec, LockSpec, run_experiment,
        )

        spec = ExperimentSpec(
            name="bad-key",
            benchmarks=(BenchmarkSpec(name="c432"),),
            lock=LockSpec(locker="antisat", key="0101"),
        )
        with pytest.raises(PipelineError, match="LockSpec.key"):
            run_experiment(spec, workdir=tmp_path, use_cache=False)

    def test_query_record_constructors_agree(self):
        from repro.reporting import QueryComplexityRecord

        class FakeCell:
            attack = "sat"
            key_size = 8
            elapsed_s = 1.5
            details = {"attack": {"iterations": 4, "budget_exhausted": True}}

        class FakeResult:
            attack_name = "sat"
            key_size = 8
            details = {"iterations": 4, "budget_exhausted": True}

        from_cell = QueryComplexityRecord.from_cell("s", FakeCell())
        from_result = QueryComplexityRecord.from_result("s", FakeResult())
        # One fallback policy: identical details yield identical verdicts.
        assert from_cell.exact == from_result.exact is False
        assert from_cell.budget_exhausted and from_result.budget_exhausted
        assert from_cell.dips == from_result.dips == 4
