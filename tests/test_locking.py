"""Tests for RLL locking, keys, the oracle and re-locking."""

import numpy as np
import pytest

from repro.errors import LockingError
from repro.locking import Key, apply_key, lock_rll, oracle_outputs, relock
from repro.netlist.gates import GateType
from repro.netlist.simulate import random_patterns, simulate_patterns
from repro.sat import check_equivalence
from repro.synth import RESYN2
from repro.synth.engine import synthesize_netlist


class TestKey:
    def test_random_deterministic(self):
        assert Key.random(16, seed=1).bits == Key.random(16, seed=1).bits

    def test_bits_validated(self):
        with pytest.raises(LockingError):
            Key((0, 2, 1))


class TestLockRll:
    def test_correct_key_preserves_function(self, c432_quick):
        locked = lock_rll(c432_quick, key_size=8, seed=7)
        patterns = random_patterns(len(c432_quick.inputs), 256, seed=1)
        original = simulate_patterns(c432_quick, patterns)
        unlocked = oracle_outputs(locked.netlist, locked.key, patterns)
        assert (original == unlocked).all()

    def test_wrong_key_corrupts_function(self, c432_quick):
        locked = lock_rll(c432_quick, key_size=8, seed=7)
        wrong = Key(tuple(1 - b for b in locked.key.bits))
        patterns = random_patterns(len(c432_quick.inputs), 256, seed=2)
        original = simulate_patterns(c432_quick, patterns)
        corrupted = oracle_outputs(locked.netlist, wrong, patterns)
        assert (original != corrupted).any()

    def test_single_wrong_bit_corrupts(self, c432_quick):
        locked = lock_rll(c432_quick, key_size=8, seed=9)
        bits = list(locked.key.bits)
        bits[0] ^= 1
        patterns = random_patterns(len(c432_quick.inputs), 512, seed=3)
        original = simulate_patterns(c432_quick, patterns)
        corrupted = oracle_outputs(locked.netlist, Key(tuple(bits)), patterns)
        assert (original != corrupted).any()

    def test_gate_types_match_key_bits(self, c432_quick):
        locked = lock_rll(c432_quick, key_size=8, seed=5)
        drivers = locked.netlist.driver_map()
        for net, key_net, bit in zip(
            locked.locked_nets, locked.key_input_names, locked.key.bits
        ):
            gate = drivers[f"{net}__lk_{key_net}"]
            expected = GateType.XNOR if bit else GateType.XOR
            assert gate.gate_type is expected

    def test_key_inputs_registered(self, c432_quick):
        locked = lock_rll(c432_quick, key_size=8, seed=5)
        assert len(locked.netlist.key_inputs) == 8
        assert locked.netlist.key_inputs == list(locked.key_input_names)

    def test_too_many_keys_rejected(self, tiny_netlist):
        with pytest.raises(LockingError):
            lock_rll(tiny_netlist, key_size=50, seed=0)

    def test_explicit_key_and_nets(self, tiny_netlist):
        key = Key((1, 0))
        nets = [tiny_netlist.gates[0].output, tiny_netlist.gates[1].output]
        locked = lock_rll(tiny_netlist, key_size=2, key=key, nets=nets)
        assert locked.key is key
        assert locked.locked_nets == tuple(nets)


class TestApplyKey:
    def test_apply_key_removes_key_inputs(self, locked_c432):
        applied = apply_key(locked_c432.netlist, locked_c432.key)
        assert applied.key_inputs == []
        patterns = random_patterns(len(applied.functional_inputs), 128, seed=4)
        via_oracle = oracle_outputs(locked_c432.netlist, locked_c432.key, patterns)
        direct = simulate_patterns(applied, patterns, input_order=applied.functional_inputs)
        assert (via_oracle == direct).all()

    def test_wrong_size_rejected(self, locked_c432):
        with pytest.raises(LockingError):
            apply_key(locked_c432.netlist, Key((0, 1)))


class TestRelockAndSynthesis:
    def test_relock_uses_distinct_prefix(self, locked_c432):
        relocked = relock(locked_c432.netlist, key_size=4, seed=1)
        assert all(
            name.startswith("relockinput") for name in relocked.key_input_names
        )
        # Victim key inputs unchanged.
        assert locked_c432.netlist.key_inputs == relocked.netlist.key_inputs

    def test_relock_twice_no_collision(self, locked_c432):
        first = relock(locked_c432.netlist, key_size=4, seed=1)
        second = relock(first.netlist, key_size=4, seed=2)
        second.netlist.validate()
        assert len(second.netlist.inputs) == len(locked_c432.netlist.inputs) + 8

    def test_locked_function_preserved_through_synthesis(self, locked_c432):
        synthesized = synthesize_netlist(locked_c432.netlist, RESYN2)
        patterns = random_patterns(
            len(locked_c432.netlist.functional_inputs), 256, seed=5
        )
        before = oracle_outputs(locked_c432.netlist, locked_c432.key, patterns)
        after = oracle_outputs(synthesized, locked_c432.key, patterns)
        # Align output order by name.
        order = [synthesized.outputs.index(o) for o in locked_c432.netlist.outputs]
        assert (before == after[:, order]).all()
        # Sampling 256 vectors is a spot check; the miter proves it for the
        # whole input space (key inputs included).
        assert check_equivalence(locked_c432.netlist, synthesized).equivalent

    def test_correct_key_equivalence_proof(self, locked_c432, c432_quick):
        """apply_key(correct) is exactly the original; any flipped bit isn't."""
        unlocked = apply_key(locked_c432.netlist, locked_c432.key)
        assert check_equivalence(unlocked, c432_quick).equivalent
        wrong = Key(tuple(1 - b for b in locked_c432.key.bits))
        verdict = check_equivalence(
            apply_key(locked_c432.netlist, wrong), c432_quick
        )
        assert not verdict.equivalent
        assert verdict.counterexample is not None

    def test_key_inputs_survive_synthesis(self, locked_c432):
        synthesized = synthesize_netlist(locked_c432.netlist, RESYN2)
        assert synthesized.key_inputs == locked_c432.netlist.key_inputs
