"""Tests for the SAT subsystem: CNF, CDCL solver, miter, SAT attack."""

import itertools

import numpy as np
import pytest

from repro.aig.build import aig_from_netlist
from repro.aig.simulate import output_truth_tables
from repro.attacks import (
    SatAttack,
    SatAttackConfig,
    oracle_from_key,
)
from repro.circuits import CircuitBuilder
from repro.errors import AttackError, PipelineError, SatError
from repro.locking import Key, apply_key, lock_rll
from repro.netlist.gates import GATE_ARITY, GateType
from repro.netlist.netlist import Netlist
from repro.netlist.simulate import exhaustive_patterns, simulate_patterns
from repro.pipeline import registry
from repro.sat import (
    CdclSolver,
    Cnf,
    build_miter,
    check_equivalence,
    cnf_from_dimacs,
    solve_cnf,
    tseitin_aig,
    tseitin_netlist,
)
from repro.synth import RESYN2
from repro.synth.engine import synthesize_netlist
from tests.conftest import build_random_netlist


class TestCnf:
    def test_new_var_and_clause_validation(self):
        cnf = Cnf()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_clause((a, -b))
        assert cnf.num_vars == 2 and cnf.num_clauses == 1
        with pytest.raises(SatError):
            cnf.add_clause((0,))
        with pytest.raises(SatError):
            cnf.add_clause((3,))

    def test_dimacs_round_trip(self):
        cnf = Cnf(4)
        cnf.add_clause((1, -2, 3))
        cnf.add_clause((-1, 4))
        cnf.add_clause((2,))
        text = cnf.to_dimacs(comments=["example", "two comments"])
        parsed = cnf_from_dimacs(text)
        assert parsed.num_vars == cnf.num_vars
        assert parsed.clauses == cnf.clauses
        # And the round trip is a fixpoint.
        assert parsed.to_dimacs() == cnf.to_dimacs()

    def test_dimacs_parse_errors(self):
        with pytest.raises(SatError):
            cnf_from_dimacs("1 2 0\n")  # clause before header
        with pytest.raises(SatError):
            cnf_from_dimacs("p cnf 2 1\n1 2\n")  # unterminated clause
        with pytest.raises(SatError):
            cnf_from_dimacs("p cnf 2 2\n1 2 0\n")  # clause count mismatch
        with pytest.raises(SatError):
            cnf_from_dimacs("c only comments\n")


class TestCdclSolver:
    def test_empty_clause_unsat(self):
        cnf = Cnf(2)
        cnf.add_clause((1, 2))
        solver = CdclSolver(cnf)
        solver.add_clause(())
        assert not solver.solve().satisfiable

    def test_contradictory_units_unsat(self):
        cnf = Cnf(1)
        cnf.add_clause((1,))
        cnf.add_clause((-1,))
        assert not solve_cnf(cnf).satisfiable

    def test_model_satisfies_clauses(self):
        cnf = Cnf(3)
        clauses = [(1, 2), (-1, 3), (-2, -3), (1, 3)]
        for clause in clauses:
            cnf.add_clause(clause)
        result = solve_cnf(cnf)
        assert result.satisfiable
        for clause in clauses:
            assert any(
                result.value(abs(lit)) == (lit > 0) for lit in clause
            )

    def test_agrees_with_brute_force_on_random_instances(self):
        from repro.utils.rng import make_rng

        rng = make_rng(11)
        for trial in range(40):
            num_vars = int(rng.integers(1, 8))
            clauses = []
            cnf = Cnf(num_vars)
            for _ in range(int(rng.integers(1, 26))):
                clause = tuple(
                    int((-1 if rng.random() < 0.5 else 1) * rng.integers(1, num_vars + 1))
                    for _ in range(int(rng.integers(1, 4)))
                )
                clauses.append(clause)
                cnf.add_clause(clause)
            expected = any(
                all(
                    any(
                        (bits[abs(lit) - 1] if lit > 0 else not bits[abs(lit) - 1])
                        for lit in clause
                    )
                    for clause in clauses
                )
                for bits in itertools.product([False, True], repeat=num_vars)
            )
            assert solve_cnf(cnf).satisfiable == expected, f"trial {trial}"

    def test_pigeonhole_unsat(self):
        pigeons, holes = 5, 4
        cnf = Cnf(pigeons * holes)
        var = lambda p, h: p * holes + h + 1  # noqa: E731
        for p in range(pigeons):
            cnf.add_clause([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    cnf.add_clause((-var(p1, h), -var(p2, h)))
        result = solve_cnf(cnf)
        assert not result.satisfiable
        assert result.stats["conflicts"] > 0  # required actual search

    def test_assumptions_incremental(self):
        cnf = Cnf(3)
        cnf.add_clause((1, 2))
        cnf.add_clause((-1, 3))
        solver = CdclSolver(cnf)
        under_a = solver.solve([1])
        assert under_a.satisfiable and under_a.value(3) is True
        blocked = solver.solve([1, -3])
        assert not blocked.satisfiable and blocked.assumption_failed
        # Assumption failure is not global unsatisfiability.
        assert solver.solve([]).satisfiable
        # Clauses may arrive between solve calls.
        solver.add_clause((-2,))
        assert solver.solve([-1]).assumption_failed
        assert solver.solve([1]).satisfiable

    def test_tautology_and_duplicates_ignored(self):
        solver = CdclSolver(Cnf(2))
        solver.add_clause((1, -1))
        solver.add_clause((2, 2))
        result = solver.solve()
        assert result.satisfiable and result.value(2) is True


class TestTseitin:
    def _equivalence_by_enumeration(self, netlist):
        """CNF models restricted to inputs must match simulation exactly."""
        aig = aig_from_netlist(netlist)
        tables = output_truth_tables(aig)
        encoded = tseitin_aig(aig)
        names = aig.pi_names()
        for minterm in range(1 << len(names)):
            assumptions = []
            for index, name in enumerate(names):
                var = encoded.inputs[name]
                assumptions.append(var if (minterm >> index) & 1 else -var)
            for po_index, name in enumerate(aig.po_names()):
                expected = bool((tables[po_index].bits >> minterm) & 1)
                lit = encoded.outputs[name]
                solver = CdclSolver(encoded.cnf)
                result = solver.solve(assumptions + [lit])
                assert result.satisfiable == expected, (minterm, name)

    def test_aig_encoding_matches_simulation(self, tiny_netlist):
        self._equivalence_by_enumeration(tiny_netlist)

    def test_netlist_encoding_all_gate_types(self):
        builder = CircuitBuilder("gates")
        a = builder.input("a")
        b = builder.input("b")
        c = builder.input("c")
        builder.output(builder.and_(a, b), name="o_and")
        builder.output(builder.nand(a, b), name="o_nand")
        builder.output(builder.or_(a, c), name="o_or")
        builder.output(builder.nor(b, c), name="o_nor")
        builder.output(builder.xor(a, b), name="o_xor")
        builder.output(builder.xnor(a, c), name="o_xnor")
        builder.output(builder.not_(a), name="o_not")
        netlist = builder.build()
        netlist.gates.append(
            type(netlist.gates[0])("o_mux", GateType.MUX, (a, b, c))
        )
        netlist.outputs.append("o_mux")
        netlist.validate()

        encoded = tseitin_netlist(netlist)
        solver = CdclSolver(encoded.cnf)
        from repro.netlist.simulate import exhaustive_patterns, simulate_patterns

        patterns = exhaustive_patterns(3)
        expected = simulate_patterns(netlist, patterns)
        for row, pattern in enumerate(patterns):
            assumptions = [
                encoded.inputs[net] if bit else -encoded.inputs[net]
                for net, bit in zip(netlist.inputs, pattern)
            ]
            result = solver.solve(assumptions)
            assert result.satisfiable
            model = result.model
            for col, net in enumerate(netlist.outputs):
                lit = encoded.outputs[net]
                value = model[abs(lit)] == (lit > 0)
                assert value == bool(expected[row, col]), (row, net)

    def test_shared_input_vars(self, tiny_netlist):
        cnf = Cnf()
        first = tseitin_netlist(tiny_netlist, cnf)
        second = tseitin_netlist(tiny_netlist, cnf, input_vars=first.inputs)
        assert first.inputs == second.inputs
        # Same inputs, same function: outputs can never differ.
        solver = CdclSolver(cnf)
        for net in tiny_netlist.outputs:
            diff = cnf.new_var()
            from repro.sat.cnf import add_xor_clauses

            add_xor_clauses(cnf, diff, first.outputs[net], second.outputs[net])
            solver = CdclSolver(cnf)
            assert not solver.solve([diff]).satisfiable


def _every_gate_netlist(seed: int, num_inputs: int = 4) -> Netlist:
    """A random DAG holding every :class:`GateType` at least twice.

    Associative gates take two to four operands, and an operand may repeat,
    so n-ary XOR/XNOR chains and ``x XOR x`` both occur.  Every gate net is
    a primary output.
    """
    rng = np.random.default_rng(seed)
    netlist = Netlist(name=f"every_gate{seed}")
    nets = [netlist.add_input(f"x{index}") for index in range(num_inputs)]
    kinds = [*GateType, *GateType]
    for index in rng.permutation(len(kinds)):
        kind = kinds[index]
        arity = GATE_ARITY[kind]
        if arity is None:
            arity = int(rng.integers(2, 5))
        operands = [nets[int(rng.integers(len(nets)))] for _ in range(arity)]
        net = netlist.add_gate(f"g{len(nets)}", kind, operands)
        nets.append(net)
        netlist.add_output(net)
    netlist.validate()
    return netlist


def _ternary(netlist: Netlist, fixed: dict) -> dict:
    """Each net's value under ``fixed`` inputs: True/False, or None if free."""
    values = {net: fixed.get(net) for net in netlist.inputs}
    for gate in netlist.topological_gates():
        ins = [values[net] for net in gate.inputs]
        kind = gate.gate_type
        known = None not in ins
        if kind is GateType.CONST0:
            value = False
        elif kind is GateType.CONST1:
            value = True
        elif kind in (GateType.BUF, GateType.NOT):
            value = None if ins[0] is None else ins[0] ^ (kind is GateType.NOT)
        elif kind in (GateType.AND, GateType.NAND):
            value = False if False in ins else (True if known else None)
            if value is not None and kind is GateType.NAND:
                value = not value
        elif kind in (GateType.OR, GateType.NOR):
            value = True if True in ins else (False if known else None)
            if value is not None and kind is GateType.NOR:
                value = not value
        elif kind in (GateType.XOR, GateType.XNOR):
            value = None
            if known:
                value = (sum(ins) % 2 == 1) ^ (kind is GateType.XNOR)
        else:  # MUX(sel, a, b)
            sel, a, b = ins
            if sel is not None:
                value = b if sel else a
            else:
                value = a if a is not None and a == b else None
        values[gate.output] = value
    return values


def _encoded_vars_bound(netlist: Netlist, values: dict) -> int:
    """Variables a folded encoding may use: free inputs, one constant and
    one per Tseitin gate (``n - 1`` for an ``n``-operand XOR chain)."""
    bound = sum(values[net] is None for net in netlist.inputs) + 1
    for gate in netlist.topological_gates():
        if values[gate.output] is not None:
            continue
        if gate.gate_type in (GateType.XOR, GateType.XNOR):
            bound += len(gate.inputs) - 1
        elif gate.gate_type not in (GateType.BUF, GateType.NOT):
            bound += 1
    return bound


class TestConstantFolding:
    """``tseitin_netlist(constants=...)`` against exhaustive simulation."""

    @pytest.mark.parametrize("seed", range(6))
    def test_folded_encoding_matches_simulation(self, seed):
        netlist = _every_gate_netlist(seed)
        inputs = netlist.inputs
        patterns = exhaustive_patterns(len(inputs))
        expected = simulate_patterns(netlist, patterns)
        for choice in itertools.product((None, False, True), repeat=len(inputs)):
            fixed = {
                net: value for net, value in zip(inputs, choice)
                if value is not None
            }
            encoded = tseitin_netlist(netlist, constants=fixed)
            assert set(encoded.inputs) == set(inputs) - set(fixed)
            values = _ternary(netlist, fixed)
            # A gate the constants decide is the constant literal, which a
            # unit clause forces FALSE; it allocates no variable.
            decided = {
                net: value for net, value in values.items()
                if value is not None and net not in fixed
            }
            constant_vars = {abs(encoded.lits[net]) for net in decided}
            assert len(constant_vars) <= 1
            for var in constant_vars:
                assert (-var,) in encoded.cnf.clauses
            for net, value in decided.items():
                assert (encoded.lits[net] < 0) == value, net
            assert encoded.cnf.num_vars <= _encoded_vars_bound(netlist, values)
            solver = CdclSolver(encoded.cnf)
            for row, pattern in enumerate(patterns):
                if any(
                    bool(bit) != fixed.get(net, bool(bit))
                    for net, bit in zip(inputs, pattern)
                ):
                    continue
                assumptions = [
                    var if pattern[inputs.index(net)] else -var
                    for net, var in encoded.inputs.items()
                ]
                result = solver.solve(assumptions)
                assert result.satisfiable
                for col, net in enumerate(netlist.outputs):
                    lit = encoded.outputs[net]
                    value = result.model[abs(lit)] == (lit > 0)
                    assert value == bool(expected[row, col]), (fixed, row, net)

    def test_contradicted_constant_output_is_unsat(self, tiny_netlist):
        # y = (a AND b) XOR c with a = 0 is the free input c; z = NOT a is 1.
        encoded = tseitin_netlist(tiny_netlist, constants={"a": False})
        assert encoded.outputs["y"] == encoded.inputs["c"]
        agree = CdclSolver(encoded.cnf)
        agree.add_clause((encoded.outputs["z"],))
        assert agree.solve().satisfiable
        clash = CdclSolver(encoded.cnf)
        clash.add_clause((-encoded.outputs["z"],))
        assert not clash.solve().satisfiable

    def test_rejects_bad_constants(self, tiny_netlist):
        with pytest.raises(SatError):
            tseitin_netlist(tiny_netlist, constants={"y": True})
        with pytest.raises(SatError):
            tseitin_netlist(
                tiny_netlist, input_vars={"a": 1}, constants={"a": True}
            )


class TestMiterEquivalence:
    def test_equivalent_to_itself(self, tiny_netlist):
        verdict = check_equivalence(tiny_netlist, tiny_netlist.copy())
        assert verdict.equivalent and bool(verdict)
        assert verdict.counterexample is None

    def test_synthesis_preserves_function_exactly(self, c432_quick):
        optimized = synthesize_netlist(c432_quick, RESYN2)
        assert check_equivalence(c432_quick, optimized).equivalent

    def test_mutated_copy_yields_verified_counterexample(self, c432_quick):
        optimized = synthesize_netlist(c432_quick, RESYN2)
        mutated = optimized.copy()
        for index, gate in enumerate(mutated.gates):
            if gate.gate_type is GateType.AND and gate.output in {
                net for g in mutated.gates for net in g.inputs
            } | set(mutated.outputs):
                mutated.gates[index] = type(gate)(
                    gate.output, GateType.NOR, gate.inputs
                )
                break
        verdict = check_equivalence(c432_quick, mutated)
        if verdict.equivalent:
            pytest.skip("mutation happened to be functionally invisible")
        # The counterexample is simulation-verified inside check_equivalence;
        # double-check from the outside too.
        from repro.netlist.simulate import simulate_patterns

        pattern = np.array(
            [[verdict.counterexample[net] for net in c432_quick.inputs]],
            dtype=np.uint8,
        )
        original_out = simulate_patterns(c432_quick, pattern)
        mutated_out = simulate_patterns(
            mutated, pattern, input_order=c432_quick.inputs
        )
        order = [mutated.outputs.index(net) for net in c432_quick.outputs]
        assert (original_out != mutated_out[:, order]).any()

    def test_random_netlists_equal_after_synthesis(self):
        for seed in range(3):
            netlist = build_random_netlist(seed=seed, num_gates=20)
            assert check_equivalence(
                netlist, synthesize_netlist(netlist, RESYN2)
            ).equivalent

    def test_interface_mismatch_rejected(self, tiny_netlist, c432_quick):
        with pytest.raises(SatError):
            check_equivalence(tiny_netlist, c432_quick)

    def test_build_miter_single_output(self, tiny_netlist):
        miter = build_miter(tiny_netlist, tiny_netlist.copy())
        assert miter.num_pos == 1
        assert miter.po_names() == ["diff"]


class TestMiterPrefilter:
    """The random-simulation prefilter's counterexample, pinned.

    It is the lowest-indexed random pattern on which the pair differs, so
    it depends only on the seed and the width.  The SARLock pair differs
    on 2 of c432-quick's 512 inputs, so its first hit lies past the first
    64 patterns (at pattern 67 of 100, 447 of 1000 and 471 of 1024).
    """

    @staticmethod
    def _wrong_key(locked) -> Key:
        return Key((1 - locked.key.bits[0],) + tuple(locked.key.bits[1:]))

    def _pinned(self, reference, other, width):
        verdict = check_equivalence(reference, other, prefilter_width=width)
        assert not verdict.equivalent
        assert verdict.stats == {
            "prefiltered": True, "prefilter_patterns": width,
        }
        return "".join(
            str(verdict.counterexample[net]) for net in reference.inputs
        )

    def test_rll_wrong_key_counterexample(self, c432_quick):
        locked = lock_rll(c432_quick, key_size=8, seed=1)
        wrong = apply_key(locked.netlist, self._wrong_key(locked))
        assert self._pinned(c432_quick, wrong, 1024) == "000011100"

    @pytest.mark.parametrize(
        "width, expected",
        [(1024, "000001000"), (1000, "000001000"), (100, "000001100")],
    )
    def test_rare_difference_counterexample(self, c432_quick, width, expected):
        from repro.defenses import lock_sarlock

        locked = lock_sarlock(c432_quick, width=8, seed=2)
        wrong = apply_key(locked.netlist, self._wrong_key(locked))
        assert self._pinned(c432_quick, wrong, width) == expected

    def test_disabled_prefilter_asks_the_solver(self, c432_quick):
        locked = lock_rll(c432_quick, key_size=8, seed=1)
        wrong = apply_key(locked.netlist, self._wrong_key(locked))
        verdict = check_equivalence(c432_quick, wrong, prefilter_width=0)
        assert not verdict.equivalent
        assert "prefiltered" not in verdict.stats


class TestSatAttack:
    def test_registered(self):
        assert registry.registered("attack", "sat")
        with pytest.raises(PipelineError):
            registry.get("attack", "nope")

    def test_recovers_functionally_correct_key(self, c432_quick):
        locked = lock_rll(c432_quick, key_size=8, seed=42)
        result = SatAttack().attack(locked)
        assert result.key_size == 8
        assert result.details["iterations"] >= 1
        assert result.details["exact"]
        assert not result.details["budget_exhausted"]
        # Uniqueness is now *measured* (block + re-solve).  If the solver
        # proved the survivor unique, it can only be the defender's key;
        # a recovered key with bit errors implies equivalent siblings.
        if result.details["key_unique"]:
            assert result.predicted_bits == locked.key.bits
        if result.predicted_bits != locked.key.bits:
            assert not result.details["key_unique"]
        # Per-iteration instrumentation covers every DIP.
        trace = result.details["trace"]
        assert len(trace) == result.details["iterations"]
        assert all(entry["conflicts"] >= 0 for entry in trace)
        assert result.details["oracle_queries"] == result.details["iterations"]
        # The recovered key must unlock: prove it, don't sample it.
        recovered = apply_key(locked.netlist, Key(result.predicted_bits))
        assert check_equivalence(recovered, c432_quick).equivalent

    def test_oracle_function_interface(self, c432_quick):
        locked = lock_rll(c432_quick, key_size=6, seed=3)
        oracle = oracle_from_key(locked.netlist, locked.key)
        result = SatAttack().attack(
            locked.netlist, oracle=oracle, true_key=locked.key
        )
        recovered = apply_key(locked.netlist, Key(result.predicted_bits))
        assert check_equivalence(recovered, c432_quick).equivalent

    def test_blocked_wrong_key_is_unsat(self, c432_quick):
        """Key assumptions conflicting with an I/O observation are refuted."""
        locked = lock_rll(c432_quick, key_size=4, seed=5)
        netlist = locked.netlist
        encoded = tseitin_netlist(netlist)
        solver = CdclSolver(encoded.cnf)
        # One oracle observation pins input and output values.
        from repro.netlist.simulate import random_patterns
        from repro.locking import oracle_outputs

        patterns = random_patterns(len(netlist.functional_inputs), 64, seed=1)
        responses = oracle_outputs(netlist, locked.key, patterns)
        for pattern, response in zip(patterns, responses):
            for net, bit in zip(netlist.functional_inputs, pattern):
                var = encoded.inputs[net]
                solver.add_clause((var if bit else -var,))
            for net, bit in zip(netlist.outputs, response):
                lit = encoded.outputs[net]
                solver.add_clause((lit if bit else -lit,))
            break  # a single observation suffices for this circuit seed
        correct = [
            encoded.inputs[net] if bit else -encoded.inputs[net]
            for net, bit in zip(netlist.key_inputs, locked.key.bits)
        ]
        assert solver.solve(correct).satisfiable
        flipped = [-lit for lit in correct]
        result = solver.solve(flipped)
        if result.satisfiable:
            pytest.skip("fully flipped key happens to match this observation")
        assert result.assumption_failed or not result.satisfiable

    def test_needs_key_inputs(self, c432_quick):
        with pytest.raises(AttackError):
            SatAttack().attack(c432_quick, oracle=lambda p: p)

    def test_budget_exhaustion_returns_partial_result(self, c432_quick):
        """Exhausting the DIP budget must not raise — grid cells share this
        partial-result shape so one resilient design can't kill a sweep."""
        locked = lock_rll(c432_quick, key_size=8, seed=42)
        result = SatAttack(SatAttackConfig(max_iterations=0)).attack(locked)
        assert result.details["budget_exhausted"] is True
        assert not result.details["exact"]
        # A just-found DIP proves two surviving keys disagree.
        assert result.details["key_unique"] is False
        assert result.key_size == 8
        assert all(c == 0.5 for c in result.confidence)

    def test_unique_key_is_reported_unique(self):
        """A single XOR key gate on an output has exactly one correct key."""
        builder = CircuitBuilder("one-gate")
        a = builder.input("a")
        b = builder.input("b")
        builder.output(builder.and_(a, b), name="y")
        netlist = builder.build()
        locked = lock_rll(netlist, key_size=1, seed=0, nets=["y"])
        result = SatAttack().attack(locked)
        assert result.details["key_unique"] is True
        assert result.predicted_bits == locked.key.bits


class TestEngineVerification:
    def test_synthesize_netlist_verify_sat(self, c432_quick):
        result = synthesize_netlist(c432_quick, RESYN2, verify="sat")
        assert check_equivalence(c432_quick, result).equivalent

    def test_verify_rejects_unknown_mode(self, c432_quick):
        from repro.errors import SynthesisError

        with pytest.raises(SynthesisError):
            synthesize_netlist(c432_quick, RESYN2, verify="telepathy")


class TestSatReporting:
    def test_table_renders_iterations_and_ml_column(self, c432_quick):
        from repro.reporting import SatAttackRecord, render_sat_attack_table

        locked = lock_rll(c432_quick, key_size=6, seed=8)
        result = SatAttack().attack(locked)
        record = SatAttackRecord.from_result(
            "c432", result, functionally_correct=True
        )
        table = render_sat_attack_table([record], ml_accuracies={"c432": 0.5})
        assert "c432" in table and "DIP iters" in table
        assert "(exact)" in table and "50.0" in table
        assert str(record.iterations) in table
