"""Key handling: apply a key to a locked netlist, query the oracle."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import LockingError
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.netlist.simulate import simulate_patterns
from repro.utils.rng import make_rng


@dataclass(frozen=True)
class Key:
    """An ordered tuple of key bits (index ``i`` drives ``keyinput<i>``)."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(bit not in (0, 1) for bit in self.bits):
            raise LockingError("key bits must be 0 or 1")

    @staticmethod
    def random(size: int, seed: int) -> "Key":
        rng = make_rng(seed)
        return Key(tuple(int(b) for b in rng.integers(0, 2, size=size)))

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, index: int) -> int:
        return self.bits[index]

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def apply_key(netlist: Netlist, key: Key) -> Netlist:
    """Substitute constant key values for key inputs.

    Returns a netlist without key inputs whose functionality equals the
    locked design under ``key`` (constants are injected as CONST gates; a
    synthesis pass will propagate them).
    """
    key_nets = netlist.key_inputs
    if len(key) != len(key_nets):
        raise LockingError(
            f"key size {len(key)} != {len(key_nets)} key inputs"
        )
    out = Netlist(name=netlist.name)
    for net in netlist.inputs:
        if not net.startswith("keyinput"):
            out.add_input(net)
    for index, net in enumerate(key_nets):
        out.add_gate(
            net, GateType.CONST1 if key[index] else GateType.CONST0, ()
        )
    for gate in netlist.gates:
        out.add_gate(gate.output, gate.gate_type, gate.inputs)
    for net in netlist.outputs:
        out.add_output(net)
    out.validate()
    return out


def _fill_key_block(
    locked: Netlist,
    key: Key,
    patterns: np.ndarray,
    full: np.ndarray,
    column: dict[str, int],
) -> None:
    """Write one key's (patterns x inputs) stimulus block into ``full``."""
    for col, net in enumerate(locked.functional_inputs):
        full[:, column[net]] = patterns[:, col]
    for index, net in enumerate(locked.key_inputs):
        full[:, column[net]] = key[index]


def _check_shapes(locked: Netlist, key: Key, patterns: np.ndarray) -> None:
    if len(key) != len(locked.key_inputs):
        raise LockingError(
            f"key size {len(key)} != {len(locked.key_inputs)} key inputs"
        )
    if patterns.shape[1] != len(locked.functional_inputs):
        raise LockingError(
            f"patterns must have {len(locked.functional_inputs)} columns"
        )


def oracle_outputs(
    locked: Netlist, key: Key, patterns: np.ndarray
) -> np.ndarray:
    """Evaluate the locked netlist under ``key`` on functional-input patterns.

    ``patterns`` columns follow ``locked.functional_inputs`` order.  This is
    the black-box oracle that the *oracle-less* attacks do **not** have;
    the library uses it to validate locking correctness in tests.
    """
    _check_shapes(locked, key, patterns)
    order = list(locked.inputs)
    column = {net: index for index, net in enumerate(order)}
    full = np.zeros((patterns.shape[0], len(order)), dtype=np.uint8)
    _fill_key_block(locked, key, patterns, full, column)
    return simulate_patterns(locked, full, input_order=order)


def oracle_outputs_batch(
    locked: Netlist, keys: Sequence[Key], patterns: np.ndarray
) -> np.ndarray:
    """Evaluate several keys on the same patterns in one packed pass.

    Stacks one stimulus block per key and runs a single bit-parallel
    simulation, returning ``(len(keys), num_patterns, num_outputs)``.
    Packed simulation treats every pattern row independently, so the
    result is bit-identical to stacking separate :func:`oracle_outputs`
    calls — this is the batching the AppSAT error estimator leans on to
    evaluate the true key and a candidate in one pass.
    """
    if not keys:
        raise LockingError("oracle_outputs_batch needs at least one key")
    for key in keys:
        _check_shapes(locked, key, patterns)
    order = list(locked.inputs)
    column = {net: index for index, net in enumerate(order)}
    num = patterns.shape[0]
    full = np.zeros((len(keys) * num, len(order)), dtype=np.uint8)
    for block, key in enumerate(keys):
        _fill_key_block(
            locked, key, patterns, full[block * num : (block + 1) * num], column
        )
    out = simulate_patterns(locked, full, input_order=order)
    return out.reshape(len(keys), num, -1)


class KeyOracle:
    """Callable black-box oracle: a locked netlist under a fixed key.

    The attack-facing contract is just ``oracle(patterns) -> outputs``,
    but exposing the netlist and key lets trusted callers (the library's
    own attacks, which construct the oracle from a
    :class:`~repro.locking.rll.LockedCircuit`) fold candidate-key
    evaluation into the same packed simulation pass via
    :meth:`with_candidates`.
    """

    def __init__(self, locked: Netlist, key: Key):
        if len(key) != len(locked.key_inputs):
            raise LockingError(
                f"key size {len(key)} != {len(locked.key_inputs)} key inputs"
            )
        self.netlist = locked
        self.key = key

    def __call__(self, patterns: np.ndarray) -> np.ndarray:
        return oracle_outputs(self.netlist, self.key, patterns)

    def with_candidates(
        self, candidates: Sequence[Key], patterns: np.ndarray
    ) -> np.ndarray:
        """Oracle plus candidate outputs, one packed pass.

        Row 0 is the oracle (true key); row ``1+i`` is ``candidates[i]``.
        """
        return oracle_outputs_batch(
            self.netlist, [self.key, *candidates], patterns
        )
