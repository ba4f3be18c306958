"""Bit-parallel netlist simulation.

Simulation packs 64 test patterns into each uint64 word, so a single pass over
the gates evaluates 64 input vectors.  This is the engine behind functional
equivalence checks, switching-activity estimation for power, and stuck-at
fault simulation in the redundancy attack.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from repro.errors import NetlistError
from repro.netlist.gates import GateType, gate_function
from repro.netlist.netlist import Netlist
from repro.utils.rng import make_rng


def simulate(
    netlist: Netlist, input_words: Mapping[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Simulate with packed uint64 words per primary input.

    ``input_words`` maps every primary input to an equal-length uint64 array.
    Returns values for *all* nets (inputs, internal, outputs).
    """
    if not netlist.inputs and not netlist.gates:
        return {}
    words: dict[str, np.ndarray] = {}
    nwords: Optional[int] = None
    for net in netlist.inputs:
        if net not in input_words:
            raise NetlistError(f"missing stimulus for primary input {net!r}")
        arr = np.asarray(input_words[net], dtype=np.uint64)
        if nwords is None:
            nwords = arr.shape[0]
        elif arr.shape[0] != nwords:
            raise NetlistError("stimulus arrays have mismatched lengths")
        words[net] = arr
    if nwords is None:
        nwords = 1
    all_ones = np.full(nwords, np.uint64(0xFFFFFFFFFFFFFFFF))
    for gate in netlist.topological_gates():
        if gate.gate_type is GateType.CONST0:
            words[gate.output] = np.zeros(nwords, dtype=np.uint64)
        elif gate.gate_type is GateType.CONST1:
            words[gate.output] = all_ones.copy()
        else:
            fanins = [words[i] for i in gate.inputs]
            words[gate.output] = gate_function(gate.gate_type, fanins)
    return words


def pack_patterns(
    patterns: np.ndarray, order: Sequence[str]
) -> dict[str, np.ndarray]:
    """Pack a 0/1 ``(num_patterns, len(order))`` matrix into uint64 words.

    Column ``col`` becomes net ``order[col]``'s stimulus: bit ``p % 64``
    of word ``p // 64`` holds pattern ``p``.
    """
    nwords = (patterns.shape[0] + 63) // 64
    packed: dict[str, np.ndarray] = {}
    for col, net in enumerate(order):
        bits = np.zeros(nwords, dtype=np.uint64)
        ones = np.nonzero(patterns[:, col])[0]
        np.bitwise_or.at(
            bits, ones // 64, np.uint64(1) << (ones % 64).astype(np.uint64)
        )
        packed[net] = bits
    return packed


def simulate_patterns(
    netlist: Netlist, patterns: np.ndarray, input_order: Optional[Sequence[str]] = None
) -> np.ndarray:
    """Simulate explicit 0/1 patterns; returns outputs as a 0/1 matrix.

    ``patterns`` is shaped ``(num_patterns, num_inputs)`` with columns in
    ``input_order`` (default: the netlist's input declaration order).  The
    result is ``(num_patterns, num_outputs)`` in output declaration order.
    """
    order = list(input_order) if input_order is not None else list(netlist.inputs)
    patterns = np.asarray(patterns, dtype=np.uint8)
    if patterns.ndim != 2 or patterns.shape[1] != len(order):
        raise NetlistError(
            f"patterns must be (N, {len(order)}), got {patterns.shape}"
        )
    num = patterns.shape[0]
    words = simulate(netlist, pack_patterns(patterns, order))
    out = np.zeros((num, len(netlist.outputs)), dtype=np.uint8)
    idx = np.arange(num)
    for col, net in enumerate(netlist.outputs):
        out[:, col] = (words[net][idx // 64] >> (idx % 64).astype(np.uint64)) & 1
    return out


def random_patterns(
    num_inputs: int, num_patterns: int, seed: int
) -> np.ndarray:
    """Uniform random 0/1 pattern matrix ``(num_patterns, num_inputs)``."""
    rng = make_rng(seed)
    return rng.integers(0, 2, size=(num_patterns, num_inputs), dtype=np.uint8)


def exhaustive_patterns(num_inputs: int) -> np.ndarray:
    """All ``2**num_inputs`` patterns; guard against blow-up at call sites."""
    if num_inputs > 20:
        raise NetlistError("exhaustive simulation limited to 20 inputs")
    count = 1 << num_inputs
    minterms = np.arange(count, dtype=np.uint64)
    cols = [(minterms >> np.uint64(i)) & np.uint64(1) for i in range(num_inputs)]
    return np.stack(cols, axis=1).astype(np.uint8) if num_inputs else np.zeros(
        (1, 0), dtype=np.uint8
    )


def signal_probabilities(
    netlist: Netlist, num_patterns: int = 2048, seed: int = 0
) -> dict[str, float]:
    """Per-net probability of being 1 under uniform random stimulus.

    One packed simulation pass; ones are counted with a vectorised
    popcount rather than per-word Python bit twiddling.  Feeds the
    switching-activity power estimates.
    """
    patterns = random_patterns(len(netlist.inputs), num_patterns, seed)
    words = simulate(netlist, pack_patterns(patterns, netlist.inputs))
    tail = num_patterns % 64
    probs: dict[str, float] = {}
    for net, arr in words.items():
        if tail:
            # Mask away unused bits of the final word before counting.
            arr = arr.copy()
            arr[-1] &= np.uint64((1 << tail) - 1)
        ones = int(np.bitwise_count(arr).sum())
        probs[net] = ones / num_patterns
    return probs


def switching_activity(
    netlist: Netlist, num_patterns: int = 2048, seed: int = 0
) -> dict[str, float]:
    """Per-net toggle probability under random stimulus (for power estimates).

    The activity of a net is ``2 * p * (1 - p)`` where ``p`` is its
    signal probability — the expected toggle rate between two independent
    random cycles.
    """
    return {
        net: 2.0 * prob * (1.0 - prob)
        for net, prob in signal_probabilities(
            netlist, num_patterns=num_patterns, seed=seed
        ).items()
    }
