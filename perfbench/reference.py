"""Gate-level reference evaluation for the benchmark's output checks.

The checks must not trust the simulators under test, so this module
evaluates a netlist on its own: a plain topological walk over the gate
list with numpy boolean vectors, one element per input pattern.  It
reads only the netlist's public fields (``inputs``, ``outputs`` and each
gate's ``output``, ``gate_type`` and ``inputs``).
"""

from __future__ import annotations

import numpy as np

EXHAUSTIVE_LIMIT = 16   # enumerate every pattern up to this many inputs
RANDOM_PATTERNS = 4096


def _ordered(netlist) -> list:
    """Gates in dependency order (Kahn's algorithm over driven nets)."""
    driven = set(netlist.inputs)
    pending = list(netlist.gates)
    order = []
    while pending:
        rest = []
        for gate in pending:
            if all(net in driven for net in gate.inputs):
                order.append(gate)
                driven.add(gate.output)
            else:
                rest.append(gate)
        if len(rest) == len(pending):
            raise ValueError(f"netlist {netlist.name!r} has a cycle or an undriven net")
        pending = rest
    return order


def _gate(kind: str, args: list, width: int) -> np.ndarray:
    if kind == "CONST0":
        return np.zeros(width, dtype=bool)
    if kind == "CONST1":
        return np.ones(width, dtype=bool)
    if kind == "BUF":
        return args[0]
    if kind == "NOT":
        return ~args[0]
    if kind == "MUX":
        sel, a, b = args
        return np.where(sel, b, a)
    if kind in ("AND", "NAND"):
        value = np.logical_and.reduce(args)
    elif kind in ("OR", "NOR"):
        value = np.logical_or.reduce(args)
    elif kind in ("XOR", "XNOR"):
        value = np.logical_xor.reduce(args)
    else:
        raise ValueError(f"unknown gate type {kind!r}")
    return ~value if kind in ("NAND", "NOR", "XNOR") else value


def evaluate(netlist, values: dict) -> np.ndarray:
    """Outputs (patterns x outputs, bool) for per-input boolean vectors."""
    width = len(next(iter(values.values())))
    nets = {net: np.asarray(values[net], dtype=bool) for net in netlist.inputs}
    for gate in _ordered(netlist):
        kind = getattr(gate.gate_type, "value", gate.gate_type)
        nets[gate.output] = _gate(kind, [nets[n] for n in gate.inputs], width)
    return np.stack([nets[net] for net in netlist.outputs], axis=1)


def patterns(names, rng) -> dict:
    """Every pattern over ``names`` when few enough, else random ones."""
    names = list(names)
    if len(names) <= EXHAUSTIVE_LIMIT:
        rows = np.arange(1 << len(names), dtype=np.int64)
        return {n: (rows >> i) & 1 == 1 for i, n in enumerate(names)}
    return {n: rng.random(RANDOM_PATTERNS) < 0.5 for n in names}


def with_key(values: dict, key_nets, bits) -> dict:
    """``values`` plus each key net held at its bit for every pattern."""
    width = len(next(iter(values.values())))
    merged = dict(values)
    for net, bit in zip(key_nets, bits):
        merged[net] = np.full(width, bool(int(bit)))
    return merged


def mismatch_rate(reference, candidate, values: dict, candidate_values=None) -> float:
    """Share of patterns on which the two netlists' outputs differ.

    ``candidate_values`` (default: ``values``) feeds the candidate.
    Outputs are matched by name, so the candidate may order them
    differently from the reference.
    """
    ref = evaluate(reference, values)
    cand = evaluate(candidate, values if candidate_values is None else candidate_values)
    index = {net: i for i, net in enumerate(candidate.outputs)}
    cand = cand[:, [index[net] for net in reference.outputs]]
    return float(np.any(ref != cand, axis=1).mean())
