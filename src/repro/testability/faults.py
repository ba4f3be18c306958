"""Single-stuck-at fault enumeration, collapsing and simulation.

The fault simulator is serial but bit-parallel: each fault is injected by
forcing the faulty net's packed simulation words to all-zeros/all-ones and
re-propagating only the fault's output cone, 64 patterns per word.

Equivalence collapsing implements the classic structural rules: a stuck-at
fault on a gate input is equivalent to a fault on its (single-fanout)
driver for inverting/buffering gates, and AND/OR gate input/output faults
collapse along the controlled value.  The collapsed set is what ATPG tools
report, and what the redundancy attack counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.errors import NetlistError
from repro.netlist.gates import GateType, gate_function
from repro.netlist.netlist import Netlist
from repro.netlist.simulate import pack_patterns, random_patterns, simulate


@dataclass(frozen=True)
class Fault:
    """A single stuck-at fault on a net (output faults only, post-collapse)."""

    net: str
    stuck_at: int  # 0 or 1

    def __str__(self) -> str:
        return f"{self.net}/sa{self.stuck_at}"


@dataclass
class FaultSimResult:
    """Outcome of fault simulation over a pattern set."""

    detected: list[Fault] = field(default_factory=list)
    undetected: list[Fault] = field(default_factory=list)
    num_patterns: int = 0

    @property
    def coverage(self) -> float:
        total = len(self.detected) + len(self.undetected)
        return len(self.detected) / total if total else 1.0


def enumerate_faults(netlist: Netlist, nets: Optional[Sequence[str]] = None) -> list[Fault]:
    """Both stuck-at faults for every net (or the given subset)."""
    targets = list(nets) if nets is not None else netlist.all_nets()
    return [Fault(net, v) for net in targets for v in (0, 1)]


def collapse_faults(netlist: Netlist, faults: Sequence[Fault]) -> list[Fault]:
    """Drop faults structurally equivalent to another fault in the list.

    Rules applied (conservative, classic):

    * NOT/BUF output faults are equivalent to the (appropriately inverted)
      input-side fault when the input net has fanout 1 — keep the driver's.
    * Faults on nets with no readers and not POs are unobservable by
      construction; they are kept (they are exactly the redundancy signal
      the attack wants) — collapsing never hides them.
    """
    drivers = netlist.driver_map()
    fanouts = netlist.fanout_map()
    fault_set = {(f.net, f.stuck_at) for f in faults}
    kept: list[Fault] = []
    for fault in faults:
        gate = drivers.get(fault.net)
        if gate is not None and gate.gate_type in (GateType.BUF, GateType.NOT):
            source = gate.inputs[0]
            polarity = (
                fault.stuck_at
                if gate.gate_type is GateType.BUF
                else 1 - fault.stuck_at
            )
            if (
                len(fanouts.get(source, [])) == 1
                and source not in netlist.outputs
                and (source, polarity) in fault_set
            ):
                continue  # equivalent fault survives at the driver
        kept.append(fault)
    return kept


def fault_simulate(
    netlist: Netlist,
    faults: Sequence[Fault],
    patterns: Optional[np.ndarray] = None,
    num_patterns: int = 256,
    seed: int = 0,
) -> FaultSimResult:
    """Serial fault simulation with cone-limited re-propagation."""
    if patterns is None:
        patterns = random_patterns(len(netlist.inputs), num_patterns, seed)
    num = patterns.shape[0]
    nwords = (num + 63) // 64
    golden = simulate(netlist, pack_patterns(patterns, netlist.inputs))

    order = netlist.topological_gates()
    position = {gate.output: i for i, gate in enumerate(order)}
    fanouts = netlist.fanout_map()
    tail = num % 64
    tail_mask = (
        np.uint64((1 << tail) - 1) if tail else np.uint64(0xFFFFFFFFFFFFFFFF)
    )
    all_ones = np.full(nwords, np.uint64(0xFFFFFFFFFFFFFFFF))

    result = FaultSimResult(num_patterns=num)
    outputs = set(netlist.outputs)
    for fault in faults:
        if fault.net not in golden:
            raise NetlistError(f"fault on unknown net {fault.net!r}")
        faulty: dict[str, np.ndarray] = {}
        forced = (
            all_ones.copy() if fault.stuck_at else np.zeros(nwords, np.uint64)
        )
        faulty[fault.net] = forced
        # Event-driven propagation through the fault's output cone.
        frontier = sorted(
            {position[g.output] for g in fanouts.get(fault.net, [])}
        )
        pending = list(frontier)
        seen = set(pending)
        # A fault directly on a PO net is detected by direct observation;
        # anywhere else it must propagate to an output to count.
        detected = fault.net in outputs and _differs(
            golden[fault.net], forced, tail_mask
        )
        while pending and not detected:
            pending.sort()
            index = pending.pop(0)
            seen.discard(index)
            gate = order[index]
            if gate.gate_type is GateType.CONST0 or gate.gate_type is GateType.CONST1:
                continue
            fanin_words = [
                faulty.get(n, golden[n]) for n in gate.inputs
            ]
            value = gate_function(gate.gate_type, fanin_words)
            old = faulty.get(gate.output, golden[gate.output])
            if _equal(value, old):
                continue
            faulty[gate.output] = value
            if gate.output in outputs and _differs(
                golden[gate.output], value, tail_mask
            ):
                detected = True
                break
            for reader in fanouts.get(gate.output, []):
                reader_pos = position[reader.output]
                if reader_pos not in seen:
                    seen.add(reader_pos)
                    pending.append(reader_pos)
        if detected:
            result.detected.append(fault)
        else:
            result.undetected.append(fault)
    return result


def _differs(a: np.ndarray, b: np.ndarray, tail_mask: np.uint64) -> bool:
    if a.shape[0] == 0:
        return False
    if a.shape[0] > 1 and (a[:-1] != b[:-1]).any():
        return True
    return bool(((a[-1] ^ b[-1]) & tail_mask) != 0)


def _equal(a: np.ndarray, b: np.ndarray) -> bool:
    return bool((a == b).all())
