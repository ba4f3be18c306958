"""Random logic locking (RLL / EPIC-style XOR-XNOR key-gate insertion).

For each selected net ``w`` and key bit ``k``:

* ``k = 0`` — insert ``w' = XOR(w, keyinput)``: the gate is transparent when
  the key input is 0;
* ``k = 1`` — insert ``w' = XNOR(w, keyinput)``: transparent when the key
  input is 1.

All readers of ``w`` are rewired to ``w'``.  With the *wrong* key bit the
gate inverts the net, corrupting the function — the classic RLL contract.
The XNOR/XOR choice is exactly the correlation that bubble-pushing hides and
ML attacks (SAIL, OMLA) try to re-learn after synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import LockingError
from repro.netlist.gates import GateType
from repro.netlist.netlist import Gate, Netlist
from repro.locking.key import Key
from repro.utils.rng import make_rng


@dataclass(frozen=True)
class KeyPartition:
    """One locking scheme's slice of a (possibly compound) key.

    ``scheme`` names the locker that introduced the bits (``rll``,
    ``antisat``, ...); ``key_inputs`` lists its key-input nets in key-bit
    order.  Compound locks (see :func:`repro.defenses.compound`) carry one
    partition per constituent scheme so attacks and reports can score the
    slices separately.
    """

    scheme: str
    key_inputs: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.key_inputs)


@dataclass
class LockedCircuit:
    """A locked netlist together with its secret key and lock metadata."""

    netlist: Netlist
    key: Key
    locked_nets: tuple[str, ...]
    key_input_names: tuple[str, ...]
    partitions: tuple[KeyPartition, ...] = ()

    @property
    def key_size(self) -> int:
        return len(self.key)


def _output_cone(netlist: Netlist) -> set[str]:
    """Nets in the transitive fanin of the primary outputs."""
    drivers = netlist.driver_map()
    cone: set[str] = set()
    stack = list(netlist.outputs)
    while stack:
        net = stack.pop()
        if net in cone:
            continue
        cone.add(net)
        gate = drivers.get(net)
        if gate is not None:
            stack.extend(gate.inputs)
    return cone


def _lockable_nets(netlist: Netlist, rng, count: int) -> list[str]:
    """Choose ``count`` distinct gate-output nets to lock.

    Primary inputs are excluded (locking a PI wire is legal but trivially
    removable), and only nets in the output cone are eligible — a key gate
    on unobservable logic would be deleted by synthesis, silently shrinking
    the effective key.
    """
    cone = _output_cone(netlist)
    candidates = [
        g.output
        for g in netlist.gates
        if g.gate_type not in (GateType.CONST0, GateType.CONST1)
        and g.output in cone
    ]
    if len(candidates) < count:
        raise LockingError(
            f"netlist has only {len(candidates)} lockable nets, need {count}"
        )
    picked = rng.choice(len(candidates), size=count, replace=False)
    return [candidates[int(i)] for i in sorted(picked)]


def lock_rll(
    netlist: Netlist,
    key_size: int,
    seed: int = 0,
    key: Optional[Key] = None,
    prefix: str = "keyinput",
    nets: Optional[Sequence[str]] = None,
) -> LockedCircuit:
    """Lock ``netlist`` with RLL; returns the locked circuit and key.

    ``key`` defaults to a random key derived from ``seed``.  ``nets``
    overrides the random insertion-point selection (used by tests).
    """
    rng = make_rng(seed)
    if key is None:
        key = Key.random(key_size, seed)
    if len(key) != key_size:
        raise LockingError("explicit key length differs from key_size")
    if nets is None:
        chosen = _lockable_nets(netlist, rng, key_size)
    else:
        chosen = list(nets)
        if len(chosen) != key_size:
            raise LockingError("nets list length differs from key_size")
    out = netlist.copy()
    existing = {
        n for n in out.inputs if n.startswith(prefix)
    }
    start_index = len(existing)
    key_names = []
    for offset, (net, bit) in enumerate(zip(chosen, key.bits)):
        key_net = f"{prefix}{start_index + offset}"
        out.add_input(key_net)
        key_names.append(key_net)
        locked_net = f"{net}__lk_{key_net}"
        gate_type = GateType.XNOR if bit else GateType.XOR
        # Rewire all readers of `net` (gates and primary outputs) first,
        # then insert the key gate reading the original net.
        for gate in out.gates:
            if net in gate.inputs:
                gate.inputs = tuple(
                    locked_net if fanin == net else fanin for fanin in gate.inputs
                )
        out.outputs = [locked_net if po == net else po for po in out.outputs]
        out.gates.append(Gate(locked_net, gate_type, (net, key_net)))
    out.validate()
    return LockedCircuit(
        netlist=out,
        key=key,
        locked_nets=tuple(chosen),
        key_input_names=tuple(key_names),
        partitions=(KeyPartition("rll", tuple(key_names)),),
    )
