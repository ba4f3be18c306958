"""Key-gate locality extraction: netlist neighbourhoods as labeled graphs.

OMLA's insight is that the synthesized neighbourhood of a key gate leaks the
key bit.  The extractor builds the undirected gate-connectivity graph of a
circuit — either a primitive-gate :class:`~repro.netlist.Netlist` or a
technology-mapped :class:`~repro.mapping.MappedCircuit` (the realistic
setting: OMLA attacks mapped netlists, where XOR/XNOR and AND/NAND cell
choices expose polarity) — and, for every key input, cuts out the
``hops``-hop enclosing subgraph around it, producing
:class:`~repro.ml.data.GraphData` with per-node structural features:

* gate/cell-type one-hot (including PI / key-input markers),
* in/out-degree,
* distance from the key input (normalized),
* a flag for nets feeding primary outputs,
* a signal-probability column, a constant 0.5: the features are purely
  structural, and the column only keeps the feature width
  (:data:`FEATURE_DIM`) that trained models expect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.errors import AttackError
from repro.mapping.mapper import MappedCircuit
from repro.ml.data import GraphData
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist

#: Feature layout: one-hot over these type slots, then numeric features.
_TYPE_SLOTS = [
    "PI",
    "KEYIN",
    # Primitive netlist gate types.
    GateType.BUF.value,
    GateType.NOT.value,
    GateType.AND.value,
    GateType.NAND.value,
    GateType.OR.value,
    GateType.NOR.value,
    GateType.XOR.value,
    GateType.XNOR.value,
    GateType.MUX.value,
    GateType.CONST0.value,
    GateType.CONST1.value,
    # Mapped cell bases that have no primitive alias above.
    "INV",
    "ANDNOT2",
    "ORNOT2",
    "AOI21",
    "OAI21",
]
_CELL_ALIASES = {
    "BUF": "BUF",
    "INV": "INV",
    "AND2": "AND",
    "NAND2": "NAND",
    "OR2": "OR",
    "NOR2": "NOR",
    "XOR2": "XOR",
    "XNOR2": "XNOR",
    "MUX2": "MUX",
    "LOGIC0": "CONST0",
    "LOGIC1": "CONST1",
    "ANDNOT2": "ANDNOT2",
    "ORNOT2": "ORNOT2",
    "AOI21": "AOI21",
    "OAI21": "OAI21",
}
_NUMERIC_FEATURES = 5  # in-degree, out-degree, distance, drives-PO, signal-prob
FEATURE_DIM = len(_TYPE_SLOTS) + _NUMERIC_FEATURES

_KEY_PREFIXES = ("keyinput", "relockinput")


class _GateGraph:
    """Uniform view over primitive netlists and mapped circuits."""

    def __init__(self, circuit: Union[Netlist, MappedCircuit]):
        self.name = circuit.name
        self.inputs = set(circuit.inputs)
        self.outputs = set(circuit.outputs)
        self._type: dict[str, str] = {}
        self._fanins: dict[str, tuple[str, ...]] = {}
        self._fanouts: dict[str, list[str]] = {}
        if isinstance(circuit, Netlist):
            for gate in circuit.gates:
                self._add(gate.output, gate.gate_type.value, gate.inputs)
        else:
            for inst in circuit.instances:
                base = inst.cell_name.rsplit("_", 1)[0]
                slot = _CELL_ALIASES.get(base)
                if slot is None:
                    raise AttackError(f"unknown cell base {base!r}")
                self._add(inst.output, slot, inst.inputs)

    def _add(self, output: str, type_slot: str, inputs: Sequence[str]) -> None:
        self._type[output] = type_slot
        self._fanins[output] = tuple(inputs)
        for net in inputs:
            self._fanouts.setdefault(net, []).append(output)

    def type_slot(self, net: str) -> str:
        slot = self._type.get(net)
        if slot is not None:
            return slot
        if any(net.startswith(p) for p in _KEY_PREFIXES):
            return "KEYIN"
        return "PI"

    def fanins(self, net: str) -> tuple[str, ...]:
        return self._fanins.get(net, ())

    def fanouts(self, net: str) -> list[str]:
        return self._fanouts.get(net, [])

    def neighbours(self, net: str) -> list[str]:
        return list(self.fanins(net)) + self.fanouts(net)


@dataclass
class LocalityExtractor:
    """Configurable locality extraction over one circuit."""

    circuit: Union[Netlist, MappedCircuit]
    hops: int = 3
    max_nodes: int = 60

    def __post_init__(self) -> None:
        self._graph = _GateGraph(self.circuit)

    def extract(self, key_net: str, label: int) -> GraphData:
        """The enclosing subgraph around ``key_net``, labeled ``label``."""
        graph = self._graph
        if key_net not in graph.inputs:
            raise AttackError(f"{key_net!r} is not a primary input")
        distance = {key_net: 0}
        frontier = [key_net]
        order = [key_net]
        for hop in range(1, self.hops + 1):
            if len(order) >= self.max_nodes or not frontier:
                break
            next_frontier: list[str] = []
            for net in frontier:
                for neighbour in graph.neighbours(net):
                    if neighbour in distance:
                        continue
                    distance[neighbour] = hop
                    order.append(neighbour)
                    next_frontier.append(neighbour)
                    if len(order) >= self.max_nodes:
                        break
                if len(order) >= self.max_nodes:
                    break
            frontier = next_frontier
        index_of = {net: i for i, net in enumerate(order)}
        features = np.zeros((len(order), FEATURE_DIM))
        base = len(_TYPE_SLOTS)
        for net, node_index in index_of.items():
            slot = graph.type_slot(net)
            features[node_index, _TYPE_SLOTS.index(slot)] = 1.0
            features[node_index, base + 0] = len(graph.fanins(net))
            features[node_index, base + 1] = len(graph.fanouts(net))
            features[node_index, base + 2] = distance[net] / max(self.hops, 1)
            features[node_index, base + 3] = 1.0 if net in graph.outputs else 0.0
            features[node_index, base + 4] = 0.5
        edges = []
        for net, node_index in index_of.items():
            for fanin in graph.fanins(net):
                fanin_index = index_of.get(fanin)
                if fanin_index is not None:
                    edges.append((fanin_index, node_index))
        return GraphData(
            features=features,
            edges=np.array(edges, dtype=np.int64).reshape(-1, 2),
            label=int(label),
            meta={
                "key_net": key_net,
                "circuit": graph.name,
                "nets": list(order),
            },
        )


def victim_key_inputs(circuit: Union[Netlist, MappedCircuit]) -> list[str]:
    """The ``keyinput<i>`` pins of a circuit, in key-bit order."""
    keys = [n for n in circuit.inputs if n.startswith("keyinput")]
    return sorted(keys, key=lambda n: int(n[len("keyinput"):]))


def extract_localities(
    circuit: Union[Netlist, MappedCircuit],
    key_nets: Sequence[str],
    labels: Sequence[int],
    hops: int = 3,
) -> list[GraphData]:
    """Extract one labeled locality per key input.

    Each locality keeps :class:`LocalityExtractor`'s default node budget.
    """
    if len(key_nets) != len(labels):
        raise AttackError("key_nets and labels length mismatch")
    extractor = LocalityExtractor(circuit, hops=hops)
    return [
        extractor.extract(net, label) for net, label in zip(key_nets, labels)
    ]
