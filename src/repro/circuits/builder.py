"""Fluent construction helper for gate-level netlists."""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist


class CircuitBuilder:
    """Builds a :class:`~repro.netlist.Netlist` with auto-named internal nets.

    Gate helpers return the name of the driven net so expressions compose::

        b = CircuitBuilder("demo")
        a, c = b.input("a"), b.input("c")
        b.output(b.xor(a, b.nand(a, c)), name="y")
        netlist = b.build()
    """

    def __init__(self, name: str):
        self._netlist = Netlist(name=name)
        self._counter = 0

    # -- nets ------------------------------------------------------------

    def _fresh(self, hint: str = "n") -> str:
        self._counter += 1
        return f"{hint}_{self._counter}"

    def input(self, name: str) -> str:
        return self._netlist.add_input(name)

    def inputs(self, prefix: str, count: int) -> list[str]:
        return [self.input(f"{prefix}{i}") for i in range(count)]

    def output(self, net: str, name: str | None = None) -> str:
        if name is not None and name != net:
            net = self.buf(net, out=name)
        self._netlist.add_output(net)
        return net

    def outputs(self, nets: Iterable[str]) -> None:
        for net in nets:
            self.output(net)

    # -- gates -----------------------------------------------------------

    def gate(self, gate_type: GateType, *ins: str, out: str | None = None) -> str:
        out = out or self._fresh(gate_type.value.lower())
        self._netlist.add_gate(out, gate_type, ins)
        return out

    def buf(self, a: str, out: str | None = None) -> str:
        return self.gate(GateType.BUF, a, out=out)

    def not_(self, a: str, out: str | None = None) -> str:
        return self.gate(GateType.NOT, a, out=out)

    def and_(self, *ins: str, out: str | None = None) -> str:
        return self.gate(GateType.AND, *ins, out=out)

    def nand(self, *ins: str, out: str | None = None) -> str:
        return self.gate(GateType.NAND, *ins, out=out)

    def or_(self, *ins: str, out: str | None = None) -> str:
        return self.gate(GateType.OR, *ins, out=out)

    def nor(self, *ins: str, out: str | None = None) -> str:
        return self.gate(GateType.NOR, *ins, out=out)

    def xor(self, *ins: str, out: str | None = None) -> str:
        return self.gate(GateType.XOR, *ins, out=out)

    def xnor(self, *ins: str, out: str | None = None) -> str:
        return self.gate(GateType.XNOR, *ins, out=out)

    def mux(self, sel: str, a: str, b: str, out: str | None = None) -> str:
        """2:1 mux built from primitive gates: ``b`` when ``sel`` else ``a``."""
        nsel = self.not_(sel)
        return self.or_(self.and_(nsel, a), self.and_(sel, b), out=out)

    # -- composite helpers --------------------------------------------------

    def xor_tree(self, nets: Sequence[str], out: str | None = None) -> str:
        """Balanced XOR reduction of two or more nets."""
        nets = list(nets)
        if not nets:
            raise ValueError("xor_tree needs at least one net")
        while len(nets) > 1:
            nxt = []
            for i in range(0, len(nets) - 1, 2):
                nxt.append(self.xor(nets[i], nets[i + 1]))
            if len(nets) % 2:
                nxt.append(nets[-1])
            nets = nxt
        if out is not None:
            return self.buf(nets[0], out=out)
        return nets[0]

    def and_tree(self, nets: Sequence[str]) -> str:
        nets = list(nets)
        while len(nets) > 1:
            nxt = [self.and_(nets[i], nets[i + 1]) for i in range(0, len(nets) - 1, 2)]
            if len(nets) % 2:
                nxt.append(nets[-1])
            nets = nxt
        return nets[0]

    def or_tree(self, nets: Sequence[str]) -> str:
        nets = list(nets)
        while len(nets) > 1:
            nxt = [self.or_(nets[i], nets[i + 1]) for i in range(0, len(nets) - 1, 2)]
            if len(nets) % 2:
                nxt.append(nets[-1])
            nets = nxt
        return nets[0]

    def full_adder(self, a: str, b: str, cin: str) -> tuple[str, str]:
        """Returns ``(sum, carry)`` built from XOR/AND/OR primitives."""
        axb = self.xor(a, b)
        total = self.xor(axb, cin)
        carry = self.or_(self.and_(a, b), self.and_(axb, cin))
        return total, carry

    def half_adder(self, a: str, b: str) -> tuple[str, str]:
        return self.xor(a, b), self.and_(a, b)

    def ripple_adder(
        self, a: Sequence[str], b: Sequence[str]
    ) -> tuple[list[str], str]:
        """Ripple-carry adder, no carry-in; returns ``(sums, carry_out)``."""
        if len(a) != len(b):
            raise ValueError("operand widths differ")
        sums: list[str] = []
        carry = None
        for bit_a, bit_b in zip(a, b):
            if carry is None:
                s, carry = self.half_adder(bit_a, bit_b)
            else:
                s, carry = self.full_adder(bit_a, bit_b, carry)
            sums.append(s)
        return sums, carry

    def equality(self, a: Sequence[str], b: Sequence[str]) -> str:
        """1 when the two buses are bitwise equal."""
        return self.and_tree([self.xnor(x, y) for x, y in zip(a, b)])

    def less_than(self, a: Sequence[str], b: Sequence[str]) -> str:
        """Unsigned ``a < b``, LSB-first buses."""
        lt = self.and_(self.not_(a[0]), b[0])
        for x, y in zip(a[1:], b[1:]):
            eq = self.xnor(x, y)
            here = self.and_(self.not_(x), y)
            lt = self.or_(here, self.and_(eq, lt))
        return lt

    def build(self, validate: bool = True) -> Netlist:
        if validate:
            self._netlist.validate()
        return self._netlist
