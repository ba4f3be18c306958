"""Structural technology mapping from AIG to standard cells.

The mapper covers the AIG with library cells in three steps:

1. *pattern detection* — two-level idioms (XOR/XNOR, MUX, AOI21, OAI21) are
   matched greedily on single-fanout internal nodes;
2. *polarity-aware covering* — every remaining AND node is realized by the
   cell matching its effective fanin polarities (AND2/NAND2/NOR2/OR2/
   ANDNOT2/ORNOT2), choosing the output polarity used by the majority of
   readers so that explicit inverters are rare;
3. *inverter insertion* — readers that need the opposite polarity share one
   INV per net.

The result tracks which AIG variable each cell output realizes (and with
which phase) so PPA power analysis can reuse AIG switching activities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.aig.aig import Aig, lit_var
from repro.errors import MappingError
from repro.mapping.cells import CellLibrary, nangate45_library
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist


@dataclass
class CellInstance:
    """One placed cell: ``output = cell(inputs)``."""

    cell_name: str
    output: str
    inputs: tuple[str, ...]
    source_var: int  # AIG variable this instance's output tracks (-1: none)
    source_negated: bool = False


@dataclass
class MappedCircuit:
    """A technology-mapped circuit (cell instances over named nets)."""

    name: str
    library: CellLibrary
    inputs: list[str]
    outputs: list[str]
    instances: list[CellInstance] = field(default_factory=list)

    def num_cells(self) -> int:
        return len(self.instances)

    def total_area(self) -> float:
        return sum(self.library[inst.cell_name].area for inst in self.instances)

    def cell_histogram(self) -> dict[str, int]:
        histogram: dict[str, int] = {}
        for inst in self.instances:
            base = inst.cell_name.rsplit("_", 1)[0]
            histogram[base] = histogram.get(base, 0) + 1
        return histogram

    def fanout_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {net: 0 for net in self.inputs}
        for inst in self.instances:
            counts.setdefault(inst.output, 0)
        for inst in self.instances:
            for net in inst.inputs:
                counts[net] = counts.get(net, 0) + 1
        for net in self.outputs:
            counts[net] = counts.get(net, 0) + 1
        return counts

    def to_netlist(self) -> Netlist:
        """Primitive-gate expansion (for simulation and verification)."""
        netlist = Netlist(name=self.name)
        for net in self.inputs:
            netlist.add_input(net)
        counter = 0

        def fresh() -> str:
            nonlocal counter
            counter += 1
            return f"_m{counter}"

        for inst in self.instances:
            base = inst.cell_name.rsplit("_", 1)[0]
            ins = inst.inputs
            out = inst.output
            if base == "LOGIC0":
                netlist.add_gate(out, GateType.CONST0, ())
            elif base == "LOGIC1":
                netlist.add_gate(out, GateType.CONST1, ())
            elif base == "INV":
                netlist.add_gate(out, GateType.NOT, ins)
            elif base == "BUF":
                netlist.add_gate(out, GateType.BUF, ins)
            elif base in ("AND2", "NAND2", "OR2", "NOR2", "XOR2", "XNOR2"):
                netlist.add_gate(out, GateType[base[:-1]], ins)
            elif base == "ANDNOT2":
                nb = fresh()
                netlist.add_gate(nb, GateType.NOT, (ins[1],))
                netlist.add_gate(out, GateType.AND, (ins[0], nb))
            elif base == "ORNOT2":
                nb = fresh()
                netlist.add_gate(nb, GateType.NOT, (ins[1],))
                netlist.add_gate(out, GateType.OR, (ins[0], nb))
            elif base == "AOI21":
                ab = fresh()
                netlist.add_gate(ab, GateType.AND, (ins[0], ins[1]))
                netlist.add_gate(out, GateType.NOR, (ab, ins[2]))
            elif base == "OAI21":
                ab = fresh()
                netlist.add_gate(ab, GateType.OR, (ins[0], ins[1]))
                netlist.add_gate(out, GateType.NAND, (ab, ins[2]))
            elif base == "MUX2":
                netlist.add_gate(out, GateType.MUX, ins)
            else:  # pragma: no cover - library closed set
                raise MappingError(f"no primitive expansion for {base}")
        for net in self.outputs:
            netlist.add_output(net)
        netlist.validate()
        return netlist


def map_aig(aig: Aig) -> MappedCircuit:
    """Map an AIG onto the NanGate45 cell library (all X1 strengths)."""
    mapped = MappedCircuit(
        name=aig.name,
        library=nangate45_library(),
        inputs=list(aig.pi_names()),
        outputs=[],
    )
    order = aig.topological_ands(roots=aig.po_lits())
    in_cone = set(order)
    po_vars = {lit_var(po) for po in aig.po_lits()}

    # --- usage polarities -------------------------------------------------
    pos_uses: dict[int, int] = {}
    neg_uses: dict[int, int] = {}
    for var in order:
        for lit in aig.fanins(var):
            child = lit_var(lit)
            if lit & 1:
                neg_uses[child] = neg_uses.get(child, 0) + 1
            else:
                pos_uses[child] = pos_uses.get(child, 0) + 1
    for po in aig.po_lits():
        child = lit_var(po)
        if po & 1:
            neg_uses[child] = neg_uses.get(child, 0) + 1
        else:
            pos_uses[child] = pos_uses.get(child, 0) + 1

    # --- pattern detection --------------------------------------------------
    # pattern[var] = (kind, payload); absorbed nodes are skipped in covering.
    pattern: dict[int, tuple[str, tuple]] = {}
    absorbed: set[int] = set()
    for var in order:
        if var in absorbed:
            continue
        f0, f1 = aig.fanins(var)
        if not (f0 & 1) or not (f1 & 1):
            continue
        v0, v1 = lit_var(f0), lit_var(f1)
        if not (aig.is_and(v0) and aig.is_and(v1)) or v0 == v1:
            continue
        if v0 in absorbed or v1 in absorbed or v0 in pattern or v1 in pattern:
            continue
        single_use = all(
            aig.num_refs(c) == 1 and c not in po_vars for c in (v0, v1)
        )
        if not single_use:
            continue
        g00, g01 = aig.fanins(v0)
        g10, g11 = aig.fanins(v1)
        vars0 = {lit_var(g00), lit_var(g01)}
        vars1 = {lit_var(g10), lit_var(g11)}
        if vars0 != vars1:
            continue
        if {g10, g11} == {g00 ^ 1, g01 ^ 1}:
            # var = ~(ab) & ~(a'b') -> XOR(a, b) with a=g00, b=g01
            pattern[var] = ("xor", (g00, g01))
            absorbed.update((v0, v1))
            continue
        # MUX: var = ~(s&b) & ~(~s&a) -> ~var... handled via select var.
        select = None
        # sorted(): first matching candidate wins, so candidate order
        # must be canonical for the mapped netlist to be reproducible.
        for cand in sorted(vars0):
            lits_with_cand0 = [l for l in (g00, g01) if lit_var(l) == cand]
            lits_with_cand1 = [l for l in (g10, g11) if lit_var(l) == cand]
            if (
                len(lits_with_cand0) == 1
                and len(lits_with_cand1) == 1
                and lits_with_cand0[0] == (lits_with_cand1[0] ^ 1)
            ):
                select = cand
                break
        if select is not None and len(vars0 | vars1) >= 2:
            sel_lit0 = next(l for l in (g00, g01) if lit_var(l) == select)
            data0 = next(l for l in (g00, g01) if lit_var(l) != select)
            data1 = next(l for l in (g10, g11) if lit_var(l) != select)
            # ~var = MUX(sel, ...): when sel_lit0 true, v0 = data0.
            # ~var = (sel_lit0 & data0) | (~sel_lit0 & data1)
            pattern[var] = ("mux", (sel_lit0, data0, data1))
            absorbed.update((v0, v1))

    # --- covering -------------------------------------------------------------
    # stored[var] = (net, negated): the mapped net computes var ^ negated.
    stored: dict[int, tuple[str, bool]] = {}
    inv_nets: dict[str, str] = {}
    const_nets: dict[int, str] = {}
    for var, name in zip(aig.pi_vars(), aig.pi_names()):
        stored[var] = (name, False)

    def net_for(lit: int) -> str:
        """Net computing ``lit`` exactly, adding INV/const cells on demand."""
        var = lit_var(lit)
        if var == 0:
            value = 1 if (lit & 1) else 0
            if value not in const_nets:
                net = f"const{value}"
                const_nets[value] = net
                mapped.instances.append(
                    CellInstance(
                        f"LOGIC{value}_X1",
                        net,
                        (),
                        source_var=0,
                        source_negated=bool(value),
                    )
                )
            return const_nets[value]
        net, negated = stored[var]
        want_neg = bool(lit & 1)
        if negated == want_neg:
            return net
        if net not in inv_nets:
            inv_net = f"{net}_bar"
            mapped.instances.append(
                CellInstance(
                    "INV_X1",
                    inv_net,
                    (net,),
                    source_var=var,
                    source_negated=not negated,
                )
            )
            inv_nets[net] = inv_net
        return inv_nets[net]

    for var in order:
        if var in absorbed:
            continue
        out_net = f"n{var}"
        prefer_neg = neg_uses.get(var, 0) > pos_uses.get(var, 0)
        if var in pattern:
            kind, payload = pattern[var]
            if kind == "xor":
                a, b = payload
                in_a = net_for(a & ~1)
                in_b = net_for(b & ~1)
                parity = (a & 1) ^ (b & 1)
                # var = XOR(lit a, lit b); with positive nets, complement
                # folds into choosing XOR vs XNOR and output phase.
                # var = a ^ b; using positive nets A, B: var = A ^ B ^ parity.
                if prefer_neg:
                    cell = "XOR2_X1" if parity else "XNOR2_X1"
                    stored[var] = (out_net, True)
                else:
                    cell = "XNOR2_X1" if parity else "XOR2_X1"
                    stored[var] = (out_net, False)
                mapped.instances.append(
                    CellInstance(
                        cell,
                        out_net,
                        (in_a, in_b),
                        source_var=var,
                        source_negated=prefer_neg,
                    )
                )
            else:  # mux: ~var = sel ? data0 : data1  (sel true -> data0)
                sel_lit, data0, data1 = payload
                sel_net = net_for(sel_lit)
                # MUX2(sel, a, b) = b if sel else a; ~var = data0 if sel.
                a_net = net_for(data1)
                b_net = net_for(data0)
                mapped.instances.append(
                    CellInstance(
                        "MUX2_X1",
                        out_net,
                        (sel_net, a_net, b_net),
                        source_var=var,
                        source_negated=True,
                    )
                )
                stored[var] = (out_net, True)
            continue
        f0, f1 = aig.fanins(var)
        nets = []
        effs = []
        for lit in (f0, f1):
            child = lit_var(lit)
            if child == 0:
                nets.append(net_for(0))
                effs.append(bool(lit & 1) ^ False)
                continue
            child_net, child_neg = stored[child]
            nets.append(child_net)
            effs.append(bool(lit & 1) ^ child_neg)
        eff0, eff1 = effs
        if not eff0 and not eff1:
            cell = "NAND2_X1" if prefer_neg else "AND2_X1"
            negated = prefer_neg
            ins = (nets[0], nets[1])
        elif eff0 and eff1:
            cell = "OR2_X1" if prefer_neg else "NOR2_X1"
            negated = prefer_neg
            ins = (nets[0], nets[1])
        else:
            plain, comp = (nets[0], nets[1]) if eff1 else (nets[1], nets[0])
            cell = "ORNOT2_X1" if prefer_neg else "ANDNOT2_X1"
            negated = prefer_neg
            ins = (comp, plain) if prefer_neg else (plain, comp)
        mapped.instances.append(
            CellInstance(cell, out_net, ins, source_var=var, source_negated=negated)
        )
        stored[var] = (out_net, negated)

    # --- primary outputs ---------------------------------------------------
    for po_lit, po_name in zip(aig.po_lits(), aig.po_names()):
        net = net_for(po_lit)
        mapped.instances.append(
            CellInstance(
                "BUF_X1",
                po_name,
                (net,),
                source_var=lit_var(po_lit),
                source_negated=bool(po_lit & 1),
            )
        )
        mapped.outputs.append(po_name)
    return mapped
