"""Convert AIGs back to primitive-gate netlists.

The exporter recognizes common AIG idioms so the produced netlist looks like
real synthesized logic rather than a NAND2/INV soup: complemented-AND fanins
become NAND/NOR/OR forms and the two-level XOR/XNOR pattern is collapsed into
a single gate.  This is the netlist view that technology mapping and the
structural attacks consume.
"""

from __future__ import annotations

from repro.aig.aig import Aig, lit_not, lit_var
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist


def _xor_pattern(aig: Aig, var: int) -> tuple[int, int] | None:
    """Detect ``var = (a & ~b) | (~a & b)`` (returns the XOR operand lits).

    In AIG form an XOR root is an AND of two complemented ANDs that share
    both operand variables with opposite polarities:
    ``var = ~(a'b') & ~(a b)`` encodings included via literal matching.
    """
    f0, f1 = aig.fanins(var)
    if not (f0 & 1) or not (f1 & 1):
        return None
    v0, v1 = lit_var(f0), lit_var(f1)
    if not (aig.is_and(v0) and aig.is_and(v1)) or v0 == v1:
        return None
    g00, g01 = aig.fanins(v0)
    g10, g11 = aig.fanins(v1)
    if {lit_var(g00), lit_var(g01)} != {lit_var(g10), lit_var(g11)}:
        return None
    pair0 = {g00, g01}
    pair1 = {g10, g11}
    if pair1 != {lit_not(g00), lit_not(g01)}:
        return None
    # var = ~(g00 & g01) & ~(~g00 & ~g01) = g00 XOR ~g01 ... work it out:
    # AND(~(a&b), ~(~a&~b)) = (a|b) & (~a|~b) = a XOR b with a=g00, b=g01.
    del pair0
    return g00, g01


def netlist_from_aig(aig: Aig) -> Netlist:
    """Export the live PO cone as a primitive-gate netlist of the same name."""
    netlist = Netlist(name=aig.name)
    net_of: dict[int, str] = {}
    for var, pi_name in zip(aig.pi_vars(), aig.pi_names()):
        netlist.add_input(pi_name)
        net_of[var] = pi_name

    const_net: dict[int, str] = {}

    def const(value: int) -> str:
        if value not in const_net:
            net = f"const{value}"
            netlist.add_gate(
                net, GateType.CONST1 if value else GateType.CONST0, ()
            )
            const_net[value] = net
        return const_net[value]

    inverted: dict[str, str] = {}

    def lit_net(lit: int) -> str:
        """Net computing the literal, inserting NOT gates on demand."""
        var = lit_var(lit)
        if var == 0:
            return const(1 if lit & 1 else 0)
        base = net_of[var]
        if not lit & 1:
            return base
        if base not in inverted:
            inv = f"{base}_not"
            netlist.add_gate(inv, GateType.NOT, (base,))
            inverted[base] = inv
        return inverted[base]

    xor_operands: dict[int, tuple[int, int]] = {}
    absorbed: set[int] = set()
    order = aig.topological_ands(roots=aig.po_lits())
    po_vars = {lit_var(po) for po in aig.po_lits()}
    for var in order:
        pattern = _xor_pattern(aig, var)
        if pattern is None:
            continue
        f0, f1 = aig.fanins(var)
        children = [lit_var(f0), lit_var(f1)]
        # Only absorb children used nowhere else and not POs themselves.
        if all(
            len(aig.fanout_vars(c)) == 1
            and aig.num_refs(c) == 1
            and c not in po_vars
            for c in children
        ):
            xor_operands[var] = pattern
            absorbed.update(children)

    for index, var in enumerate(order):
        if var in absorbed and var not in xor_operands:
            continue
        out_net = f"g{var}"
        if var in xor_operands:
            a, b = xor_operands[var]
            netlist.add_gate(out_net, GateType.XOR, (lit_net(a), lit_net(b)))
        else:
            f0, f1 = aig.fanins(var)
            if (f0 & 1) and (f1 & 1):
                # ~a & ~b = NOR(a, b)
                netlist.add_gate(
                    out_net,
                    GateType.NOR,
                    (lit_net(f0 ^ 1), lit_net(f1 ^ 1)),
                )
            else:
                netlist.add_gate(out_net, GateType.AND, (lit_net(f0), lit_net(f1)))
        net_of[var] = out_net

    for po_lit, po_name in zip(aig.po_lits(), aig.po_names()):
        var = lit_var(po_lit)
        if var == 0:
            source = const(1 if po_lit & 1 else 0)
            netlist.add_gate(po_name, GateType.BUF, (source,))
        else:
            source = net_of[var]
            gate_type = GateType.NOT if po_lit & 1 else GateType.BUF
            if po_name == source:
                po_name_net = po_name
                netlist.add_output(po_name_net)
                continue
            netlist.add_gate(po_name, gate_type, (source,))
        netlist.add_output(po_name)
    netlist.validate()
    return netlist
