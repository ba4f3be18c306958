"""CNF containers and Tseitin encodings of circuits.

A :class:`Cnf` holds clauses over DIMACS-style variables (positive integers
starting at 1; a negative literal is the complemented phase).  The Tseitin
encoders translate an :class:`~repro.aig.aig.Aig` or a gate-level
:class:`~repro.netlist.netlist.Netlist` into a :class:`CircuitCnf`, which
pairs the clause set with name-indexed variable maps so callers can
constrain primary inputs/outputs, share input variables between circuit
copies (the SAT attack encodes the locked circuit twice over one set of
functional inputs), and decode solver models back to net values.

Encodings are full Tseitin (both implication directions), so any literal —
input, internal or output — may be constrained to either polarity.
:func:`tseitin_netlist` can also hold some primary inputs constant and fold
them forward, encoding only the gates they leave undecided: the SAT attack
pins each oracle observation that way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from repro.aig.aig import CONST_VAR, Aig, lit_var
from repro.errors import SatError
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist


class Cnf:
    """A growable clause database over DIMACS-style variables."""

    def __init__(self, num_vars: int = 0):
        if num_vars < 0:
            raise SatError("num_vars must be non-negative")
        self.num_vars = num_vars
        self.clauses: list[tuple[int, ...]] = []

    def new_var(self) -> int:
        """Allocate and return a fresh variable."""
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, lits: Iterable[int]) -> None:
        """Append a clause; literals must reference allocated variables."""
        clause = tuple(lits)
        for lit in clause:
            if lit == 0:
                raise SatError("literal 0 is reserved for the DIMACS terminator")
            if abs(lit) > self.num_vars:
                raise SatError(
                    f"literal {lit} references unallocated variable "
                    f"(have {self.num_vars})"
                )
        self.clauses.append(clause)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    # -- DIMACS ---------------------------------------------------------------

    def to_dimacs(self, comments: Sequence[str] = ()) -> str:
        """Serialize to DIMACS CNF text."""
        lines = [f"c {comment}" for comment in comments]
        lines.append(f"p cnf {self.num_vars} {len(self.clauses)}")
        for clause in self.clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"Cnf(vars={self.num_vars}, clauses={len(self.clauses)})"


def cnf_from_dimacs(text: str) -> Cnf:
    """Parse DIMACS CNF text (comments tolerated anywhere) into a :class:`Cnf`."""
    cnf: Optional[Cnf] = None
    declared_clauses = 0
    pending: list[int] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if cnf is not None:
                raise SatError(f"line {line_number}: duplicate problem line")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise SatError(f"line {line_number}: malformed problem line {line!r}")
            try:
                num_vars, declared_clauses = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise SatError(f"line {line_number}: {exc}") from exc
            cnf = Cnf(num_vars)
            continue
        if cnf is None:
            raise SatError(f"line {line_number}: clause before problem line")
        try:
            values = [int(token) for token in line.split()]
        except ValueError as exc:
            raise SatError(f"line {line_number}: {exc}") from exc
        for value in values:
            if value == 0:
                cnf.add_clause(pending)
                pending = []
            else:
                pending.append(value)
    if cnf is None:
        raise SatError("no problem line in DIMACS input")
    if pending:
        raise SatError("unterminated clause at end of DIMACS input")
    if len(cnf.clauses) != declared_clauses:
        raise SatError(
            f"problem line declares {declared_clauses} clauses, "
            f"found {len(cnf.clauses)}"
        )
    return cnf


# -- circuit encodings --------------------------------------------------------


@dataclass
class CircuitCnf:
    """A circuit's Tseitin encoding with its variable maps.

    ``inputs`` maps the free primary-input names to (positive) CNF
    variables (:func:`tseitin_netlist` leaves out inputs it held constant);
    ``outputs`` maps primary-output names to signed literals; ``lits`` maps
    every encoded signal — net names for netlists, live variable ids for
    AIGs — to its signed literal.
    """

    cnf: Cnf
    inputs: dict[str, int] = field(default_factory=dict)
    outputs: dict[str, int] = field(default_factory=dict)
    lits: dict = field(default_factory=dict)

    def input_model(self, model: Mapping[int, bool]) -> dict[str, int]:
        """Decode a solver model into 0/1 values for the primary inputs."""
        return {
            name: int(model.get(var, False))
            for name, var in self.inputs.items()
        }


def add_and_clauses(cnf: Cnf, y: int, operands: Sequence[int]) -> None:
    """Constrain ``y == AND(operands)`` (signed literals)."""
    for lit in operands:
        cnf.add_clause((-y, lit))
    cnf.add_clause((y, *(-lit for lit in operands)))


def add_or_clauses(cnf: Cnf, y: int, operands: Sequence[int]) -> None:
    """Constrain ``y == OR(operands)`` (signed literals)."""
    for lit in operands:
        cnf.add_clause((y, -lit))
    cnf.add_clause((-y, *operands))


def add_xor_clauses(cnf: Cnf, y: int, a: int, b: int) -> None:
    """Constrain ``y == a XOR b`` (signed literals)."""
    cnf.add_clause((-y, a, b))
    cnf.add_clause((-y, -a, -b))
    cnf.add_clause((y, -a, b))
    cnf.add_clause((y, a, -b))


def add_mux_clauses(cnf: Cnf, y: int, sel: int, a: int, b: int) -> None:
    """Constrain ``y == (b if sel else a)`` (signed literals)."""
    cnf.add_clause((-y, -sel, b))
    cnf.add_clause((y, -sel, -b))
    cnf.add_clause((-y, sel, a))
    cnf.add_clause((y, sel, -a))


class _ConstPool:
    """Lazily allocated constant-FALSE variable (one unit clause)."""

    def __init__(self, cnf: Cnf):
        self._cnf = cnf
        self._false: Optional[int] = None

    def false_lit(self) -> int:
        if self._false is None:
            self._false = self._cnf.new_var()
            self._cnf.add_clause((-self._false,))
        return self._false

    def true_lit(self) -> int:
        return -self.false_lit()

    def lit(self, value: bool) -> int:
        return self.true_lit() if value else self.false_lit()

    def value(self, lit: int) -> Optional[bool]:
        """The constant ``lit`` stands for, or None for a non-constant."""
        if self._false is None or abs(lit) != self._false:
            return None
        return lit < 0


def tseitin_aig(aig: Aig) -> CircuitCnf:
    """Tseitin-encode an AIG's primary-output cone into a fresh clause set.

    Every primary input gets a fresh variable, in PI order.
    """
    cnf = Cnf()
    consts = _ConstPool(cnf)
    lits: dict[int, int] = {}
    inputs: dict[str, int] = {}
    for var, name in zip(aig.pi_vars(), aig.pi_names()):
        cnf_var = cnf.new_var()
        inputs[name] = cnf_var
        lits[var] = cnf_var

    def signed(aig_lit: int) -> int:
        var = lit_var(aig_lit)
        if var == CONST_VAR:
            base = consts.false_lit()
        else:
            base = lits[var]
        return -base if aig_lit & 1 else base

    for var in aig.topological_ands(roots=aig.po_lits()):
        f0, f1 = aig.fanins(var)
        y = cnf.new_var()
        add_and_clauses(cnf, y, (signed(f0), signed(f1)))
        lits[var] = y
    outputs = {
        name: signed(po) for po, name in zip(aig.po_lits(), aig.po_names())
    }
    return CircuitCnf(cnf=cnf, inputs=inputs, outputs=outputs, lits=dict(lits))


def _fold_and_or(
    cnf: Cnf, consts: _ConstPool, operands: Sequence[int], is_or: bool
) -> int:
    """One literal for the AND (or OR) of ``operands``, constants folded.

    A controlling constant (FALSE for AND, TRUE for OR) decides the gate;
    the other constant drops out.  Only two or more unknown operands need
    a fresh variable.
    """
    unknown = []
    for lit in operands:
        value = consts.value(lit)
        if value is None:
            unknown.append(lit)
        elif value is is_or:
            return lit
    if not unknown:
        return consts.lit(not is_or)
    if len(unknown) == 1:
        return unknown[0]
    y = cnf.new_var()
    (add_or_clauses if is_or else add_and_clauses)(cnf, y, unknown)
    return y


def _fold_xor(cnf: Cnf, consts: _ConstPool, operands: Sequence[int]) -> int:
    """One literal for the XOR of ``operands``, constants folded.

    Constant operands flip the result's phase; the unknown ones chain
    through one fresh variable per extra operand.
    """
    parity = False
    unknown = []
    for lit in operands:
        value = consts.value(lit)
        if value is None:
            unknown.append(lit)
        else:
            parity ^= value
    if not unknown:
        return consts.lit(parity)
    acc = unknown[0]
    for lit in unknown[1:]:
        y = cnf.new_var()
        add_xor_clauses(cnf, y, acc, lit)
        acc = y
    return -acc if parity else acc


def _fold_mux(cnf: Cnf, consts: _ConstPool, sel: int, a: int, b: int) -> int:
    """One literal for ``b if sel else a``, constants folded."""
    choice = consts.value(sel)
    if choice is not None:
        return b if choice else a
    if a == b:
        return a
    if consts.value(a) is not None and consts.value(b) is not None:
        return sel if consts.value(b) else -sel
    y = cnf.new_var()
    add_mux_clauses(cnf, y, sel, a, b)
    return y


def tseitin_netlist(
    netlist: Netlist,
    cnf: Optional[Cnf] = None,
    input_vars: Optional[Mapping[str, int]] = None,
    constants: Optional[Mapping[str, bool]] = None,
) -> CircuitCnf:
    """Tseitin-encode a gate-level netlist directly (no AIG round trip).

    Net names survive into the variable maps, so locking-specific nets
    (``keyinput*``) stay addressable — which is what the SAT attack needs to
    tie or split key variables between circuit copies.  ``cnf`` lets callers
    accumulate several circuits into one clause set; ``input_vars``
    pre-assigns CNF variables to primary inputs *by name*, so two encodings
    can share inputs (attack copies).  Unlisted inputs get fresh variables.

    ``constants`` fixes primary inputs to 0/1, and the encoder folds them
    forward: a gate whose value the constants decide becomes the call's one
    constant literal, a gate left with a single unknown operand becomes
    that operand's literal, and neither gets a variable or a clause.  Only
    gates with two or more unknown operands are Tseitin-encoded.  Fixed
    inputs are absent from ``inputs``; ``lits`` and ``outputs`` may hold the
    constant literal, which a unit clause forces FALSE, so pinning a
    constant output to the wrong value makes the formula unsatisfiable.
    CONST0/CONST1 gates fold the same way with or without ``constants``.
    """
    cnf = cnf if cnf is not None else Cnf()
    shared = dict(input_vars) if input_vars else {}
    fixed = dict(constants) if constants else {}
    stray = sorted(set(fixed) - set(netlist.inputs))
    if stray:
        raise SatError(f"constants name non-inputs: {stray}")
    clash = sorted(set(fixed) & set(shared))
    if clash:
        raise SatError(f"inputs both shared and constant: {clash}")
    consts = _ConstPool(cnf)
    lits: dict[str, int] = {}
    inputs: dict[str, int] = {}
    for net in netlist.inputs:
        if net in fixed:
            lits[net] = consts.lit(bool(fixed[net]))
            continue
        var = shared.get(net)
        if var is None:
            var = cnf.new_var()
        inputs[net] = var
        lits[net] = var

    for gate in netlist.topological_gates():
        ins = [lits[n] for n in gate.inputs]
        kind = gate.gate_type
        if kind is GateType.CONST0:
            lit = consts.false_lit()
        elif kind is GateType.CONST1:
            lit = consts.true_lit()
        elif kind is GateType.BUF:
            lit = ins[0]
        elif kind is GateType.NOT:
            lit = -ins[0]
        elif kind in (GateType.AND, GateType.NAND):
            lit = _fold_and_or(cnf, consts, ins, is_or=False)
            lit = -lit if kind is GateType.NAND else lit
        elif kind in (GateType.OR, GateType.NOR):
            lit = _fold_and_or(cnf, consts, ins, is_or=True)
            lit = -lit if kind is GateType.NOR else lit
        elif kind in (GateType.XOR, GateType.XNOR):
            lit = _fold_xor(cnf, consts, ins)
            lit = -lit if kind is GateType.XNOR else lit
        elif kind is GateType.MUX:
            lit = _fold_mux(cnf, consts, ins[0], ins[1], ins[2])
        else:  # pragma: no cover - GateType is closed
            raise SatError(f"cannot encode gate type {kind}")
        lits[gate.output] = lit
    outputs = {net: lits[net] for net in netlist.outputs}
    return CircuitCnf(cnf=cnf, inputs=inputs, outputs=outputs, lits=dict(lits))
