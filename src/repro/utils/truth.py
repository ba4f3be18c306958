"""Truth-table arithmetic on Python integers.

A truth table over ``n`` variables is stored as an integer whose bit ``m`` is
the function value on the minterm with variable assignment ``m`` (variable
``i`` equals bit ``i`` of ``m``).  Python's arbitrary-precision integers make
this exact and fast for the cut sizes synthesis needs (up to ~12 inputs, i.e.
4096-bit integers).

The :class:`TruthTable` wrapper carries ``nvars`` alongside the bits and
provides boolean algebra, cofactoring, variable support analysis, permutation
and negation transforms — everything the rewriting library, refactoring and
cell matching require.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterator, Sequence

import numpy as np

MAX_VARS = 16


@lru_cache(maxsize=None)
def _var_mask(var: int, nvars: int) -> int:
    """Truth table (as int) of the projection function ``x_var`` on nvars."""
    if not 0 <= var < nvars:
        raise ValueError(f"variable {var} out of range for {nvars} vars")
    block = (1 << (1 << var)) - 1
    period = 1 << (var + 1)
    out = 0
    for start in range(1 << var, 1 << nvars, period):
        out |= block << start
    return out


@lru_cache(maxsize=None)
def _full_mask(nvars: int) -> int:
    return (1 << (1 << nvars)) - 1


@dataclass(frozen=True)
class TruthTable:
    """An ``nvars``-input boolean function stored as a bitmask integer."""

    bits: int
    nvars: int

    def __post_init__(self) -> None:
        if not 0 <= self.nvars <= MAX_VARS:
            raise ValueError(f"nvars must be in [0, {MAX_VARS}], got {self.nvars}")
        if self.bits & ~_full_mask(self.nvars):
            raise ValueError("truth-table bits exceed 2**nvars entries")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(value: bool, nvars: int) -> "TruthTable":
        """Constant-0 or constant-1 function of ``nvars`` variables."""
        return TruthTable(_full_mask(nvars) if value else 0, nvars)

    @staticmethod
    def var(index: int, nvars: int) -> "TruthTable":
        """The projection function ``f = x_index``."""
        return TruthTable(_var_mask(index, nvars), nvars)

    @staticmethod
    def from_values(values: Sequence[int]) -> "TruthTable":
        """Build from a list of 0/1 output values, minterm 0 first."""
        n = len(values)
        if n == 0 or n & (n - 1):
            raise ValueError("value list length must be a power of two")
        nvars = n.bit_length() - 1
        bits = 0
        for minterm, value in enumerate(values):
            if value:
                bits |= 1 << minterm
        return TruthTable(bits, nvars)

    # -- basic algebra -----------------------------------------------------

    @property
    def mask(self) -> int:
        return _full_mask(self.nvars)

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.bits ^ self.mask, self.nvars)

    def _check(self, other: "TruthTable") -> None:
        if self.nvars != other.nvars:
            raise ValueError("truth tables have different variable counts")

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._check(other)
        return TruthTable(self.bits & other.bits, self.nvars)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._check(other)
        return TruthTable(self.bits | other.bits, self.nvars)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._check(other)
        return TruthTable(self.bits ^ other.bits, self.nvars)

    def is_const0(self) -> bool:
        return self.bits == 0

    def is_const1(self) -> bool:
        return self.bits == self.mask

    def count_ones(self) -> int:
        """Number of satisfying minterms."""
        return bin(self.bits).count("1")

    def evaluate(self, assignment: Sequence[int]) -> int:
        """Evaluate on a 0/1 assignment, one value per variable."""
        if len(assignment) != self.nvars:
            raise ValueError("assignment length does not match nvars")
        minterm = 0
        for i, value in enumerate(assignment):
            if value:
                minterm |= 1 << i
        return (self.bits >> minterm) & 1

    def minterms(self) -> Iterator[int]:
        """Yield the satisfying minterm indices in increasing order."""
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    # -- cofactors and support ---------------------------------------------

    def cofactor(self, var: int, value: int) -> "TruthTable":
        """Shannon cofactor with ``x_var`` fixed to ``value`` (same nvars)."""
        vmask = _var_mask(var, self.nvars)
        shift = 1 << var
        if value:
            half = self.bits & vmask
            return TruthTable(half | (half >> shift), self.nvars)
        half = self.bits & ~vmask & self.mask
        return TruthTable(half | ((half << shift) & self.mask), self.nvars)

    def depends_on(self, var: int) -> bool:
        """True if the function actually depends on ``x_var``."""
        return self.cofactor(var, 0).bits != self.cofactor(var, 1).bits

    def support(self) -> tuple[int, ...]:
        """Indices of variables the function depends on."""
        return tuple(v for v in range(self.nvars) if self.depends_on(v))

    # -- transforms ----------------------------------------------------------

    def permute(self, perm: Sequence[int]) -> "TruthTable":
        """Relabel variables: new variable ``i`` is old variable ``perm[i]``."""
        if sorted(perm) != list(range(self.nvars)):
            raise ValueError("perm must be a permutation of variable indices")
        values = []
        for minterm in range(1 << self.nvars):
            old_minterm = 0
            for new_var in range(self.nvars):
                if (minterm >> new_var) & 1:
                    old_minterm |= 1 << perm[new_var]
            values.append((self.bits >> old_minterm) & 1)
        return TruthTable.from_values(values)

    def flip(self, var: int) -> "TruthTable":
        """Complement input ``var`` (substitute ``x_var -> !x_var``)."""
        vmask = _var_mask(var, self.nvars)
        shift = 1 << var
        hi = self.bits & vmask
        lo = self.bits & ~vmask & self.mask
        return TruthTable((hi >> shift) | ((lo << shift) & self.mask), self.nvars)

    # -- NPN canonization ----------------------------------------------------

    def npn_canon(self) -> tuple["TruthTable", "NpnTransform"]:
        """Exhaustive NPN-canonical form (practical for nvars <= 5).

        Returns the canonical representative (smallest ``bits`` over all input
        permutations, input negations and output negation) and the transform
        that maps *this* function onto the canonical one.
        """
        if self.nvars > 5:
            raise ValueError("exhaustive NPN canonization limited to 5 vars")
        bits, perm, neg_mask, out_neg = _npn_canon_bits(self.bits, self.nvars)
        return TruthTable(bits, self.nvars), NpnTransform(
            perm=perm, input_negation=neg_mask, output_negation=bool(out_neg)
        )

    def __str__(self) -> str:
        width = 1 << self.nvars
        return format(self.bits, f"0{max(width // 4, 1)}x")


@lru_cache(maxsize=None)
def _npn_transform_tables(nvars: int) -> tuple[np.ndarray, list[tuple]]:
    """Minterm source-index matrix for every (perm, input-negation) pair.

    Row ``r`` of the matrix maps transform ``r``: entry ``m`` is the source
    minterm whose value lands at minterm ``m`` of the transformed function.
    For transform (perm, neg): ``g(y) = f(x)`` with ``x[perm[i]] = y_i ^
    neg_i``, so the source minterm for ``m`` sets bit ``perm[i]`` to
    ``bit_i(m) ^ neg_i``.
    """
    size = 1 << nvars
    rows = []
    metas = []
    for perm in permutations(range(nvars)):
        for neg_mask in range(1 << nvars):
            src = np.zeros(size, dtype=np.int64)
            for minterm in range(size):
                source = 0
                for i in range(nvars):
                    bit = ((minterm >> i) & 1) ^ ((neg_mask >> i) & 1)
                    if bit:
                        source |= 1 << perm[i]
                src[minterm] = source
            rows.append(src)
            metas.append((tuple(perm), neg_mask))
    return np.stack(rows), metas


_POW2_CACHE: dict[int, np.ndarray] = {}


@lru_cache(maxsize=1 << 18)
def _npn_canon_bits(bits: int, nvars: int) -> tuple[int, tuple, int, int]:
    """Vectorized exhaustive NPN canonization on raw bits (memoized)."""
    size = 1 << nvars
    matrix, metas = _npn_transform_tables(nvars)
    values = np.array([(bits >> m) & 1 for m in range(size)], dtype=np.int64)
    pow2 = _POW2_CACHE.get(nvars)
    if pow2 is None:
        pow2 = (1 << np.arange(size, dtype=np.object_))
        _POW2_CACHE[nvars] = pow2
    transformed = values[matrix]  # (num_transforms, size)
    packed = transformed.astype(np.object_) @ pow2
    full = (1 << size) - 1
    complemented = packed ^ full
    best_pos = int(np.argmin(packed))
    best_neg = int(np.argmin(complemented))
    if packed[best_pos] <= complemented[best_neg]:
        perm, neg_mask = metas[best_pos]
        return int(packed[best_pos]), perm, neg_mask, 0
    perm, neg_mask = metas[best_neg]
    return int(complemented[best_neg]), perm, neg_mask, 1


@dataclass(frozen=True)
class NpnTransform:
    """Records how a function was mapped to its NPN-canonical form.

    ``canonical = negate_output?( permute(negate_inputs(original)) )`` where
    new variable ``i`` of the permuted function reads old variable
    ``perm[i]``, and input ``var`` of the *permuted* function is complemented
    when bit ``var`` of ``input_negation`` is set.
    """

    perm: tuple[int, ...]
    input_negation: int
    output_negation: bool

    def apply(self, table: TruthTable) -> TruthTable:
        """Apply this transform to ``table`` (maps original -> canonical)."""
        out = table.permute(self.perm)
        for var in range(table.nvars):
            if (self.input_negation >> var) & 1:
                out = out.flip(var)
        if self.output_negation:
            out = ~out
        return out

    def leaf_order(self, leaves: Sequence[object]) -> list[tuple[object, bool]]:
        """Map canonical-variable positions back onto original leaves.

        Given the original function's leaf operands (one per variable), return
        for each *canonical* variable position the (leaf, complemented) pair
        that should feed a structure implementing the canonical function so
        the result computes the original function (up to output negation,
        reported separately by :attr:`output_negation`).
        """
        return [
            (leaves[self.perm[i]], bool((self.input_negation >> i) & 1))
            for i in range(len(self.perm))
        ]
