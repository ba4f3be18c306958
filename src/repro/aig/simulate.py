"""AIG simulation with arbitrary-width bit-parallel words.

Words are Python integers: bit ``p`` of a node's word is its value under
pattern ``p``.  Arbitrary precision makes complementation exact (XOR with
a width mask) and supports exhaustive simulation of cones up to ~16
inputs: :func:`cone_words` computes ``refactor``'s and ``resub``'s window
tables that way.  The
same words carry random simulation at any width: for
:func:`functionally_equal` and, through :func:`random_signatures`, for
the SAT miter's prefilter, which reads its first counterexample off the
lowest set bit of the ``diff`` word.

:func:`simulate_lanes` runs the same AND/complement algebra over numpy
``uint64`` lanes.  Nothing in the package calls it; it stays only because
the ``perfbench`` layer table patches it by name, and goes with that
entry.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.aig.aig import CONST_VAR, Aig, lit_var
from repro.errors import AigError
from repro.utils.rng import make_rng
from repro.utils.truth import TruthTable, _var_mask


def simulate_words(
    aig: Aig, pi_words: Mapping[int, int], width: int
) -> dict[int, int]:
    """Simulate all live nodes given one integer word per PI variable.

    ``pi_words`` maps PI *variable ids* to integer words of ``width`` bits.
    Returns a word for every live variable (keyed by variable id).
    """
    mask = (1 << width) - 1
    words: dict[int, int] = {CONST_VAR: 0}
    for var in aig.pi_vars():
        if var not in pi_words:
            raise AigError(f"missing stimulus for PI var {var}")
        words[var] = pi_words[var] & mask
    for var in aig.topological_ands():
        f0, f1 = aig.fanins(var)
        w0 = words[lit_var(f0)] ^ (mask if f0 & 1 else 0)
        w1 = words[lit_var(f1)] ^ (mask if f1 & 1 else 0)
        words[var] = w0 & w1
    return words


def po_words(aig: Aig, words: Mapping[int, int], width: int) -> list[int]:
    """Extract output words from a :func:`simulate_words` result."""
    mask = (1 << width) - 1
    out = []
    for po in aig.po_lits():
        word = words[lit_var(po)]
        out.append((word ^ mask) & mask if po & 1 else word & mask)
    return out


_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def simulate_lanes(
    aig: Aig, pi_lanes: Mapping[int, np.ndarray], width: int
) -> dict[int, np.ndarray]:
    """Simulate all live nodes over little-endian uint64 lanes.

    ``pi_lanes`` maps PI variable ids to arrays of ``ceil(width / 64)``
    lanes (lane ``i`` holds patterns ``64*i .. 64*i+63``).  Complement
    flips whole lanes, so bits beyond ``width`` are garbage; mask them
    when reading a result.
    """
    nlanes = max(1, (width + 63) // 64)
    lanes: dict[int, np.ndarray] = {CONST_VAR: np.zeros(nlanes, dtype=np.uint64)}
    for var in aig.pi_vars():
        if var not in pi_lanes:
            raise AigError(f"missing stimulus for PI var {var}")
        arr = np.asarray(pi_lanes[var], dtype=np.uint64)
        if arr.shape != (nlanes,):
            raise AigError(
                f"PI var {var} stimulus has shape {arr.shape}, want ({nlanes},)"
            )
        lanes[var] = arr
    for var in aig.topological_ands():
        f0, f1 = aig.fanins(var)
        w0 = lanes[lit_var(f0)]
        if f0 & 1:
            w0 = w0 ^ _ALL_ONES
        w1 = lanes[lit_var(f1)]
        if f1 & 1:
            w1 = w1 ^ _ALL_ONES
        lanes[var] = w0 & w1
    return lanes


def random_signatures(
    aig: Aig, width: int = 256, seed: int = 0
) -> dict[int, int]:
    """Random simulation words for every live node.

    PI words are ``width`` bits drawn from ``make_rng(seed)``, so a PI's
    own entry is its stimulus.  The SAT miter's prefilter reads its
    counterexample from them.
    """
    rng = make_rng(seed)
    pi_words = {
        var: int.from_bytes(rng.bytes((width + 7) // 8), "big") & ((1 << width) - 1)
        for var in aig.pi_vars()
    }
    return simulate_words(aig, pi_words, width)


def exhaustive_signatures(aig: Aig) -> dict[int, int]:
    """Exhaustive simulation over all ``2**num_pis`` patterns (<= 16 PIs)."""
    num = aig.num_pis
    if num > 16:
        raise AigError("exhaustive AIG simulation limited to 16 PIs")
    width = 1 << num
    pi_words = {}
    for index, var in enumerate(aig.pi_vars()):
        pi_words[var] = TruthTable.var(index, num).bits
    return simulate_words(aig, pi_words, width)


def output_truth_tables(aig: Aig) -> list[TruthTable]:
    """Truth table of every PO over the PI variables (<= 16 PIs)."""
    num = aig.num_pis
    words = exhaustive_signatures(aig)
    width = 1 << num
    return [
        TruthTable(word, num)
        for word in po_words(aig, words, width)
    ]


def cone_words(
    aig: Aig, leaves: Sequence[int], cone: Sequence[int]
) -> tuple[dict[int, int], int]:
    """Tables over the cut ``leaves`` (variable ``i`` is ``leaves[i]``) of
    the leaves and each node of ``cone``, a topologically ordered cone, and
    their all-ones mask.  Keys run const, leaves, then ``cone``: ``resub``
    takes its divisors in that order.
    """
    nvars = len(leaves)
    mask = (1 << (1 << nvars)) - 1
    words: dict[int, int] = {CONST_VAR: 0}
    for index, leaf in enumerate(leaves):
        words[leaf] = _var_mask(index, nvars)
    fanin0, fanin1 = aig.fanin_arrays()
    for var in cone:
        f0 = fanin0[var]
        f1 = fanin1[var]
        w0 = words[f0 >> 1] ^ (mask if f0 & 1 else 0)
        w1 = words[f1 >> 1] ^ (mask if f1 & 1 else 0)
        words[var] = w0 & w1
    return words, mask


def cut_truth_table(aig: Aig, root_lit: int, leaves: Sequence[int]) -> TruthTable:
    """Truth table of ``root_lit`` as a function of cut ``leaves``.

    ``leaves`` are variable ids forming a cut of the root's cone; the table's
    variable ``i`` corresponds to ``leaves[i]``.
    """
    nvars = len(leaves)
    if nvars > 16:
        raise AigError("cut truth tables limited to 16 leaves")
    words, mask = cone_words(aig, leaves, aig.cone_vars(root_lit, leaves))
    bits = words[lit_var(root_lit)]
    if root_lit & 1:
        bits ^= mask
    return TruthTable(bits & mask, nvars)


#: :func:`functionally_equal` enumerates every pattern up to this many PIs.
EXHAUSTIVE_LIMIT = 14
#: Random patterns, and their seed, that :func:`functionally_equal` uses
#: above the exhaustive limit.
RANDOM_WIDTH = 1024
RANDOM_SEED = 7


def functionally_equal(first: Aig, second: Aig) -> bool:
    """Check PO-by-PO functional equality of two AIGs with shared PI names.

    Uses exhaustive simulation when the circuits have at most
    ``EXHAUSTIVE_LIMIT`` (14) inputs, otherwise ``RANDOM_WIDTH`` (1024)
    random patterns from seed ``RANDOM_SEED`` (a strong randomized check,
    not a proof).
    """
    if first.pi_names() != second.pi_names():
        raise AigError("AIGs have different PI name lists")
    if first.num_pos != second.num_pos:
        return False
    num = first.num_pis
    if num <= EXHAUSTIVE_LIMIT:
        sim_width = 1 << num
        pi_bits = {
            name: TruthTable.var(i, num).bits
            for i, name in enumerate(first.pi_names())
        }
    else:
        sim_width = RANDOM_WIDTH
        rng = make_rng(RANDOM_SEED)
        pi_bits = {
            name: int.from_bytes(rng.bytes((sim_width + 7) // 8), "big")
            & ((1 << sim_width) - 1)
            for name in first.pi_names()
        }
    pis_a = {
        var: pi_bits[name] for var, name in zip(first.pi_vars(), first.pi_names())
    }
    pis_b = {
        var: pi_bits[name] for var, name in zip(second.pi_vars(), second.pi_names())
    }
    words_a = simulate_words(first, pis_a, sim_width)
    words_b = simulate_words(second, pis_b, sim_width)
    return po_words(first, words_a, sim_width) == po_words(
        second, words_b, sim_width
    )
