"""And-Inverter Graph (AIG) package: the synthesis intermediate form.

The AIG mirrors ABC's internal representation: two-input AND nodes with
complemented edges, structural hashing, constant folding, fanout tracking and
in-place node replacement with cascading simplification — the machinery that
DAG-aware rewriting, refactoring and resubstitution are built on.
"""

from repro.aig.aig import Aig, lit_is_compl, lit_not, lit_var, make_lit
from repro.aig.build import aig_from_netlist
from repro.aig.export import netlist_from_aig
from repro.aig.simulate import (
    cut_truth_table,
    exhaustive_signatures,
    random_signatures,
    simulate_words,
)
from repro.aig.cuts import reconvergence_window

__all__ = [
    "Aig",
    "make_lit",
    "lit_var",
    "lit_not",
    "lit_is_compl",
    "aig_from_netlist",
    "netlist_from_aig",
    "simulate_words",
    "random_signatures",
    "exhaustive_signatures",
    "cut_truth_table",
    "reconvergence_window",
]
