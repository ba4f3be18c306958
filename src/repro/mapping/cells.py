"""The standard-cell library model.

Cell timing/area/power numbers follow the public NanGate 45 nm Open Cell
Library's typical-corner flavour (simplified to a linear delay model:
``delay = intrinsic + load_factor * fanout``).  Each logical cell exists in
two drive strengths; ``X2`` trades ~45% extra area and leakage for ~30%
lower intrinsic delay and load sensitivity, which is what the ``+opt``
sizing pass exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import MappingError


@dataclass(frozen=True)
class Cell:
    """One standard cell: logic function plus physical characteristics."""

    name: str
    num_inputs: int
    function: Callable[[Sequence[np.ndarray]], np.ndarray]
    area: float          # um^2
    intrinsic_delay: float  # ps
    load_factor: float      # ps per fanout
    input_cap: float        # fF per input pin
    leakage: float          # nW

    def evaluate(self, inputs: Sequence[np.ndarray]) -> np.ndarray:
        if len(inputs) != self.num_inputs:
            raise MappingError(
                f"cell {self.name} expects {self.num_inputs} inputs"
            )
        return self.function(inputs)


class CellLibrary:
    """A named collection of cells with drive-strength variants."""

    def __init__(self, name: str, cells: Sequence[Cell]):
        self.name = name
        self._cells = {cell.name: cell for cell in cells}

    def __reduce__(self):
        # The cell functions are lambdas, which do not pickle.  NanGate45
        # is the only library, so unpickling rebuilds it from its factory;
        # mapped circuits can then travel through the pipeline artifact
        # cache and worker pools.
        return (nangate45_library, ())

    def __getitem__(self, name: str) -> Cell:
        cell = self._cells.get(name)
        if cell is None:
            raise MappingError(f"library {self.name} has no cell {name!r}")
        return cell

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def variant(self, name: str, strength: str) -> Cell:
        """The drive-strength sibling of a cell, e.g. ``X1`` -> ``X2``."""
        base = name.rsplit("_", 1)[0]
        return self[f"{base}_{strength}"]


def _cell_pair(
    base: str,
    num_inputs: int,
    function: Callable[[Sequence[np.ndarray]], np.ndarray],
    area: float,
    delay: float,
    load: float,
    cap: float,
    leakage: float,
) -> list[Cell]:
    """Build the X1/X2 pair for one logical function."""
    x1 = Cell(
        name=f"{base}_X1",
        num_inputs=num_inputs,
        function=function,
        area=area,
        intrinsic_delay=delay,
        load_factor=load,
        input_cap=cap,
        leakage=leakage,
    )
    x2 = Cell(
        name=f"{base}_X2",
        num_inputs=num_inputs,
        function=function,
        area=area * 1.45,
        intrinsic_delay=delay * 0.70,
        load_factor=load * 0.55,
        input_cap=cap * 1.9,
        leakage=leakage * 1.9,
    )
    return [x1, x2]


def nangate45_library() -> CellLibrary:
    """The library used throughout the reproduction (NanGate45 flavour)."""
    cells: list[Cell] = []
    cells += _cell_pair(
        "INV", 1, lambda x: ~x[0], 0.532, 10.0, 3.2, 1.6, 1.1
    )
    cells += _cell_pair(
        "BUF", 1, lambda x: x[0].copy(), 0.798, 18.0, 2.4, 1.5, 1.3
    )
    cells += _cell_pair(
        "NAND2", 2, lambda x: ~(x[0] & x[1]), 0.798, 14.0, 3.6, 1.6, 1.5
    )
    cells += _cell_pair(
        "NOR2", 2, lambda x: ~(x[0] | x[1]), 0.798, 17.0, 4.4, 1.5, 1.4
    )
    cells += _cell_pair(
        "AND2", 2, lambda x: x[0] & x[1], 1.064, 22.0, 3.0, 1.5, 1.9
    )
    cells += _cell_pair(
        "OR2", 2, lambda x: x[0] | x[1], 1.064, 24.0, 3.2, 1.5, 1.9
    )
    cells += _cell_pair(
        "ANDNOT2", 2, lambda x: x[0] & ~x[1], 1.064, 23.0, 3.3, 1.5, 1.8
    )
    cells += _cell_pair(
        "ORNOT2", 2, lambda x: x[0] | ~x[1], 1.064, 25.0, 3.4, 1.5, 1.8
    )
    cells += _cell_pair(
        "XOR2", 2, lambda x: x[0] ^ x[1], 1.596, 32.0, 4.8, 2.1, 2.6
    )
    cells += _cell_pair(
        "XNOR2", 2, lambda x: ~(x[0] ^ x[1]), 1.596, 33.0, 4.9, 2.1, 2.6
    )
    cells += _cell_pair(
        "AOI21", 3, lambda x: ~((x[0] & x[1]) | x[2]), 1.064, 19.0, 4.6, 1.7, 1.7
    )
    cells += _cell_pair(
        "OAI21", 3, lambda x: ~((x[0] | x[1]) & x[2]), 1.064, 20.0, 4.7, 1.7, 1.7
    )
    cells += _cell_pair(
        "MUX2", 3,  # MUX2(sel, a, b) = b if sel else a
        lambda x: (x[0] & x[2]) | (~x[0] & x[1]),
        1.862, 30.0, 4.0, 1.9, 2.9,
    )
    # Tie cells (constants); delays irrelevant, tiny area/leakage.
    cells += _cell_pair(
        "LOGIC0", 0, lambda x: None, 0.266, 0.0, 0.0, 0.0, 0.3
    )
    cells += _cell_pair(
        "LOGIC1", 0, lambda x: None, 0.266, 0.0, 0.0, 0.0, 0.3
    )
    return CellLibrary("nangate45-lite", cells)
