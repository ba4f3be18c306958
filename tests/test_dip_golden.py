"""Golden DIP sequences: every query the SAT-family attacks make, pinned.

A change to the DIP loop, the CDCL solver or the CNF encoder may speed an
attack up, but it must not change which inputs the attack asks the oracle
about unless it says so.  Each case is one slot of the ``query_grid``
workload: a quick ISCAS85 circuit with a 5-bit RLL lock (lock seed = slot),
optionally an Anti-SAT or SARLock block on top (defense seed = slot), no
synthesis, and a ``sat`` or ``appsat`` attack capped at 256 DIPs (AppSAT
seed = slot).  Per case the file records:

* every DIP with the oracle's response, in query order;
* the recovered key and the iteration count;
* the conflicts and decisions each DIP cost, and the solver totals;
* for AppSAT, its error estimates, reinforced queries, error rate and
  how the loop ended.

The oracle is a recording :class:`~repro.locking.key.KeyOracle` subclass,
so AppSAT's error estimates still take the batched ``compare_key`` path
and only the DIP queries reach the recorder.

The data lives in ``tests/golden/dip_golden.json``.  Regenerate it only
when a change is *meant* to alter the DIP sequences::

    PYTHONPATH=src python -m tests.test_dip_golden
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.attacks import AppSatAttack, AppSatConfig, SatAttack, SatAttackConfig
from repro.circuits import load_iscas85
from repro.defenses import lock_antisat, lock_sarlock
from repro.locking import lock_rll
from repro.locking.key import Key, KeyOracle

GOLDEN_PATH = Path(__file__).parent / "golden" / "dip_golden.json"

SCALE = "quick"
RLL_KEY_BITS = 5
MAX_ITERATIONS = 256
#: ``(circuit, block, width, attack)`` per slot, as in ``query_grid``.
SLOTS = (
    ("c432", None, 0, "sat"), ("c499", None, 0, "appsat"),
    ("c880", "antisat", 3, "sat"), ("c1355", "antisat", 3, "appsat"),
    ("c432", "sarlock", 4, "appsat"), ("c499", "sarlock", 4, "sat"),
    ("c880", "antisat", 4, "appsat"), ("c1355", "antisat", 5, "sat"),
    ("c432", "sarlock", 3, "sat"), ("c499", "sarlock", 3, "appsat"),
)
_BLOCKS = {"antisat": lock_antisat, "sarlock": lock_sarlock}
_APPSAT_FIELDS = (
    "error_estimates", "reinforced_queries", "error_rate", "exact",
    "early_exit",
)


def _bits(values) -> str:
    return "".join(str(int(bit)) for bit in values)


class RecordingOracle(KeyOracle):
    """A key oracle that logs every pattern it answers and its response."""

    def __init__(self, locked, key):
        super().__init__(locked, key)
        self.queries: list[list[str]] = []

    def __call__(self, patterns: np.ndarray) -> np.ndarray:
        responses = super().__call__(patterns)
        self.queries.extend(
            [_bits(pattern), _bits(response)]
            for pattern, response in zip(patterns, responses)
        )
        return responses


def dip_case(slot: int) -> dict:
    """DIPs, key and solver effort of one pinned attack."""
    circuit, block, width, attack = SLOTS[slot]
    locked = lock_rll(
        load_iscas85(circuit, scale=SCALE), key_size=RLL_KEY_BITS, seed=slot
    )
    netlist, key = locked.netlist, locked.key
    if block is not None:
        defended = _BLOCKS[block](netlist, width=width, seed=slot)
        netlist, key = defended.netlist, Key(key.bits + defended.key.bits)
    oracle = RecordingOracle(netlist, key)
    if attack == "sat":
        runner = SatAttack(SatAttackConfig(max_iterations=MAX_ITERATIONS))
    else:
        runner = AppSatAttack(
            AppSatConfig(max_iterations=MAX_ITERATIONS, seed=slot)
        )
    result = runner.attack(netlist, oracle=oracle, true_key=key)
    details = result.details
    case = {
        "dips": oracle.queries,
        "key": _bits(result.predicted_bits),
        "iterations": details["iterations"],
        "dip_effort": [
            [entry["conflicts"], entry["decisions"]]
            for entry in details["trace"]
        ],
        "conflicts": details["solver"]["conflicts"],
        "decisions": details["solver"]["decisions"],
        "budget_exhausted": details["budget_exhausted"],
        "key_unique": details["key_unique"],
    }
    if attack == "appsat":
        case.update({name: details[name] for name in _APPSAT_FIELDS})
    return case


def regenerate(path: Path = GOLDEN_PATH) -> dict:
    """Rerun every slot and write the DIP file."""
    golden = {
        "inputs": {
            "scale": SCALE,
            "rll_key_bits": RLL_KEY_BITS,
            "max_iterations": MAX_ITERATIONS,
            "slots": [[c, b or "none", w, a] for c, b, w, a in SLOTS],
        },
        "cases": [dip_case(slot) for slot in range(len(SLOTS))],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return golden


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_dip_inputs_match_the_generator():
    inputs = _golden()["inputs"]
    assert inputs == {
        "scale": SCALE,
        "rll_key_bits": RLL_KEY_BITS,
        "max_iterations": MAX_ITERATIONS,
        "slots": [[c, b or "none", w, a] for c, b, w, a in SLOTS],
    }


@pytest.mark.parametrize("slot", range(len(SLOTS)))
def test_dips_match_golden(slot):
    expected = _golden()["cases"][slot]
    actual = dip_case(slot)
    assert actual["dips"] == expected["dips"], (
        f"slot {slot} {SLOTS[slot]} asked the oracle different DIPs"
    )
    assert actual == expected, (
        f"slot {slot} {SLOTS[slot]} drifted from its golden DIP record"
    )


if __name__ == "__main__":
    written = regenerate()
    print(f"wrote {len(written['cases'])} DIP records to {GOLDEN_PATH}")
