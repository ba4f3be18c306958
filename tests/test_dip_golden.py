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
* the conflicts and decisions each DIP cost, and the solver totals of
  conflicts, decisions, propagations and restarts (propagations pin the
  order unit propagation visits clauses in, not only the search tree);
* for AppSAT, its error estimates, reinforced queries, error rate and
  how the loop ended.

The oracle is a recording :class:`~repro.locking.key.KeyOracle` subclass,
so AppSAT's error estimates still take the batched ``compare_key`` path
and only the DIP queries reach the recorder.

Independently of the file, ``test_recovered_key_unlocks`` checks each
slot's recovered key against the true one: a ``sat`` key must be
provably equivalent, and an ``appsat`` key may disagree only on the
``2**-w`` share of inputs a width-``w`` point-function block can corrupt.

The data lives in ``tests/golden/dip_golden.json``.  Regenerate it only
when a change is *meant* to alter the DIP sequences::

    PYTHONPATH=src python -m tests.test_dip_golden
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np
import pytest

from repro.attacks import AppSatAttack, AppSatConfig, SatAttack, SatAttackConfig
from repro.circuits import load_iscas85
from repro.defenses import lock_antisat, lock_sarlock
from repro.locking import lock_rll
from repro.locking.key import Key, KeyOracle, apply_key, oracle_outputs
from repro.sat import check_equivalence

GOLDEN_PATH = Path(__file__).parent / "golden" / "dip_golden.json"

SCALE = "quick"
RLL_KEY_BITS = 5
MAX_ITERATIONS = 256
#: Random patterns an AppSAT key is checked on.
UNLOCK_PATTERNS = 4096
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


@functools.lru_cache(maxsize=None)
def _attack_slot(slot: int):
    """Run one pinned attack: ``(netlist, true key, oracle, result)``."""
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
    return netlist, key, oracle, result


def dip_case(slot: int) -> dict:
    """DIPs, key and solver effort of one pinned attack."""
    _netlist, _key, oracle, result = _attack_slot(slot)
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
        "propagations": details["solver"]["propagations"],
        "restarts": details["solver"]["restarts"],
        "budget_exhausted": details["budget_exhausted"],
        "key_unique": details["key_unique"],
    }
    if SLOTS[slot][3] == "appsat":
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


@pytest.mark.parametrize("slot", range(len(SLOTS)))
def test_recovered_key_unlocks(slot):
    _circuit, _block, width, attack = SLOTS[slot]
    netlist, key, _oracle, result = _attack_slot(slot)
    recovered = Key(result.predicted_bits)
    if attack == "sat" or not width:
        verdict = check_equivalence(
            apply_key(netlist, recovered), apply_key(netlist, key)
        )
        assert verdict.equivalent, (
            f"slot {slot} {SLOTS[slot]} recovered a wrong key: differs on "
            f"{verdict.counterexample}"
        )
        return
    patterns = np.random.default_rng(slot).integers(
        0, 2, size=(UNLOCK_PATTERNS, len(netlist.functional_inputs)),
        dtype=np.uint8,
    )
    wrong = np.any(
        oracle_outputs(netlist, recovered, patterns)
        != oracle_outputs(netlist, key, patterns),
        axis=1,
    )
    assert wrong.mean() <= 2.0 ** -width, (
        f"slot {slot} {SLOTS[slot]} AppSAT key errs on {wrong.mean():.4f} "
        f"of patterns (allowed {2.0 ** -width})"
    )


if __name__ == "__main__":
    written = regenerate()
    print(f"wrote {len(written['cases'])} DIP records to {GOLDEN_PATH}")
