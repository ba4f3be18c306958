"""Golden oracle-less attack outputs: predicted keys and confidences, pinned.

A change to locality extraction, the GIN/MLP forward or the attack
drivers may restructure how an attack predicts, but it must not change
what it predicts unless it says so.  The first six cases are the cells of
the ``attack_grid`` workload: quick ISCAS85 c432/c880 with a 3-bit RLL
lock (lock seed = slot), synthesized with ``resyn2``, attacked by SCOPE,
the redundancy attack or OMLA with the grid's parameters (OMLA seed =
slot).  Two more cases run SnapShot and SAIL on c432 with small epochs.
Every case goes through the pipeline registry's adapters, as a grid cell
does, and records:

* the predicted key bits and the accuracy against the true key;
* the per-bit confidences, exactly.

The data lives in ``tests/golden/attack_golden.json``.  Regenerate it only
when a change is *meant* to alter attack outputs::

    PYTHONPATH=src python -m tests.test_attack_golden
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from repro.circuits import load_iscas85
from repro.pipeline import registry
from repro.pipeline.spec import LockSpec
from repro.pipeline.stages import AttackContext, SynthArtifact
from repro.synth.engine import synthesize_and_map
from repro.synth.recipe import RESYN2

GOLDEN_PATH = Path(__file__).parent / "golden" / "attack_golden.json"

SCALE = "quick"
KEY_BITS = 3
_OMLA = {"epochs": 4, "samples": 8, "relock_bits": 8, "num_relocks": 1}
_MLP = {"epochs": 6, "samples": 16, "relock_bits": 8, "num_relocks": 1}
#: ``(circuit, attack, lock seed, attack params)`` per case; the first six
#: are ``attack_grid``'s slots.
CASES = (
    ("c432", "scope", 0, {}),
    ("c880", "redundancy", 1, {"num_patterns": 256, "seed": 1}),
    ("c432", "omla", 2, dict(_OMLA, seed=2)),
    ("c880", "scope", 3, {}),
    ("c432", "redundancy", 4, {"num_patterns": 256, "seed": 4}),
    ("c880", "omla", 5, dict(_OMLA, seed=5)),
    ("c432", "snapshot", 0, dict(_MLP, seed=0)),
    ("c432", "sail", 0, dict(_MLP, seed=0)),
)


@functools.lru_cache(maxsize=None)
def _context(circuit: str, lock_seed: int) -> AttackContext:
    """The RLL-locked, ``resyn2``-synthesized cell an attack sees."""
    lock = registry.get("locker", "rll")(
        load_iscas85(circuit, scale=SCALE),
        LockSpec(locker="rll", key_size=KEY_BITS, seed=lock_seed),
    )
    netlist, mapped = synthesize_and_map(lock.netlist, RESYN2)
    synth = SynthArtifact(netlist=netlist, mapped=mapped, recipe=RESYN2.short())
    return AttackContext(lock=lock, synth=synth, recipe=RESYN2)


def attack_case(index: int) -> dict:
    """Predicted key, accuracy and confidences of one pinned attack."""
    circuit, attack, lock_seed, params = CASES[index]
    result = registry.get("attack", attack)(
        _context(circuit, lock_seed), dict(params)
    )
    return {
        "key": "".join(str(int(bit)) for bit in result.predicted_bits),
        "accuracy": float(result.accuracy),
        "confidence": [float(c) for c in result.confidence],
    }


def _inputs() -> dict:
    return {
        "scale": SCALE,
        "key_bits": KEY_BITS,
        "recipe": RESYN2.short(),
        "cases": [[c, a, s, p] for c, a, s, p in CASES],
    }


def regenerate(path: Path = GOLDEN_PATH) -> dict:
    """Rerun every case and write the golden file."""
    golden = {
        "inputs": _inputs(),
        "cases": [attack_case(index) for index in range(len(CASES))],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return golden


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_attack_inputs_match_the_generator():
    assert _golden()["inputs"] == _inputs()


@pytest.mark.parametrize("index", range(len(CASES)))
def test_attack_matches_golden(index):
    expected = _golden()["cases"][index]
    actual = attack_case(index)
    assert actual["key"] == expected["key"], (
        f"case {index} {CASES[index][:3]} predicted a different key"
    )
    assert actual == expected, (
        f"case {index} {CASES[index][:3]} drifted from its golden record"
    )


if __name__ == "__main__":
    written = regenerate()
    print(f"wrote {len(written['cases'])} attack records to {GOLDEN_PATH}")
