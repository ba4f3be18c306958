"""Golden mapped netlists: the gate-level views the attacks see, pinned.

The paper measures ALMOST's security on netlists that synthesis and
technology mapping produce (Sec. IV), so a change to the exporter, the
mapper or the ``+opt`` flow may restructure code but must not change
those netlists unless it says so.  Each case locks one of the ten quick
ISCAS85 circuits with RLL (8 key bits, seed 0), synthesizes it with
``resyn2`` and records:

* the SHA-256 of ``write_bench`` of the mapped circuit's primitive-gate
  expansion, and of the exporter's netlist (``netlist_from_aig``);
* ``analyze_ppa`` of the mapped circuit and of ``optimize_mapping`` of
  it: area, delay, power (rounded to 6 places) and cell count.

The data lives in ``tests/golden/mapping_golden.json``.  Regenerate it
only when a change is *meant* to alter mapped netlists::

    PYTHONPATH=src python -m tests.test_mapping_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.aig import aig_from_netlist, netlist_from_aig
from repro.circuits import ISCAS85_PROFILES, load_iscas85
from repro.locking import lock_rll
from repro.mapping.mapper import map_aig
from repro.mapping.ppa import analyze_ppa, optimize_mapping
from repro.netlist.bench_io import write_bench
from repro.synth import RESYN2, apply_recipe

GOLDEN_PATH = Path(__file__).parent / "golden" / "mapping_golden.json"

CIRCUITS = tuple(ISCAS85_PROFILES)
KEY_SIZE = 8
LOCK_SEED = 0


def _sha256(netlist) -> str:
    return hashlib.sha256(write_bench(netlist).encode()).hexdigest()


def _ppa(mapped) -> dict:
    report = analyze_ppa(mapped)
    return {
        "area": round(report.area, 6),
        "delay": round(report.delay, 6),
        "power": round(report.power, 6),
        "cells": report.num_cells,
    }


def mapping_case(circuit: str) -> dict:
    """Netlist digests and PPA of one locked, ``resyn2``-synthesized circuit."""
    locked = lock_rll(
        load_iscas85(circuit, scale="quick"), key_size=KEY_SIZE, seed=LOCK_SEED
    )
    aig = apply_recipe(aig_from_netlist(locked.netlist), RESYN2)
    mapped = map_aig(aig)
    return {
        "mapped_sha256": _sha256(mapped.to_netlist()),
        "exported_sha256": _sha256(netlist_from_aig(aig)),
        "ppa": _ppa(mapped),
        "ppa_opt": _ppa(optimize_mapping(mapped)),
    }


def _inputs() -> dict:
    return {
        "circuits": list(CIRCUITS),
        "scale": "quick",
        "locking": {"scheme": "rll", "key_size": KEY_SIZE, "seed": LOCK_SEED},
        "recipe": str(RESYN2),
    }


def regenerate(path: Path = GOLDEN_PATH) -> dict:
    """Recompute every case and write the golden file."""
    golden = {
        "inputs": _inputs(),
        "cases": {circuit: mapping_case(circuit) for circuit in CIRCUITS},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return golden


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_mapping_inputs_match_the_generator():
    assert _golden()["inputs"] == _inputs()


@pytest.mark.parametrize("circuit", CIRCUITS)
def test_mapping_matches_golden(circuit):
    expected = _golden()["cases"][circuit]
    actual = mapping_case(circuit)
    assert actual["mapped_sha256"] == expected["mapped_sha256"], (
        f"{circuit}: the mapped netlist changed"
    )
    assert actual["exported_sha256"] == expected["exported_sha256"], (
        f"{circuit}: the exported netlist changed"
    )
    assert actual == expected, f"{circuit}: PPA drifted from its golden record"


if __name__ == "__main__":
    written = regenerate()
    print(f"wrote {len(written['cases'])} mapping records to {GOLDEN_PATH}")
