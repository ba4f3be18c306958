"""Attacks on logic locking: the oracle-less family plus the SAT attack.

Oracle-less (the paper's threat models — they see the locked, synthesized
netlist and the defender's recipe, never a functional chip):

* :mod:`repro.attacks.omla` — GNN subgraph classification around key gates
  (OMLA, the paper's primary attack).
* :mod:`repro.attacks.scope` — unsupervised constant-propagation /
  synthesis-report analysis (SCOPE).
* :mod:`repro.attacks.redundancy` — testability analysis: the key value
  hypothesis producing fewer untestable faults is inferred as correct.
* :mod:`repro.attacks.snapshot` — SnapShot-style MLP on flattened locality
  encodings (extra baseline).
* :mod:`repro.attacks.sail` — SAIL-style local-structure recovery.

Oracle-guided (the classic contrast class the paper positions against):

* :mod:`repro.attacks.sat_attack` — the DIP-loop SAT attack, built on the
  :mod:`repro.sat` subsystem and an unlocked black-box oracle; its
  :class:`~repro.attacks.sat_attack.DipLoop` core is the reusable
  miter/DIP machinery.
* :mod:`repro.attacks.appsat` — the AppSAT approximate variant: periodic
  random-query error estimation with an early exit, the standard response
  to point-function defenses (:mod:`repro.defenses`).

The ML attacks (OMLA, SnapShot, SAIL) featurize key-gate localities
through :mod:`repro.attacks.subgraph`; OMLA scores any number of circuits
in one GIN forward (:meth:`~repro.attacks.omla.OmlaAttack.predict_circuits`).
Attacks are addressed by name through the pipeline registry's ``attack``
kind (:mod:`repro.pipeline.stages`).
"""

from repro.attacks.base import AttackResult
from repro.attacks.subgraph import LocalityExtractor, extract_localities
from repro.attacks.omla import OmlaAttack, OmlaConfig
from repro.attacks.scope import ScopeAttack
from repro.attacks.redundancy import RedundancyAttack
from repro.attacks.snapshot import SnapShotAttack
from repro.attacks.sail import SailAttack
from repro.attacks.sat_attack import (
    DipLoop,
    SatAttack,
    SatAttackConfig,
    oracle_from_key,
)
from repro.attacks.appsat import AppSatAttack, AppSatConfig

__all__ = [
    "AttackResult",
    "LocalityExtractor",
    "extract_localities",
    "OmlaAttack",
    "OmlaConfig",
    "ScopeAttack",
    "RedundancyAttack",
    "SnapShotAttack",
    "SailAttack",
    "DipLoop",
    "SatAttack",
    "SatAttackConfig",
    "AppSatAttack",
    "AppSatConfig",
    "oracle_from_key",
]
