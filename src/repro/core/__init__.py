"""The ALMOST framework: security-aware synthesis via adversarial learning.

Pipeline (paper Fig. 3):

1. lock a design with plain RLL (:mod:`repro.locking`);
2. train a proxy attack model — ``M_resyn2`` / ``M_random`` / adversarially
   trained ``M*`` (:mod:`repro.core.proxy`, :mod:`repro.core.adversarial`);
3. search the recipe space to drive the proxy's predicted attack accuracy
   to ~50% — the paper's serial SA or any strategy in the batched search
   engine (:mod:`repro.core.search`, :mod:`repro.core.almost`);
4. ship the recipe's output netlist; evaluate against real attacks
   (:mod:`repro.attacks`).
"""

from repro.core.search import (
    SearchConfig,
    SearchProblem,
    available_strategies,
    register_strategy,
    run_search,
)
from repro.core.proxy import ProxyConfig, ProxyModel
from repro.core.adversarial import AdversarialConfig, train_adversarial_attack
from repro.core.almost import AlmostConfig, AlmostResult, AlmostDefense

__all__ = [
    "SearchConfig",
    "SearchProblem",
    "run_search",
    "register_strategy",
    "available_strategies",
    "ProxyConfig",
    "ProxyModel",
    "AdversarialConfig",
    "train_adversarial_attack",
    "AlmostConfig",
    "AlmostResult",
    "AlmostDefense",
]
