"""Re-locking: the self-referencing trick used by oracle-less ML attacks.

The attacker takes the (already locked, already synthesized) netlist under
attack and inserts *additional* key gates whose key bits they chose
themselves, then re-synthesizes with the defender's recipe.  The localities
around those new key gates form a labeled training set that captures exactly
the structural transformations the recipe induces (paper Sec. II and
footnote 3).
"""

from __future__ import annotations

from repro.locking.rll import LockedCircuit, lock_rll
from repro.netlist.netlist import Netlist

RELOCK_PREFIX = "relockinput"


def relock(netlist: Netlist, key_size: int, seed: int) -> LockedCircuit:
    """Insert ``key_size`` additional key gates with fresh key inputs.

    ``seed`` picks the gate sites and the key bits.  The new inputs use the
    ``relockinput`` prefix so they never collide with (or shadow) the
    victim's ``keyinput`` pins, and attacks can tell the training
    localities apart from the ones under attack.
    """
    return lock_rll(
        netlist,
        key_size=key_size,
        seed=seed,
        prefix=RELOCK_PREFIX,
    )
