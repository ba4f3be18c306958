"""Apply synthesis recipes to AIGs (the ``yosys-abc`` command loop)."""

from __future__ import annotations

from typing import Callable

from repro.aig.aig import Aig
from repro.errors import SynthesisError
from repro.synth.balance import balance
from repro.synth.recipe import Recipe
from repro.synth.refactor import refactor_pass
from repro.synth.resub import resub_pass
from repro.synth.rewrite import rewrite_pass


def _in_place(pass_fn: Callable[..., int], **kwargs) -> Callable[[Aig], Aig]:
    def run(aig: Aig) -> Aig:
        pass_fn(aig, **kwargs)
        return aig

    return run


_TRANSFORMS: dict[str, Callable[[Aig], Aig]] = {
    "rewrite": _in_place(rewrite_pass, zero_cost=False),
    "rewrite -z": _in_place(rewrite_pass, zero_cost=True),
    "refactor": _in_place(refactor_pass, zero_cost=False),
    "refactor -z": _in_place(refactor_pass, zero_cost=True),
    "resub": _in_place(resub_pass, zero_cost=False),
    "resub -z": _in_place(resub_pass, zero_cost=True),
    "balance": balance,
}


def apply_transform(aig: Aig, name: str) -> Aig:
    """Apply one named transformation; returns the (possibly new) AIG.

    In-place passes mutate and return the argument; ``balance`` returns a
    fresh AIG.  Callers should always use the return value.
    """
    transform = _TRANSFORMS.get(name)
    if transform is None:
        raise SynthesisError(f"unknown transformation {name!r}")
    return transform(aig)


def apply_recipe(
    aig: Aig, recipe: Recipe, copy: bool = True, cache=None
) -> Aig:
    """Apply a whole recipe; by default works on a compacted copy.

    ``cache`` optionally names a :class:`repro.synth.cache.SynthCache` (or
    its shared variant), keyed on AIG state: from the input's state, every
    step whose ``(state, step)`` transition is cached is served from an
    exact AIG snapshot, and only the others are run (and recorded in
    turn).  A step that reaches a state some other recipe reached — or
    that changed nothing — continues from there.  Because snapshots are
    exact clones, the result is bit-identical to the uncached computation.
    """
    current = aig.compact() if copy else aig
    if cache is not None:
        return cache.apply(current, recipe).compact()
    for step in recipe:
        current = apply_transform(current, step)
    return current.compact()


def verify_transformation(reference: Aig, optimized: Aig, mode: str) -> None:
    """Check that synthesis preserved the function; raises on mismatch.

    ``mode`` selects the check: ``"sim"`` uses randomized/exhaustive
    simulation (:func:`repro.aig.simulate.functionally_equal`, fast but
    probabilistic beyond ~14 inputs), ``"sat"`` runs the exact miter-based
    proof (:func:`repro.sat.check_equivalence`) and reports the
    distinguishing pattern when the recipe broke the circuit.
    """
    if mode == "sim":
        from repro.aig.simulate import functionally_equal

        if not functionally_equal(reference, optimized):
            raise SynthesisError(
                "synthesis changed the circuit function (simulation check)"
            )
        return
    if mode == "sat":
        from repro.sat import check_equivalence

        verdict = check_equivalence(reference, optimized)
        if not verdict.equivalent:
            raise SynthesisError(
                "synthesis changed the circuit function; counterexample "
                f"{verdict.counterexample}"
            )
        return
    raise SynthesisError(f"unknown verification mode {mode!r}; use 'sim' or 'sat'")


def synthesize_netlist(
    netlist, recipe: Recipe, verify: str | None = None, cache=None
):
    """Netlist-level convenience: netlist -> AIG -> recipe -> netlist.

    This is the "run yosys-abc with this script" operation that both the
    defender and the attacks perform.  ``verify`` optionally checks the
    result against the input — ``"sim"`` for sampled simulation, ``"sat"``
    for an exact equivalence proof (see :func:`verify_transformation`).
    ``cache`` is a state-keyed :class:`~repro.synth.cache.SynthCache`
    (see :func:`apply_recipe`).
    """
    from repro.aig.build import aig_from_netlist
    from repro.aig.export import netlist_from_aig

    aig = aig_from_netlist(netlist)
    optimized = apply_recipe(aig, recipe, copy=verify is not None, cache=cache)
    if verify is not None:
        verify_transformation(aig, optimized, verify)
    return netlist_from_aig(optimized)


def synthesize_and_map(
    netlist, recipe: Recipe, verify: str | None = None, cache=None
):
    """Synthesize then technology-map; returns ``(netlist, mapped)``.

    The mapped view is what structural ML attacks featurize (cell choices
    such as XOR2 vs XNOR2 expose polarity); the primitive netlist view is
    used by simulation-based analyses.  ``verify`` and ``cache`` work as in
    :func:`synthesize_netlist`.
    """
    from repro.aig.build import aig_from_netlist
    from repro.aig.export import netlist_from_aig
    from repro.mapping.mapper import map_aig

    aig = aig_from_netlist(netlist)
    optimized = apply_recipe(aig, recipe, copy=verify is not None, cache=cache)
    if verify is not None:
        verify_transformation(aig, optimized, verify)
    return netlist_from_aig(optimized), map_aig(optimized)


def synthesize_mapped(aig: Aig, recipe: Recipe, cache=None):
    """Synthesize ``aig`` in place and technology-map it; returns only the
    mapped circuit.

    The scoring path of recipe search and relock rounds reads nothing
    else, so it skips :func:`synthesize_and_map`'s primitive netlist.
    ``aig`` may be mutated: pass a :meth:`~repro.aig.aig.Aig.clone` to keep
    the original.  ``cache`` works as in :func:`apply_recipe`.
    """
    from repro.mapping.mapper import map_aig

    return map_aig(apply_recipe(aig, recipe, copy=False, cache=cache))
