"""Built-in stage implementations behind the pipeline registry.

Each function here adapts one of the repo's primitive operations —
:func:`repro.locking.lock_rll`, :func:`repro.synth.engine.apply_recipe`,
the attack classes in :mod:`repro.attacks`, the ALMOST defense —
to the registry calling conventions:

* ``locker(netlist, spec: LockSpec) -> LockArtifact``
* ``synth(spec: SynthSpec) -> Recipe`` (a recipe *provider*)
* ``defense(lock: LockArtifact, spec: DefenseSpec) -> dict``
* ``attack(ctx: AttackContext, params: dict) -> AttackResult``
* ``reporter(run: RunResult, spec: ReportSpec) -> str``

The primitives stay public and unchanged; the pipeline composes them.
Importing this module populates the registry, which
``repro.pipeline.__init__`` does eagerly so spec validation always sees the
built-ins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.attacks.base import AttackResult
from repro.errors import PipelineError, SpecError
from repro.locking import Key, lock_rll, relock
from repro.locking.rll import LockedCircuit
from repro.netlist.netlist import Netlist
from repro.pipeline.registry import register, registered
from repro.pipeline.spec import DefenseSpec, LockSpec, ReportSpec, SynthSpec
from repro.synth.recipe import RESYN2, Recipe, random_recipe


# -- shared artifact containers ------------------------------------------

@dataclass
class LockArtifact:
    """Output of the lock stage: the (possibly) locked netlist plus key.

    ``partitions`` carries the per-scheme key slices of compound locks
    (``(scheme, key_input_names)`` pairs) so reports can score an RLL
    portion separately from a point-function portion.
    """

    netlist: Netlist
    key: Optional[Key]
    key_inputs: tuple[str, ...]
    locker: str
    partitions: tuple = ()

    def as_locked_circuit(self) -> LockedCircuit:
        if self.key is None:
            raise PipelineError(
                f"stage requires the true key but locker {self.locker!r} "
                "did not produce one (pass LockSpec.key for pre-locked "
                "designs)"
            )
        return LockedCircuit(
            netlist=self.netlist,
            key=self.key,
            locked_nets=(),
            key_input_names=self.key_inputs,
            partitions=tuple(self.partitions),
        )


@dataclass
class SynthArtifact:
    """Output of the synth stage: optimized netlist plus its mapped view."""

    netlist: Netlist
    mapped: Any
    recipe: str


@dataclass
class AttackContext:
    """Everything an attack adapter may featurize."""

    lock: LockArtifact
    synth: SynthArtifact
    recipe: Recipe


def _parse_key(text: str) -> Key:
    return Key(tuple(int(c) for c in text))


def _params(
    attack: str, given: Mapping[str, Any], defaults: Mapping[str, Any]
) -> dict:
    unknown = set(given) - set(defaults)
    if unknown:
        raise SpecError(
            f"unknown parameter(s) for attack {attack!r}: {sorted(unknown)}; "
            f"allowed: {sorted(defaults)}"
        )
    merged = dict(defaults)
    merged.update(given)
    return merged


# -- lockers --------------------------------------------------------------

def artifact_from_locked(locked, locker: str) -> LockArtifact:
    """Reduce a :class:`LockedCircuit` to the pipeline's lock artifact."""
    return LockArtifact(
        netlist=locked.netlist,
        key=locked.key,
        key_inputs=tuple(locked.key_input_names),
        locker=locker,
        partitions=tuple(
            (p.scheme, tuple(p.key_inputs)) for p in locked.partitions
        ),
    )


@register("locker", "rll")
def _lock_with_rll(netlist: Netlist, spec: LockSpec) -> LockArtifact:
    if netlist.key_inputs:
        raise PipelineError(
            "locker 'rll' expects an unlocked design, but the netlist "
            "already has keyinput* pins — use locker 'given' for "
            "pre-locked designs (with LockSpec.key for scoring) or "
            "'relock' to stack additional key gates"
        )
    key = _parse_key(spec.key) if spec.key else None
    locked = lock_rll(
        netlist,
        key_size=len(key) if key is not None else spec.key_size,
        seed=spec.seed,
        key=key,
    )
    return artifact_from_locked(locked, "rll")


def _point_function_locker(scheme: str):
    """Adapter factory for the SAT-resilient lockers (and compounds).

    ``LockSpec.key_size`` sizes the RLL stage of compounds; point-function
    stages always compare the full functional input width — the standard
    construction, under which a wrong key errs on exactly one minterm.
    Narrower experimental blocks go through ``DefenseSpec.width`` instead.
    """

    def _lock(netlist: Netlist, spec: LockSpec) -> LockArtifact:
        from repro.defenses import lock_scheme

        if spec.key:
            # Point-function keys are structural (Anti-SAT's B||B halves,
            # SARLock's hard-coded mask) — honoring arbitrary bits would
            # silently lock a different configuration than the spec says.
            raise PipelineError(
                f"locker {scheme!r} derives its key from LockSpec.seed; "
                "LockSpec.key is not supported here"
            )
        if netlist.key_inputs:
            raise PipelineError(
                f"locker {scheme!r} expects an unlocked design — apply "
                "the point-function block to a pre-locked design through "
                f"a DefenseSpec (defense {scheme.split('+')[-1]!r}) instead"
            )
        locked = lock_scheme(
            netlist, scheme,
            key_size=spec.key_size, width=0, seed=spec.seed,
        )
        return artifact_from_locked(locked, scheme)

    return _lock


for _scheme in ("antisat", "sarlock", "rll+antisat", "rll+sarlock"):
    register("locker", _scheme)(_point_function_locker(_scheme))


@register("locker", "relock")
def _lock_with_relock(netlist: Netlist, spec: LockSpec) -> LockArtifact:
    locked = relock(netlist, key_size=spec.key_size, seed=spec.seed)
    return artifact_from_locked(locked, "relock")


@register("locker", "given")
def _lock_given(netlist: Netlist, spec: LockSpec) -> LockArtifact:
    """The design is already locked; ``spec.key`` optionally scores it."""
    key_inputs = tuple(netlist.key_inputs)
    if not key_inputs:
        raise PipelineError(
            "locker 'given' expects a pre-locked design, but the netlist "
            "has no keyinput* pins"
        )
    key = _parse_key(spec.key) if spec.key else None
    if key is not None and len(key) != len(key_inputs):
        raise PipelineError(
            f"LockSpec.key has {len(key)} bits but the design has "
            f"{len(key_inputs)} key inputs"
        )
    return LockArtifact(
        netlist=netlist, key=key, key_inputs=key_inputs, locker="given",
        # One opaque partition for the pre-existing bits, so structural
        # defenses stacked on top report the full key breakdown.
        partitions=(("given", key_inputs),),
    )


@register("locker", "none")
def _lock_none(netlist: Netlist, spec: LockSpec) -> LockArtifact:
    return LockArtifact(netlist=netlist, key=None, key_inputs=(), locker="none")


# -- synthesis recipe providers ------------------------------------------

@register("synth", "resyn2")
def _recipe_resyn2(spec: SynthSpec) -> Recipe:
    return RESYN2


@register("synth", "random")
def _recipe_random(spec: SynthSpec) -> Recipe:
    return random_recipe(spec.length, seed=spec.seed)


@register("synth", "none")
def _recipe_none(spec: SynthSpec) -> None:
    """No synthesis: the locked netlist is attacked exactly as given."""
    return None


def resolve_recipe(spec: SynthSpec) -> Optional[Recipe]:
    """Resolve ``spec.recipe``: registry name first, literal string second.

    Returns ``None`` for the ``none`` provider — the synth stage then
    passes the locked netlist through untouched.
    """
    if registered("synth", spec.recipe):
        from repro.pipeline.registry import get

        return get("synth", spec.recipe)(spec)
    return Recipe.parse(spec.recipe)


# -- defenses -------------------------------------------------------------
#
# Two families behind one registry kind.  Recipe searches (``almost``)
# return ``{"recipe": ...}`` and the synth stage follows it; *structural*
# defenses (``antisat``, ``sarlock``) return ``{"lock": LockArtifact}`` —
# a replacement lock artifact with the point-function block grafted on and
# the key extended — and the synth stage falls back to the spec's recipe.

def _structural_defense(scheme: str):
    """Graft a point-function block onto the already-locked artifact."""

    def _defend(lock: LockArtifact, spec: DefenseSpec) -> dict:
        from repro.defenses import lock_antisat, lock_sarlock

        lock_fn = lock_antisat if scheme == "antisat" else lock_sarlock
        block = lock_fn(
            lock.netlist, width=spec.width or None, seed=spec.seed
        )
        if lock.key is not None:
            combined = Key(lock.key.bits + block.key.bits)
        elif not lock.key_inputs:
            combined = block.key  # base design was unlocked
        else:
            combined = None  # pre-locked with unknown key: stay unscored
        partitions = tuple(lock.partitions) + tuple(
            (p.scheme, tuple(p.key_inputs)) for p in block.partitions
        )
        defended = LockArtifact(
            netlist=block.netlist,
            key=combined,
            key_inputs=tuple(lock.key_inputs) + tuple(block.key_input_names),
            locker=f"{lock.locker}+{scheme}" if lock.key_inputs else scheme,
            partitions=partitions,
        )
        return {
            "defense": scheme,
            "structural": True,
            "key_added": str(block.key),
            "width": len(block.key_input_names)
            if scheme == "sarlock"
            else len(block.key_input_names) // 2,
            "added_key_bits": len(block.key_input_names),
            "key_inputs_added": list(block.key_input_names),
            "partitions": {s: list(nets) for s, nets in partitions},
            "lock": defended,
        }

    return _defend


for _scheme in ("antisat", "sarlock"):
    register("defense", _scheme)(_structural_defense(_scheme))


def effective_lock(artifacts: Mapping[str, Any]) -> LockArtifact:
    """The lock artifact downstream stages should see.

    Structural defenses replace the lock artifact; recipe-search defenses
    (and no defense at all) leave it untouched.
    """
    defense = artifacts.get("defense")
    if isinstance(defense, Mapping) and "lock" in defense:
        return defense["lock"]
    return artifacts["lock"]


@register("defense", "almost")
def _defend_almost(lock: LockArtifact, spec: DefenseSpec) -> dict:
    """ALMOST's recipe search driven by the M_resyn2 proxy.

    ``spec.strategy``/``chains``/``jobs`` select and size the search engine
    (:mod:`repro.core.search`); the defaults reproduce the paper's serial
    SA.  The returned dict carries the search accounting — evaluation
    counts and the synthesis-cache stats (for ``jobs`` > 1
    the cross-worker aggregate from the shared snapshot store, which used
    to be lost on pool teardown) — so grid reports can compare strategies.
    """
    from repro.core import AlmostConfig, AlmostDefense, ProxyConfig
    from repro.core.proxy import build_resyn2_proxy

    locked = lock.as_locked_circuit()
    proxy = build_resyn2_proxy(
        locked,
        ProxyConfig(
            num_samples=spec.samples, epochs=spec.epochs, seed=spec.seed
        ),
    )
    defense = AlmostDefense(
        proxy,
        AlmostConfig(
            sa_iterations=spec.iterations,
            seed=spec.seed,
            strategy=spec.single_strategy,
            chains=spec.chains,
            jobs=spec.jobs,
        ),
    )
    result = defense.generate_recipe()
    return {
        "defense": "almost",
        "recipe": result.recipe.short(),
        "predicted_accuracy": float(result.predicted_accuracy),
        "strategy": result.strategy,
        "chains": spec.chains,
        "jobs": spec.jobs,
        "search_iterations": result.iterations,
        "energy_evaluations": result.energy_evaluations,
        "synth_cache": dict(result.synth_cache),
    }


# -- attacks --------------------------------------------------------------
#
# Adapters close the gap between the heterogeneous attack constructors
# (OMLA wants a recipe + config, SCOPE is parameterless, SAT wants an
# oracle) and the uniform "run this attack on this cell" the grid needs.

def _omla_training(ctx: AttackContext, params: Mapping[str, Any]):
    from repro.attacks import OmlaAttack, OmlaConfig

    attack = OmlaAttack(
        ctx.recipe,
        OmlaConfig(
            hops=params["hops"],
            epochs=params["epochs"],
            relock_key_bits=params["relock_bits"],
            num_relocks=params["num_relocks"],
            seed=params["seed"],
        ),
    )
    data = attack.generate_training_data(
        ctx.lock.netlist, num_samples=params["samples"]
    )
    return attack, data


@register("attack", "omla")
def _attack_omla(ctx: AttackContext, params: Mapping[str, Any]) -> AttackResult:
    params = _params(
        "omla", params,
        {"epochs": 20, "samples": 64, "relock_bits": 16, "num_relocks": 4,
         "hops": 3, "seed": 0},
    )
    attack, data = _omla_training(ctx, params)
    attack.train(data)
    return attack.attack(ctx.synth.mapped, ctx.lock.key)


@register("attack", "snapshot")
def _attack_snapshot(
    ctx: AttackContext, params: Mapping[str, Any]
) -> AttackResult:
    from repro.attacks import SnapShotAttack

    params = _params(
        "snapshot", params,
        {"epochs": 60, "samples": 64, "relock_bits": 16, "num_relocks": 4,
         "hops": 3, "seed": 0},
    )
    _omla, data = _omla_training(ctx, params)
    snapshot = SnapShotAttack(
        hops=params["hops"], epochs=params["epochs"], seed=params["seed"]
    )
    snapshot.train(data)
    return snapshot.attack(
        ctx.synth.mapped, ctx.lock.key, key_nets=ctx.lock.key_inputs or None
    )


@register("attack", "sail")
def _attack_sail(ctx: AttackContext, params: Mapping[str, Any]) -> AttackResult:
    from repro.attacks import SailAttack

    params = _params(
        "sail", params,
        {"epochs": 80, "samples": 64, "relock_bits": 16, "num_relocks": 4,
         "hops": 3, "seed": 0},
    )
    _omla, data = _omla_training(ctx, params)
    sail = SailAttack(
        hops=params["hops"], epochs=params["epochs"], seed=params["seed"]
    )
    sail.train(data)
    return sail.attack(
        ctx.synth.mapped, ctx.lock.key, key_nets=ctx.lock.key_inputs or None
    )


@register("attack", "scope")
def _attack_scope(ctx: AttackContext, params: Mapping[str, Any]) -> AttackResult:
    from repro.attacks import ScopeAttack

    params = _params("scope", params, {"recipe": ""})
    recipe = Recipe.parse(params["recipe"]) if params["recipe"] else None
    return ScopeAttack(recipe=recipe).attack(
        ctx.synth.netlist, ctx.lock.key, key_nets=ctx.lock.key_inputs or None
    )


@register("attack", "redundancy")
def _attack_redundancy(
    ctx: AttackContext, params: Mapping[str, Any]
) -> AttackResult:
    from repro.attacks import RedundancyAttack

    params = _params(
        "redundancy", params, {"num_patterns": 128, "hops": 3, "seed": 0}
    )
    attack = RedundancyAttack(
        hops=params["hops"],
        num_patterns=params["num_patterns"],
        seed=params["seed"],
    )
    return attack.attack(
        ctx.synth.netlist, ctx.lock.key, key_nets=ctx.lock.key_inputs or None
    )


def _oracle_guided_setup(ctx: AttackContext, attack_name: str):
    from repro.attacks import oracle_from_key

    if ctx.lock.key is None:
        raise PipelineError(
            f"the {attack_name} attack is oracle-guided: the spec must "
            "provide the true key (LockSpec.key) or use a locker that "
            "generates one"
        )
    netlist = ctx.synth.netlist
    return netlist, oracle_from_key(netlist, ctx.lock.key), ctx.lock.key


@register("attack", "sat")
def _attack_sat(ctx: AttackContext, params: Mapping[str, Any]) -> AttackResult:
    from repro.attacks import SatAttack, SatAttackConfig

    params = _params("sat", params, {"max_iterations": 512})
    netlist, oracle, true_key = _oracle_guided_setup(ctx, "sat")
    attack = SatAttack(
        SatAttackConfig(max_iterations=params["max_iterations"])
    )
    return attack.attack(netlist, oracle=oracle, true_key=true_key)


@register("attack", "appsat")
def _attack_appsat(
    ctx: AttackContext, params: Mapping[str, Any]
) -> AttackResult:
    from repro.attacks import AppSatAttack, AppSatConfig

    params = _params(
        "appsat", params,
        {"max_iterations": 512, "query_period": 8, "random_queries": 64,
         "error_threshold": 0.0, "settle_rounds": 2, "seed": 0},
    )
    netlist, oracle, true_key = _oracle_guided_setup(ctx, "appsat")
    attack = AppSatAttack(
        AppSatConfig(
            max_iterations=params["max_iterations"],
            query_period=params["query_period"],
            random_queries=params["random_queries"],
            error_threshold=params["error_threshold"],
            settle_rounds=params["settle_rounds"],
            seed=params["seed"],
        )
    )
    return attack.attack(netlist, oracle=oracle, true_key=true_key)


#: Attacks that need a functional oracle; everything else is oracle-less.
ORACLE_GUIDED_ATTACKS: frozenset[str] = frozenset({"sat", "appsat"})

#: Defenses whose adapters consume ``DefenseSpec.strategy`` (recipe
#: searches).  Strategy sweeps are only meaningful for these — a sweep on
#: a structural defense would fan out byte-identical cells — so
#: ``Runner.validate`` rejects sweeps on anything else.  Plugins that
#: register a search defense should add their name here.
SEARCH_DEFENSES: frozenset[str] = frozenset({"almost"})


# -- reporters ------------------------------------------------------------

@register("reporter", "table")
def _report_table(run, spec: ReportSpec) -> str:
    from repro.reporting import render_run_table

    return render_run_table(run)


@register("reporter", "json")
def _report_json(run, spec: ReportSpec) -> str:
    return run.to_json()


@register("reporter", "search")
def _report_search(run, spec: ReportSpec) -> str:
    """Strategy-comparison table over the run's recipe-search cells.

    The natural reporter for a ``DefenseSpec`` strategy sweep: one row per
    (benchmark, strategy), rendered from a single :class:`RunResult`.
    """
    from repro.reporting import records_from_run, render_search_comparison_table

    records = records_from_run(run)
    if not records:
        return (
            "no recipe-search cells in this run (the 'search' reporter "
            "needs a DefenseSpec with a search defense such as 'almost')"
        )
    return render_search_comparison_table(records)
