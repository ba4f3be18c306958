"""The benchmark's three workloads.

Each workload runs a serial stream of items in *rounds* -- a fixed list of
item slots -- until its :class:`Budget` is spent, and checks every item's
output afterwards, outside the timed region.  All program calls use one
process (``jobs=1``): on a two-core machine a worker pool would measure
the scheduler rather than the program.

Inputs that set how much work a slot is are pinned per slot (circuit,
key-gate sites, the OMLA and AppSAT seeds, the point-function blocks,
``query_grid``'s secret RLL key bits); ``--seed`` draws the rest: the
redundancy attack's patterns and the checks' random patterns.  On
a 20-30 s run the SA search's own random path alone moved
``defend_almost``'s item rate by 10-15 % and its accuracy gap threefold
between seeds, so that workload's search is pinned entirely and every
round repeats it.

* ``defend_almost`` -- ``repro defend --scheme almost``: the paper's serial
  SA recipe search (``AlmostDefense.generate_recipe``) on a locked c1355.
  An item is one energy evaluation (one recipe scored by the proxy).
* ``attack_grid`` -- cold one-cell ``Runner`` grids of the oracle-less
  attacks on RLL-locked, ``resyn2``-synthesized c432/c880.  An item is
  one grid cell.
* ``query_grid`` -- cold one-cell ``Runner`` grids of ``sat``/``appsat`` on
  RLL-locked circuits with narrow Anti-SAT/SARLock blocks and no
  synthesis.  An item is one attack.  It makes no synthesis call.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calibrate
import reference

#: The clock every item is timed with: CPU time of this process.  On a
#: shared host, wall time also counts the time the hypervisor gives this
#: machine's processors to other guests (steal time), which moved the
#: item rate of identical runs by over half its median; process CPU time
#: leaves it out.  The program runs in this one process (``jobs=1``).
item_clock = time.process_time


class Budget:
    """Decides, at each round boundary, whether another round starts.

    With ``seconds``, a round starts only if one more round of the length
    of the last one still ends within ``seconds`` of the start, so the
    timed phase runs whole rounds and ends by the deadline; the first
    round always runs.  With ``items``, rounds run until that many items
    are done (the traced replay uses this to repeat an untraced phase).
    """

    def __init__(self, seconds=None, items=None):
        self.seconds = seconds
        self.items = items
        self.started = self._mark = time.perf_counter()

    def another_round(self, done: int) -> bool:
        now = time.perf_counter()
        last_round, self._mark = now - self._mark, now
        if self.items is not None:
            return done < self.items
        return now - self.started + last_round <= self.seconds


@dataclass
class ItemLog:
    """What the timed phase produced: one latency and output per item.

    ``latencies`` are CPU seconds; ``loops`` holds, per item, the CPU
    seconds of the calibration loop run right before it
    (:mod:`calibrate`).  The loops sample the host's speed all through
    the run; their median scales the run's latencies.
    """

    latencies: list = field(default_factory=list)
    loops: list = field(default_factory=list)
    slots: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    _loop_s: float = field(default=calibrate.REFERENCE_S, repr=False)

    @property
    def attempted(self) -> int:
        return len(self.outputs)

    def start(self) -> float:
        """Calibrate, then return the :func:`item_clock` reading items start at."""
        self._loop_s = calibrate.sample()
        return item_clock()

    def add(self, started: float, output, slot: int, share: int = 1) -> int:
        """Log one item timed from ``started``, a :meth:`start` reading.

        ``slot`` is the item's position in the workload's round; ``share``
        splits one timed call evenly over that many items.
        """
        self.latencies.append((item_clock() - started) / share)
        self.loops.append(self._loop_s)
        self.slots.append(slot)
        self.outputs.append(output)
        return len(self.outputs) - 1

    def fail(self, index: int, why: str) -> None:
        self.failed.add(index)
        self.problems.append(f"item {index}: {why}")


def _seed(seed: int, *tags) -> int:
    from repro.utils.rng import derive_seed

    return derive_seed(seed, *tags) % (1 << 31)


class DefendAlmost:
    name = "defend_almost"
    circuit = "c1355"
    scale = "quick"
    # An odd key keeps |accuracy - 0.5| >= 1/(2 * key_bits), above the
    # search's stop margin, so every search runs its full budget.
    key_bits = 9
    recipe_length = 10
    sa_iterations = 6
    proxy = {"num_samples": 8, "epochs": 10, "relock_key_bits": 8, "hops": 3}
    round_items = sa_iterations + 1   # one round is one search

    def inputs(self) -> dict:
        return {
            "circuits": [self.circuit], "scale": self.scale,
            "key_bits": self.key_bits, "recipe_length": self.recipe_length,
            "sa_iterations_per_search": self.sa_iterations,
            "proxy_training": self.proxy, "strategy": "sa", "jobs": 1,
        }

    def lock(self):
        """The design to defend, pinned like every input of this workload."""
        from repro.circuits import load_iscas85
        from repro.locking import lock_rll

        netlist = load_iscas85(self.circuit, scale=self.scale)
        return lock_rll(netlist, key_size=self.key_bits, seed=0)

    def setup(self, seed: int) -> dict:
        from repro.core.almost import AlmostDefense  # noqa: F401 (import cost)
        from repro.core.proxy import ProxyConfig, build_resyn2_proxy

        locked = self.lock()
        proxy = build_resyn2_proxy(locked, ProxyConfig(
            recipe_length=self.recipe_length, seed=0, **self.proxy))
        return {"seed": seed, "locked": locked, "proxy": proxy, "searches": []}

    def run(self, state: dict, budget: Budget, log: ItemLog) -> None:
        """Repeat the pinned search until the budget is spent; one at least.

        Each search starts with an empty ``SynthCache`` and an empty proxy
        memo, as every ``repro defend`` run does, so every repetition does
        the same work.
        """
        from repro.core.almost import AlmostConfig, AlmostDefense
        from repro.synth.cache import SynthCache

        searches = state["searches"]
        while budget.another_round(log.attempted):
            proxy = dataclasses.replace(
                state["proxy"], synth_cache=SynthCache(), _cache=OrderedDict())
            first = log.attempted
            proxy.predicted_accuracy_batch = self._timed(
                proxy.predicted_accuracy_batch, log, first)
            config = AlmostConfig(recipe_length=self.recipe_length,
                                  sa_iterations=self.sa_iterations, seed=0)
            try:
                result = AlmostDefense(proxy, config).generate_recipe()
            except Exception as exc:  # a failed search is a failed item
                log.fail(log.add(item_clock(), ["error", repr(exc)], -1), repr(exc))
                return
            searches.append((result, first, log.attempted))

    @staticmethod
    def _timed(score, log: ItemLog, first: int):
        def timed(recipes):
            started = log.start()
            values = score(recipes)
            for recipe, value in zip(recipes, values):
                log.add(started, [recipe.short(), value], log.attempted - first,
                        share=len(recipes))
            return values

        return timed

    def check(self, state: dict, log: ItemLog) -> dict:
        from repro.synth.engine import synthesize_and_map
        from repro.synth.recipe import RESYN2

        locked = state["locked"].netlist
        for index, output in enumerate(log.outputs):
            if output[0] == "error":
                continue
            value = output[1]
            if not (0.0 <= value <= 1.0
                    and abs(value * self.key_bits - round(value * self.key_bits)) < 1e-9):
                log.fail(index, f"accuracy {value} is not k/{self.key_bits}")
        _net, base = synthesize_and_map(locked, RESYN2)
        values = reference.patterns(locked.inputs,
                                    np.random.default_rng(_seed(state["seed"], "check")))
        gaps, ratios = [], []
        verdicts: dict = {}   # recipe -> (function preserved, mapped area)
        for result, first, last in state["searches"]:
            problems = []
            if len(result.recipe) != self.recipe_length:
                problems.append(f"recipe length {len(result.recipe)}")
            if result.energy_evaluations != last - first:
                problems.append(f"{result.energy_evaluations} evaluations, "
                                f"{last - first} items")
            if result.recipe not in verdicts:
                netlist, mapped = synthesize_and_map(locked, result.recipe)
                verdicts[result.recipe] = (
                    reference.mismatch_rate(locked, netlist, values) == 0,
                    mapped.total_area())
            preserved, area = verdicts[result.recipe]
            if not preserved:
                problems.append(f"recipe {result.recipe.short()} changed the function")
            for index in range(first, last):
                for why in problems:
                    log.fail(index, why)
            gaps.append(abs(result.predicted_accuracy - 0.5))
            ratios.append(area / base.total_area())
        if not state["searches"]:
            log.problems.append("no search completed")
        return {
            "acc_gap": float(np.mean(gaps)) if gaps else 0.0,
            "area_ratio": float(np.mean(ratios)) if ratios else 0.0,
            "searches": [
                {"recipe": r.recipe.short(), "accuracy": r.predicted_accuracy,
                 "evaluations": r.energy_evaluations}
                for r, _first, _last in state["searches"]
            ],
        }


class GridWorkload:
    """A stream of cold one-cell grids, each in a fresh artifact-cache root."""

    name = ""
    order: tuple = ()

    @property
    def round_items(self) -> int:
        return len(self.order)

    def inputs(self) -> dict:
        raise NotImplementedError

    def spec(self, seed: int, index: int):
        raise NotImplementedError

    def setup(self, seed: int) -> dict:
        import repro.attacks  # noqa: F401 (import cost belongs to set-up)
        import repro.defenses  # noqa: F401
        import repro.pipeline.runner  # noqa: F401

        return {"seed": seed, "cells": []}

    def run(self, state: dict, budget: Budget, log: ItemLog) -> None:
        from repro.pipeline.runner import Runner

        root = state["workdir"]
        for index in itertools.count():
            if index % len(self.order) == 0 and not budget.another_round(log.attempted):
                return
            spec = self.spec(state["seed"], index)
            workdir = Path(root) / f"item-{index}"
            started = log.start()
            try:
                cell = Runner(workdir=workdir, jobs=1).run(spec).cells[0]
            except Exception as exc:  # a cell that raises is a failed item
                log.fail(log.add(started, ["error", repr(exc)],
                                 index % len(self.order)), repr(exc))
                continue
            attack = cell.details.get("attack", {})
            log.add(started, [cell.benchmark, cell.attack, cell.predicted_key,
                              cell.accuracy, cell.key_size, cell.recipe,
                              attack.get("iterations")], index % len(self.order))
            state["cells"].append((index, spec, workdir, cell))

    def lock(self, index: int):
        """The RLL lock of the item's slot, pinned like the slot's circuit."""
        from repro.pipeline.spec import LockSpec

        return LockSpec(locker="rll", key_size=self.key_bits,
                        seed=index % len(self.order))

    def check(self, state: dict, log: ItemLog) -> dict:
        from repro.aig.build import aig_from_netlist
        from repro.mapping.mapper import map_aig
        from repro.pipeline.runner import Runner
        from repro.pipeline.stages import effective_lock

        gaps, ratios = [], []
        for index, spec, workdir, cell in state["cells"]:
            problems = []
            key = cell.predicted_key
            if len(key) != cell.key_size or set(key) - {"0", "1"}:
                problems.append(f"key {key!r} for {cell.key_size} key inputs")
            if cell.accuracy is None or not 0.0 <= cell.accuracy <= 1.0:
                problems.append(f"accuracy {cell.accuracy}")
            cached = sum(1 for stage in cell.stages if stage["cached"])
            if cached:
                problems.append(f"{cached} stage(s) served from the cache")
            artifacts = Runner(workdir=workdir, jobs=1).cell_artifacts(spec)
            lock = effective_lock(artifacts)
            problems += self.check_cell(spec, cell, lock, state["seed"])
            for why in problems:
                log.fail(index, why)
            if cell.accuracy is not None:
                gaps.append(abs(cell.accuracy - 0.5))
            unsynthesized = map_aig(aig_from_netlist(lock.netlist)).total_area()
            ratios.append(artifacts["synth"].mapped.total_area() / unsynthesized)
        return {
            "acc_gap": float(np.mean(gaps)) if gaps else 0.0,
            "area_ratio": float(np.mean(ratios)) if ratios else 0.0,
        }

    def check_cell(self, spec, cell, lock, seed: int) -> list:
        return []


class AttackGrid(GridWorkload):
    name = "attack_grid"
    key_bits = 3   # odd, so no cell scores exactly 0.5
    order = (("c432", "scope"), ("c880", "redundancy"), ("c432", "omla"),
             ("c880", "scope"), ("c432", "redundancy"), ("c880", "omla"))
    params = {
        "scope": {},
        "redundancy": {"num_patterns": 256},
        "omla": {"epochs": 4, "samples": 8, "relock_bits": 8, "num_relocks": 1},
    }

    def inputs(self) -> dict:
        return {"circuits": ["c432", "c880"], "scale": "quick",
                "key_bits": self.key_bits, "locker": "rll", "recipe": "resyn2",
                "cells_in_order": [list(cell) for cell in self.order],
                "attack_params": self.params, "jobs": 1}

    def spec(self, seed: int, index: int):
        from repro.pipeline.spec import (AttackSpec, BenchmarkSpec,
                                         ExperimentSpec, SynthSpec)

        slot = index % len(self.order)
        bench, attack = self.order[slot]
        params = dict(self.params[attack])
        # OMLA's seed picks its relocked training set, which sets how much
        # synthesis the cell does, so it is pinned per slot like the lock.
        if attack == "omla":
            params["seed"] = slot
        elif attack == "redundancy":
            params["seed"] = _seed(seed, "attack", index)
        return ExperimentSpec(
            name=f"{self.name}-{index}",
            benchmarks=(BenchmarkSpec(name=bench),),
            attacks=(AttackSpec(name=attack, params=params),),
            lock=self.lock(index),
            synth=SynthSpec(recipe="resyn2"),
        )


class QueryGrid(GridWorkload):
    name = "query_grid"
    key_bits = 5
    max_iterations = 256
    # One round: every circuit, both attacks, and point-function blocks of
    # several widths, so runs with few expensive DIPs sit beside runs with
    # many cheap ones.  (circuit, block, width, attack)
    order = (
        ("c432", None, 0, "sat"), ("c499", None, 0, "appsat"),
        ("c880", "antisat", 3, "sat"), ("c1355", "antisat", 3, "appsat"),
        ("c432", "sarlock", 4, "appsat"), ("c499", "sarlock", 4, "sat"),
        ("c880", "antisat", 4, "appsat"), ("c1355", "antisat", 5, "sat"),
        ("c432", "sarlock", 3, "sat"), ("c499", "sarlock", 3, "appsat"),
    )

    def inputs(self) -> dict:
        return {"scale": "quick", "rll_key_bits": self.key_bits,
                "recipe": "none", "max_iterations": self.max_iterations,
                "cells_in_order": [[c, b or "none", w, a]
                                   for c, b, w, a in self.order],
                "jobs": 1}

    def spec(self, seed: int, index: int):
        from repro.pipeline.spec import (AttackSpec, BenchmarkSpec, DefenseSpec,
                                         ExperimentSpec, SynthSpec)

        slot = index % len(self.order)
        circuit, block, width, attack = self.order[slot]
        params = {"max_iterations": self.max_iterations}
        # AppSAT's seed draws the random queries that decide when it stops,
        # which sets how much work the cell does, so it is pinned per slot.
        if attack == "appsat":
            params["seed"] = slot
        # The block's key and target net, and the secret RLL key bits, decide
        # how many DIPs the attacks need: one drawn RLL key took 9 DIPs and
        # 0.28 s where another took 11 and 0.41 s.  So the whole lock is
        # pinned per slot; the seed draws the check's random patterns.
        defense = None
        if block is not None:
            defense = DefenseSpec(name=block, width=width, seed=slot)
        return ExperimentSpec(
            name=f"{self.name}-{index}",
            benchmarks=(BenchmarkSpec(name=circuit),),
            attacks=(AttackSpec(name=attack, params=params),),
            lock=self.lock(index),
            synth=SynthSpec(recipe="none"),
            defense=defense,
        )

    def check_cell(self, spec, cell, lock, seed: int) -> list:
        """SAT keys must be exact; AppSAT keys may err only inside the block.

        A wrong key of a width-``w`` point-function block corrupts at most
        a ``2**-w`` share of the input space; an RLL key bit gone wrong
        corrupts far more.
        """
        attack = cell.details.get("attack", {})
        problems = []
        if attack.get("budget_exhausted"):
            problems.append("DIP budget exhausted")
        netlist = lock.netlist
        values = reference.patterns(netlist.functional_inputs,
                                    np.random.default_rng(_seed(seed, "check")))
        keys = netlist.key_inputs
        rate = reference.mismatch_rate(
            netlist, netlist, reference.with_key(values, keys, lock.key.bits),
            reference.with_key(values, keys, cell.predicted_key))
        width = spec.defense.width if spec.defense is not None else 0
        allowed = 0.0 if cell.attack == "sat" or not width else 2.0 ** -width
        if rate > allowed:
            problems.append(f"{cell.attack} key disagrees with the oracle on "
                            f"{rate:.4f} of patterns (allowed {allowed})")
        return problems


WORKLOADS = {w.name: w for w in (DefendAlmost(), AttackGrid(), QueryGrid())}
