"""Command-line interface: lock, synthesize, attack and defend from a shell.

Installed as ``python -m repro.cli`` (or via the console script).  Circuits
travel between commands as ``.bench`` files, so the CLI composes like the
classic EDA flow it reproduces::

    python -m repro.cli lock c1908.bench --key-size 32 --out locked.bench
    python -m repro.cli synth locked.bench --recipe "b;rw;rf;b" --out opt.bench
    python -m repro.cli attack opt.bench --attack scope --key 0110...
    python -m repro.cli sat-attack locked.bench --key 0110...
    python -m repro.cli equiv locked.bench opt.bench
    python -m repro.cli defend locked.bench --key 0110... --iterations 20
    python -m repro.cli defend locked.bench --key 0110... --strategy pt \
        --chains 4 --jobs 4
    python -m repro.cli ppa opt.bench
    python -m repro.cli gen c1908 --out c1908.bench

Experiment-scale work goes through the pipeline front door instead of
hand-wiring the stages: ``repro run spec.toml`` executes a declarative
:class:`~repro.pipeline.ExperimentSpec`, and ``repro grid`` builds one from
flags — both with content-hash artifact caching and ``--jobs`` process
fan-out.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.aig.build import aig_from_netlist
from repro.circuits import available_benchmarks, load_iscas85
from repro.core.search import available_strategies
from repro.errors import LockingError, ReproError, SpecError
from repro.obs import Tracer, configure_cli_logging, use_tracer
from repro.locking import Key, apply_key, lock_rll
from repro.mapping import analyze_ppa, map_aig, optimize_mapping
from repro.netlist.bench_io import load_bench, save_bench
from repro.pipeline import (
    ORACLE_GUIDED_ATTACKS,
    AttackSpec,
    BenchmarkSpec,
    DefenseSpec,
    ExperimentSpec,
    LockSpec,
    ReportSpec,
    Runner,
    SynthSpec,
    available,
)
from repro.synth import RESYN2, Recipe
from repro.synth.engine import synthesize_netlist


def oracle_less_attacks() -> list[str]:
    """The attack family ``repro attack`` dispatches over — everything in
    the registry except the oracle-guided names (those need ``sat-attack``).
    Derived at call time so registered plugin attacks are addressable."""
    return sorted(set(available("attack")) - ORACLE_GUIDED_ATTACKS)


def _parse_recipe(text: str) -> Recipe:
    if text.strip().lower() == "resyn2":
        return RESYN2
    return Recipe.parse(text)


def _parse_key(text: str) -> Key:
    if not text or set(text) - {"0", "1"}:
        raise LockingError(
            f"key must be a non-empty string of 0/1 bits, got {text!r}"
        )
    return Key(tuple(int(c) for c in text))


def _runner(args: argparse.Namespace, jobs: int = 1) -> Runner:
    return Runner(
        workdir=getattr(args, "workdir", "") or None,
        jobs=jobs,
        use_cache=not getattr(args, "no_cache", False),
    )


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default="", metavar="OUT.jsonl",
        help="record hierarchical spans + metric deltas to this JSONL "
             "file (inspect with `repro trace OUT.jsonl`)",
    )


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workdir", default="",
        help="artifact-cache root (default $REPRO_CACHE_DIR or "
             "~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every stage instead of reading/writing the cache",
    )


def cmd_gen(args: argparse.Namespace) -> int:
    netlist = load_iscas85(args.benchmark, scale=args.scale, seed=args.seed)
    save_bench(netlist, args.out)
    print(f"wrote {args.out}: {len(netlist.inputs)} inputs, "
          f"{len(netlist.outputs)} outputs, {netlist.num_gates()} gates")
    return 0


def cmd_lock(args: argparse.Namespace) -> int:
    netlist = load_bench(args.design)
    locked = lock_rll(netlist, key_size=args.key_size, seed=args.seed)
    save_bench(locked.netlist, args.out)
    print(f"wrote {args.out}: key size {locked.key_size}")
    print(f"key (keep secret!): {locked.key}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    netlist = load_bench(args.design)
    recipe = _parse_recipe(args.recipe)
    before = aig_from_netlist(netlist)
    verify = None if args.verify == "none" else args.verify
    result = synthesize_netlist(netlist, recipe, verify=verify)
    after = aig_from_netlist(result)
    save_bench(result, args.out)
    print(f"recipe {recipe}: {before.num_ands()} -> {after.num_ands()} AND "
          f"nodes; wrote {args.out}")
    if verify:
        print(f"function preserved (verified: {verify})")
    return 0


def cmd_ppa(args: argparse.Namespace) -> int:
    netlist = load_bench(args.design)
    mapped = map_aig(aig_from_netlist(netlist))
    if args.opt:
        mapped = optimize_mapping(mapped)
    report = analyze_ppa(mapped)
    payload = {
        "cells": report.num_cells,
        "area_um2": round(report.area, 3),
        "delay_ps": round(report.delay, 2),
        "power_uW": round(report.power, 3),
        "leakage_uW": round(report.leakage_power, 3),
        "dynamic_uW": round(report.dynamic_power, 3),
    }
    print(json.dumps(payload, indent=2))
    return 0


def _attack_params(args: argparse.Namespace) -> dict:
    """CLI knobs -> per-attack registry parameters."""
    if args.attack in ("omla", "snapshot", "sail"):
        return {
            "epochs": args.epochs,
            "samples": args.samples,
            "relock_bits": args.relock_bits,
            "seed": args.seed,
        }
    if args.attack == "redundancy":
        return {"num_patterns": args.num_patterns, "seed": args.seed}
    return {}  # scope is parameterless


def cmd_attack(args: argparse.Namespace) -> int:
    if args.attack in ORACLE_GUIDED_ATTACKS:
        print(
            f"error: {args.attack!r} is oracle-guided, not oracle-less — "
            "use the sat-attack command (it builds the oracle from --key)",
            file=sys.stderr,
        )
        return 2
    spec = ExperimentSpec(
        name=f"attack-{args.attack}",
        benchmarks=(BenchmarkSpec(path=args.design),),
        lock=LockSpec(locker="given", key=args.key),
        synth=SynthSpec(recipe=args.recipe),
        attacks=(AttackSpec(args.attack, params=_attack_params(args)),),
    )
    run = _runner(args).run(spec)
    cell = run.cells[0]
    print(f"predicted key: {cell.predicted_key}")
    if cell.accuracy is not None:
        print(f"accuracy: {100 * cell.accuracy:.2f}%")
    return 0


def cmd_sat_attack(args: argparse.Namespace) -> int:
    from repro.reporting import (
        QueryComplexityRecord,
        SatAttackRecord,
        render_query_complexity_table,
        render_sat_attack_table,
    )

    if not args.key:
        print("error: --key is required (it stands in for the unlocked "
              "oracle chip)", file=sys.stderr)
        return 2
    _parse_key(args.key)  # reject malformed bits before the pipeline runs
    # An unlocked design is caught by the pipeline's 'given' locker with
    # the same exit-2 contract.
    if args.attack == "appsat":
        params = {
            "max_iterations": args.max_iterations,
            "query_period": args.query_period,
            "random_queries": args.random_queries,
            "error_threshold": args.error_threshold,
            "settle_rounds": args.settle_rounds,
            "seed": args.seed,
        }
    else:
        params = {"max_iterations": args.max_iterations}
    spec = ExperimentSpec(
        name="sat-attack",
        benchmarks=(BenchmarkSpec(path=args.design),),
        lock=LockSpec(locker="given", key=args.key),
        synth=SynthSpec(recipe=args.recipe),
        attacks=(AttackSpec(args.attack, params=params),),
    )
    run = _runner(args).run(spec)
    cell = run.cells[0]
    print(f"recovered key: {cell.predicted_key}")
    print(f"bit accuracy vs oracle key: {100 * cell.accuracy:.2f}%")
    details = cell.details.get("attack", {})
    if details.get("budget_exhausted"):
        print(f"DIP budget exhausted after {details.get('iterations', 0)} "
              "iterations — the key above is partial (consistent with the "
              "observations so far, not proven)")
    elif details.get("error_rate") is not None and not details.get("exact"):
        print(f"approximate key: measured error rate "
              f"{100 * details['error_rate']:.3f}%")
    solver = details.get("solver", {})
    record = SatAttackRecord(
        circuit=Path(args.design).stem,
        key_size=cell.key_size,
        iterations=details.get("iterations", 0),
        conflicts=solver.get("conflicts", 0),
        decisions=solver.get("decisions", 0),
        restarts=solver.get("restarts", 0),
        elapsed_s=details.get("elapsed_s", 0.0),
        key_accuracy=cell.accuracy,
    )
    print(render_sat_attack_table([record], title="SAT attack summary"))
    print(render_query_complexity_table(
        [QueryComplexityRecord.from_cell(Path(args.design).stem, cell)]
    ))
    return 0


def cmd_equiv(args: argparse.Namespace) -> int:
    from repro.sat import check_equivalence

    first = load_bench(args.first)
    second = load_bench(args.second)
    if args.key:
        # Close the key inputs of whichever side is locked, so a locked
        # design can be checked against its unlocked original.
        key = _parse_key(args.key)
        if first.key_inputs:
            first = apply_key(first, key)
        if second.key_inputs:
            second = apply_key(second, key)
    verdict = check_equivalence(first, second)
    if verdict.equivalent:
        print(f"EQUIVALENT ({args.first} == {args.second})")
        return 0
    print(f"NOT EQUIVALENT ({args.first} != {args.second})")
    print("counterexample:")
    print(json.dumps({
        "inputs": verdict.counterexample,
        "outputs_first": verdict.outputs_first,
        "outputs_second": verdict.outputs_second,
    }, indent=2))
    return 1


def _defend_almost(args: argparse.Namespace, netlist) -> int:
    """The ALMOST recipe search: strategy/chains/jobs exposed."""
    if not netlist.key_inputs:
        print("error: design has no keyinput* pins; lock it first",
              file=sys.stderr)
        return 2
    if not args.key:
        print("error: --key is required (the defender owns the key)",
              file=sys.stderr)
        return 2
    _parse_key(args.key)
    spec = ExperimentSpec(
        name="defend",
        benchmarks=(BenchmarkSpec(path=args.design),),
        lock=LockSpec(locker="given", key=args.key),
        defense=DefenseSpec(
            name="almost",
            iterations=args.iterations,
            samples=args.samples,
            epochs=args.epochs,
            seed=args.seed,
            strategy=args.strategy,
            chains=args.chains,
            jobs=args.jobs,
        ),
    )
    runner = _runner(args)
    runner.validate(spec)
    artifacts = runner.cell_artifacts(spec)
    info = artifacts["defense"]
    print(f"strategy: {info['strategy']} (chains={info['chains']}, "
          f"jobs={info['jobs']})")
    if info["strategy"] == "sa" and (args.chains > 1 or args.jobs > 1):
        print("note: sa is the paper's serial annealer — it proposes one "
              "candidate per round, so --chains/--jobs add no parallelism "
              "(use --strategy pt or beam for batched rounds)")
    print(f"security-aware recipe: {info['recipe']}")
    print(f"proxy-predicted attack accuracy: "
          f"{100 * info['predicted_accuracy']:.2f}%")
    print(f"search: {info['search_iterations']} iterations, "
          f"{info['energy_evaluations']} energy evaluations")
    from repro.reporting.search import hit_rate_if_traffic

    cache_stats = info.get("synth_cache") or {}
    hit_rate = hit_rate_if_traffic(cache_stats)
    # With --jobs > 1 these are the cross-worker totals from the shared
    # snapshot store; only report when the cache saw traffic at all.
    if hit_rate is not None:
        shared = " (shared across workers)" if cache_stats.get("shared") else ""
        print(f"synth cache{shared}: {100 * hit_rate:.1f}% "
              f"of recipe steps served "
              f"({cache_stats['steps_saved']} saved / "
              f"{cache_stats['steps_executed']} executed)")
    if args.out:
        save_bench(artifacts["synth"].netlist, args.out)
        print(f"wrote defended netlist to {args.out}")
    return 0


def _print_partitions(artifact) -> None:
    for scheme, nets in artifact.partitions:
        print(f"  partition {scheme}: {len(nets)} key bits "
              f"({nets[0]}..{nets[-1]})")


def _defend_structural(args: argparse.Namespace, netlist) -> int:
    """Point-function schemes: graft a SAT-resilient block (or lock anew)."""
    if (args.strategy, args.chains, args.jobs) != ("sa", 1, 1):
        print(f"error: --strategy/--chains/--jobs tune the recipe search; "
              f"scheme {args.scheme!r} runs none (use --scheme almost)",
              file=sys.stderr)
        return 2
    if netlist.key_inputs:
        if "+" in args.scheme:
            print(f"error: scheme {args.scheme!r} locks from scratch; "
                  f"the design already has keyinput* pins — use "
                  f"--scheme {args.scheme.split('+')[-1]} to graft the "
                  "block onto the existing lock", file=sys.stderr)
            return 2
        # Pre-locked design: run the block through the defense registry so
        # the CLI exercises the same path as DefenseSpec in spec files.
        if args.key:
            _parse_key(args.key)
        spec = ExperimentSpec(
            name="defend",
            benchmarks=(BenchmarkSpec(path=args.design),),
            lock=LockSpec(locker="given", key=args.key),
            defense=DefenseSpec(
                name=args.scheme, width=args.width, seed=args.seed
            ),
            synth=SynthSpec(recipe="none"),
        )
        runner = _runner(args)
        runner.validate(spec)
        artifacts = runner.cell_artifacts(spec)
        info = artifacts["defense"]
        artifact = info["lock"]
        block_key = info.get("key_added", "")
        print(f"defense {args.scheme}: added {info['added_key_bits']} key "
              f"bits (comparator width {info['width']})")
    else:
        from repro.defenses import lock_scheme
        from repro.pipeline.stages import artifact_from_locked

        locked = lock_scheme(
            netlist, args.scheme,
            key_size=args.key_size, width=args.width or None, seed=args.seed,
        )
        artifact = artifact_from_locked(locked, args.scheme)
        block_key = ""
        print(f"locked with {args.scheme}: {len(artifact.key_inputs)} "
              "key bits")
    _print_partitions(artifact)
    if artifact.key is not None:
        print(f"key (keep secret!): {artifact.key}")
    elif block_key:
        print(f"added key bits (keep secret!): {block_key}")
    if args.out:
        save_bench(artifact.netlist, args.out)
        print(f"wrote defended netlist to {args.out}")
    return 0


def cmd_defend(args: argparse.Namespace) -> int:
    netlist = load_bench(args.design)
    if args.scheme == "almost":
        return _defend_almost(args, netlist)
    return _defend_structural(args, netlist)


def _finish_run(runner: Runner, run, spec, out: str) -> int:
    """Shared run/grid epilogue: report, save, honour interruption.

    An interrupted run still reports and saves whatever completed (the
    cache holds the rest), but exits 130 like any interrupted process.
    """
    if run.cells or not run.interrupted:
        print(runner.report(run, spec))
    if run.interrupted:
        print(
            f"interrupted: {len(run.cells)} cell(s) completed; re-run the "
            "same spec to resume from the artifact cache",
            file=sys.stderr,
        )
    if out:
        run.save(out)
        print(f"wrote {out}")
    return 130 if run.interrupted else 0


def cmd_run(args: argparse.Namespace) -> int:
    spec = ExperimentSpec.load(args.spec)
    runner = _runner(args, jobs=args.jobs)
    run = runner.run(spec)
    return _finish_run(runner, run, spec, args.out)


def _grid_benchmarks(args: argparse.Namespace) -> tuple[BenchmarkSpec, ...]:
    specs = []
    for token in args.benchmarks.split(","):
        token = token.strip()
        if not token:
            continue
        if token.endswith(".bench"):
            specs.append(BenchmarkSpec(path=token))
        else:
            specs.append(
                BenchmarkSpec(name=token, scale=args.scale, seed=args.seed)
            )
    return tuple(specs)


#: Grid-shaping flags that conflict with --spec — the spec file already
#: answers everything they would; runtime flags (--jobs/--workdir/
#: --no-cache/--out/--dump-spec) still compose with it.  Defaults are
#: read back from the parser (``args._grid_parser``) so this list cannot
#: drift when a flag's default changes.
_GRID_SHAPING_FLAGS = (
    "--benchmarks", "--attacks", "--defense", "--strategies", "--chains",
    "--defense-iterations", "--defense-samples", "--defense-epochs",
    "--report", "--locker", "--key-size", "--recipe", "--max-iterations",
    "--scale", "--seed", "--name",
)


def _grid_spec(args: argparse.Namespace) -> ExperimentSpec:
    """Build the grid's ExperimentSpec from flags (or load ``--spec``)."""
    if args.spec:
        parser = args._grid_parser
        overridden = []
        for flag in _GRID_SHAPING_FLAGS:
            dest = flag.lstrip("-").replace("-", "_")
            if getattr(args, dest) != parser.get_default(dest):
                overridden.append(flag)
        if overridden:
            # Silently dropping explicit flags would run a different grid
            # than the one asked for.
            raise SpecError(
                f"--spec runs the spec file as-is; it conflicts with "
                f"{', '.join(overridden)} — drop the flag(s) or edit "
                f"{args.spec}"
            )
        return ExperimentSpec.load(args.spec)
    if not args.benchmarks or not (args.attacks or args.defense):
        raise SpecError(
            "repro grid needs either --spec FILE or --benchmarks plus "
            "--attacks/--defense to build the grid from flags"
        )

    def params_for(attack: str) -> dict:
        # The DIP budget only parameterizes the oracle-guided family; the
        # oracle-less attacks keep their registry defaults.
        if attack in ORACLE_GUIDED_ATTACKS:
            return {"max_iterations": args.max_iterations}
        return {}

    strategies = [
        token.strip() for token in args.strategies.split(",") if token.strip()
    ]
    defense = None
    if args.defense:
        defense = DefenseSpec(
            name=args.defense,
            iterations=args.defense_iterations,
            samples=args.defense_samples,
            epochs=args.defense_epochs,
            seed=args.seed,
            strategy=strategies if len(strategies) != 1 else strategies[0],
            chains=args.chains,
        )
    else:
        # Without a defense stage these flags would be dropped silently —
        # almost always a forgotten `--defense almost`.
        parser = args._grid_parser
        dangling = [
            flag
            for flag in ("--strategies", "--chains", "--defense-iterations",
                         "--defense-samples", "--defense-epochs")
            if getattr(args, flag.lstrip("-").replace("-", "_"))
            != parser.get_default(flag.lstrip("-").replace("-", "_"))
        ]
        if dangling:
            raise SpecError(
                f"{', '.join(dangling)} only apply to a search defense; "
                "add --defense almost (or use a spec file)"
            )
    return ExperimentSpec(
        name=args.name,
        benchmarks=_grid_benchmarks(args),
        lock=LockSpec(
            locker=args.locker, key_size=args.key_size, seed=args.seed
        ),
        synth=SynthSpec(recipe=args.recipe),
        defense=defense,
        attacks=tuple(
            AttackSpec(name.strip(), params=params_for(name.strip()))
            for name in args.attacks.split(",")
            if name.strip()
        ),
        report=ReportSpec(format=args.report),
    )


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.reporting.trace import (
        load_trace,
        render_span_tree,
        render_trace_hotspots,
    )

    records = load_trace(args.trace_file)
    print(render_span_tree(records, max_depth=args.depth or None))
    print()
    print(render_trace_hotspots(records, top=args.top))
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    spec = _grid_spec(args)
    if args.dump_spec:
        spec.dump(args.dump_spec)
        print(f"wrote spec to {args.dump_spec}")
    runner = _runner(args, jobs=args.jobs)
    run = runner.run(spec)
    return _finish_run(runner, run, spec, args.out)


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.pipeline.cache import (
        ArtifactCache,
        parse_duration,
        parse_size,
    )

    cache = ArtifactCache(args.workdir or None)
    if args.cache_command == "stats":
        print(json.dumps(cache.disk_stats(), indent=2))
        return 0
    if not args.older_than and not args.max_bytes:
        print("error: prune needs --older-than and/or --max-bytes",
              file=sys.stderr)
        return 2
    outcome = cache.prune(
        older_than_s=(
            parse_duration(args.older_than) if args.older_than else None
        ),
        max_bytes=parse_size(args.max_bytes) if args.max_bytes else None,
    )
    print(json.dumps({"root": str(cache.root), **outcome}, indent=2))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro import analysis

    if args.list_rules:
        print(analysis.list_rules())
        return 0
    explicit = args.baseline is not None
    baseline_path = args.baseline or str(
        Path(args.root) / "tools" / "lint-baseline.txt"
    )
    baseline = None if args.no_baseline else baseline_path
    if baseline is not None and not Path(baseline).exists():
        # The default baseline is optional; an explicit one must exist.
        if explicit and not args.write_baseline:
            raise ReproError(f"baseline file not found: {baseline}")
        baseline = None
    def split(raw: list[str]) -> list[str]:
        # "--select RPR1,RPR203" and repeated flags both work.
        return [
            code.strip() for value in raw for code in value.split(",")
            if code.strip()
        ]

    report = analysis.run_lint(
        args.paths,
        select=split(args.select),
        ignore=split(args.ignore),
        baseline=baseline,
        docs_root=args.root if args.docs else None,
    )
    if args.write_baseline:
        count = analysis.write_baseline(report.all_findings, baseline_path)
        print(f"wrote {count} finding(s) to {baseline_path}")
        return 0
    print(analysis.RENDERERS[args.format](report))
    if args.report:
        Path(args.report).write_text(analysis.render_json(report) + "\n")
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ALMOST reproduction command-line flow"
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="library log level: -v = INFO, -vv = DEBUG (repro.* loggers)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="only log errors from the repro.* loggers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a benchmark circuit")
    gen.add_argument("benchmark", choices=available_benchmarks())
    gen.add_argument("--scale", default="quick", choices=["quick", "full"])
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    lock = sub.add_parser("lock", help="lock a .bench design with RLL")
    lock.add_argument("design")
    lock.add_argument("--key-size", type=int, default=32)
    lock.add_argument("--seed", type=int, default=0)
    lock.add_argument("--out", required=True)
    lock.set_defaults(func=cmd_lock)

    synth = sub.add_parser("synth", help="apply a synthesis recipe")
    synth.add_argument("design")
    synth.add_argument("--recipe", default="resyn2",
                       help='"resyn2" or e.g. "b;rw;rfz;b"')
    synth.add_argument("--verify", default="none",
                       choices=["none", "sim", "sat"],
                       help="check the result against the input (sat = "
                            "exact equivalence proof)")
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=cmd_synth)

    ppa = sub.add_parser("ppa", help="map and report PPA as JSON")
    ppa.add_argument("design")
    ppa.add_argument("--opt", action="store_true",
                     help="run the +opt sizing flow")
    ppa.set_defaults(func=cmd_ppa)

    attack = sub.add_parser(
        "attack", help="run an oracle-less attack against a locked design"
    )
    attack.add_argument("design")
    attack.add_argument("--attack", default="omla",
                        choices=oracle_less_attacks()
                        + sorted(ORACLE_GUIDED_ATTACKS),
                        help="attack registry name (oracle-less family)")
    attack.add_argument("--recipe", default="resyn2")
    attack.add_argument("--key", default="",
                        help="true key bits for accuracy scoring")
    attack.add_argument("--epochs", type=int, default=20)
    attack.add_argument("--samples", type=int, default=64)
    attack.add_argument("--relock-bits", type=int, default=32)
    attack.add_argument("--num-patterns", type=int, default=128,
                        help="fault patterns for the redundancy attack")
    attack.add_argument("--seed", type=int, default=0)
    _add_cache_flags(attack)
    attack.set_defaults(func=cmd_attack)

    sat_attack = sub.add_parser(
        "sat-attack",
        help="run an oracle-guided DIP-loop attack against a locked design",
    )
    sat_attack.add_argument("design")
    sat_attack.add_argument("--attack", default="sat",
                            choices=sorted(ORACLE_GUIDED_ATTACKS),
                            help="exact DIP loop (sat) or the AppSAT "
                                 "approximate variant (appsat)")
    sat_attack.add_argument("--key", default="",
                            help="true key bits (builds the oracle)")
    sat_attack.add_argument("--recipe", default="none",
                            help="synthesis applied before the attack "
                                 "(default: none — attack the file as given)")
    sat_attack.add_argument("--max-iterations", type=int, default=512,
                            help="DIP-loop budget")
    sat_attack.add_argument("--query-period", type=int, default=8,
                            help="appsat: estimate the error every N DIPs")
    sat_attack.add_argument("--random-queries", type=int, default=64,
                            help="appsat: random patterns per estimate")
    sat_attack.add_argument("--error-threshold", type=float, default=0.0,
                            help="appsat: acceptable estimated error rate")
    sat_attack.add_argument("--settle-rounds", type=int, default=2,
                            help="appsat: passing estimates before exit")
    sat_attack.add_argument("--seed", type=int, default=0)
    _add_trace_flag(sat_attack)
    _add_cache_flags(sat_attack)
    sat_attack.set_defaults(func=cmd_sat_attack)

    equiv = sub.add_parser(
        "equiv",
        help="SAT-prove two .bench designs equivalent (exit 1 + "
             "counterexample if not)",
    )
    equiv.add_argument("first")
    equiv.add_argument("second")
    equiv.add_argument("--key", default="",
                       help="key bits applied to close any keyinput* pins "
                            "before comparing")
    equiv.set_defaults(func=cmd_equiv)

    defend = sub.add_parser(
        "defend",
        help="apply a defense: the ALMOST recipe search or a "
             "SAT-resilient point-function scheme",
    )
    defend.add_argument("design")
    defend.add_argument("--scheme", default="almost",
                        choices=["almost", "antisat", "sarlock",
                                 "rll+antisat", "rll+sarlock"],
                        help="almost = recipe search (needs a locked "
                             "design + --key); antisat/sarlock graft a "
                             "point-function block onto a locked design "
                             "(or lock an unlocked one); rll+* lock an "
                             "unlocked design with RLL first")
    defend.add_argument("--key", default="", help="the defender's key bits")
    defend.add_argument("--key-size", type=int, default=16,
                        help="RLL key bits for the rll+* schemes")
    defend.add_argument("--width", type=int, default=0,
                        help="point-function comparator width "
                             "(0 = every functional input)")
    defend.add_argument("--strategy", default="sa",
                        choices=available_strategies(),
                        help="almost's search strategy (sa = the paper's "
                             "serial annealer; pt = parallel tempering; "
                             "beam = greedy beam; random = sampling "
                             "baseline)")
    defend.add_argument("--chains", type=int, default=1,
                        help="candidate batch size: tempering chains / "
                             "beam width / samples per round")
    defend.add_argument("--jobs", type=int, default=1,
                        help="process-pool width for candidate scoring")
    defend.add_argument("--iterations", type=int, default=20,
                        help="search rounds (each scores one batch)")
    defend.add_argument("--epochs", type=int, default=15)
    defend.add_argument("--samples", type=int, default=48)
    defend.add_argument("--seed", type=int, default=0)
    defend.add_argument("--out", default="",
                        help="write the defended netlist here")
    _add_trace_flag(defend)
    _add_cache_flags(defend)
    defend.set_defaults(func=cmd_defend)

    run = sub.add_parser(
        "run", help="execute a declarative experiment spec (.toml/.json)"
    )
    run.add_argument("spec", help="spec file; see the README's "
                                  "'Experiment pipeline' section")
    run.add_argument("--jobs", type=int, default=1,
                     help="process-pool width for independent grid cells")
    run.add_argument("--out", default="",
                     help="write the structured RunResult JSON here")
    _add_trace_flag(run)
    _add_cache_flags(run)
    run.set_defaults(func=cmd_run)

    grid = sub.add_parser(
        "grid",
        help="run a benchmark × attack grid built from flags (or a spec "
             "file via --spec; supports DefenseSpec strategy sweeps)",
    )
    grid.add_argument("--spec", default="",
                      help="run this .toml/.json ExperimentSpec instead of "
                           "building one from flags (e.g. a strategy-sweep "
                           "spec with strategy = [\"sa\", \"pt\", \"beam\"])")
    grid.add_argument("--benchmarks", default="",
                      help="comma-separated ISCAS85 names and/or .bench paths")
    grid.add_argument("--attacks", default="",
                      help=f"comma-separated registry names "
                           f"(e.g. {','.join(available('attack'))})")
    grid.add_argument("--defense", default="",
                      choices=["", *available("defense")],
                      help="optional defense stage for every cell "
                           "(almost = recipe search)")
    grid.add_argument("--strategies", default="sa",
                      help="comma-separated search strategies for "
                           "--defense almost; more than one declares a "
                           "strategy sweep (one grid row per strategy)")
    grid.add_argument("--chains", type=int, default=1,
                      help="search candidate batch size per strategy")
    grid.add_argument("--defense-iterations", type=int, default=10,
                      help="search rounds for the defense stage")
    grid.add_argument("--defense-samples", type=int, default=48,
                      help="proxy training samples for the defense stage")
    grid.add_argument("--defense-epochs", type=int, default=15,
                      help="proxy training epochs for the defense stage")
    grid.add_argument("--report", default="table",
                      choices=available("reporter"),
                      help="reporter for the run (search = the strategy-"
                           "comparison table)")
    grid.add_argument("--locker", default="rll",
                      help=f"locker registry name "
                           f"(e.g. {','.join(available('locker'))})")
    grid.add_argument("--key-size", type=int, default=16)
    grid.add_argument("--max-iterations", type=int, default=512,
                      help="DIP budget for the oracle-guided attacks "
                           "(sat/appsat grid cells)")
    grid.add_argument("--recipe", default="resyn2")
    grid.add_argument("--scale", default="quick",
                      choices=["quick", "standard", "full"])
    grid.add_argument("--seed", type=int, default=0)
    grid.add_argument("--jobs", type=int, default=1)
    grid.add_argument("--name", default="grid")
    grid.add_argument("--out", default="",
                      help="write the structured RunResult JSON here")
    grid.add_argument("--dump-spec", default="",
                      help="also save the equivalent spec file "
                           "(.toml/.json) for `repro run`")
    _add_trace_flag(grid)
    _add_cache_flags(grid)
    # The subparser rides along so --spec conflict checks can read the
    # authoritative flag defaults instead of duplicating them.
    grid.set_defaults(func=cmd_grid, _grid_parser=grid)

    cache = sub.add_parser(
        "cache", help="inspect or prune the on-disk artifact cache"
    )
    cache.add_argument("--workdir", default="",
                       help="cache root (default $REPRO_CACHE_DIR or "
                            "~/.cache/repro)")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="print entry count, bytes and schema as JSON"
    )
    # SUPPRESS keeps the parent's --workdir value unless the flag is
    # given after the subcommand too — both positions work.
    cache_stats.add_argument("--workdir", default=argparse.SUPPRESS)
    cache_stats.set_defaults(func=cmd_cache)
    cache_prune = cache_sub.add_parser(
        "prune", help="evict entries by age and/or total-size budget"
    )
    cache_prune.add_argument("--workdir", default=argparse.SUPPRESS)
    cache_prune.add_argument("--older-than", default="",
                             help="evict entries older than this "
                                  "(e.g. 90s, 15m, 6h, 30d, 2w)")
    cache_prune.add_argument("--max-bytes", default="",
                             help="evict oldest-first until the cache "
                                  "fits (e.g. 500M, 2G)")
    cache_prune.set_defaults(func=cmd_cache)

    trace = sub.add_parser(
        "trace",
        help="render the span tree and top-hotspots table from a trace "
             "JSONL file recorded with --trace",
    )
    trace.add_argument("trace_file", help="JSONL file written by --trace")
    trace.add_argument("--top", type=int, default=10,
                       help="hotspot rows to show")
    trace.add_argument("--depth", type=int, default=0,
                       help="limit the span tree to this depth (0 = all)")
    trace.set_defaults(func=cmd_trace)

    lint = sub.add_parser(
        "lint",
        help="run the repo's AST invariant checker (determinism, "
             "picklability, convention rules) over python sources",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format", choices=["text", "github", "json"], default="text",
        help="output format (github = workflow annotations)",
    )
    lint.add_argument(
        "--select", action="append", default=[], metavar="RULES",
        help="only run these rule codes/prefixes (e.g. RPR1, RPR203); "
             "repeatable, comma-separated values allowed",
    )
    lint.add_argument(
        "--ignore", action="append", default=[], metavar="RULES",
        help="skip these rule codes/prefixes; repeatable",
    )
    lint.add_argument(
        "--baseline", default=None,
        help="baseline file of grandfathered findings "
             "(default: tools/lint-baseline.txt if it exists)",
    )
    lint.add_argument(
        "--no-baseline", action="store_true",
        help="report every finding, including baselined ones",
    )
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="write all current findings to the baseline file and exit 0",
    )
    lint.add_argument(
        "--docs", action="store_true",
        help="also run the documentation checks (RPR4xx: broken links, "
             "documented-but-missing subcommands)",
    )
    lint.add_argument(
        "--root", default=".",
        help="repo root for docs checks and the default baseline path",
    )
    lint.add_argument(
        "--report", default=None, metavar="FILE",
        help="additionally write the JSON report to FILE",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_cli_logging(verbose=args.verbose, quiet=args.quiet)
    trace_path = getattr(args, "trace", "")
    try:
        if trace_path:
            # The tracer is active (and global) for the whole command; on
            # exit it flushes and closes the JSONL sink.
            with Tracer(trace_path) as tracer, use_tracer(tracer):
                code = args.func(args)
            # tracer.path, not trace_path: on a name collision the sink
            # moves to a suffixed sibling (see Tracer._open_sink).
            print(f"wrote trace to {tracer.path}")
            return code
        return args.func(args)
    except KeyboardInterrupt:
        # Commands that can salvage partial work catch this themselves
        # (repro run/grid return 130 with a partial result); anything
        # else just exits with the conventional interrupt code.
        print("interrupted", file=sys.stderr)
        return 130
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
