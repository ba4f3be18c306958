"""PPA analysis and post-mapping optimization (the DC-compiler stand-in).

* :func:`analyze_ppa` — static timing with a linear delay model, area
  accumulation, and power = leakage + activity-weighted dynamic power using
  switching activities from random simulation of the mapped logic.
* :func:`optimize_mapping` — the ``+opt`` flow: repeated critical-path gate
  upsizing (X1 -> X2) followed by area recovery (downsizing off-critical
  cells back to X1 when slack allows), mirroring "ultra effort + area
  recovery" in the paper's Table III setup.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MappingError
from repro.mapping.mapper import MappedCircuit
from repro.netlist.simulate import switching_activity

#: Clock assumed for dynamic power normalization (arbitrary but fixed).
_SUPPLY_V = 1.1
_FREQ_GHZ = 1.0
#: Random patterns (seed 0) behind the switching activities.
ACTIVITY_PATTERNS = 1024
#: Upsize/downsize rounds of the ``+opt`` flow, and the share of the
#: critical delay within which a path counts as critical.
OPT_ROUNDS = 3
SLACK_FRACTION = 0.05


@dataclass(frozen=True)
class PpaReport:
    """Power-performance-area summary of a mapped circuit."""

    area: float          # um^2
    delay: float         # ps (critical path)
    power: float         # uW (leakage + dynamic)
    leakage_power: float
    dynamic_power: float
    num_cells: int

    def overhead_vs(self, baseline: "PpaReport") -> dict[str, float]:
        """Percentage overheads of ``self`` relative to ``baseline``."""

        def pct(ours: float, theirs: float) -> float:
            if theirs == 0:
                return 0.0
            return 100.0 * (ours - theirs) / theirs

        return {
            "area": pct(self.area, baseline.area),
            "delay": pct(self.delay, baseline.delay),
            "power": pct(self.power, baseline.power),
        }


def _arrival_times(mapped: MappedCircuit) -> dict[str, float]:
    """Net arrival times under the linear delay model."""
    fanouts = mapped.fanout_counts()
    arrival: dict[str, float] = {net: 0.0 for net in mapped.inputs}
    pending = list(mapped.instances)
    # Instances are appended in topological order by the mapper; a single
    # pass suffices, but verify inputs are ready to fail loudly otherwise.
    for inst in pending:
        cell = mapped.library[inst.cell_name]
        if any(net not in arrival for net in inst.inputs):
            raise MappingError(
                f"instance {inst.output} evaluated before its inputs"
            )
        input_arrival = max(
            (arrival[net] for net in inst.inputs), default=0.0
        )
        load = fanouts.get(inst.output, 0)
        arrival[inst.output] = (
            input_arrival + cell.intrinsic_delay + cell.load_factor * load
        )
    return arrival


def analyze_ppa(mapped: MappedCircuit) -> PpaReport:
    """Compute the PPA report of a mapped circuit."""
    arrival = _arrival_times(mapped)
    delay = max((arrival[net] for net in mapped.outputs), default=0.0)
    area = mapped.total_area()
    leakage_nw = sum(
        mapped.library[inst.cell_name].leakage for inst in mapped.instances
    )
    # Dynamic power: P = alpha * C * V^2 * f per driven pin.
    netlist = mapped.to_netlist()
    activity = switching_activity(netlist, num_patterns=ACTIVITY_PATTERNS)
    input_cap_of: dict[str, float] = {}
    for inst in mapped.instances:
        cell = mapped.library[inst.cell_name]
        for net in inst.inputs:
            input_cap_of[net] = input_cap_of.get(net, 0.0) + cell.input_cap
    dynamic_uw = 0.0
    for net, cap_ff in input_cap_of.items():
        alpha = activity.get(net, 0.0)
        # fF * V^2 * GHz = uW
        dynamic_uw += alpha * cap_ff * _SUPPLY_V * _SUPPLY_V * _FREQ_GHZ
    leakage_uw = leakage_nw / 1000.0
    return PpaReport(
        area=area,
        delay=delay,
        power=leakage_uw + dynamic_uw,
        leakage_power=leakage_uw,
        dynamic_power=dynamic_uw,
        num_cells=mapped.num_cells(),
    )


def _critical_instances(mapped: MappedCircuit) -> set[int]:
    """Indices of instances on (near-)critical paths."""
    arrival = _arrival_times(mapped)
    delay = max((arrival[net] for net in mapped.outputs), default=0.0)
    threshold = delay * (1.0 - SLACK_FRACTION)
    producers = {inst.output: i for i, inst in enumerate(mapped.instances)}
    critical: set[int] = set()
    frontier = [
        net for net in mapped.outputs if arrival.get(net, 0.0) >= threshold
    ]
    seen = set(frontier)
    while frontier:
        net = frontier.pop()
        index = producers.get(net)
        if index is None:
            continue
        critical.add(index)
        inst = mapped.instances[index]
        if not inst.inputs:
            continue
        worst = max(inst.inputs, key=lambda n: arrival.get(n, 0.0))
        if worst not in seen:
            seen.add(worst)
            frontier.append(worst)
    return critical


def optimize_mapping(mapped: MappedCircuit) -> MappedCircuit:
    """The ``+opt`` flow: upsize critical cells, downsize the rest.

    Operates in place on a shallow copy of the instance list and returns the
    optimized circuit.
    """
    out = MappedCircuit(
        name=mapped.name,
        library=mapped.library,
        inputs=list(mapped.inputs),
        outputs=list(mapped.outputs),
        instances=[
            type(inst)(
                inst.cell_name,
                inst.output,
                inst.inputs,
                inst.source_var,
                inst.source_negated,
            )
            for inst in mapped.instances
        ],
    )
    for _ in range(OPT_ROUNDS):
        critical = _critical_instances(out)
        changed = False
        for index, inst in enumerate(out.instances):
            base, strength = inst.cell_name.rsplit("_", 1)
            if base.startswith("LOGIC"):
                continue
            if index in critical and strength == "X1":
                inst.cell_name = f"{base}_X2"
                changed = True
            elif index not in critical and strength == "X2":
                inst.cell_name = f"{base}_X1"
                changed = True
        if not changed:
            break
    return out
