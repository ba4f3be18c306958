"""Reporting: paper reference numbers, ASCII tables, experiment scaling,
and pipeline :class:`RunResult` ingestion (:mod:`repro.reporting.run`)."""

from repro.reporting.paper_data import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
)
from repro.reporting.tables import render_table
from repro.reporting.sat import SatAttackRecord, render_sat_attack_table
from repro.reporting.query import (
    QueryComplexityRecord,
    render_query_complexity_table,
)
from repro.reporting.scale import Scale, resolve_scale
from repro.reporting.run import render_run_table, run_result_rows
from repro.reporting.search import (
    SearchStrategyRecord,
    records_from_run,
    render_search_comparison_table,
)
from repro.reporting.trace import (
    build_span_tree,
    hotspot_rows,
    load_trace,
    render_span_tree,
    render_trace_hotspots,
)

__all__ = [
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "render_table",
    "SatAttackRecord",
    "render_sat_attack_table",
    "QueryComplexityRecord",
    "render_query_complexity_table",
    "Scale",
    "resolve_scale",
    "render_run_table",
    "run_result_rows",
    "SearchStrategyRecord",
    "records_from_run",
    "render_search_comparison_table",
    "build_span_tree",
    "hotspot_rows",
    "load_trace",
    "render_span_tree",
    "render_trace_hotspots",
]
