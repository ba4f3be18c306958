"""Query-complexity tables: the axis SAT-resilient defenses fight on.

Point-function defenses do not stop the oracle-guided attack from finding
*a* key — they make the number of oracle queries (DIPs) needed for an
exact key grow exponentially in the block width, while an approximate
attack (AppSAT) gets within a measured error rate in a handful of queries.
:func:`render_query_complexity_table` puts the two termination modes side
by side per scheme and key width: DIP count, total oracle queries, whether
the result is exact (miter proven UNSAT) or approximate (measured error),
and whether the DIP budget ran out first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.attacks.base import AttackResult
from repro.reporting.tables import render_table


@dataclass
class QueryComplexityRecord:
    """One DIP-loop attack run, reduced to its query-complexity numbers."""

    scheme: str
    attack: str
    key_size: int
    dips: int
    oracle_queries: int
    exact: bool
    error_rate: Optional[float]
    elapsed_s: float
    budget_exhausted: bool = False

    @staticmethod
    def _from_details(
        scheme: str,
        attack: str,
        key_size: int,
        details: dict,
        default_elapsed: float = 0.0,
    ) -> "QueryComplexityRecord":
        budget_exhausted = bool(details.get("budget_exhausted", False))
        return QueryComplexityRecord(
            scheme=scheme,
            attack=attack,
            key_size=key_size,
            dips=details.get("iterations", 0),
            oracle_queries=details.get(
                "oracle_queries", details.get("iterations", 0)
            ),
            exact=bool(details.get("exact", not budget_exhausted)),
            error_rate=details.get("error_rate"),
            elapsed_s=details.get("elapsed_s", default_elapsed),
            budget_exhausted=budget_exhausted,
        )

    @staticmethod
    def from_result(scheme: str, result: AttackResult) -> "QueryComplexityRecord":
        """Build a record from a DipLoop-based :class:`AttackResult`."""
        return QueryComplexityRecord._from_details(
            scheme, result.attack_name or "sat", result.key_size,
            result.details,
        )

    @staticmethod
    def from_cell(scheme: str, cell) -> "QueryComplexityRecord":
        """Build a record from a pipeline :class:`CellResult` grid cell."""
        return QueryComplexityRecord._from_details(
            scheme, cell.attack, cell.key_size,
            cell.details.get("attack", {}), default_elapsed=cell.elapsed_s,
        )


def render_query_complexity_table(
    records: Sequence[QueryComplexityRecord],
) -> str:
    """ASCII table of DIP counts vs. key width, exact vs. approximate.

    The ``result`` column distinguishes the three termination modes:
    ``exact`` (provably equivalent key), ``~err=x%`` (approximate key with
    its measured error rate) and ``budget!`` (DIP budget exhausted before
    either — the defense won this cell).
    """
    headers = [
        "scheme",
        "attack",
        "key bits",
        "DIPs",
        "queries",
        "result",
        "time [s]",
    ]
    rows = []
    for record in records:
        if record.budget_exhausted:
            outcome = "budget!"
        elif record.exact:
            outcome = "exact"
        elif record.error_rate is not None:
            outcome = f"~err={100.0 * record.error_rate:.2f}%"
        else:
            outcome = "approx"
        rows.append(
            [
                record.scheme,
                record.attack,
                record.key_size,
                record.dips,
                record.oracle_queries,
                outcome,
                round(record.elapsed_s, 3),
            ]
        )
    return render_table(
        headers, rows, title="Query complexity: DIPs to key recovery"
    )
