"""The committed baseline: grandfathered findings that don't fail the run.

Format is one entry per line, diff-friendly and line-number-free so
unrelated edits don't invalidate it::

    # justification comment for the entry below
    src/repro/obs/trace.py:RPR203: self.records.append(record)

The key is ``relpath:CODE: <stripped source line>`` — a finding matches
when all three agree, wherever the line moved to.  Duplicate keys stack
(two identical offending lines need two entries).  ``repro lint
--write-baseline`` regenerates the file from the current findings;
entries that no longer match anything are reported as stale so the
baseline shrinks as debt is paid.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.findings import Finding
from repro.errors import AnalysisError

_HEADER = (
    "# repro lint baseline — grandfathered findings (see "
    "docs/static-analysis.md).\n"
    "# One `relpath:CODE: source line` per entry; keep a one-line\n"
    "# justification comment above anything intentionally kept.\n"
)


def _parse_line(line: str, path: Path, lineno: int) -> tuple[str, str, str]:
    relpath, _, rest = line.partition(":")
    code, _, source = rest.partition(":")
    code = code.strip()
    if not relpath or not code.startswith("RPR"):
        raise AnalysisError(
            f"{path}:{lineno}: malformed baseline entry {line!r} "
            "(expected 'relpath:CODE: source line')"
        )
    return (relpath.strip(), code, source.strip())


class Baseline:
    """Multiset of grandfathered finding keys loaded from one file."""

    def __init__(self, entries: Counter | None = None, path: Path | None = None):
        self.entries: Counter = entries or Counter()
        self.path = path

    @classmethod
    def load(cls, path: "str | Path") -> "Baseline":
        path = Path(path)
        entries: Counter = Counter()
        for lineno, raw in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            entries[_parse_line(line, path, lineno)] += 1
        return cls(entries, path)

    def apply(
        self, findings: Sequence[Finding]
    ) -> tuple[list[Finding], int, list[str]]:
        """Split ``findings`` into (fresh, matched count, stale entries).

        Each baseline entry absorbs at most as many findings as its
        multiplicity; leftover entries are stale (the debt was paid —
        or the file was renamed) and should be pruned.
        """
        remaining = Counter(self.entries)
        fresh: list[Finding] = []
        for finding in findings:
            key = finding.baseline_key()
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
            else:
                fresh.append(finding)
        matched = sum(self.entries.values()) - sum(remaining.values())
        stale = [
            f"{relpath}:{code}: {source}"
            for (relpath, code, source), count in sorted(remaining.items())
            for _ in range(count)
            if count > 0
        ]
        return fresh, matched, stale


def write_baseline(findings: Iterable[Finding], path: "str | Path") -> int:
    """Write every finding as a baseline entry; returns the entry count."""
    path = Path(path)
    entries = sorted(
        f"{f.file}:{f.code}: {f.source}" for f in findings
    )
    path.write_text(
        _HEADER + "".join(f"{entry}\n" for entry in entries),
        encoding="utf-8",
    )
    return len(entries)
