"""Documentation checks, unified into the lint finding model (RPR4xx).

This is the engine behind ``repro lint --docs``: internal markdown
links must resolve (anchors included) and every ``repro <cmd>`` the docs
mention must answer ``--help`` with exit 0, so the docs can drift neither
ahead of nor behind the CLI surface.

Rule codes: ``RPR401`` broken link / missing anchor, ``RPR402`` unknown
subcommand, ``RPR403`` docs reference no subcommands at all (the check
would be vacuous).
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

from repro.analysis.findings import Finding, Severity

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#+\s+(.*)$", re.MULTILINE)
_FENCE = re.compile(r"```.*?```", re.DOTALL)
_INLINE_CODE = re.compile(r"`[^`]+`")
_SUBCOMMAND = re.compile(
    # Lookbehind keeps path-embedded mentions (~/.cache/repro, src/repro)
    # from reading their following word as a subcommand.
    r"(?:python -m repro\.cli|(?<![\w./-])repro)\s+([a-z][a-z0-9-]*)\b"
)
#: Tokens that follow "repro" in code spans without being subcommands.
NOT_SUBCOMMANDS = frozenset({"console"})


def doc_files(root: Path) -> list[Path]:
    files = sorted((root / "docs").glob("*.md"))
    readme = root / "README.md"
    if readme.exists():
        files.append(readme)
    return files


def _slug(heading: str) -> str:
    """GitHub-style anchor slug for a markdown heading."""
    heading = re.sub(r"[`*_]", "", heading.strip().lower())
    heading = re.sub(r"[^\w\s-]", "", heading)
    return re.sub(r"\s+", "-", heading).strip("-")


def _anchors(path: Path) -> set[str]:
    return {_slug(h) for h in _HEADING.findall(path.read_text())}


def link_problems(files: list[Path], root: Path) -> list[Finding]:
    """Broken relative links / anchors across ``files`` as findings."""
    problems = []
    for path in files:
        relpath = str(path.relative_to(root))
        for lineno, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            for target in _LINK.findall(line):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                raw, _, anchor = target.partition("#")
                resolved = (path.parent / raw).resolve() if raw else path
                message = ""
                if not resolved.exists():
                    message = f"broken link -> {target}"
                elif anchor and resolved.suffix == ".md" and _slug(
                    anchor
                ) not in _anchors(resolved):
                    message = (
                        f"missing anchor #{anchor} in {raw or path.name}"
                    )
                if message:
                    problems.append(Finding(
                        file=relpath, line=lineno, code="RPR401",
                        severity=Severity.ERROR, message=message,
                        source=line.strip(),
                    ))
    return problems


def subcommand_mentions(files: list[Path]) -> dict[str, tuple[Path, int]]:
    """``repro <cmd>`` names in code spans -> first (file, line) mention."""
    mentions: dict[str, tuple[Path, int]] = {}
    for path in files:
        text = path.read_text()
        fenced_lines: set[int] = set()
        for match in _FENCE.finditer(text):
            first = text.count("\n", 0, match.start()) + 1
            last = text.count("\n", 0, match.end()) + 1
            fenced_lines.update(range(first, last + 1))
        for lineno, line in enumerate(text.splitlines(), start=1):
            code = (
                line if lineno in fenced_lines
                else "\n".join(_INLINE_CODE.findall(line))
            )
            for command in _SUBCOMMAND.findall(code):
                if command not in NOT_SUBCOMMANDS:
                    mentions.setdefault(command, (path, lineno))
    return mentions


def subcommand_problems(
    mentions: dict[str, tuple[Path, int]], root: Path
) -> list[Finding]:
    """Findings for documented subcommands whose ``--help`` fails."""
    problems = []
    # The child must import repro from this checkout no matter where the
    # linter itself was launched from.
    env = dict(os.environ)
    src = str(root / "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    for command, (path, lineno) in sorted(mentions.items()):
        outcome = subprocess.run(
            [sys.executable, "-m", "repro.cli", command, "--help"],
            capture_output=True,
            text=True,
            cwd=root,
            env=env,
        )
        if outcome.returncode != 0:
            stderr = outcome.stderr.strip()
            problems.append(Finding(
                file=str(path.relative_to(root)), line=lineno,
                code="RPR402", severity=Severity.ERROR,
                message=(
                    f"documented subcommand `repro {command}` is not a "
                    f"real CLI command (--help exited "
                    f"{outcome.returncode}): "
                    f"{stderr.splitlines()[-1] if stderr else ''}"
                ),
            ))
    return problems


def doc_findings(root: "str | Path") -> list[Finding]:
    """The full docs pass rooted at ``root`` (repo checkout)."""
    root = Path(root).resolve()
    files = doc_files(root)
    if not files:
        return [Finding(
            file=str(root), line=1, code="RPR403",
            severity=Severity.ERROR,
            message="no documentation files found (docs/*.md, README.md)",
        )]
    findings = link_problems(files, root)
    mentions = subcommand_mentions(files)
    if not mentions:
        findings.append(Finding(
            file="README.md", line=1, code="RPR403",
            severity=Severity.ERROR,
            message=(
                "docs reference no `repro <cmd>` subcommands at all — "
                "the command check has nothing to pin"
            ),
        ))
    findings.extend(subcommand_problems(mentions, root))
    return findings
