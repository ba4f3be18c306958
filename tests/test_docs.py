"""Documentation smoke tests: doctests in the public search API, internal
links in ``docs/``/README, and CLI subcommands named by the docs.

The doctest pass is the "verified importable" guarantee for the search
API's module docstrings: every documented module imports cleanly and its
inline examples execute as written.  The link/command checks run the
``repro lint --docs`` engine (:mod:`repro.analysis.docs`, the CI lint
job), so a doc rot caught in CI is reproducible locally with plain pytest.
"""

from __future__ import annotations

import doctest
import importlib
from pathlib import Path

import pytest

from repro.analysis import docs

REPO_ROOT = Path(__file__).resolve().parent.parent

DOCUMENTED_MODULES = [
    "repro.core.search",
    "repro.core.search.strategy",
    "repro.core.search.driver",
    "repro.synth.cache",
]

# Documented with runnable examples, but no exact-resume contract to state
# (telemetry observes runs; it doesn't participate in determinism).
EXAMPLE_ONLY_MODULES = [
    "repro.obs.metrics",
    "repro.obs.trace",
]


@pytest.mark.parametrize(
    "module_name", DOCUMENTED_MODULES + EXAMPLE_ONLY_MODULES
)
def test_module_docstring_examples_run(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lost its module docstring"
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, (
        f"{module_name} documents no runnable examples — the doctest smoke "
        "test only proves anything when the docstrings carry `>>>` examples"
    )
    assert results.failed == 0


@pytest.mark.parametrize("module_name", DOCUMENTED_MODULES)
def test_exact_resume_contract_is_documented(module_name):
    """Each public search/cache module names the contract it upholds."""
    module = importlib.import_module(module_name)
    text = module.__doc__.lower()
    assert any(
        phrase in text
        for phrase in ("exact-resume", "exact resume", "bit-identical",
                       "bit-for-bit", "seed-trace", "deterministic")
    ), f"{module_name} docstring no longer states its determinism contract"


def test_docs_internal_links_resolve():
    problems = docs.link_problems(docs.doc_files(REPO_ROOT), REPO_ROOT)
    assert not problems, "\n".join(p.text() for p in problems)


def test_docs_name_only_real_cli_subcommands():
    mentions = docs.subcommand_mentions(docs.doc_files(REPO_ROOT))
    assert mentions, "docs no longer reference any `repro <cmd>` commands"
    problems = docs.subcommand_problems(mentions, REPO_ROOT)
    assert not problems, "\n".join(p.text() for p in problems)
