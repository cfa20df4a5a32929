"""The nomadlint driver: collect files and run every rule over them.

``repro-nomad analyze`` (the CLI subcommand in :mod:`repro.cli`) and the
tests both call :func:`analyze_paths`.
"""

from __future__ import annotations

import os
from typing import Sequence

from ..errors import AnalysisError
from .context import ModuleContext
from .report import AnalysisReport
from .rules import ensure_rules_loaded, run_rules

__all__ = ["analyze_paths", "iter_python_files"]

#: Directory names never descended into.
_SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".hypothesis", ".pytest_cache", ".benchmarks"}
)


def iter_python_files(paths: Sequence[str]) -> list[str]:
    """Every ``.py`` file under ``paths``, sorted for determinism."""
    files: set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            files.add(os.path.normpath(path))
        elif os.path.isdir(path):
            for root, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d
                    for d in dirnames
                    if d not in _SKIP_DIRS and not d.startswith(".")
                )
                for filename in filenames:
                    if filename.endswith(".py"):
                        files.add(os.path.normpath(os.path.join(root, filename)))
        else:
            raise AnalysisError(f"no such file or directory: {path!r}")
    return sorted(files)


def analyze_paths(paths: Sequence[str]) -> AnalysisReport:
    """Run every registered rule over every file under ``paths``."""
    ensure_rules_loaded()
    files = iter_python_files(paths)
    findings = []
    for path in files:
        try:
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
        except OSError as error:
            raise AnalysisError(f"cannot read {path!r}: {error}") from error
        module = ModuleContext(path.replace(os.sep, "/"), source)
        findings.extend(run_rules(module))
    return AnalysisReport(files=files, findings=findings)
