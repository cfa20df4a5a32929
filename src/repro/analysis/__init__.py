"""nomadlint: a self-hosted static-analysis pass over the repro source.

NOMAD's correctness claim is a *non-local* invariant — the algorithm is
lock-free because exactly one worker owns each item column at a time, so
``h_j`` is only ever written by its current owner (§3.5/§4.1 of Yun et
al., VLDB 2014).  Four substrates restate that discipline in docstrings
(threaded, multiprocess, socket cluster, streaming ``DynamicNomad``);
this package enforces it, plus the resource rules earlier PRs fixed real
bugs against (shared-memory unlink, socket close, ``perf_counter``
timing).

Structure mirrors the facade registries: one :class:`~.rules.Rule` per
invariant, registered by code through :func:`~.rules.register_rule`, and
an AST :class:`~.context.ModuleContext` with scope/alias tracking.  Every
rule runs over every file and every finding fails the run: the one way
in is ``repro-nomad analyze [paths]``, which exits 1 on any finding.
"""

from .context import Finding, ModuleContext
from .report import AnalysisReport, render_text
from .rules import RULES, Rule, register_rule, rules_table
from .runner import analyze_paths, iter_python_files
from . import hygiene, invariants  # noqa: F401  (rule registration)

__all__ = [
    "AnalysisReport",
    "Finding",
    "ModuleContext",
    "RULES",
    "Rule",
    "analyze_paths",
    "iter_python_files",
    "register_rule",
    "render_text",
    "rules_table",
]
