"""The nomadlint rule protocol and registry.

Structured exactly like the facade's ``ENGINES``/``ALGORITHMS``
registries: a rule is one :class:`Rule` subclass registered through the
:func:`register_rule` decorator, keyed by its ``NMD###`` code.  Codes
are tiered by range:

* ``NMD001``–``NMD099`` — **repo-invariant tier**: the ownership,
  concurrency, and resource disciplines NOMAD's correctness argument and
  the live runtimes' timing contract rest on.
* ``NMD100``–``NMD199`` — **hygiene tier**: mechanical idioms every
  module must follow (exception discipline, mutable defaults, seeded
  randomness, sanctioned fork usage).

A new rule is one class plus one decorator — no dispatcher edits:

    @register_rule
    class MyRule(Rule):
        code = "NMD006"
        name = "my-invariant"
        description = "..."
        def check(self, module):
            ...yield module.finding(self.code, node, "...")
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from ..errors import AnalysisError
from .context import Finding, ModuleContext

__all__ = [
    "Rule",
    "RULES",
    "register_rule",
    "run_rules",
    "INVARIANT_TIER",
    "HYGIENE_TIER",
]

INVARIANT_TIER = "invariant"
HYGIENE_TIER = "hygiene"

_CODE_PATTERN = re.compile(r"^NMD\d{3}$")


class Rule:
    """One machine-checked invariant.

    Subclasses set ``code`` (``NMD###``), ``name`` (kebab-case slug),
    ``description`` (one line, shown by ``--list-rules``), ``tier``
    (:data:`INVARIANT_TIER` or :data:`HYGIENE_TIER`), and implement
    :meth:`check`, yielding :class:`~repro.analysis.context.Finding`
    objects for one module.  Rules must be stateless across modules —
    the runner reuses one instance for every file.
    """

    code: str = ""
    name: str = ""
    description: str = ""
    tier: str = INVARIANT_TIER

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError


#: Rule registry: ``NMD###`` code → rule instance.
RULES: dict[str, Rule] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding one rule instance to :data:`RULES`.

    Registration is validated eagerly, like the facade registries: a
    malformed or colliding code fails at import time, not mid-analysis.
    """
    rule = cls()
    if not _CODE_PATTERN.match(rule.code):
        raise AnalysisError(
            f"rule {cls.__name__} has malformed code {rule.code!r}; "
            "expected NMD followed by three digits"
        )
    if rule.code in RULES:
        raise AnalysisError(
            f"rule code {rule.code} is already registered "
            f"({RULES[rule.code].name!r})"
        )
    if not rule.name or not rule.description:
        raise AnalysisError(
            f"rule {rule.code} must declare a name and a description"
        )
    if rule.tier not in (INVARIANT_TIER, HYGIENE_TIER):
        raise AnalysisError(
            f"rule {rule.code} has unknown tier {rule.tier!r}"
        )
    RULES[rule.code] = rule
    return cls


def run_rules(module: ModuleContext) -> list[Finding]:
    """Every registered rule over one module, in code order."""
    findings: list[Finding] = []
    for code in sorted(RULES):
        findings.extend(RULES[code].check(module))
    return findings


def ensure_rules_loaded() -> None:
    """Import the stock rule modules (idempotent)."""
    from . import invariants, hygiene  # noqa: F401  (registration side effect)


def rules_table() -> Iterable[tuple[str, str, str, str]]:
    """(code, name, tier, description) rows for ``--list-rules``."""
    ensure_rules_loaded()
    for code in sorted(RULES):
        rule = RULES[code]
        yield code, rule.name, rule.tier, rule.description
