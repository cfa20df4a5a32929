"""Hygiene rules: mechanical discipline every module must follow.

Lower-stakes than the invariant tier, but each one has bitten a real
reproduction effort: swallowed exceptions hide worker crashes, mutable
defaults alias state across calls, module-level RNG breaks the seeded
determinism every experiment relies on, and an unsanctioned ``fork``
reintroduces the platform coupling PR 1 confined to one site.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .context import Finding, ModuleContext, terminal_name
from .rules import HYGIENE_TIER, Rule, register_rule

__all__ = ["SANCTIONED_FORK_SITES"]

#: The one module allowed to request the ``fork`` start method (its
#: token rings' locks genuinely require inherited state; everything
#: else must be spawn-safe).
SANCTIONED_FORK_SITES = ("runtime/multiprocess.py",)

#: Call names that count as surfacing an exception to a human/log.
_LOGGING_NAMES = frozenset(
    {
        "print", "warn", "warning", "error", "exception", "critical",
        "debug", "info", "log", "excepthook", "print_exc", "format_exc",
    }
)

#: Stateful samplers of the process-global ``random`` generator.
_PY_SAMPLERS = frozenset(
    {
        "random", "randint", "randrange", "uniform", "gauss", "shuffle",
        "choice", "choices", "sample", "seed", "normalvariate",
        "betavariate", "expovariate", "triangular", "lognormvariate",
        "vonmisesvariate", "paretovariate", "weibullvariate",
        "getrandbits", "randbytes",
    }
)

#: Stateful samplers of the legacy ``numpy.random`` global generator
#: (constructors like Generator/PCG64/SeedSequence/default_rng stay
#: legal — they are how seeded streams are built).
_NP_SAMPLERS = frozenset(
    {
        "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "choice", "shuffle", "permutation", "uniform",
        "normal", "standard_normal", "seed", "beta", "binomial",
        "poisson", "exponential", "gamma", "laplace", "lognormal",
        "multinomial", "multivariate_normal", "dirichlet", "bytes",
    }
)

#: Default-argument expressions that create a shared mutable object.
_MUTABLE_FACTORIES = frozenset(
    {
        "list", "dict", "set", "bytearray",
        "collections.deque", "collections.defaultdict",
        "collections.Counter", "collections.OrderedDict",
    }
)


@register_rule
class SwallowedBroadExcept(Rule):
    code = "NMD101"
    name = "swallowed-broad-except"
    description = (
        "bare except / except Exception whose body neither re-raises "
        "nor logs — a worker crash disappears silently"
    )
    tier = HYGIENE_TIER

    @staticmethod
    def _is_broad(module: ModuleContext, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        types = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        return any(
            module.resolve(t) in ("Exception", "BaseException")
            for t in types
        )

    @staticmethod
    def _surfaces(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                name = terminal_name(node.func) or ""
                if name in _LOGGING_NAMES:
                    return True
        return False

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(module, node):
                continue
            if self._surfaces(node):
                continue
            caught = (
                "bare except"
                if node.type is None
                else f"except {ast.unparse(node.type)}"
            )
            yield module.finding(
                self.code,
                node,
                f"{caught} swallows the error without re-raising or "
                "logging; catch the narrow exception type, or re-raise/"
                "log what you keep",
            )


@register_rule
class MutableDefaultArgument(Rule):
    code = "NMD102"
    name = "mutable-default-argument"
    description = (
        "function default is a mutable object ([]/{}/set()/deque()) "
        "shared across every call"
    )
    tier = HYGIENE_TIER

    def _is_mutable(self, module: ModuleContext, default: ast.AST) -> bool:
        if isinstance(default, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(default, ast.Call):
            resolved = module.resolve_call(default) or ""
            return (
                resolved in _MUTABLE_FACTORIES
                or (terminal_name(default.func) or "")
                in ("deque", "defaultdict", "Counter", "OrderedDict")
            )
        return False

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = [
                *node.args.defaults,
                *(d for d in node.args.kw_defaults if d is not None),
            ]
            for default in defaults:
                if self._is_mutable(module, default):
                    yield module.finding(
                        self.code,
                        default,
                        f"mutable default in {node.name}(): the object is "
                        "created once and shared by every call; default "
                        "to None and build it inside the function",
                    )


@register_rule
class UnseededGlobalRng(Rule):
    code = "NMD103"
    name = "unseeded-global-rng"
    description = (
        "module-level random/np.random sampler call in library code — "
        "draws from process-global state and breaks seeded reproducibility"
    )
    tier = HYGIENE_TIER

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = module.resolve_call(node) or ""
            offending = None
            if resolved.startswith("random."):
                sampler = resolved.split(".", 1)[1]
                if sampler in _PY_SAMPLERS:
                    offending = resolved
            elif resolved.startswith("numpy.random."):
                sampler = resolved.rsplit(".", 1)[-1]
                if sampler in _NP_SAMPLERS:
                    offending = resolved
            if offending is None:
                continue
            yield module.finding(
                self.code,
                node,
                f"{offending}() samples the process-global generator; "
                "derive a seeded stream through repro.rng "
                "(RngFactory/derive_rng/derive_pyrandom) instead",
            )


@register_rule
class UnsanctionedForkContext(Rule):
    code = "NMD104"
    name = "unsanctioned-fork-context"
    description = (
        "fork start-method request outside runtime/multiprocess.py — "
        "every other substrate must stay spawn-safe"
    )
    tier = HYGIENE_TIER

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        posix = "/".join(module.segments)
        if any(posix.endswith(site) for site in SANCTIONED_FORK_SITES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = terminal_name(node.func) or ""
            if name not in ("get_context", "set_start_method"):
                continue
            wants_fork = any(
                isinstance(arg, ast.Constant) and arg.value == "fork"
                for arg in node.args
            )
            if not wants_fork:
                continue
            yield module.finding(
                self.code,
                node,
                f"{name}('fork') outside the sanctioned site "
                f"({', '.join(SANCTIONED_FORK_SITES)}); fork breaks on "
                "macOS/Windows and inherits state the cluster substrates "
                "must not rely on — use spawn, or move the need into the "
                "sanctioned runtime",
            )
