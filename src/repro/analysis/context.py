"""Per-module analysis context: parse tree, scopes, aliases, findings.

One :class:`ModuleContext` is built per analyzed file and handed to every
rule.  It owns the work no rule should repeat:

* the parsed :mod:`ast` tree with **parent links** on every node, so a
  rule can walk outward (enclosing function, enclosing ``try``) as
  easily as inward;
* an **import alias map** covering ``import x as y`` and
  ``from x import y as z`` at any nesting depth, so ``t.time()`` under
  ``import time as t`` resolves to the canonical ``"time.time"`` no
  matter how the module spells it;
* scope utilities for the closure-capture analysis of NMD002 (names a
  function binds directly, names a nested function mutates);
* a :meth:`ModuleContext.finding` factory stamping path, line, and
  symbol (the dotted chain of enclosing defs).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from ..errors import AnalysisError

__all__ = [
    "Finding",
    "ModuleContext",
    "dotted_name",
    "terminal_name",
]

_PARENT = "_nomadlint_parent"

#: Container methods that mutate their receiver in place; used by the
#: closure-capture analysis to treat ``shared.append(x)`` as a write.
MUTATING_METHODS = frozenset(
    {
        "append", "appendleft", "add", "extend", "extendleft", "insert",
        "update", "setdefault", "pop", "popleft", "popitem", "remove",
        "discard", "clear", "put", "put_nowait", "sort", "reverse",
    }
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``symbol`` is the dotted chain of enclosing class/function names
    (``"ClusterNomad.run"``), or ``"<module>"`` for module-level code.
    """

    code: str
    message: str
    path: str
    line: int
    col: int
    symbol: str

    def location(self) -> str:
        """``path:line:col`` for display."""
        return f"{self.path}:{self.line}:{self.col}"


def _link_parents(tree: ast.AST) -> None:
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            setattr(child, _PARENT, node)


def dotted_name(node: ast.AST) -> str | None:
    """``"a.b.c"`` from a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_name(node: ast.AST) -> str | None:
    """The final attribute/name of a call target (``a.b.c`` → ``"c"``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _collect_aliases(tree: ast.AST) -> dict[str, str]:
    """Local name → canonical dotted path, from every import statement."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.split(".")[0]
                # ``import a.b`` binds ``a`` to the package root.
                aliases[local] = name.asname and name.name or local
                if name.asname:
                    aliases[name.asname] = name.name
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            for name in node.names:
                if name.name == "*":
                    continue
                local = name.asname or name.name
                joined = f"{base}.{name.name}" if base else name.name
                aliases[local] = joined
    return aliases


class ModuleContext:
    """Everything the rules need to know about one source file."""

    def __init__(self, path: str, source: str):
        self.path = path
        try:
            self.tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            raise AnalysisError(
                f"cannot parse {path}: {error.msg} (line {error.lineno})"
            ) from error
        _link_parents(self.tree)
        self.aliases = _collect_aliases(self.tree)
        #: Posix path segments, for segment-scoped rules
        #: (``runtime``/``cluster``/``stream``/...).
        self.segments = tuple(path.replace("\\", "/").split("/"))

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------
    def parent(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent of ``node`` (``None`` for the module)."""
        return getattr(node, _PARENT, None)

    def ancestors(self, node: ast.AST):
        """Parents from innermost outward, excluding ``node`` itself."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def enclosing_function(self, node: ast.AST) -> ast.FunctionDef | None:
        """Innermost function/async-function containing ``node``."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def enclosing_class(self, node: ast.AST) -> ast.ClassDef | None:
        """Innermost class containing ``node``."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor
        return None

    def enclosing_function_names(self, node: ast.AST) -> list[str]:
        """Names of every enclosing function, innermost first."""
        return [
            ancestor.name
            for ancestor in self.ancestors(node)
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

    def qualname(self, node: ast.AST) -> str:
        """Dotted chain of enclosing defs (``"Class.method.closure"``)."""
        parts = [
            ancestor.name
            for ancestor in self.ancestors(node)
            if isinstance(
                ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        ]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            parts.insert(0, node.name)
        return ".".join(reversed(parts)) or "<module>"

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def resolve(self, node: ast.AST) -> str | None:
        """Canonical dotted path of a Name/Attribute chain.

        The head segment is substituted through the import alias map when
        it names an import (``np.random.rand`` → ``"numpy.random.rand"``);
        an unimported head is kept verbatim, so locals still resolve to a
        raw dotted string rules can match on by terminal name.
        """
        raw = dotted_name(node)
        if raw is None:
            return None
        head, _, rest = raw.partition(".")
        resolved_head = self.aliases.get(head, head)
        return f"{resolved_head}.{rest}" if rest else resolved_head

    def resolve_call(self, call: ast.Call) -> str | None:
        """Canonical dotted path of a call's target."""
        return self.resolve(call.func)

    # ------------------------------------------------------------------
    # Scope utilities (closure-capture analysis)
    # ------------------------------------------------------------------
    def walk_shallow(self, func: ast.AST):
        """Walk ``func``'s body without descending into nested defs.

        Nested function/class *statements* are yielded (their names bind
        in this scope) but their bodies are not entered; lambdas and
        comprehensions stay in the walk because their bodies execute in
        (effectively) this scope for the bindings the rules care about.
        """
        stack = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))

    def direct_bindings(self, func: ast.FunctionDef) -> set[str]:
        """Names ``func`` binds in its own scope (args, assignments,
        loop/with targets, nested def names, imports)."""
        args = func.args
        names = {
            a.arg
            for a in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                *filter(None, (args.vararg, args.kwarg)),
            )
        }
        for node in self.walk_shallow(func):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                names.add(node.id)
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    names.add((alias.asname or alias.name).split(".")[0])
        return names

    def mutated_outer_names(self, func: ast.FunctionDef) -> set[str]:
        """Base names ``func`` mutates: subscript/attribute stores,
        in-place operators, mutating method calls, ``nonlocal`` rebinds."""
        mutated: set[str] = set()

        def base_name(target: ast.AST) -> str | None:
            while isinstance(target, (ast.Subscript, ast.Attribute)):
                target = target.value
            return target.id if isinstance(target, ast.Name) else None

        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, (ast.Subscript, ast.Attribute)):
                        name = base_name(target)
                        if name is not None:
                            mutated.add(name)
            elif isinstance(node, ast.Nonlocal):
                mutated.update(node.names)
            elif isinstance(node, ast.Call):
                fn = node.func
                if (
                    isinstance(fn, ast.Attribute)
                    and fn.attr in MUTATING_METHODS
                    and isinstance(fn.value, ast.Name)
                ):
                    mutated.add(fn.value.id)
        return mutated

    # ------------------------------------------------------------------
    # Findings
    # ------------------------------------------------------------------
    def finding(self, code: str, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(
            code=code,
            message=message,
            path=self.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0) + 1,
            symbol=self.qualname(node),
        )
