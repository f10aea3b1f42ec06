"""Parsed-module model shared by every lint rule.

One :class:`ModuleContext` wraps one parsed source file: the AST, the
raw source lines (for suppression anchors), an import map resolving
local aliases to fully qualified dotted names, and the module
classification flags some rules key on (kernel modules carry the
bit-exactness contract; cache-key modules feed hashed manifests).

Classification is by path for the real runtime modules and by magic
comment for test fixtures::

    # staticcheck: kernel-module
    # staticcheck: cache-key-module

placed in the first ten lines of the file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.findings import Severity

__all__ = [
    "LintFinding",
    "ModuleContext",
    "FunctionScope",
    "resolve_name",
    "keyword_arg",
    "can_be_none",
]

#: Path suffixes of the modules carrying the bit-exact kernel contract.
KERNEL_MODULE_SUFFIXES: tuple[str, ...] = (
    "repro/runtime/batch.py",
    "repro/runtime/kernels/codegen.py",
    "repro/runtime/kernels/runner.py",
    "repro/runtime/kernels/spec.py",
    "repro/runtime/kernels/store.py",
)

#: Path suffixes of the modules that build hashed cache keys.
CACHE_MODULE_SUFFIXES: tuple[str, ...] = ("repro/runtime/cache.py",)

_KERNEL_TAG = "# staticcheck: kernel-module"
_CACHE_TAG = "# staticcheck: cache-key-module"


@dataclass(frozen=True)
class LintFinding:
    """One rule hit at one source location.

    Satisfies :class:`repro.findings.SeverityFinding`, so
    :class:`repro.staticcheck.analyzer.LintReport` shares the ERC
    report skeleton.  ``anchor`` is the stripped source line at the
    finding -- the suppression-baseline key, robust to line drift.
    ``predicts`` carries the exact runtime refusal message a
    lowerability finding (SC010, SC012) forecasts; determinism findings
    leave it ``None``.
    """

    rule: str
    severity: Severity
    message: str
    path: str
    line: int
    column: int
    anchor: str
    predicts: str | None = None

    @property
    def location(self) -> str:
        """Return the ``path:line`` form used in tables."""
        return f"{self.path}:{self.line}"

    def __str__(self) -> str:
        return f"{self.rule} {self.location}: {self.message}"


@dataclass(frozen=True)
class FunctionScope:
    """One function definition plus its parameter names."""

    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: frozenset[str]


def _parameter_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> frozenset[str]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return frozenset(names)


def _build_imports(tree: ast.Module) -> dict[str, str]:
    """Map each locally bound alias to its fully qualified dotted name.

    ``import numpy as np`` binds ``np -> numpy``; ``from numpy.random
    import default_rng as rng`` binds ``rng -> numpy.random.default_rng``.
    Relative imports keep their leading dots out (rare in this tree and
    never what the rules match on).
    """
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                imports[bound] = target
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                imports[bound] = f"{node.module}.{alias.name}"
    return imports


def keyword_arg(call: ast.Call, name: str) -> ast.expr | None:
    """Return the value of keyword ``name`` in ``call``, if present."""
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def can_be_none(node: ast.expr) -> bool:
    """True when the expression is literally ``None`` on some path."""
    if isinstance(node, ast.Constant) and node.value is None:
        return True
    if isinstance(node, ast.IfExp):
        return can_be_none(node.body) or can_be_none(node.orelse)
    if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
        return any(can_be_none(value) for value in node.values)
    return False


def resolve_name(node: ast.expr, imports: dict[str, str]) -> str | None:
    """Resolve an attribute chain to a fully qualified dotted name.

    ``np.random.default_rng`` with ``np -> numpy`` resolves to
    ``numpy.random.default_rng``; a bare local name resolves to itself.
    Returns ``None`` for anything that is not a plain name/attribute
    chain (calls, subscripts, ...).
    """
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    root = imports.get(current.id, current.id)
    parts.append(root)
    return ".".join(reversed(parts))


@dataclass
class ModuleContext:
    """One parsed source file, ready for rule evaluation."""

    path: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    imports: dict[str, str] = field(default_factory=dict)
    is_kernel_module: bool = False
    is_cache_module: bool = False

    @classmethod
    def parse(cls, path: str, source: str) -> "ModuleContext":
        """Parse ``source`` (raising ``SyntaxError`` on bad input)."""
        tree = ast.parse(source, filename=path)
        lines = source.splitlines()
        head = lines[:10]
        normalized = path.replace("\\", "/")
        is_kernel = normalized.endswith(KERNEL_MODULE_SUFFIXES) or any(
            _KERNEL_TAG in line for line in head
        )
        is_cache = normalized.endswith(CACHE_MODULE_SUFFIXES) or any(
            _CACHE_TAG in line for line in head
        )
        return cls(
            path=normalized,
            source=source,
            tree=tree,
            lines=lines,
            imports=_build_imports(tree),
            is_kernel_module=is_kernel,
            is_cache_module=is_cache,
        )

    @property
    def dotted_name(self) -> str:
        """Best-effort dotted module name derived from the path."""
        trimmed = self.path
        for prefix in ("src/", "./"):
            if trimmed.startswith(prefix):
                trimmed = trimmed[len(prefix) :]
        if trimmed.endswith(".py"):
            trimmed = trimmed[: -len(".py")]
        if trimmed.endswith("/__init__"):
            trimmed = trimmed[: -len("/__init__")]
        return trimmed.replace("/", ".")

    def resolve(self, node: ast.expr) -> str | None:
        """Resolve a name/attribute chain against the import map."""
        return resolve_name(node, self.imports)

    def anchor(self, line: int) -> str:
        """Return the stripped source line at 1-based ``line``."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def functions(self) -> list[FunctionScope]:
        """Return every function definition with its parameter names."""
        return [
            FunctionScope(node=node, params=_parameter_names(node))
            for node in ast.walk(self.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
