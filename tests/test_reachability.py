"""Every module under ``src/repro`` is reached from a shipped entry point.

An AST import walk starts from ``repro.cli``, ``repro.service``,
``repro.__main__`` and every ``.py`` file under ``benchmarks/``,
``perfbench/`` and ``examples/``, and follows:

* every absolute ``import`` and ``from ... import`` at any depth (a
  verb's function-local imports count), except inside an
  ``if TYPE_CHECKING:`` block;
* a package's lazy ``_EXPORTS`` one name at a time: ``from repro.si
  import DelayLine`` reaches ``repro.si.delay_line`` and no other home;
* a string literal that is exactly a module's dotted name
  (``importlib.import_module``, perfbench's tracer table), except in
  ``__init__`` files, whose ``_EXPORTS`` maps name every home module.

Importing a module also runs its parent packages' ``__init__``.  A
module that only tests reach fails here: wire it into a verb, bench or
example that regenerates a result, or delete it with its tests.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).parent
REPO_ROOT = PACKAGE_ROOT.parents[1]
ENTRY_MODULES = ("repro.cli", "repro.service", "repro.__main__")
SCRIPT_DIRS = ("benchmarks", "perfbench", "examples")


def _module_files() -> dict[str, Path]:
    """Return ``{dotted name: path}`` of every module under ``src/repro``."""
    files = {}
    for path in PACKAGE_ROOT.rglob("*.py"):
        parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


MODULES = _module_files()


@functools.cache
def _exports(package: str) -> dict[str, str]:
    """Return ``{name: home module}`` of a package's ``_EXPORTS`` map."""
    path = MODULES.get(package)
    if path is None or path.name != "__init__.py":
        return {}
    for node in ast.parse(path.read_text()).body:
        targets = [ast.unparse(target) for target in getattr(node, "targets", ())]
        if targets == ["_EXPORTS"]:
            homes = ast.literal_eval(node.value)
            return {name: home for home, names in homes.items() for name in names}
    return {}


def _nodes(tree: ast.AST):
    """Yield every node of ``tree`` outside ``if TYPE_CHECKING:`` bodies."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and ast.unparse(child.test) == "TYPE_CHECKING":
                stack.extend(child.orelse)
            else:
                stack.append(child)


def _with_parents(name: str) -> set[str]:
    """Return ``name`` and the packages whose ``__init__`` it runs."""
    parts = name.split(".")
    return {".".join(parts[:i]) for i in range(1, len(parts) + 1)} & MODULES.keys()


def _imports(source: str, is_init: bool = False) -> set[str]:
    """Return the ``repro`` modules a file's source reaches directly."""
    found: set[str] = set()
    for node in _nodes(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.add(node.module)
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}"
                found.add(_exports(node.module).get(alias.name, submodule))
        elif (
            not is_init
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value in MODULES
        ):
            found.add(node.value)
    return set().union(*map(_with_parents, found))


def _reached() -> set[str]:
    """Return every module the walk reaches from the entry points."""
    queue = [name for entry in ENTRY_MODULES for name in _with_parents(entry)]
    for directory in SCRIPT_DIRS:
        for script in (REPO_ROOT / directory).rglob("*.py"):
            queue.extend(_imports(script.read_text()))
    seen: set[str] = set()
    while queue:
        name = queue.pop()
        if name not in seen:
            seen.add(name)
            path = MODULES[name]
            queue.extend(_imports(path.read_text(), path.name == "__init__.py"))
    return seen


def test_walk_rules():
    assert _imports("from repro.si import DelayLine") == {
        "repro",
        "repro.si",
        "repro.si.delay_line",
    }
    assert _imports("if TYPE_CHECKING:\n    import repro.cli\n") == set()
    assert _imports("def f():\n    import repro.cli\n") == {"repro", "repro.cli"}
    assert _imports("x = 'repro.runtime.cache'") == {
        "repro",
        "repro.runtime",
        "repro.runtime.cache",
    }
    assert _imports("x = 'repro.runtime.cache'", is_init=True) == set()
    assert _imports("import numpy") == set()


def test_every_module_is_reached_outside_tests():
    assert set(ENTRY_MODULES) <= MODULES.keys()
    unreached = sorted(MODULES.keys() - _reached())
    assert not unreached, f"reached only from tests: {unreached}"
