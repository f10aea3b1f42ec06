"""Every package's lazy exports, and the API index that documents them.

Each package ``__init__`` lists its public names once in ``_EXPORTS``
(home module -> names) and once in an ``if TYPE_CHECKING:`` import
block for static checkers; ``docs/API.md`` promises every name in its
tables is importable from the named module.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).parent
API_INDEX = Path(__file__).resolve().parents[1] / "docs" / "API.md"

#: Every package under ``src/repro``, by dotted name.
PACKAGES = sorted(
    ".".join(("repro", *init.parent.relative_to(PACKAGE_ROOT).parts))
    for init in PACKAGE_ROOT.rglob("__init__.py")
)


def _type_checking_imports(package: str) -> dict[str, str]:
    """Return ``{name: module}`` of a package's ``TYPE_CHECKING`` imports."""
    init = PACKAGE_ROOT.joinpath(*package.split(".")[1:], "__init__.py")
    imports: dict[str, str] = {}
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for statement in node.body:
                assert isinstance(statement, ast.ImportFrom), ast.unparse(statement)
                for alias in statement.names:
                    assert alias.asname is None, ast.unparse(statement)
                    imports[alias.name] = statement.module
    return imports


@pytest.mark.parametrize("package", PACKAGES)
def test_lazy_package_reexport(package):
    module = importlib.import_module(package)
    homes = {name: home for home, names in module._EXPORTS.items() for name in names}
    for name in module.__all__:
        if name not in homes:  # defined in the package itself (__version__)
            assert name in vars(module), name
            continue
        home = importlib.import_module(homes[name])
        assert getattr(module, name) is getattr(home, name), name
        if home.__name__.rpartition(".")[0] == package:
            # A loaded submodule's exports sit in the package namespace,
            # as an eager import would leave them.
            assert vars(module)[name] is getattr(home, name), name
    assert set(homes) <= set(module.__all__)
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError, match=re.escape(repr(package))):
        module.no_such_name
    assert _type_checking_imports(package) == homes


def _api_index_items():
    """Yield ``(module, name)`` for each name in ``docs/API.md``'s tables."""
    module = None
    for line in API_INDEX.read_text().splitlines():
        heading = re.match(r"## .*?`(repro[\w.]*)`", line)
        if heading or line.startswith("## "):
            module = heading.group(1) if heading else None
        elif module and line.startswith("| `"):
            for name in re.findall(r"`([^`]+)`", line.split("|")[1]):
                yield module, name.removesuffix("()")


@pytest.mark.parametrize("module, name", list(_api_index_items()))
def test_api_index_names_resolve(module, name):
    target = importlib.import_module(module)
    for part in name.split("."):
        try:
            target = getattr(target, part)
        except AttributeError:  # a submodule not imported yet
            target = importlib.import_module(f"{target.__name__}.{part}")
