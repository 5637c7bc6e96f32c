"""The package's import surface, checked with ast (no linter is needed):
every module uses what it imports, and `__all__` lists each name once and
only names that exist."""

import ast
import importlib
from pathlib import Path

import pytest

import papperitz

SOURCE = Path(papperitz.__file__).resolve().parent
MODULES = sorted(SOURCE.glob("*.py"))


def _imported_names(tree: ast.Module):
    """The names each import statement binds, wherever it stands."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name


def _used_names(tree: ast.Module):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _all_names(tree: ast.Module):
    """The literal `__all__` of a module, or None."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return None


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = sorted(set(_imported_names(tree)) - _used_names(tree))
    if path.name == "__init__.py":
        # a re-export is used by being exported
        unused = [name for name in unused if name not in (_all_names(tree) or ())]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_all_names_resolve_once(path):
    names = _all_names(ast.parse(path.read_text(), filename=str(path)))
    if names is None:
        return
    assert len(names) == len(set(names)), f"{path.name}: __all__ repeats a name"
    module = importlib.import_module(
        "papperitz" if path.name == "__init__.py" else f"papperitz.{path.stem}")
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == [], f"{path.name}: __all__ names what is not there: {missing}"
