"""The package's export list matches what ``portlab/__init__.py`` binds."""

import ast
import inspect
from pathlib import Path

import portlab


def bound_names(path):
    """Every name a top-level ``from ... import`` or assignment in ``path`` binds."""
    names = []
    for node in ast.parse(Path(path).read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom):
            names += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign):
            names += [target.id for target in node.targets if isinstance(target, ast.Name)]
    return names


def test_all_lists_every_public_name_once():
    public = {
        name
        for name in bound_names(portlab.__file__)
        if not name.startswith("_") and not inspect.ismodule(getattr(portlab, name))
    }
    assert len(portlab.__all__) == len(set(portlab.__all__))
    assert set(portlab.__all__) == public


def test_every_public_name_is_used_inside_the_package():
    """Each export is loaded, by name or attribute, in a package module other than
    ``__init__``, so the package exports no code that only its tests call."""
    package = Path(portlab.__file__).parent
    loaded = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in package.glob("*.py")
        if path.name != "__init__.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    assert sorted(set(portlab.__all__) - loaded) == []
