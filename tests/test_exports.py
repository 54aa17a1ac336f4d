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
