"""Every top-level import of a package module is used in that module."""

import ast
import pathlib

import fmlat


def test_no_unused_top_level_imports():
    unused = []
    for path in sorted(pathlib.Path(fmlat.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                unused += [f"{path.name}:{node.lineno}: {alias.name}"
                           for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []
