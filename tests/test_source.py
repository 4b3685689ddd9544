"""Static checks on the package source: no dead imports, no dangling exports."""

import ast
from pathlib import Path

import ultrazero

MODULES = sorted(Path(ultrazero.__file__).parent.glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads; a name listed in a literal
    __all__ counts as read."""
    imported, used = {}, set()
    for node in ast.walk(tree):  # one pass: parsing and walking are the cost
        kind = type(node)
        if kind is ast.Name:
            used.add(node.id)
        elif kind is ast.Import:
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif kind is ast.ImportFrom and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    dead = {path.name: unused_imports(ast.parse(path.read_text())) for path in MODULES}
    assert {name: found for name, found in dead.items() if found} == {}


def test_unused_import_check_sees_a_dead_import():
    tree = ast.parse("import os\nfrom json import dumps, loads\n__all__ = ['loads']\n")
    assert unused_imports(tree) == ["os (line 1)", "dumps (line 2)"]


def test_every_export_resolves_once():
    names = ultrazero.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(ultrazero, name)] == []
