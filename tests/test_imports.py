import ast
from pathlib import Path

import delaycent


def unused_imports(path):
    """Names bound by a module-level import of the module at ``path`` that
    no ``Name`` node of the module reads (``__future__`` aside)."""
    tree = ast.parse(Path(path).read_text())
    bound = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_every_module_import_is_read():
    # __init__.py imports to re-export, so it is not checked.
    paths = sorted(Path(delaycent.__file__).parent.glob("*.py"))
    unused = {path.name: unused_imports(path) for path in paths if path.name != "__init__.py"}
    assert unused == {name: [] for name in unused}


def test_the_guard_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\nimport os.path\nfrom numbers import Real\n\nos.sep\n")
    assert unused_imports(module) == ["Real"]
