"""Every name a module imports is used.

The project installs no linter, so this test parses every ``.py`` file
under ``src/``, ``tests/`` and ``scripts/`` with ``ast`` and fails on a
name that an import binds and the module never reads. A name listed in the
module's ``__all__`` counts as read: it is re-exported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list:
    """(line, name) of every name imported by ``source`` and never read."""
    tree = ast.parse(source)
    bound = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a; "*" binds nothing by name
                if alias.name != "*":
                    bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_imports_are_found():
    source = ("import os, os.path\nimport numpy as np\nfrom a import b, c as d\n"
              "from e import f\n__all__ = ['f']\nnp.zeros(os.sep)\n")
    assert unused_imports(source) == [(3, "b"), (3, "d")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for top in ("src", "tests", "scripts")
             for path in sorted((ROOT / top).rglob("*.py"))
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, "imported but never used:\n" + "\n".join(found)
