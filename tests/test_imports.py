"""Every name a module imports is used, and every private name of the
package is read.

The project installs no linter, so this test parses every ``.py`` file
under ``src/``, ``tests/`` and ``scripts/`` with ``ast`` and fails on a
name that an import binds and the module never reads. A name listed in the
module's ``__all__`` counts as read: it is re-exported. It also fails on a
module-level function, class or assigned name of ``src/atompair`` that
starts with one underscore and that nothing in ``src/`` reads, as a name,
an attribute or an import: a private helper left behind by a deletion.
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


def unread_privates(sources: dict) -> list:
    """(file, line, name) of every module-level function, class or assigned
    name of ``sources`` (file -> source) that starts with one underscore and
    that no source reads as a name, an attribute or an imported name."""
    defined = []
    read = set()
    for file, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((file, node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(file, node.lineno, name.id) for target in targets
                            for name in ast.walk(target)
                            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted((file, line, name) for file, line, name in defined
                  if name.startswith("_") and not name.startswith("__") and name not in read)


def test_unread_privates_are_found():
    sources = {"a.py": ("import b\nfrom c import _imported\n_A, _B = 1, 2\n"
                        "_C: int = 3\n__dunder__ = 4\nx = _A\n"
                        "def _f():\n    _local = 5\n    return _local\n"
                        "class _K:\n    _attr = 6\n"),
               "b.py": "import a\na._f()\nb.x = a._C\n_dead = 1\n",
               "c.py": "_imported = 7\n"}
    assert unread_privates(sources) == [("a.py", 3, "_B"), ("a.py", 10, "_K"),
                                        ("b.py", 4, "_dead")]


def test_no_unread_privates():
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src").rglob("*.py"))}
    found = [f"{file}:{line}: {name}" for file, line, name in unread_privates(sources)]
    assert not found, "private but never read in src/:\n" + "\n".join(found)
