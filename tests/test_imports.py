"""Lint: every import in the package and the tests is used.

No linter ships with the project's dependencies, so this standard-library
check stands in for one.  The package's __init__ imports only to
re-export, so it is exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for p in [*(ROOT / "src" / "steklovmax").glob("*.py"),
                           *(ROOT / "tests").glob("*.py")]
               if p.name != "__init__.py")


def unused_imports(source):
    """Names an import binds in source that nothing else mentions."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_checker_finds_unused_import():
    src = "import os\nimport a.b as c\nfrom x import y, z\nprint(z)\n"
    assert unused_imports(src) == [(1, "os"), (2, "c"), (3, "y")]


def test_checker_sees_attribute_roots():
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
