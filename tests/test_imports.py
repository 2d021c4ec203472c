"""Every module of the package reads every name it imports: a scan with the
standard library's ast, so no linter need be installed. __init__.py, which
imports to re-export, and lines marked `# noqa: F401` are skipped."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "srptlab"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(text):
    """(line, name) of each name that the module source `text` imports and
    never reads, in line order."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            # `import a.b` binds a
            imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for line, name in imported if name not in read)


def test_scan_finds_unused_names():
    text = (
        "import os\n"
        "import sys  # noqa: F401\n"
        "from a import (\n    b,\n    c,\n)\n"
        "import d.e\n"
        "from f import g as h\n"
        "b()\nd.e.x\n"
    )
    assert unused_imports(text) == [(1, "os"), (3, "c"), (8, "h")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []
