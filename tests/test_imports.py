"""Every module of the package reads every name it imports, and some module
of the package reads every private name a module defines: scans with the
standard library's ast, so no linter need be installed. The import scan
skips __init__.py, which imports to re-export, and lines marked
`# noqa: F401`."""

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


def private_definitions(text):
    """(line, name) of each function, class or assignment at the top level
    of the module source `text` whose name starts with one underscore."""
    out = []
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        out += [(node.lineno, name) for name in names if name.startswith("_") and not name.startswith("__")]
    return out


def dead_private_names(texts):
    """(module, line, name) of each private name that a module of `texts`
    (module name -> source) defines and none reads, bare or as an attribute
    (`module._name`; any attribute of that name counts)."""
    read = set()
    for text in texts.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [(module, line, name) for module, text in sorted(texts.items())
            for line, name in private_definitions(text) if name not in read]


def test_scan_finds_dead_private_names():
    texts = {
        "a.py": "def _used():\n    pass\ndef _dead():\n    pass\nclass _Gone:\n    pass\n"
                "_X = 1\n_y: int = 2\n_p, _q = 3, 4\n__all__ = []\ndef public():\n    _X = 0\n",
        "b.py": "from .a import _used\nfrom . import a\n_used()\na._y + a._q\n",
    }
    assert dead_private_names(texts) == [("a.py", 3, "_dead"), ("a.py", 5, "_Gone"), ("a.py", 7, "_X"),
                                         ("a.py", 9, "_p")]


def test_no_dead_private_names():
    assert dead_private_names({p.name: p.read_text() for p in SRC.glob("*.py")}) == []
