"""Every module of the package and of the tests uses each name it imports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str):
    """(line, name) of each name an import binds and the module never reads.
    ``import a.b`` binds ``a``; ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_every_import_is_used():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b as c, d\nc()\n"
    assert unused_imports(source) == [(2, "os"), (3, "d")]
    modules = sorted([*(ROOT / "src" / "dartlab").glob("*.py"), *(ROOT / "tests").glob("*.py")])
    assert len(modules) > 10
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in modules
              for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert unused == []
