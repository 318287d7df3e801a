"""Every top-level import of a vapep module is used in that module."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).parents[1] / "src" / "vapep"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    # a dotted use such as `a.b.c` holds the Name `a` under its Attributes
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_modules_are_found():
    assert {"model.py", "wsp.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_top_level_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []
