"""Every top-level import of a vapep module, a test module or a benchmark
script is used in that file."""
import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parents[1]
SRC = ROOT / "src" / "vapep"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "benchmarks").glob("*.py")])


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
    assert {"test_imports.py", "mip_bench.py"} <= {p.name for p in SCRIPTS}


def _id(path: pathlib.Path) -> str:
    """A module's path under src/vapep, or a script's under the checkout."""
    return str(path.relative_to(SRC if path.is_relative_to(SRC) else ROOT))


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=_id)
def test_no_unused_top_level_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []
