"""Static checks on the package source: no unused module-level import."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mbqcomm"


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by module-level imports and never read in the module."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(bound) - used)


def test_detector_finds_an_unused_import():
    tree = ast.parse("import os\nimport numpy as np\nfrom x import a, b\nnp.f(a)\n")
    assert unused_imports(tree) == ["b", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []
