"""Static checks on the package source: no unused module-level import, no
public function or method that no package code refers to, no class field
that holds a callable (resources and results stay plain data), no
branch on an object's name, and no weighted `choice` draw outside
`rng.index_slices`."""

import ast
import json
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mbqcomm"


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


def public_functions(tree: ast.Module) -> list[tuple[str, ast.FunctionDef]]:
    """Module-level functions and class methods whose names do not start
    with an underscore, as (qualified name, definition)."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{m.name}", m) for m in node.body
                      if isinstance(m, ast.FunctionDef)]
    return [(name, node) for name, node in found if not node.name.startswith("_")]


def name_uses(node: ast.AST) -> Counter:
    """How often each name is read as a variable or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreferenced(defining: list[ast.Module], referring: list[ast.Module]) -> list[str]:
    """Public functions of `defining` whose name `referring` uses only
    inside their own definition (a name-level check, so a method counts
    as used when any attribute of that name is read)."""
    uses = sum((name_uses(t) for t in referring), Counter())
    return sorted(name for tree in defining for name, node in public_functions(tree)
                  if uses[node.name] == name_uses(node)[node.name])


def test_detector_finds_an_unreferenced_function():
    tree = ast.parse("def f(n):\n    return f(n - 1)\ndef g():\n    pass\n"
                     "class C:\n    def m(self):\n        pass\n"
                     "    def used(self):\n        pass\n    def _private(self):\n        pass\n")
    caller = ast.parse("g()\nC().used()\n")
    assert unreferenced([tree], [tree, caller]) == ["C.m", "f"]


def benchmark_layers() -> set[str]:
    """The `module.function` span names whose per-layer metrics
    BENCHMARK.json lists: such a layer stays while the benchmark times it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"].rsplit(".", 1)[0] for metric in spec["per_layer"]}


def test_every_public_function_is_referenced():
    # references from tests do not count: a name only tests use belongs in tests/
    package = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    layers = benchmark_layers()
    orphans = [f"{module}.{name}" for module, tree in package.items()
               for name in unreferenced([tree], list(package.values()))
               if f"{module}.{name.rsplit('.', 1)[-1]}" not in layers]
    assert orphans == []


def callable_fields(tree: ast.Module) -> list[str]:
    """Fields of classes whose annotation mentions `Callable`: class-level
    annotations and annotated `__init__` parameters."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign):
                fields = [(ast.unparse(stmt.target), stmt.annotation)]
            elif isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                args = stmt.args
                fields = [(a.arg, a.annotation)
                          for a in args.posonlyargs + args.args + args.kwonlyargs if a.annotation]
            else:
                continue
            found += [f"{cls.name}.{name}" for name, annotation in fields
                      if "Callable" in name_uses(annotation)]
    return found


def test_detector_finds_a_callable_field():
    tree = ast.parse("class A:\n    __slots__ = ('f', 'g', 'n')\n"
                     "    def __init__(self, f: Callable[[int], int],\n"
                     "                 g: typing.Callable | None = None, n: int = 0, *, k=None):\n"
                     "        pass\n"
                     "    def apply(self, h: Callable):\n        pass\n"
                     "class B:\n    h: Callable\n    m: int = 0\n")
    assert callable_fields(tree) == ["A.f", "A.g", "B.h"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclass_field_is_callable(path):
    assert callable_fields(ast.parse(path.read_text())) == []


def _is_name_attribute(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "name"


def name_branches(tree: ast.Module) -> list[str]:
    """Places that test an object's `.name` against text: compared with a
    string literal, or matched by `startswith`/`endswith`. A code or
    resource is told apart by its data, not its name; parsing a plain
    `name` variable (as `code_by_name` does) is not a branch."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(_is_name_attribute, operands)) and any(
                    isinstance(o, ast.Constant) and isinstance(o.value, str)
                    for o in operands):
                found.append(ast.unparse(node))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("startswith", "endswith")
              and any(map(_is_name_attribute, [node.func.value, *node.args]))):
            found.append(ast.unparse(node))
    return found


def test_detector_finds_a_name_branch():
    tree = ast.parse("if code.name.startswith('rep'):\n    pass\n"
                     "a = 'ring5' != spec.name\nb = x.name.endswith('phase')\n"
                     "c = str.startswith(code.name, 'r')\n"
                     "d = name.startswith('repetition')\ne = r1.name == r2.name\n"
                     "f = code.n == 5\ng = f'{code.name}_encode'\n")
    assert name_branches(tree) == ["code.name.startswith('rep')", "'ring5' != spec.name",
                                   "x.name.endswith('phase')", "str.startswith(code.name, 'r')"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_branch_on_a_name(path):
    assert name_branches(ast.parse(path.read_text())) == []


def weighted_choices(tree: ast.Module) -> list[str]:
    """Calls of a `.choice` method with a `p=` keyword: every categorical
    draw goes through `rng.index_slices`, which reproduces them into uint8."""
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "choice" and any(k.arg == "p" for k in node.keywords)]


def test_detector_finds_a_weighted_choice():
    tree = ast.parse("a = rng.choice(4, size=n, p=w)\nb = self.rng.choice(4, p=w)\n"
                     "c = rng.choice(n, size=2, replace=False)\nd = draw_indices(rng, w, n)\n")
    assert weighted_choices(tree) == ["rng.choice(4, size=n, p=w)", "self.rng.choice(4, p=w)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_weighted_choice(path):
    assert weighted_choices(ast.parse(path.read_text())) == []
