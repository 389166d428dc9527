"""Every imported name is read by the module that imports it.

Walks the package's and the tests' modules with `ast`. A name counts as read
when the module loads it anywhere, in a string annotation too, or lists it in
`__all__`; an import on a line marked `# noqa: F401` is exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "multiscan").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def imported_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Bound name -> line of every import not marked noqa: F401."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    names[alias.asname or alias.name.partition(".")[0]] = alias.lineno
    return names


def annotations(node: ast.AST) -> list:
    """The annotation expressions node holds directly."""
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = node.args
        every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        found = [arg.annotation for arg in every if arg is not None] + [node.returns]
        return [annotation for annotation in found if annotation is not None]
    return []


def read_names(tree: ast.AST) -> set[str]:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
        for annotation in annotations(node):
            # a quoted annotation such as "PointCloud"
            for text in ast.walk(annotation):
                if isinstance(text, ast.Constant) and isinstance(text.value, str):
                    read |= read_names(ast.parse(text.value, mode="eval"))
    return read


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_read(path):
    source = path.read_text()
    tree = ast.parse(source)
    read = read_names(tree)
    unused = {name: line for name, line in imported_names(tree, source.splitlines()).items()
              if name not in read}
    assert not unused, f"{path.name}: imported but never read: {unused}"


def test_the_check_sees_an_unused_import():
    source = ("import os\nimport io  # noqa: F401\nfrom a import b, c, Y\n__all__ = ['c']\n"
              "def f() -> 'Y': return 'b'\n")
    tree = ast.parse(source)
    names = imported_names(tree, source.splitlines())
    assert names == {"os": 1, "b": 3, "c": 3, "Y": 3}
    assert {name for name in names if name not in read_names(tree)} == {"os", "b"}
