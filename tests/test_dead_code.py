"""The package holds only code that the package itself uses: a definition
that only tests call belongs in the tests, or nowhere."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "semibiplane"


def definitions(tree):
    """Top-level functions and classes, and the non-dunder methods, as
    (qualified name, name) pairs."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name


def references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_definition_is_referenced_outside_init():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = {
        name for module, tree in trees.items() if module != "__init__.py"
        for name in references(tree)
    }
    unused = [
        f"{module}: {qualified}" for module, tree in trees.items()
        for qualified, name in definitions(tree) if name not in used
    ]
    assert unused == []
