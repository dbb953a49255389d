"""The package holds only code that the package itself uses: a definition
that only tests call belongs in the tests, or nowhere."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "semibiplane"


def definitions(tree):
    """Top-level functions and classes, and the non-dunder methods, as
    (qualified name, name, is method) triples."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name, True


def unused_definitions(trees):
    """The definitions of ``trees`` (module name -> tree) that no module but
    ``__init__`` references. A method counts as used only through an
    attribute, so a local variable of the same name does not keep it."""
    names, attributes = set(), set()
    for module, tree in trees.items():
        if module == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return [
        f"{module}: {qualified}" for module, tree in trees.items()
        for qualified, name, is_method in definitions(tree)
        if name not in attributes and (is_method or name not in names)
    ]


def test_every_definition_is_referenced_outside_init():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert unused_definitions(trees) == []


def test_a_method_named_like_a_local_variable_is_still_unused():
    source = """
class Group:
    def sub(self, x, y):
        return x - y

    def add(self, x, y):
        return x + y

def build(parser):
    sub = parser.add_subparsers()
    return sub, Group().add(1, 2)

PARSER = build(None)
"""
    assert unused_definitions({"m.py": ast.parse(source)}) == ["m.py: Group.sub"]
