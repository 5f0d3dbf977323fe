"""Every public function, class and method of the package has a caller in it."""

import ast
from collections import Counter
from pathlib import Path

import hestonis

SRC = Path(hestonis.__file__).resolve().parent

#: Public names that nothing in the package calls, each with the reason it stays.
ALLOWED = {
    "run_appendix_estimator": "perfbench's tracer wraps it as the constant-vol cell",
    "log_inverse_weight": "the standalone weight the inline one is tested against",
}


def _public_definitions(tree):
    """(name, def node) of the module's public functions and classes, and of
    the public methods of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield item.name, item


def _named(tree):
    """Counts of the names the tree reads, imports or looks up as attributes."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
    return names


def test_every_public_name_has_a_caller_in_the_package():
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
             if p.name != "__init__.py"]
    named = sum((_named(t) for t in trees), Counter())
    unused = sorted(name for tree in trees for name, node in _public_definitions(tree)
                    if named[name] == _named(node)[name] and name not in ALLOWED)
    assert not unused, "public names that nothing in src/hestonis uses: " + ", ".join(unused)
