"""Every public function, class and method of the package, and every private
function and method, has a caller in it."""

import ast
from collections import Counter
from pathlib import Path

import hestonis

SRC = Path(hestonis.__file__).resolve().parent

#: Public names that nothing in the package calls, each with the reason it stays.
ALLOWED = {
    "run_appendix_estimator": "perfbench's tracer wraps it as the constant-vol cell",
    "mdp_price_drift": "bench imports it for perfbench's tracer, which patches it",
    "mdp_small_time_drift": "bench imports it for perfbench's tracer, which patches it",
    "log_inverse_weight": "the standalone weight the inline one is tested against",
}


def _definitions(tree):
    """(name, def node) of the module's functions and classes, and of the
    methods of its classes, dunders left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        yield item.name, item


def _public_definitions(tree):
    return [(name, node) for name, node in _definitions(tree) if not name.startswith("_")]


def _private_functions(tree):
    """(name, def node) of the module's private functions and methods."""
    return [(name, node) for name, node in _definitions(tree)
            if name.startswith("_") and isinstance(node, ast.FunctionDef)]


def _named(tree):
    """Counts of the names the tree reads or looks up as attributes; an
    import alone is no use."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def _package():
    """The parsed modules of the package, and the counts of the names they read."""
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
             if p.name != "__init__.py"]
    return trees, sum((_named(t) for t in trees), Counter())


def test_every_public_name_has_a_caller_in_the_package():
    trees, named = _package()
    unused = sorted(name for tree in trees for name, node in _public_definitions(tree)
                    if named[name] == _named(node)[name] and name not in ALLOWED)
    assert not unused, "public names that nothing in src/hestonis uses: " + ", ".join(unused)


def test_every_private_helper_has_a_caller_in_the_package():
    # a helper that only tests call is dead code kept alive by its tests
    trees, named = _package()
    unused = sorted(name for tree in trees for name, node in _private_functions(tree)
                    if named[name] == _named(node)[name])
    assert not unused, "private helpers that nothing in src/hestonis calls: " + ", ".join(unused)
