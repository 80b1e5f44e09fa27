"""Every exported name and public method does work for the library, its
scripts or its benchmark."""

import ast
import pathlib

import ramforge

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = pathlib.Path(ramforge.__file__).parent

# exported names whose only callers so far are tests, each with its reason
TEST_ONLY = {
    "conorm": "ROADMAP item 4 (the chain route to the different) calls it",
    "differential_divisor": "ROADMAP item 4 (the local route) calls it",
    "prescribed_element": "acceptance criterion 10 checks it",
    "pth_power_test": "acceptance criterion 07 checks it",
}


def _references(path):
    """Names a file reads, outside the def or class that binds each name."""
    found = set()

    def walk(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        if isinstance(node, ast.Name) and node.id not in owners:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in owners:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            walk(child, owners)

    walk(ast.parse(path.read_text()), frozenset())
    return found


def _used_names():
    files = [f for f in PACKAGE.glob("*.py") if f.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    return set().union(*(_references(f) for f in files))


def _public_methods():
    """(class, method) for each public method of a public library class."""
    for f in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(f.read_text())):
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                    yield node.name, item.name


def test_every_export_has_a_caller_outside_tests():
    # a name leaves TEST_ONLY once it gains a caller
    assert sorted(set(ramforge.__all__) - _used_names()) == sorted(TEST_ONLY)


def test_every_public_method_has_a_caller_outside_tests():
    """By name: a method counts as used when any library, script or
    benchmark file reads an attribute of that name outside its own def.

    So a method that shares its name with a used one passes unseen: the
    scan could not flag LaurentSeries.coefficient or LaurentSeries.is_zero
    (since removed), because Polynomial.coefficient, Divisor.coefficient
    and the other is_zero methods have callers.  Such methods are found
    by grepping for their callers.
    """
    used = _used_names()
    unused = [f"{c}.{m}" for c, m in _public_methods() if m not in used]
    assert unused == []
