"""Every exported name does work for the library, its scripts or its benchmark."""

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


def test_every_export_has_a_caller_outside_tests():
    files = [f for f in PACKAGE.glob("*.py") if f.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*(_references(f) for f in files))
    # a name leaves TEST_ONLY once it gains a caller
    assert sorted(set(ramforge.__all__) - used) == sorted(TEST_ONLY)
