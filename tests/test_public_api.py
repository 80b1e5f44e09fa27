"""Every exported name, public method, unexported public function, private
function and private method does work for the library, its scripts or its
benchmark."""

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
    "v_dx": "acceptance criterion 09 checks it",
}


def _library_modules(tree):
    """Names a file binds by importing ramforge or one of its modules."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ramforge":
                    bound.add(alias.asname or "ramforge")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.split(".")[0] == "ramforge":
                bound.update(alias.asname or alias.name for alias in node.names)
    return bound


def _references(path):
    """(names, attributes, library attributes) a file reads, each outside
    the def or class that binds it; a library attribute is X.name with X
    bound by an import of ramforge or one of its modules."""
    tree = ast.parse(path.read_text())
    modules = _library_modules(tree)
    names, attrs, library_attrs = set(), set(), set()

    def walk(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        if isinstance(node, ast.Name) and node.id not in owners:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in owners:
            attrs.add(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                library_attrs.add(node.attr)
        for child in ast.iter_child_nodes(node):
            walk(child, owners)

    walk(tree, frozenset())
    return names, attrs, library_attrs


def _scan():
    """The union of _references over the library, scripts and benchmark."""
    files = [f for f in PACKAGE.glob("*.py") if f.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    return [set().union(*parts) for parts in zip(*map(_references, files))]


def _used_names():
    """Every name read, as a name or as any attribute."""
    names, attrs, _ = _scan()
    return names | attrs


def _used_exports():
    """Every name read, as a name or as an attribute of a library module;
    so a record field such as _Local.v_dx does not count for v_dx."""
    names, _, library_attrs = _scan()
    return names | library_attrs


def _public_methods():
    """(class, method) for each public method of a public library class."""
    for f in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(f.read_text())):
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                    yield node.name, item.name


def _unexported_functions():
    """(module, name) for each public module-level function of the library
    that ramforge.__all__ does not list."""
    exported = set(ramforge.__all__)
    for f in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(f.read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name[0] != "_":
                if node.name not in exported:
                    yield f.stem, node.name


def _private_functions():
    """(module or class, name) for each private module-level function and
    each private method of the library; dunder methods are not private."""
    for f in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(f.read_text()).body:
            if isinstance(node, ast.ClassDef):
                owner, defs = node.name, node.body
            else:
                owner, defs = f.stem, [node]
            for item in defs:
                name = item.name if isinstance(item, ast.FunctionDef) else ""
                if name.startswith("_") and not name.endswith("__"):
                    yield owner, name


def test_every_export_has_a_caller_outside_tests():
    # a name leaves TEST_ONLY once it gains a caller
    assert sorted(set(ramforge.__all__) - _used_exports()) == sorted(TEST_ONLY)


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


def test_every_unexported_function_has_a_caller_outside_tests():
    """A public function that ramforge.__all__ does not list, and that no
    library, script or benchmark file reads, by name as for the methods
    above, is left over or kept for its tests."""
    used = _used_names()
    unused = [f"{m}.{n}" for m, n in _unexported_functions() if n not in used]
    assert unused == []


def test_every_private_function_has_a_caller_outside_tests():
    """A private helper that no library, script or benchmark file reads
    outside its own def is left over from code that no longer calls it.
    By name, as for the public methods above."""
    used = _used_names()
    unused = [f"{o}.{n}" for o, n in _private_functions() if n not in used]
    assert unused == []
