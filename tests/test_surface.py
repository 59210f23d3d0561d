"""Every top-level function and class of the engine is used by the program.

A name counts as used when some module under `src/orespec/` or some script
under `scripts/` reads it outside its own definition.  The package's
`__init__.py` does not count, and neither do the tests: a function that only
a test calls is test code and lives with the test.  The two exceptions are
independent oracles the tests compare engine routes against.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).parents[1]
SRC = ROOT / "src" / "orespec"

# subset-scan lattice and lattice-quantified primality, kept for the tests
KEPT_ORACLES = ("all_ideal_masks_exhaustive", "is_prime_lattice_test")


def _program_files():
    return [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"] + \
        sorted((ROOT / "scripts").glob("*.py"))


def _reads(node, skip):
    """Names and attribute names read under node, except inside skip."""
    if node is skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, skip)


def test_every_engine_name_is_used_outside_its_definition():
    trees = {p: ast.parse(p.read_text()) for p in _program_files()}
    unused = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in KEPT_ORACLES:
                continue
            if not any(node.name in set(_reads(t, node)) for t in trees.values()):
                unused.append(f"{path.name}:{node.name}")
    assert unused == []


def test_the_package_root_re_exports_nothing():
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert not [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))]
