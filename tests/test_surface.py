"""Every top-level function and class of the engine, and every method of its
classes, is used by the program.

A name counts as used when some module under `src/orespec/` or some script
under `scripts/` reads it outside its own definition; dunder methods are
called by Python itself and are exempt.  The package's
`__init__.py` does not count, and neither do the tests: a function that only
a test calls is test code and lives with the test.  The two exceptions are
independent oracles the tests compare engine routes against.
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).parents[1]
SRC = ROOT / "src" / "orespec"

# subset-scan lattice and lattice-quantified primality, kept for the tests
KEPT_ORACLES = ("all_ideal_masks_exhaustive", "is_prime_lattice_test")


def _program_files():
    return [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"] + \
        sorted((ROOT / "scripts").glob("*.py"))


def _reads(node) -> Counter:
    """How often each name or attribute name is read under node."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    )


def _definitions(tree):
    """The top-level functions and classes of a module, and the methods of its
    classes other than dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def test_every_engine_name_is_used_outside_its_definition():
    trees = {p: ast.parse(p.read_text()) for p in _program_files()}
    everywhere = sum((_reads(t) for t in trees.values()), Counter())
    unused = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for node in _definitions(tree):
            if node.name in KEPT_ORACLES:
                continue
            # the reads outside a definition are all reads less its own
            if everywhere[node.name] == _reads(node)[node.name]:
                unused.append(f"{path.name}:{node.name}")
    assert unused == []


def test_the_package_root_re_exports_nothing():
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert not [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))]
