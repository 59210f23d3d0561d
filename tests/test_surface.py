"""Every top-level function and class of the engine, every method of its
classes and every field of its dataclasses is used by the program.

A name counts as used when some module under `src/orespec/` or some script
under `scripts/` reads it outside its own definition; dunder methods are
called by Python itself and are exempt.  A field counts as used when one of
those files reads it as an attribute.  The package's
`__init__.py` does not count, and neither do the tests: a function that only
a test calls is test code and lives with the test, as the oracles the tests
compare engine routes against do.
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).parents[1]
SRC = ROOT / "src" / "orespec"

# dataclasses.asdict writes every field of these into the machine report
REPORTED = ("CheckReport", "Counterexample")


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
            # the reads outside a definition are all reads less its own
            if everywhere[node.name] == _reads(node)[node.name]:
                unused.append(f"{path.name}:{node.name}")
    assert unused == []


def _is_dataclass(node) -> bool:
    return any((d.func if isinstance(d, ast.Call) else d).id == "dataclass"
               for d in node.decorator_list)


def test_every_dataclass_field_is_read_as_an_attribute():
    trees = {p: ast.parse(p.read_text()) for p in _program_files()}
    attributes = Counter(
        n.attr for t in trees.values() for n in ast.walk(t)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    )
    unused = [
        f"{path.name}:{node.name}.{field.target.id}"
        for path, tree in trees.items() if path.parent == SRC
        for node in tree.body
        if isinstance(node, ast.ClassDef) and _is_dataclass(node) and node.name not in REPORTED
        for field in node.body
        if isinstance(field, ast.AnnAssign) and not attributes[field.target.id]
    ]
    assert unused == []


def test_the_package_root_re_exports_nothing():
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert not [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))]


# checks.py functions with a `for _ in ...:` loop whose body yields: each case
# such a body yields is counted once per pass of a loop that does not read its
# variable.  The one known case counts each (set, prime) pair once per branch;
# replacing its loop with `if branches:` halves a6Oct23's case count, a
# change of the pinned report that empties this tuple
YIELDING_DISCARD_LOOPS = ("check_prime_localized_iff_ideal",)


def _yields(statements) -> bool:
    return any(isinstance(n, (ast.Yield, ast.YieldFrom))
               for stmt in statements for n in ast.walk(stmt))


def test_no_check_yields_from_a_loop_that_ignores_its_variable():
    tree = ast.parse((SRC / "checks.py").read_text())
    found = [
        fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for loop in ast.walk(fn)
        if isinstance(loop, ast.For) and isinstance(loop.target, ast.Name)
        and loop.target.id == "_" and _yields(loop.body)
    ]
    assert tuple(found) == YIELDING_DISCARD_LOOPS


def test_only_the_intern_helpers_read_the_intern_table():
    # a run shares its values through one keyed lookup, `interned`, in the
    # scope `interning` opens; no other function reads the table
    readers = {
        f"{path.name}:{node.name}"
        for path in _program_files() for node in ast.parse(path.read_text()).body
        if any(isinstance(n, ast.Name) and n.id == "_INTERN" and isinstance(n.ctx, ast.Load)
               or isinstance(n, ast.Attribute) and n.attr == "_INTERN"
               for n in ast.walk(node))
    }
    assert readers == {"finring.py:interning", "finring.py:interned"}


def _name(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_every_exception_class_is_caught_by_name_or_carries_data():
    # one class per exit code: a subclass earns its place when some handler
    # tells it apart from its base, or when it stores more than its message
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    classes = [n for t in trees for n in ast.walk(t) if isinstance(n, ast.ClassDef)]
    exceptions = {"Exception"}
    for _ in classes:  # a base may be defined after its subclass is met
        exceptions |= {c.name for c in classes if {_name(b) for b in c.bases} & exceptions}
    assert {"RingError", "ParseError"} <= exceptions
    caught = {
        _name(t)
        for tree in trees for h in ast.walk(tree) if isinstance(h, ast.ExceptHandler) and h.type
        for t in (h.type.elts if isinstance(h.type, ast.Tuple) else [h.type])
    }
    idle = [
        c.name for c in classes if c.name in exceptions and c.name not in caught
        and not any(isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                    and _name(n.value) == "self" for n in ast.walk(c))
    ]
    assert idle == []
