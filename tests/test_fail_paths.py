"""Every check can fail.

Each case below makes one engine function lie and runs the suite on a few
small instances.  Every check it names must then report a counterexample
with one of its own clauses, not an engine error, so no claim passes by
construction.  Together the cases name all registered checks.  A lie patches
a primitive that the evaluators read, never an evaluator that compares
routes, so a case shows that the routes are computed, not only read.
"""

import ast
import contextlib
import dataclasses
import pathlib
import re

import pytest

from orespec import centre, checks, finring, harness, ideals, localization
from orespec import monomial as mono
from orespec.checks import COVERAGE
from orespec.dsl import parse_ring_expr
from orespec.finring import RingHom, content, make_quotient, make_zmod
from orespec.harness import CorpusConfig, Instance, render_machine, run_suite
from orespec.ideals import all_ideal_masks

CFG = CorpusConfig()
INSTANCES = (
    ("finite", "gf(2)"),
    ("finite", "zmod(4)"),
    ("finite", "zmod(6)"),
    ("finite", "tri(2, gf(2))"),
    ("monomial", "mono(vars=2, gens=[v1])"),
    ("monomial", "mono(vars=2, gens=[v1*v2])"),
    ("an", "an(n=1)"),
)


def _corpus():
    # fresh instances, so no ring memo keeps a value computed under a lie
    return [Instance(kind, text, parse_ring_expr(text)) for kind, text in INSTANCES]


def _negate(fn):
    return lambda *args: not fn(*args)


def _flip(field):
    def wrap(fn):
        def lying(*args):
            rep = fn(*args)
            return dataclasses.replace(rep, **{field: not getattr(rep, field)})
        return lying
    return wrap


def _on_rings(test, wrap):
    """Lie as wrap does on the rings that pass test, tell the truth elsewhere."""
    return lambda fn: lambda r, *args: (wrap(fn) if test(r) else fn)(r, *args)


# The contents of the proper quotients of the finite instances, built outside
# a run.  A label would not do: within a run a quotient whose content an
# earlier table has is that table, label included.
QUOTIENTS = frozenset(
    content(make_quotient(r, m)[0])
    for r in (inst.build(CFG.order_cap) for inst in _corpus() if inst.kind == "finite")
    for m in all_ideal_masks(r)[1:-1]
)


def _quotient(r):
    return content(r) in QUOTIENTS


# The contents of the centres of the finite instances, likewise: within a run
# a centre is the run's table of its content, and the centre of a commutative
# ring is the ring itself.
CENTRES = frozenset(
    content(centre.centre_ring(inst.build(CFG.order_cap)).source)
    for inst in _corpus() if inst.kind == "finite"
)


def _centre(r):
    return content(r) in CENTRES


def _zero_at_top_degree(fn):
    def lying(a, m1, m2):
        prod = fn(a, m1, m2)
        return mono.an_zero(a) if prod.degree() == a.degree_bound else prod
    return lying


def _constant_hom(fn):
    # the product map sends everything to zero
    def lying(homs):
        h = fn(homs)
        return RingHom(h.source, h.target, (h.target.zero,) * h.source.order)
    return lying


def _square_of_a_prime_is_everything(fn):
    return lambda r, a, b: \
        r.full_mask() if a == b and ideals.prime_flags(r, a).is_prime else fn(r, a, b)


def _drop_a_left_multiple(fn):
    # R*x of the highest element id x loses its largest member
    def lying(r):
        right, left, kills, killed_by = fn(r)
        *rest, last = left
        return right, (*rest, last & ~(1 << (last.bit_length() - 1))), kills, killed_by
    return lying


# the clause of each check that reads a factor-ring isomorphism, which a
# false isomorphism test must make it report
FACTOR_CLAUSES = {
    "A10Sep23": "factor of the localization matches the localized factor",
    "c10Sep23": "factor of the localization matches the localized factor",
    "a20Sep23": "largest quotient ring matches the factor's",
    "19Sep23": "factor of the prime localization is the prime factor",
    "A2Oct23": "factor rings of the localization agree",
}


LIES = [
    pytest.param([(checks, "is_semiprime_ring", _negate)],
                 ("28Sep23", "A15Sep23", "a25Sep23", "aA10Sep23", "aC25Sep23", "b10Sep23"),
                 id="is_semiprime_ring"),
    pytest.param([(checks, "localize_left_ideal", _flip("two_sided"))],
                 ("19Sep23", "28Sep23", "B29Sep23", "aA11Sep23"),
                 id="two_sided"),
    pytest.param([(checks, "localize_left_ideal",
                   lambda fn: lambda loc, m: dataclasses.replace(fn(loc, m),
                                                                 mask=loc.target.full_mask()))],
                 ("A10Sep23", "Aa6Oct23", "a28Sep23", "a29Sep23", "aA10Sep23", "b28Sep23",
                  "c10Sep23"),
                 id="localized_ideal_is_everything"),
    pytest.param([(checks, "localize",
                   lambda fn: lambda r, s: dataclasses.replace(fn(r, s), target=make_zmod(4)))],
                 ("a10Sep23", "Xa10Sep23"),
                 id="localization_not_prime"),
    pytest.param([(localization, "_right_absorbed", _negate)],
                 ("A11Sep23",),
                 id="check_A11_equivalence"),
    pytest.param([(centre, "regular_mask", _on_rings(_centre, lambda fn: lambda r: r.full_mask()))],
                 ("aB25Sep23", "B25Sep23"),
                 id="rho_well_defined"),
    pytest.param([(centre, "min_prime_masks",
                   _on_rings(_centre, lambda fn: lambda r: fn(r) + (1 << r.zero,)))],
                 ("B25Sep23",),
                 id="rho_criteria_agree"),
    pytest.param([(ideals, "is_nilpotent_ideal", _negate)],
                 ("aA29Sep23",),
                 id="is_prime_rich"),
    pytest.param([(localization, "ore_flags", _on_rings(_quotient, _flip("left_den")))],
                 ("b14Oct23", "c14Oct23"),
                 id="epimorphic_den"),
    pytest.param([(centre, "localize_left_ideal",
                   lambda fn: lambda loc, m: dataclasses.replace(fn(loc, m), two_sided=False))],
                 ("A25Sep23",),
                 id="central_localize"),
    pytest.param([(centre, "centre_mask",
                   _on_rings(_quotient, lambda fn: lambda r: 1 << r.one))],
                 ("aC25Sep23",),
                 id="centre_mask"),
    pytest.param([(checks, "_products_reach", lambda fn: lambda r, ms: fn(r, ms) | {1 << r.zero}),
                  (checks, "is_irredundant_masks", _negate)],
                 ("A29Sep23", "b10Sep23"),
                 id="prime_products"),
    pytest.param([(checks, "prime_flags", _flip("is_prime"))],
                 ("a6Oct23",),
                 id="prime_flags"),
    pytest.param([(checks, "classify_set", _flip("left_den"))],
                 ("10Jan19", "A10Sep23", "A2Oct23", "a5Oct23", "c10Sep23"),
                 id="classify_set"),
    pytest.param([(checks, "units_mask", lambda fn: lambda r: 1 << r.one)],
                 ("4Jul10", "a20Sep23", "c10Sep23"),
                 id="units_mask"),
    pytest.param([(checks, "min_RS", lambda fn: lambda r, s: [])],
                 ("28Sep23", "29Sep23", "a28Sep23", "a29Sep23", "b28Sep23"),
                 id="min_RS"),
    pytest.param([(checks, "vanishing_masks",
                   lambda fn: lambda r, m: (r.full_mask(), fn(r, m)[1]))],
                 ("19Sep23",),
                 id="vanishing_masks"),
    pytest.param([(module, "products", _drop_a_left_multiple)
                  for module in (finring, ideals, localization)],
                 ("4Jul10", "A10Sep23", "A15Sep23", "A2Oct23", "b14Oct23", "c10Sep23",
                  "c14Oct23"),
                 id="products"),
    pytest.param([(checks, "_quotients_isomorphic", _negate)],
                 tuple(FACTOR_CLAUSES),
                 id="quotients_isomorphic"),
    pytest.param([(mono, "_min_covers_avoiding", lambda fn: lambda r, vset: fn(r, vset)[:-1])],
                 ("A10Sep23", "A2Oct23", "c10Sep23"),
                 id="localize_monomial"),
    pytest.param([(mono, "min_primes_monomial", lambda fn: lambda r: fn(r)[:-1])],
                 ("4Jul10", "A10Sep23", "A2Oct23", "c10Sep23"),
                 id="min_primes_monomial"),
    pytest.param([(mono, "an_multiply", _zero_at_top_degree)],
                 ("A2Oct23", "a5Oct23", "b29Sep23"),
                 id="pairing_algebra"),
]


# Lies that each reach one clause of an evaluator, which must then be the
# one clause reported: with that clause deleted, the check would pass or fail
# with another.
CLAUSE_LIES = [
    pytest.param([(centre, "ideal_closure_mask", lambda fn: lambda r, m, *side: r.full_mask())],
                 {"A25Sep23": "prime is hit iff the extension is proper"},
                 id="central_extension"),
    # central_localize reads the minimal primes of r alone
    pytest.param([(centre, "min_prime_masks", lambda fn: lambda r: ())],
                 {"A25Sep23": "a minimal prime lies in every hit fiber"},
                 id="hit_fiber_minimal"),
    pytest.param([(centre, "product_hom", _constant_hom)],
                 {"aC25Sep23": "embedding into the central factors"},
                 id="central_embedding"),
    pytest.param([(centre, "product_hom", lambda fn: lambda homs: fn(homs + homs[:1]))],
                 {"aC25Sep23": "commutative decomposition is exact"},
                 id="central_decomposition"),
    pytest.param([(ideals, "ideal_product_mask", _square_of_a_prime_is_everything)],
                 {"aA29Sep23": "minimal-prime product exponent within order"},
                 id="prime_exponent"),
]


def _lie(monkeypatch, lies):
    for module, name, wrap in lies:
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))


@pytest.mark.parametrize("lies, ids", LIES)
def test_a_lying_engine_fails_the_check(monkeypatch, lies, ids):
    _lie(monkeypatch, lies)
    for rep in run_suite(_corpus(), ids, CFG)[1:]:
        clauses = {cx.clause for cx in rep.counterexamples}
        assert clauses - {"engine-error"}, f"{rep.theorem_id} never failed: {clauses}"


def test_a_false_isomorphism_fails_each_factor_clause(monkeypatch):
    lies, ids = next(case.values for case in LIES if case.id == "quotients_isomorphic")
    _lie(monkeypatch, lies)
    reports = run_suite(_corpus(), ids, CFG)[1:]
    assert {rep.theorem_id: {cx.clause for cx in rep.counterexamples} for rep in reports} == \
        {cid: {clause} for cid, clause in FACTOR_CLAUSES.items()}


@pytest.mark.parametrize("lies, ids", [case for case in LIES
                                       if case.id in ("epimorphic_den", "centre_mask")])
def test_a_quotient_lie_reaches_the_same_rings_with_interning_off(monkeypatch, lies, ids):
    _lie(monkeypatch, lies)
    interned = render_machine(run_suite(_corpus(), ids, CFG))
    monkeypatch.setattr(harness, "interning", contextlib.nullcontext)
    assert render_machine(run_suite(_corpus(), ids, CFG)) == interned


@pytest.mark.parametrize("lies, clauses", CLAUSE_LIES)
def test_a_lying_primitive_fails_its_own_clause(monkeypatch, lies, clauses):
    _lie(monkeypatch, lies)
    reports = run_suite(_corpus(), tuple(clauses), CFG)[1:]
    assert {rep.theorem_id: {cx.clause for cx in rep.counterexamples} for rep in reports} == \
        {cid: {clause} for cid, clause in clauses.items()}


def test_a_counterexample_detail_names_no_other_instance(monkeypatch):
    # zmod(2) and gf(2) share one table within a run, labelled after the
    # first of them, so a detail that read the label would name it for both
    monkeypatch.setattr(checks, "is_irredundant_masks", _negate(checks.is_irredundant_masks))

    def details(texts):
        corpus = [Instance("finite", text, parse_ring_expr(text)) for text in texts]
        rep = run_suite(corpus, ("b10Sep23",), CFG)[1]
        return {cx.provenance: (cx.clause, cx.detail) for cx in rep.counterexamples}

    forward = details(["zmod(2)", "gf(2)"])
    assert len(forward) == 2 and forward == details(["gf(2)", "zmod(2)"])


def _reads_a_label(node) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == "label" for n in ast.walk(node))


# the modules whose SizeLimitError raises are order caps: a cap is met while
# an expression is built, before any check runs
ORDER_CAPS = ("finring.py", "dsl.py")


def _error_messages(tree, name):
    """The raise statements of module name's tree, and the messages exception
    classes pass to their base, less its order caps."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            call = node.exc
            if not (name in ORDER_CAPS and isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name) and call.func.id == "SizeLimitError"):
                yield node
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "__init__" and isinstance(node.func.value, ast.Call)):
            yield node  # super().__init__(message)


def test_no_counterexample_detail_reads_a_label():
    # the provenance names the instance; a label names a table's first
    # instance in the run.  A check's engine error becomes its detail too.
    src = pathlib.Path(__file__).parents[1] / "src" / "orespec"
    offenders = []
    for name in ("checks.py", "centre.py", "ideals.py", "localization.py", "monomial.py",
                 "finring.py"):
        tree = ast.parse((src / name).read_text())
        for node in ast.walk(tree):
            value = node.value if isinstance(node, (ast.Yield, ast.Return)) else None
            if (isinstance(value, ast.Tuple) and len(value.elts) == 2
                    and isinstance(value.elts[0], ast.Constant)
                    and isinstance(value.elts[0].value, str) and _reads_a_label(value.elts[1])):
                offenders.append(f"{name}:{node.lineno}")
        offenders += [f"{name}:{node.lineno}" for node in _error_messages(tree, name)
                      if _reads_a_label(node)]
    assert offenders == []


EVALUATORS = {
    "check_A11_equivalence", "check_epimorphic_den_b14", "check_epimorphic_den_c14",
    "central_localize", "check_pierce", "prime_rich_violation", "is_prime_rich", "rho",
    "an_verify", "an_localize_normal", "localize_monomial",
}


def test_no_lie_patches_an_evaluator():
    patched = {name for case in LIES + CLAUSE_LIES for _, name, _ in case.values[0]}
    assert not patched & EVALUATORS


def test_the_lies_reach_every_check():
    assert {cid for case in LIES for cid in case.values[1]} == set(COVERAGE)


def test_no_check_accumulates_failures():
    # a check returns its first broken clause, and an engine test such as
    # the axiom audit or RingHom.verify its first fault; none collects a list
    accumulator = re.compile(r"\b(failures|bad)\s*(=\s*\[|\.append\b)")
    src = pathlib.Path(__file__).parents[1] / "src" / "orespec"
    offenders = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if accumulator.search(line)
    ]
    assert offenders == []
