"""Metamorphic relations: transformations of a ring whose effect on the
engine's answers is known without knowing the answers.

(a) Renaming the elements of a finite ring changes no verdict: every check
    reports the same status, case count and clause on the relabelled table.
(b) Permuting the variables of a monomial quotient changes no verdict.
(c) Swapping the factors of a product changes no verdict.
(d) The opposite ring, with the multiplication table transposed, swaps the
    left and right outputs of the Ore classification.
(f) A direct product A x B, with (x, y) encoded as x * |B| + y, has the
    ideals I x J, the primes and minimal primes P x B and A x Q, and units,
    centre, normal and regular elements that are products of the factors';
    every S1 x S2 is Ore or a denominator set on a side exactly when both
    factors are, with ass_l and ass_r the products of the factors', and
    the localization at a left denominator set S1 x S2 is isomorphic to
    S1^-1 A x S2^-1 B.
(e) Interning tables within a run, and so running the checks once per
    table, changes no byte of the machine report, serial or at jobs=2.
(g) Running the checks once per isomorphism class of tables, and copying a
    row that passed to the other tables of the class, changes no byte of the
    machine report, serial or at jobs=2.
(i) A finite ring is Artinian, so its Jacobson radical
    J = {x : 1 - yx is a unit for every y} is its prime radical, R/J is
    semisimple, and the minimal primes of R are the preimages of the
    annihilators {x : ex = 0} of the primitive central idempotents e of R/J
    (Lam, GTM 131, sections 4 and 10).  This route reads the unit mask, the
    tables and one quotient, never the ideal lattice.

(a) and (d) run over every distinct finite table of the default corpus with
a fixed seed, so a failure is reproducible; (b), (c) and (f) over every
monomial and every product instance of it; (i) over the first table of each
isomorphism class.  (f) reads the factors' answers,
not the product's other routes, so a defect that treats both factors alike
still shows.
"""

import contextlib
import itertools
import random

from orespec import harness
from orespec.checks import COVERAGE
from orespec.dsl import RingExpr, evaluate
from orespec.finring import (
    RingTable,
    audit_ring,
    bits,
    centre_mask,
    content,
    isomorphism,
    make_product,
    make_quotient,
    normal_mask,
    regular_mask,
    units_mask,
)
from orespec.harness import (
    CorpusConfig,
    Instance,
    _run_checks_on_instance,
    build_corpus,
    class_heads,
    render_machine,
    run_suite,
)
from orespec.ideals import all_ideal_masks, min_prime_masks, prime_masks, prime_radical_mask
from orespec.localization import MultSet, localize, mult_set_masks, ore_flags

CFG = CorpusConfig()
SEED = 1


def _relabel(r: RingTable, perm: list[int]) -> RingTable:
    """The same ring with element x renamed perm[x]."""
    inv = sorted(r.elements(), key=perm.__getitem__)  # inv[perm[x]] == x
    add = tuple(tuple(perm[r.add[inv[a]][inv[b]]] for b in r.elements()) for a in r.elements())
    mul = tuple(tuple(perm[r.mul[inv[a]][inv[b]]] for b in r.elements()) for a in r.elements())
    names = tuple(r.name(inv[a]) for a in r.elements())
    return RingTable(r.order, add, mul, perm[r.zero], perm[r.one], r.label, names)


def _opposite(r: RingTable) -> RingTable:
    mul = tuple(tuple(r.mul[b][a] for b in r.elements()) for a in r.elements())
    return RingTable(r.order, r.add, mul, r.zero, r.one, f"op({r.label})", r.names)


def _verdicts(inst: Instance, ring):
    """(check, status, cases, clause) of every check on ring; the detail names
    element ids, so it is left out."""
    run = _run_checks_on_instance(Instance(inst.kind, inst.provenance, inst.expr, ring),
                                  COVERAGE, CFG)
    return [(cid, o.status, o.cases, o.clause) for cid, o, _ in run]


def test_the_corpus_has_43_distinct_finite_tables(corpus_tables):
    assert len(corpus_tables) == 43


def test_relabelling_elements_changes_no_verdict(corpus_tables):
    rng = random.Random(SEED)
    moved_zero = 0
    for inst, r in corpus_tables:
        perm = list(r.elements())
        rng.shuffle(perm)
        twin = _relabel(r, perm)
        assert audit_ring(twin) == [], r.label
        moved_zero += perm[r.zero] != r.zero
        assert _verdicts(inst, twin) == _verdicts(inst, r), r.label
    assert moved_zero >= 30  # the relation reaches tables whose zero is not id 0


def test_a_table_is_isomorphic_to_its_relabelled_twin(corpus_tables):
    rng = random.Random(SEED)
    for _, r in corpus_tables:
        perm = list(r.elements())
        rng.shuffle(perm)
        twin = _relabel(r, perm)
        hom = isomorphism(r, twin)
        assert hom is not None and hom.is_bijective() and hom.verify() == [], r.label


def test_permuting_monomial_variables_changes_no_verdict():
    runs = 0
    for inst in build_corpus(CFG):
        if inst.kind != "monomial":
            continue
        e = inst.expr
        expected = _verdicts(inst, inst.build(CFG.order_cap))
        for perm in itertools.permutations(range(e.ints[0])):
            gens = tuple(tuple(g[p] for p in perm) for g in e.gens)
            twin = evaluate(RingExpr("mono", e.ints, (), gens), CFG.order_cap)
            assert _verdicts(inst, twin) == expected, (inst.provenance, perm)
            runs += 1
    assert runs == 126  # 26 instances in up to 3 variables


def test_swapping_the_factors_of_a_product_changes_no_verdict():
    pairs = 0
    for inst in build_corpus(CFG):
        e = inst.expr
        if e.kind != "prod" or e.subs[0] == e.subs[1]:
            continue
        twin = evaluate(RingExpr("prod", (), e.subs[::-1]), CFG.order_cap)
        assert _verdicts(inst, twin) == _verdicts(inst, inst.build(CFG.order_cap)), \
            inst.provenance
        pairs += 1
    assert pairs == 27


def _product_mask(ma: int, mb: int, nb: int) -> int:
    """{(x, y) : x in ma, y in mb}, with (x, y) encoded as x * nb + y."""
    return sum(1 << (x * nb + y) for x in bits(ma) for y in bits(mb))


def test_a_product_has_the_ideals_primes_and_ore_sets_of_its_factors():
    products = sets = localized = 0
    one_sided = set()  # both verdicts must occur, or the conjunction shows nothing
    for inst in build_corpus(CFG):
        if inst.expr.kind != "prod":
            continue
        a, b = (evaluate(sub, CFG.order_cap) for sub in inst.expr.subs)
        p = inst.build(CFG.order_cap)
        where = inst.provenance

        def times(ma, mb):
            return _product_mask(ma, mb, b.order)

        def family(fa, fb):
            return {times(i, j) for i in fa for j in fb}

        assert set(all_ideal_masks(p)) == family(all_ideal_masks(a), all_ideal_masks(b)), where
        for primes in (prime_masks, min_prime_masks):
            assert set(primes(p)) == family(primes(a), [b.full_mask()]) | \
                family([a.full_mask()], primes(b)), (where, primes.__name__)
        for elements in (units_mask, centre_mask, normal_mask, regular_mask):
            assert elements(p) == times(elements(a), elements(b)), (where, elements.__name__)
        for s1 in mult_set_masks(a, CFG.exhaustive_mult_order):
            f1 = ore_flags(a, s1)
            for s2 in mult_set_masks(b, CFG.exhaustive_mult_order):
                f2 = ore_flags(b, s2)
                got = ore_flags(p, times(s1, s2))
                assert (got.left_ore, got.right_ore, got.left_den, got.right_den,
                        got.ass_l_mask, got.ass_r_mask) == (
                    f1.left_ore and f2.left_ore, f1.right_ore and f2.right_ore,
                    f1.left_den and f2.left_den, f1.right_den and f2.right_den,
                    times(f1.ass_l_mask, f2.ass_l_mask), times(f1.ass_r_mask, f2.ass_r_mask),
                ), (where, s1, s2)
                one_sided.add((got.left_den, got.right_den))
                if got.left_den:  # S^-1 (A x B) is S1^-1 A x S2^-1 B
                    twin = make_product(*(localize(r, MultSet(r, m)).target
                                          for r, m in ((a, s1), (b, s2))), cap=None)
                    target = localize(p, MultSet(p, times(s1, s2))).target
                    assert isomorphism(target, twin) is not None, (where, s1, s2)
                    localized += 1
                sets += 1
        products += 1
    assert (products, sets, localized) == (33, 129, 121)
    assert {(True, False), (True, True)} <= one_sided


def test_the_opposite_ring_swaps_left_and_right_ore_flags(corpus_tables):
    asymmetric = 0
    for _, r in corpus_tables:
        op = _opposite(r)
        assert mult_set_masks(op) == mult_set_masks(r), r.label
        for m in mult_set_masks(r):
            a, b = ore_flags(r, m), ore_flags(op, m)
            assert (a.left_ore, a.right_ore, a.left_den, a.right_den, a.ass_l_mask, a.ass_r_mask) \
                == (b.right_ore, b.left_ore, b.right_den, b.left_den, b.ass_r_mask, b.ass_l_mask), \
                (r.label, m)
            asymmetric += (a.left_ore, a.left_den, a.ass_l_mask) != (a.right_ore, a.right_den,
                                                                   a.ass_r_mask)
    assert asymmetric > 0  # the swap is not vacuous on the corpus


def test_interning_changes_no_byte_of_the_report(monkeypatch):
    # with interning off every instance is a table, and a task, of its own
    cfg = CorpusConfig(order_cap=8)

    def reports():
        return [
            render_machine(run_suite([inst for inst in build_corpus(cfg) if inst.kind == "finite"],
                                     cfg=cfg, jobs=jobs))
            for jobs in (1, 2)
        ]

    interned = reports()
    monkeypatch.setattr(harness, "interning", contextlib.nullcontext)
    assert reports() == interned


def test_class_evaluation_changes_no_byte_of_the_report(monkeypatch):
    # with the isomorphism search off every table is a class, and a task, of its own
    cfg = CorpusConfig(order_cap=8)

    def finite():
        return [inst for inst in build_corpus(cfg) if inst.kind == "finite"]

    def reports():
        return [render_machine(run_suite(finite(), cfg=cfg, jobs=jobs)) for jobs in (1, 2)]

    calls = []
    run_checks = harness._run_checks_on_instance
    monkeypatch.setattr(harness, "_run_checks_on_instance",
                        lambda inst, ids, cfg: calls.append(inst) or run_checks(inst, ids, cfg))
    serial = render_machine(run_suite(finite(), cfg=cfg, jobs=1))
    # counted before the jobs=2 run, in which this process runs a share too:
    # some class has more than one table, so the relation is not vacuous
    assert len(calls) < len({content(inst.build(cfg.order_cap)) for inst in finite()})
    by_class = [serial, render_machine(run_suite(finite(), cfg=cfg, jobs=2))]
    monkeypatch.setattr(harness, "isomorphism", lambda a, b: None)
    assert reports() == by_class


def _jacobson_radical_mask(r: RingTable) -> int:
    """{x : 1 - yx is a unit for every y}."""
    units = units_mask(r)
    one_minus = [0] * r.order  # one_minus[t] + t == 1
    for a in r.elements():
        one_minus[r.add[a].index(r.one)] = a
    return sum(1 << x for x in r.elements()
               if all(units >> one_minus[r.mul[y][x]] & 1 for y in r.elements()))


def _primitive_central_idempotents(q: RingTable) -> list[int]:
    central = [e for e in bits(centre_mask(q)) if q.mul[e][e] == e and e != q.zero]
    # f <= e when fe = f; a primitive one has no central idempotent below it
    return [e for e in central if not any(f != e and q.mul[f][e] == f for f in central)]


def test_the_idempotent_route_gives_the_prime_radical_and_the_minimal_primes(corpus_tables):
    tables = [r for _, r in corpus_tables]
    heads = [r for i, (r, k) in enumerate(zip(tables, class_heads(tables))) if i == k]
    split = 0
    for r in heads:
        jac = _jacobson_radical_mask(r)
        assert jac == prime_radical_mask(r), r.label
        q, hom = make_quotient(r, jac)
        idempotents = _primitive_central_idempotents(q)
        preimages = {hom.preimage_mask(sum(1 << x for x in q.elements() if q.mul[e][x] == q.zero))
                     for e in idempotents}
        assert len(preimages) == len(idempotents)
        assert preimages == set(min_prime_masks(r)), r.label
        split += len(idempotents) > 1
    assert len(heads) == 30
    assert split > 0  # some head has several minimal primes, so e is not always 1
