"""The finite engine's mask kernels against the element-by-element loops they
replace: the audit on additive generators against the scan of every triple,
primality from row masks against the elementwise definitions, semi-naive
closures against plain fixpoints, the per-set rows and the elements whose Sx
or xS meets a mask against the products they pack, composite maps against
elementwise composition, `bits` against the lowest-bit loop, the row-wise
homomorphism test against the pairwise one, memoised images and preimages
against the element loops, product and matrix tables against their cellwise
formulas, the levels of the shared submonoid search against the search cut
at that depth, and 19Sep23's difference criterion against the pairwise
differences.  The loops below are the oracles; each is written out
from the definition and shares no code with the kernel it checks.
"""

import gc
import itertools
import random
import weakref

import pytest

from orespec import checks
from orespec.centre import centre_ring
from orespec.finring import (
    RingHom,
    RingTable,
    additive_span,
    audit_ring,
    bits,
    canonical,
    interning,
    is_two_sided_ideal_mask,
    make_gf,
    make_matrix_ring,
    make_product,
    make_quotient,
    make_upper_triangular,
    make_zmod,
    mask_of,
    normal_mask,
)
from orespec.harness import CorpusConfig
from orespec.ideals import PrimeReport, all_ideal_masks, prime_flags
from orespec.localization import (
    EXHAUSTIVE_MULT_ORDER,
    _ore_witness,
    classify_set,
    closure_with_witness,
    meeting,
    mult_set_masks,
    set_rows,
    submonoid_levels,
)


# each law in three elements, as a test of (r, a, b, c) that is true when
# the law fails at (a, b, c)
TRIPLE_LAWS = {
    "addition not associative":
        lambda r, a, b, c: r.add[r.add[a][b]][c] != r.add[a][r.add[b][c]],
    "multiplication not associative":
        lambda r, a, b, c: r.mul[r.mul[a][b]][c] != r.mul[a][r.mul[b][c]],
    "left distributivity fails":
        lambda r, a, b, c: r.mul[a][r.add[b][c]] != r.add[r.mul[a][b]][r.mul[a][c]],
    "right distributivity fails":
        lambda r, a, b, c: r.mul[r.add[b][c]][a] != r.add[r.mul[b][a]][r.mul[c][a]],
}


def _audit_by_triples(r):
    """The first ring-axiom violation of a scan that reads every element,
    then every pair and then every triple of elements, or None."""
    n, add, mul = r.order, r.add, r.mul
    if n < 2:
        return "order < 2"
    if len(add) != n or len(mul) != n or any(len(row) != n for row in add + mul):
        return "table shape mismatch"
    for row in add + mul:
        for v in row:
            if not 0 <= v < n:
                return f"entry {v} out of range"
    z, e = r.zero, r.one
    if z == e:
        return "zero == one"
    for a in range(n):
        if add[a][z] != a or add[z][a] != a:
            return f"zero is not an additive identity at {a}"
        if mul[a][e] != a or mul[e][a] != a:
            return f"one is not a multiplicative identity at {a}"
        if all(add[a][b] != z for b in range(n)):
            return f"{a} has no additive inverse"
        for b in range(n):
            if add[a][b] != add[b][a]:
                return f"addition not commutative at ({a},{b})"
    for a, b, c in itertools.product(range(n), repeat=3):
        for law, fails in TRIPLE_LAWS.items():
            if fails(r, a, b, c):
                return f"{law} at ({a},{b},{c})"
    return None


def _audit_agrees_with_the_scan(r):
    """audit_ring(r), checked against the scan: it flags r exactly when the
    scan does; a law in one or two elements is the scan's first violation;
    and a law in three elements fails at the elements it names."""
    got, first = audit_ring(r), _audit_by_triples(r)
    assert (got is None) == (first is None), (r.label, got, first)
    if first is not None and first.count(",") < 2:
        assert got == first, (r.label, got, first)
    elif got is not None:
        law, at = got.split(" at ")
        a, b, c = map(int, at.strip("()").split(","))
        assert TRIPLE_LAWS[law](r, a, b, c), (r.label, got)
    return got


def _corrupted(r, cells):
    """r with each (table, a, b, value) of cells written into its tables."""
    tables = {"add": list(r.add), "mul": list(r.mul)}
    for name, a, b, v in cells:
        row = tables[name][a]
        tables[name][a] = row[:b] + (v,) + row[b + 1:]
    return RingTable(r.order, tuple(tables["add"]), tuple(tables["mul"]), r.zero, r.one, "corrupted")


def _single_cell_corruptions(r):
    for name, a, b in itertools.product(("add", "mul"), range(r.order), range(r.order)):
        old = getattr(r, name)[a][b]
        for v in range(r.order):
            if v != old:
                yield [(name, a, b, v)]


def test_the_audit_matches_the_triple_scan_on_every_one_cell_corruption(corpus_tables):
    tables = [r for _, r in corpus_tables if r.order <= 8]
    verdicts = set()
    count = triple_only = 0
    for r in tables:
        assert audit_ring(r) is _audit_by_triples(r) is None
        for cells in _single_cell_corruptions(r):
            got = _audit_agrees_with_the_scan(_corrupted(r, cells))
            verdicts.add(got is not None)
            count += 1
            # only a law in three elements breaks: the generator test decides
            triple_only += got is not None and got.count(",") == 2
    assert count == 7576
    assert verdicts == {True}  # one changed cell always breaks a law
    assert triple_only > 1000


def test_the_audit_matches_the_triple_scan_on_seeded_corruptions_up_to_order_16(corpus_tables):
    rng = random.Random(20231011)
    tables = [r for _, r in corpus_tables if r.order > 8]
    assert {r.order for r in tables} == set(range(9, 17))
    named, scanned = set(), set()  # the laws of the audit's details and of the scan's
    for r in tables:
        for size in (1, 2):
            for _ in range(12):
                cells = []
                for _ in range(size):
                    name = rng.choice(("add", "mul"))
                    a, b = rng.randrange(r.order), rng.randrange(r.order)
                    v = rng.choice([v for v in range(r.order) if v != getattr(r, name)[a][b]])
                    cells.append((name, a, b, v))
                broken = _corrupted(r, cells)
                named.add(_audit_agrees_with_the_scan(broken).split(" at ")[0])
                scanned.add(_audit_by_triples(broken).split(" at ")[0])
    # the laws in three elements are reached, not only the cheap ones: the
    # scan's first violations reach all four, and the audit names three of
    # them first (a corrupted product breaks a distributive law before the
    # audit reads associativity; ONE_LAW_BROKEN names that law on its own)
    assert set(TRIPLE_LAWS) <= scanned
    assert {"left distributivity fails", "right distributivity fails",
            "addition not associative"} <= named


Z2_ADD, Z2_MUL = ((0, 1), (1, 0)), ((0, 0), (0, 1))
# tables that are no ring of their order before any law is read, each with
# the fault the audit names first
NO_RING_OF_ITS_ORDER = [
    ("order < 2", RingTable(1, ((0,),), ((0,),), 0, 0, "one element")),
    ("table shape mismatch", RingTable(2, ((0, 1), (1,)), Z2_MUL, 0, 1, "short row")),
    ("entry 2 out of range", RingTable(2, ((0, 1), (1, 2)), Z2_MUL, 0, 1, "entry 2")),
    ("zero == one", RingTable(2, Z2_ADD, Z2_MUL, 0, 0, "zero is one")),
]


@pytest.mark.parametrize("fault, table", NO_RING_OF_ITS_ORDER,
                         ids=[table.label for _, table in NO_RING_OF_ITS_ORDER])
def test_a_table_that_is_no_ring_of_its_order_is_named_before_any_law(fault, table):
    assert _audit_agrees_with_the_scan(table) == fault


def _table(n, add, mul, zero, one):
    return RingTable(n, tuple(tuple(add(a, b) for b in range(n)) for a in range(n)),
                     tuple(tuple(mul(a, b) for b in range(n)) for a in range(n)), zero, one, "t")


def _compose(f, g):
    """Maps of {0, 1} to itself, the map x -> f(x) encoded as f(0) + 2 f(1):
    the map f after g."""
    return (f >> (g & 1) & 1) | (f >> (g >> 1) & 1) << 1


def _bits_product(a, b):
    """The algebra over GF(2) with basis 1, x, y (the id c0 + 2 c1 + 4 c2 is
    c0 + c1 x + c2 y) where xy = 1 and x^2 = y^2 = yx = 0: bilinear and
    unital, but (xy)x = x while x(yx) = 0."""
    a0, a1, a2 = a & 1, a >> 1 & 1, a >> 2
    b0, b1, b2 = b & 1, b >> 1 & 1, b >> 2
    return (a0 * b0 + a1 * b2) % 2 | (a0 * b1 + a1 * b0) % 2 << 1 | (a0 * b2 + a2 * b0) % 2 << 2


ONE_LAW_BROKEN = [
    # all maps of Z/2 to itself under pointwise + and composition: a near-ring,
    # where only a(b + c) = ab + ac can fail; and its opposite
    ("left distributivity fails", _table(4, lambda a, b: a ^ b, _compose, 0, 2)),
    ("right distributivity fails", _table(4, lambda a, b: a ^ b, lambda a, b: _compose(b, a), 0, 2)),
    ("multiplication not associative", _table(8, lambda a, b: a ^ b, _bits_product, 0, 1)),
]


@pytest.mark.parametrize("law, table", ONE_LAW_BROKEN, ids=[law for law, _ in ONE_LAW_BROKEN])
def test_each_law_in_three_elements_is_decided_on_its_own(law, table):
    got = _audit_agrees_with_the_scan(table)
    assert got is not None and got.split(" at ")[0] == law


def _prime_flags_by_elements(r, p):
    if p == r.full_mask():
        return PrimeReport(False, False, False)
    outside = [x for x in r.elements() if not p >> x & 1]

    def in_p(x):
        return p >> x & 1

    def arb_inside(a, b):
        return all(in_p(r.mul[r.mul[a][t]][b]) for t in r.elements())

    prime = not any(arb_inside(a, b) for a in outside for b in outside)
    completely = not any(in_p(r.mul[a][b]) for a in outside for b in outside)
    semi = not any(arb_inside(a, a) for a in outside)
    return PrimeReport(prime, completely, semi)


def test_prime_flags_match_the_elementwise_definitions(corpus_tables):
    seen = set()
    flags = set()
    for _, r in corpus_tables:
        rings = [r] + [make_quotient(r, m)[0] for m in all_ideal_masks(r)[1:-1]]
        for t in rings:
            if (t.add, t.mul) in seen:
                continue
            seen.add((t.add, t.mul))
            for m in all_ideal_masks(t):
                got = prime_flags(t, m)
                assert got == _prime_flags_by_elements(t, m), (t.label, m)
                flags.add(got)
    assert len(flags) >= 4  # prime and not, completely prime and not, semiprime and not


def _multiplicative_fixpoint(r, gens):
    mask = gens | 1 << r.one
    while True:
        new = mask | mask_of(r.mul[a][b] for a in bits(mask) for b in bits(mask))
        if new == mask:
            return mask
        mask = new


def _additive_fixpoint(r, gens):
    mask = gens | 1 << r.zero
    while True:
        new = mask | mask_of(r.add[a][b] for a in bits(mask) for b in bits(mask))
        if new == mask:
            return mask
        mask = new


def _seed_masks(r, rng):
    """Every singleton, every pair up to order 12, and 16 random masks."""
    out = [0] + [1 << x for x in r.elements()]
    if r.order <= 12:
        out += [1 << x | 1 << y for x, y in itertools.combinations(r.elements(), 2)]
    return out + [rng.getrandbits(r.order) for _ in range(16)]


def test_closures_match_the_plain_fixpoints(corpus_tables):
    rng = random.Random(7)
    witnesses = 0
    for _, r in corpus_tables:
        for gens in _seed_masks(r, rng):
            assert additive_span(r, gens) == _additive_fixpoint(r, gens), (r.label, gens)
            full = _multiplicative_fixpoint(r, gens)
            mask, witness = closure_with_witness(r, gens)
            if full >> r.zero & 1:
                a, b = witness
                assert r.mul[a][b] == r.zero and full >> a & 1 and full >> b & 1, (r.label, gens)
                assert mask & ~full == 0
                witnesses += 1
            else:
                assert (mask, witness) == (full, None), (r.label, gens)
    assert witnesses > 500


def test_extending_a_closed_set_gives_the_closure_of_the_union(corpus_tables):
    for _, r in corpus_tables:
        for closed in mult_set_masks(r)[:40]:
            for x in r.elements():
                if closed >> x & 1:
                    continue
                mask, witness = closure_with_witness(r, closed | 1 << x, closed)
                full = _multiplicative_fixpoint(r, closed | 1 << x)
                if full >> r.zero & 1:
                    assert witness is not None and r.mul[witness[0]][witness[1]] == r.zero
                else:
                    assert (mask, witness) == (full, None), (r.label, closed, x)


def test_the_two_sided_ideal_test_matches_the_definition(corpus_tables):
    def by_definition(r, m):
        members = list(bits(m))
        return bool(m >> r.zero & 1) and all(
            m >> r.add[a][b] & 1 and m >> r.mul[a][t] & 1 and m >> r.mul[t][a] & 1
            for a in members for b in members for t in r.elements())

    answers = set()
    for _, r in corpus_tables:
        if r.order > 8:
            continue
        for m in range(1 << r.order):
            got = is_two_sided_ideal_mask(r, m)
            assert got == by_definition(r, m), (r.label, m)
            answers.add(got)
    assert answers == {True, False}


def test_set_rows_pack_the_one_sided_products_of_each_set(corpus_tables):
    for _, r in corpus_tables:
        n = r.order
        for smask in mult_set_masks(r)[:60]:
            xs, sx = set_rows(r, smask)
            for x in r.elements():
                slot = (n + 1) * x
                assert xs >> slot & (1 << n + 1) - 1 == mask_of(r.mul[x][s] for s in bits(smask))
                assert sx >> slot & (1 << n + 1) - 1 == mask_of(r.mul[s][x] for s in bits(smask))


def _ore_witness_by_elements(r, smask, left):
    members = list(bits(smask))
    for x in r.elements():
        near = {r.mul[t][x] if left else r.mul[x][t] for t in members}
        for s in members:
            multiples = {r.mul[t][s] if left else r.mul[s][t] for t in r.elements()}
            if not near & multiples:
                return x, s
    return None


def _meeting_by_elements(r, smask, targets, left):
    """For each target, the x with some sx (left) or xs (right) in it."""
    near = [{r.mul[s][x] if left else r.mul[x][s] for s in bits(smask)} for x in r.elements()]
    return [mask_of(x for x in r.elements() if any(target >> y & 1 for y in near[x]))
            for target in targets]


@pytest.mark.parametrize("left", [True, False], ids=["left", "right"])
def test_the_ore_witness_is_the_first_of_the_elementwise_scan(corpus_tables, left):
    outcomes = set()
    for _, r in corpus_tables:
        for smask in mult_set_masks(r):
            got = _ore_witness(r, smask, left)
            assert got == _ore_witness_by_elements(r, smask, left), (r.label, smask)
            outcomes.add(got is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("left", [True, False], ids=["left", "right"])
def test_meeting_matches_the_elementwise_scan(corpus_tables, left):
    """Every enumerated set of every table, against zero, every ideal and the
    normal elements."""
    sizes = set()
    for _, r in corpus_tables:
        targets = (1 << r.zero, *all_ideal_masks(r), normal_mask(r))
        for smask in mult_set_masks(r):
            got = [meeting(r, smask, t, left) for t in targets]
            assert got == _meeting_by_elements(r, smask, targets, left), (r.label, smask)
            sizes.update(m.bit_count() for m in got)
    assert {1, 16} <= sizes and len(sizes) > 8  # 0 is in every target


def test_then_is_the_elementwise_composite_of_factor_maps(corpus_tables):
    """R -> R/I -> (R/I)/(J/I) for ideals I within J: the composite maps x to
    g(f(x)), is a homomorphism, and its kernel is J."""
    composites = 0
    for _, r in corpus_tables:
        ideals = all_ideal_masks(r)[:-1]
        for i, j in itertools.product(ideals, repeat=2):
            if i & ~j:
                continue
            f = make_quotient(r, i)[1]
            g = make_quotient(f.target, f.push_mask(j))[1]
            h = f.then(g)
            assert (h.source, h.target) == (r, g.target)
            assert h.map == tuple(g(f(x)) for x in r.elements())
            assert h.verify() is None and h.kernel_mask() == j, (r.label, i, j)
            composites += 1
    assert composites > 300


def _bits_by_lowest_bit(mask):
    """The set bits of a mask, ascending, one lowest bit at a time."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def test_bits_is_the_ascending_tuple_of_set_bits():
    for mask in range(1 << 16):  # the one- and two-table ranges, 0 included
        got = bits(mask)
        assert type(got) is tuple and list(got) == _bits_by_lowest_bit(mask), mask
    rng = random.Random(70)
    for width in range(17, 71):  # the byte loop
        for mask in (rng.getrandbits(width) | 1 << width - 1, 1 << width - 1, (1 << width) - 1):
            got = bits(mask)
            assert type(got) is tuple and list(got) == _bits_by_lowest_bit(mask), mask


def _verify_by_pairs(h):
    """The homomorphism laws checked pair by pair, in the order of verify."""
    s, t, m = h.source, h.target, h.map
    bad = []
    if m[s.zero] != t.zero:
        bad.append("map(0) != 0")
    if m[s.one] != t.one:
        bad.append("map(1) != 1")
    for a in range(s.order):
        for b in range(s.order):
            if m[s.add[a][b]] != t.add[m[a]][m[b]]:
                bad.append(f"additivity fails at ({a},{b})")
            if m[s.mul[a][b]] != t.mul[m[a]][m[b]]:
                bad.append(f"multiplicativity fails at ({a},{b})")
    return bad


def _factor_maps(corpus_tables, max_order=16):
    for _, r in corpus_tables:
        if r.order <= max_order:
            for i in all_ideal_masks(r)[:-1]:
                yield make_quotient(r, i)[1]


def test_verify_by_rows_names_the_faults_of_the_pairwise_loop(corpus_tables):
    faults = 0
    for f in _factor_maps(corpus_tables):
        assert f.verify() is None and _verify_by_pairs(f) == [], f.source.label
    for f in _factor_maps(corpus_tables, max_order=8):
        s, t = f.source, f.target
        # every one-entry change of the map
        for x in range(s.order):
            for y in range(t.order):
                if y != f.map[x]:
                    g = RingHom(s, t, f.map[:x] + (y,) + f.map[x + 1:])
                    assert g.verify() == next(iter(_verify_by_pairs(g)), None), (s.label, x, y)
                    faults += g.verify() is not None
        # every one-cell change of the source's tables
        for cells in _single_cell_corruptions(s) if s.order <= 6 else ():
            g = RingHom(_corrupted(s, cells), t, f.map)
            assert g.verify() == next(iter(_verify_by_pairs(g)), None), (s.label, cells)
            faults += g.verify() is not None
    assert faults > 1000


def test_memoised_images_and_preimages_match_the_loops(corpus_tables):
    rng = random.Random(198)
    for f in _factor_maps(corpus_tables):
        s, t = f.source, f.target
        for mask in [0, s.full_mask()] + [rng.getrandbits(s.order) for _ in range(8)]:
            pushed = mask_of(f(x) for x in range(s.order) if mask >> x & 1)
            assert f.push_mask(mask) == f.push_mask(mask) == pushed
        for mask in [0, t.full_mask()] + [rng.getrandbits(t.order) for _ in range(8)]:
            pulled = mask_of(x for x in range(s.order) if mask >> f(x) & 1)
            assert f.preimage_mask(mask) == f.preimage_mask(mask) == pulled


def test_product_and_matrix_tables_match_their_cellwise_formulas():
    a, b = make_zmod(3), make_upper_triangular(2, make_gf(2))
    p = make_product(a, b, cap=None)
    for x, y, u, v in itertools.product(range(3), range(8), range(3), range(8)):
        row, col = x * 8 + y, u * 8 + v
        assert p.add[row][col] == a.add[x][u] * 8 + b.add[y][v]
        assert p.mul[row][col] == a.mul[x][u] * 8 + b.mul[y][v]
    for k, base, triangular in ((2, make_gf(2), False), (2, make_zmod(3), True),
                                (3, make_gf(2), True)):
        build = make_upper_triangular if triangular else make_matrix_ring
        r = build(k, base, cap=None)
        slots = [(i, j) for i in range(k) for j in range(i if triangular else 0, k)]
        q = base.order

        def matrix(x):  # the element's entries, digit s the s-th slot, base q
            entries = [[base.zero] * k for _ in range(k)]
            for s, (i, j) in enumerate(slots):
                entries[i][j] = x // q ** s % q
            return entries

        def element(entries):
            return sum(entries[i][j] * q ** s for s, (i, j) in enumerate(slots))

        for x, y in itertools.product(range(r.order), repeat=2):
            mx, my = matrix(x), matrix(y)
            total = [[base.add[mx[i][j]][my[i][j]] for j in range(k)] for i in range(k)]
            prod = [[base.zero] * k for _ in range(k)]
            for i, j, t in itertools.product(range(k), repeat=3):
                prod[i][j] = base.add[prod[i][j]][base.mul[mx[i][t]][my[t][j]]]
            assert r.add[x][y] == element(total) and r.mul[x][y] == element(prod), (r.label, x, y)


def test_the_search_levels_give_the_closures_of_at_most_d_elements(corpus_tables):
    for _, r in corpus_tables:
        nonzero = r.full_mask() & ~(1 << r.zero)
        normal = normal_mask(r) & ~(1 << r.zero)
        exhaustive = r.order <= EXHAUSTIVE_MULT_ORDER
        levels = submonoid_levels(r, nonzero, None if exhaustive else 2)
        for d in (0, 1, 2, 3) if exhaustive else (0, 1, 2):
            within = canonical(m for m, level in levels.items() if level <= d)
            assert within == canonical(submonoid_levels(r, nonzero, d)), (r.label, d)
        assert checks._normal_set_masks(r) == canonical(submonoid_levels(r, normal, 2)), r.label


def test_the_filtered_denominator_families_keep_the_order_of_dens(corpus_tables):
    cfg = CorpusConfig()
    for _, r in corpus_tables:
        dens = checks._dens(r, cfg)
        assert checks._dens(r, cfg) is dens  # built once per ring
        groups = checks._dens_by_ass(r, cfg)
        for ass, group in groups.items():
            assert group == tuple(s for s in dens if classify_set(s).ass_l_mask == ass)
        assert sum(map(len, groups.values())) == len(dens)
        assert checks._zero_dens(r, cfg) == \
            tuple(s for s in dens if classify_set(s).ass_l_mask == 1 << r.zero)
        assert checks._two_sided_dens(r, cfg) == \
            tuple(s for s in dens if classify_set(s).right_den)


def test_a_scope_empties_every_memo_table_and_frees_its_centre_tables():
    gc.disable()  # what the scope frees must not wait for the cyclic collector
    try:
        with interning():
            # a noncommutative ring, whose centre of order 4 has a proper
            # nonzero ideal
            r = make_product(make_zmod(2), make_upper_triangular(2, make_gf(2)))
            centre = centre_ring(r).source
            ideal = all_ideal_masks(centre)[1]
            make_quotient(centre, ideal)  # a map back to centre
            # two levels: a table per function of more arguments, keyed by the
            # argument; a function of the table alone holds its value
            assert ideal in centre.memo[make_quotient.__wrapped__]
            assert r.memo[centre_ring.__wrapped__].source is centre
            freed = weakref.ref(centre)
            del centre
        assert not r.memo
        assert freed() is None
    finally:
        gc.enable()


def _difference_criterion_by_pairs(r, members, alz):
    """Every s'x - x's with s, s' among members, read pair by pair."""
    neg = [row.index(r.zero) for row in r.add]
    return all(
        any(alz >> r.add[r.mul[sp][x]][neg[r.mul[xp][s]]] & 1
            for sp in members for xp in range(r.order))
        for s in members for x in range(r.order)
    )


def test_the_difference_criterion_matches_the_pairwise_differences(corpus_tables):
    outcomes = set()
    for _, r in corpus_tables:
        if r.order > 8:
            continue
        for smask in mult_set_masks(r):
            members = bits(smask)
            for alz in (1 << r.zero, *all_ideal_masks(r)[1:-1]):
                got = checks._difference_criterion(r, members, alz)
                assert got == _difference_criterion_by_pairs(r, members, alz), (r.label, smask, alz)
                outcomes.add(got)
    assert outcomes == {True, False}
