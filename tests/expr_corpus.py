"""A fixed fifty-expression corpus for parse/render round-trip checks,
seven non-commutative tables beyond the default order cap, seeded draws of
off-corpus monomial quotients, and seeded character edits of the fixed
corpus."""

import random

from orespec.monomial import render_monomial

FIXED_EXPRESSIONS = [
    "zmod(2)", "zmod(3)", "zmod(4)", "zmod(5)", "zmod(6)", "zmod(7)", "zmod(8)",
    "zmod(9)", "zmod(10)", "zmod(11)", "zmod(12)", "zmod(13)", "zmod(14)",
    "zmod(15)", "zmod(16)", "gf(2)", "gf(3)", "gf(4)",
    "mat(2, gf(2))", "mat(1, zmod(6))", "tri(2, gf(2))", "tri(2, gf(3))",
    "prod(zmod(2), zmod(3))", "prod(gf(2), gf(4))", "prod(zmod(4), zmod(4))",
    "prod(zmod(2), prod(zmod(2), zmod(2)))",
    "quot(zmod(12), gens=[6])", "quot(zmod(12), gens=[4])", "quot(zmod(8), gens=[2])",
    "quot(tri(2, gf(2)), gens=[2])", "quot(prod(zmod(2), zmod(6)), gens=[3])",
    "quot(zmod(16), gens=[8])", "quot(mat(2, gf(2)), gens=[0])",
    "mono(vars=1, gens=[])", "mono(vars=1, gens=[v1])", "mono(vars=2, gens=[v1*v2])",
    "mono(vars=2, gens=[v1, v2])", "mono(vars=2, gens=[v1^2*v2])",
    "mono(vars=3, gens=[v1*v2, v2*v3])", "mono(vars=3, gens=[v1*v2*v3])",
    "mono(vars=3, gens=[v1, v2, v3])", "mono(vars=3, gens=[v2^3])",
    "mono(vars=4, gens=[v1*v3, v2*v4])",
    "an(n=0)", "an(n=1)", "an(n=2)", "an(n=3)",
    "quot(prod(zmod(3), zmod(4)), gens=[6])",
    "prod(tri(2, gf(2)), zmod(2))",
    "mono(vars=2, gens=[v1^3, v1*v2^2])",
]

# non-commutative tables of order 27-64, built from the existing constructors:
# most default class heads are commutative, and several claims meet at most
# one non-commutative head at the default cap
NONCOMMUTATIVE_EXPRESSIONS = [
    "tri(2, gf(3))", "prod(zmod(2), mat(2, gf(2)))",
    "prod(gf(2), prod(gf(2), tri(2, gf(2))))", "tri(3, gf(2))", "tri(2, zmod(4))",
    "tri(2, gf(4))", "prod(tri(2, gf(2)), tri(2, gf(2)))",
]


def random_mono_expressions(seed: int, count: int) -> list[str]:
    """count distinct mono(...) expressions drawn at seed: 1-3 variables and
    1-3 generators with exponents 0-3, none of them constant, distinct by
    rendered text, in the order drawn."""
    rng = random.Random(seed)
    drawn: dict[str, None] = {}
    while len(drawn) < count:
        nvars, ngens = rng.randint(1, 3), rng.randint(1, 3)
        gens = []
        while len(gens) < ngens:
            exp = tuple(rng.randint(0, 3) for _ in range(nvars))
            if any(exp):
                gens.append(render_monomial(exp))
        drawn.setdefault(f"mono(vars={nvars}, gens=[{', '.join(gens)}])")
    return list(drawn)


# the digits, punctuation and keyword letters of the expression language,
# and "-" and "_", which no valid expression holds; the digits come twice,
# so that more edits keep a text that parses
EDIT_ALPHABET = "0123456789" * 2 + "()[],=*^ vzmodgfqutrnpa-_"


def edited_expressions(seed: int, count: int) -> list[str]:
    """count texts drawn at seed, each a FIXED_EXPRESSIONS entry with one to
    three characters deleted, inserted or replaced, in the order drawn."""
    rng = random.Random(seed)
    edited = []
    for _ in range(count):
        text = rng.choice(FIXED_EXPRESSIONS)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            kind = rng.choice(("delete", "insert", "replace"))
            if kind == "insert":
                text = text[:i] + rng.choice(EDIT_ALPHABET) + text[i:]
            elif kind == "delete":
                text = text[:i] + text[i + 1:]
            else:
                text = text[:i] + rng.choice(EDIT_ALPHABET) + text[i + 1:]
        edited.append(text)
    return edited
