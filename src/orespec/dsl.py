"""A small ring-description language.

    expr     := ctor "(" [args] ")"
    ctor     := "zmod" | "gf" | "mat" | "tri" | "prod" | "quot" | "mono" | "an"
    args     := arg ("," arg)*
    arg      := integer | expr | key "=" value
    value    := integer | "[" [item ("," item)*] "]"
    item     := integer | monomial
    monomial := factor ("*" factor)*
    factor   := "v" index ["^" integer]      -- e.g. v1, v2^3; index, exponent >= 1

Whitespace-insensitive; parse errors carry (line, column) into the source.
Each keyword appears once, and constructors nest at most MAX_DEPTH deep.
Rendering produces a canonical text that reparses to an equal expression.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .finring import (
    DEFAULT_ORDER_CAP,
    GF_ORDERS,
    RingError,
    RingTable,
    SizeLimitError,
    make_gf,
    make_matrix_ring,
    make_product,
    make_quotient,
    make_upper_triangular,
    make_zmod,
    mask_of,
)
from .ideals import ideal_closure_mask
from .monomial import (
    an_build,
    check_var_count,
    default_degree_bound,
    make_monomial_ring,
    render_monomial,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{message} at line {line}, column {column}")


@dataclass(frozen=True)
class RingExpr:
    kind: str
    ints: tuple[int, ...] = ()
    subs: tuple["RingExpr", ...] = ()
    gens: tuple = ()  # element ids for quot, exponent tuples for mono


# kind -> (integer arguments, operand expressions, sorted keywords, usage)
SIGNATURES = {
    "zmod": (1, 0, (), "a single integer argument"),
    "gf": (1, 0, (), "a single integer argument"),
    "mat": (1, 1, (), "(k, expr)"),
    "tri": (1, 1, (), "(k, expr)"),
    "prod": (0, 2, (), "(expr, expr)"),
    "quot": (0, 1, ("gens",), "(expr, gens=[ids])"),
    "mono": (0, 0, ("gens", "vars"), "(vars=n, gens=[monomials])"),
    "an": (0, 0, ("n",), "(n=k)"),
}

# far deeper than any corpus expression (at most 4 constructors), and shallow
# enough that parse, render and evaluate stay inside Python's default
# recursion limit, which the reader alone reaches near 330
MAX_DEPTH = 200

# Python's default limit on the digits int() converts; a number past it is
# refused at its token, an integer or a variable's index
MAX_DIGITS = 4300

# ASCII only: other scripts' digits and letters are not part of the language;
# the alternatives cover every character, so the matches leave no gaps
_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[()\[\],=*^])"
                    r"|(?P<newline>\n)|(?P<bad>\S)|\s")


@dataclass
class _Token:
    kind: str  # "int" | "name" | "punct"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    line, start = 1, 0  # the current line and the index of its first character
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "newline":
            line, start = line + 1, m.end()
        elif m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, m.start() - start + 1)
        elif m.lastgroup:
            out.append(_Token(m.lastgroup, m.group(), line, m.start() - start + 1))
            digits = len(m.group()) - len(m.group().rstrip("0123456789"))
            if digits > MAX_DIGITS:
                raise ParseError(f"a number of {digits} digits exceeds {MAX_DIGITS}",
                                 line, out[-1].column)
    out.append(_Token("punct", "<end>", line, len(text) - start + 1))
    return out


def _exponent_vector(pairs: tuple[tuple[int, int], ...], nvars: int) -> tuple[int, ...]:
    """The nvars-long exponent vector of a parsed monomial's (index, exponent) pairs."""
    exp = [0] * nvars
    for idx, e in pairs:
        exp[idx - 1] = e
    return tuple(exp)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # constructors open at pos

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str | None = None, text: str | None = None) -> _Token:
        tok = self.tokens[self.pos]
        if (kind and tok.kind != kind) or (text and tok.text != text):
            want = text or kind
            raise ParseError(f"expected {want}, found {tok.text!r}", tok.line, tok.column)
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def separated(self, item, sep: str, close: str | None = None) -> list:
        """item (sep item)*, then the close token; a closed list may be empty."""
        items = []
        if not (close and self.at(close)):
            items.append(item())
            while self.at(sep):
                self.take()
                items.append(item())
        if close:
            self.take(text=close)
        return items

    # ---- grammar ----

    def expr(self) -> RingExpr:
        tok = self.take("name")
        kind = tok.text
        if kind not in SIGNATURES:
            raise ParseError(f"unknown constructor {kind!r}", tok.line, tok.column)

        def fail(msg):
            raise ParseError(f"{kind}: {msg}", tok.line, tok.column)

        self.depth += 1
        if self.depth > MAX_DEPTH:
            fail(f"nesting deeper than {MAX_DEPTH} constructors")
        self.take(text="(")
        args = self.separated(self.argument, ",", ")")
        self.depth -= 1
        ints = tuple(a for a in args if isinstance(a, int))
        subs = tuple(a for a in args if isinstance(a, RingExpr))
        keys = sorted(a[0] for a in args if isinstance(a, tuple))
        kwargs = dict(a for a in args if isinstance(a, tuple))
        nints, nsubs, keywords, usage = SIGNATURES[kind]
        if (len(ints), len(subs), keys) != (nints, nsubs, list(keywords)):
            fail(f"expects {usage}")  # a repeated keyword too
        if kind == "quot":
            gens = kwargs["gens"]
            if not isinstance(gens, tuple) or not all(isinstance(g, int) for g in gens):
                fail("gens must be a list of element ids")
            return RingExpr(kind, (), subs, gens)
        if kind == "mono":
            nvars, gens = kwargs["vars"], kwargs["gens"]
            if not isinstance(nvars, int) or nvars < 1:
                fail("vars must be a positive integer")
            if not isinstance(gens, tuple):
                fail("gens must be a list")
            for g in gens:
                if not isinstance(g, tuple):
                    fail("mono generators must be monomials")
                if any(idx > nvars for idx, _ in g):
                    fail(f"variable index exceeds vars={nvars}")
            check_var_count(nvars)  # before any nvars-long vector is built
            return RingExpr(kind, (nvars,), (), tuple(_exponent_vector(g, nvars) for g in gens))
        if kind == "an":
            n = kwargs["n"]
            if not isinstance(n, int):
                fail("n must be a non-negative integer")
            return RingExpr(kind, (n,))
        return RingExpr(kind, ints, subs)

    def argument(self):
        """An integer, an operand expression, or a (key, value) pair."""
        tok = self.peek()
        if tok.kind == "int":
            return int(self.take().text)
        if tok.kind == "name" and self.tokens[self.pos + 1].text == "=":
            self.pos += 2
            return tok.text, self.value(tok.text)
        if tok.kind == "name":
            return self.expr()
        raise ParseError(f"expected an argument, found {tok.text!r}", tok.line, tok.column)

    def value(self, key: str):
        tok = self.peek()
        if tok.kind == "int":
            return int(self.take().text)
        if tok.text == "[":
            self.take()
            return tuple(self.separated(self.item, ",", "]"))
        raise ParseError(f"expected a value for {key}=", tok.line, tok.column)

    def item(self):
        tok = self.peek()
        if tok.kind == "int":
            return int(self.take().text)
        if tok.kind == "name":
            powers: dict[int, int] = {}
            for idx, exp in self.separated(self.factor, "*"):
                powers[idx] = powers.get(idx, 0) + exp
            return tuple(sorted(powers.items()))  # a monomial as sorted (index, exponent) pairs
        raise ParseError(f"expected a list item, found {tok.text!r}", tok.line, tok.column)

    def factor(self) -> tuple[int, int]:
        tok = self.take("name")
        stem = tok.text.rstrip("0123456789")
        if stem == tok.text:
            raise ParseError(f"variable {tok.text!r} has no index", tok.line, tok.column)
        idx = int(tok.text[len(stem):])
        if idx < 1:
            raise ParseError("variable indices are 1-based", tok.line, tok.column)
        if stem != "v":
            raise ParseError(f"variable {tok.text!r} is not v<index>", tok.line, tok.column)
        exp = 1
        if self.at("^"):
            self.take()
            etok = self.take("int")
            exp = int(etok.text)
            if exp == 0:
                raise ParseError("exponents must be at least 1", etok.line, etok.column)
        return idx, exp


def parse_ring_expr(text: str) -> RingExpr:
    p = _Parser(text)
    expr = p.expr()
    tok = p.peek()
    if tok.text != "<end>":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return expr


def render(expr: RingExpr) -> str:
    k = expr.kind
    if k in ("zmod", "gf"):
        return f"{k}({expr.ints[0]})"
    if k in ("mat", "tri"):
        return f"{k}({expr.ints[0]}, {render(expr.subs[0])})"
    if k == "prod":
        return f"prod({render(expr.subs[0])}, {render(expr.subs[1])})"
    if k == "quot":
        return f"quot({render(expr.subs[0])}, gens=[{', '.join(map(str, expr.gens))}])"
    if k == "mono":
        return f"mono(vars={expr.ints[0]}, gens=[{', '.join(render_monomial(g) for g in expr.gens)}])"
    if k == "an":
        return f"an(n={expr.ints[0]})"
    raise ValueError(f"cannot render {expr}")


def _finite_operand(kind: str, expr: RingExpr, cap: int | None) -> RingTable:
    """Evaluate an operand of a finite constructor, which must be a finite ring."""
    r = evaluate(expr, cap)
    if not isinstance(r, RingTable):
        raise RingError(f"{kind} applies to finite rings, not {render(expr)}")
    return r


def evaluate(expr: RingExpr, cap: int | None = DEFAULT_ORDER_CAP):
    """Evaluate to a RingTable, CommMonomialRing, or AnAlgebra."""
    k = expr.kind
    if k in ("zmod", "gf"):
        n = expr.ints[0]
        # gf(q) for a q that make_gf does not build is a usage error at every cap
        if cap is not None and n > cap and (k == "zmod" or n in GF_ORDERS):
            raise SizeLimitError(f"{k}({n}) has order {n} > cap {cap}")
        return make_zmod(n) if k == "zmod" else make_gf(n)
    if k == "mat":
        return make_matrix_ring(expr.ints[0], _finite_operand(k, expr.subs[0], cap), cap)
    if k == "tri":
        return make_upper_triangular(expr.ints[0], _finite_operand(k, expr.subs[0], cap), cap)
    if k == "prod":
        return make_product(_finite_operand(k, expr.subs[0], cap),
                            _finite_operand(k, expr.subs[1], cap), cap)
    if k == "quot":
        base = _finite_operand(k, expr.subs[0], cap)
        for g in expr.gens:
            if not 0 <= g < base.order:
                raise RingError(f"quot: element id {g} is out of range for {base.label}"
                                f" of order {base.order}")
        mask = ideal_closure_mask(base, mask_of(expr.gens))
        return make_quotient(base, mask)[0]
    if k == "mono":
        return make_monomial_ring(expr.ints[0], expr.gens)
    if k == "an":
        n = expr.ints[0]
        return an_build(n, default_degree_bound(max(n, 1)))
    raise ValueError(f"cannot evaluate {expr}")
