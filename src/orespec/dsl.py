"""A small ring-description language.

    expr     := ctor "(" [args] ")"
    ctor     := "zmod" | "gf" | "mat" | "tri" | "prod" | "quot" | "mono" | "an"
    args     := arg ("," arg)*
    arg      := integer | expr | key "=" value
    value    := integer | "[" [item ("," item)*] "]"
    item     := integer | monomial
    monomial := factor ("*" factor)*
    factor   := name index ("^" integer)?      -- e.g. v1, v2^3; exponent >= 1

Whitespace-insensitive; parse errors carry (line, column) into the source.
Rendering produces a canonical text that reparses to an equal expression.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

from .finring import (
    DEFAULT_ORDER_CAP,
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


CONSTRUCTORS = ("zmod", "gf", "mat", "tri", "prod", "quot", "mono", "an")


@dataclass
class _Token:
    kind: str  # "int" | "name" | "punct"
    text: str
    line: int
    column: int


# ASCII only: other scripts' digits and letters are not part of the language
_WORD = frozenset(string.ascii_letters + string.digits + "_")


def _tokenize(text: str) -> list[_Token]:
    out = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        if c in string.digits:
            j = i
            while j < len(text) and text[j] in string.digits:
                j += 1
            out.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in _WORD:
            j = i
            while j < len(text) and text[j] in _WORD:
                j += 1
            out.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in "()[],=*^":
            out.append(_Token("punct", c, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    out.append(_Token("punct", "<end>", line, col))
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

    # ---- grammar ----

    def expr(self) -> RingExpr:
        tok = self.take("name")
        kind = tok.text
        if kind not in CONSTRUCTORS:
            raise ParseError(f"unknown constructor {kind!r}", tok.line, tok.column)
        self.take(text="(")
        ints: list[int] = []
        subs: list[RingExpr] = []
        kwargs: dict[str, object] = {}
        if not self.at(")"):
            while True:
                self.argument(ints, subs, kwargs)
                if self.at(","):
                    self.take(text=",")
                    continue
                break
        self.take(text=")")
        return self.assemble(kind, ints, subs, kwargs, tok)

    def argument(self, ints, subs, kwargs):
        tok = self.peek()
        if tok.kind == "int":
            ints.append(int(self.take("int").text))
            return
        if tok.kind == "name":
            nxt = self.tokens[self.pos + 1]
            if nxt.text == "=":
                key = self.take("name").text
                self.take(text="=")
                kwargs[key] = self.value(key, tok)
                return
            subs.append(self.expr())
            return
        raise ParseError(f"expected an argument, found {tok.text!r}", tok.line, tok.column)

    def value(self, key: str, where: _Token):
        tok = self.peek()
        if tok.kind == "int":
            return int(self.take("int").text)
        if tok.text == "[":
            self.take(text="[")
            items = []
            if not self.at("]"):
                while True:
                    items.append(self.item())
                    if self.at(","):
                        self.take(text=",")
                        continue
                    break
            self.take(text="]")
            return tuple(items)
        raise ParseError(f"expected a value for {key}=", tok.line, tok.column)

    def item(self):
        tok = self.peek()
        if tok.kind == "int":
            return int(self.take("int").text)
        if tok.kind == "name":
            return self.monomial()
        raise ParseError(f"expected a list item, found {tok.text!r}", tok.line, tok.column)

    def monomial(self) -> tuple[tuple[int, int], ...]:
        """A product of indexed variables, as sorted (index, exponent) pairs."""
        powers: dict[int, int] = {}
        while True:
            tok = self.take("name")
            digits = ""
            stem = tok.text
            while stem and stem[-1] in string.digits:
                digits = stem[-1] + digits
                stem = stem[:-1]
            if not digits:
                raise ParseError(f"variable {tok.text!r} has no index", tok.line, tok.column)
            idx = int(digits)
            if idx < 1:
                raise ParseError("variable indices are 1-based", tok.line, tok.column)
            exp = 1
            if self.at("^"):
                self.take(text="^")
                etok = self.take("int")
                exp = int(etok.text)
                if exp == 0:
                    raise ParseError("exponents must be at least 1", etok.line, etok.column)
            powers[idx] = powers.get(idx, 0) + exp
            if self.at("*"):
                self.take(text="*")
                continue
            break
        return tuple(sorted(powers.items()))

    def assemble(self, kind, ints, subs, kwargs, tok) -> RingExpr:
        def fail(msg):
            raise ParseError(f"{kind}: {msg}", tok.line, tok.column)

        if kind in ("zmod", "gf"):
            if len(ints) != 1 or subs or kwargs:
                fail("expects a single integer argument")
            return RingExpr(kind, (ints[0],))
        if kind in ("mat", "tri"):
            if len(ints) != 1 or len(subs) != 1 or kwargs:
                fail("expects (k, expr)")
            return RingExpr(kind, (ints[0],), (subs[0],))
        if kind == "prod":
            if ints or len(subs) != 2 or kwargs:
                fail("expects (expr, expr)")
            return RingExpr(kind, (), tuple(subs))
        if kind == "quot":
            if ints or len(subs) != 1 or set(kwargs) != {"gens"}:
                fail("expects (expr, gens=[ids])")
            gens = kwargs["gens"]
            if not isinstance(gens, tuple) or not all(isinstance(g, int) for g in gens):
                fail("gens must be a list of element ids")
            return RingExpr(kind, (), (subs[0],), gens)
        if kind == "mono":
            if ints or subs or set(kwargs) != {"vars", "gens"}:
                fail("expects (vars=n, gens=[monomials])")
            nvars = kwargs["vars"]
            if not isinstance(nvars, int) or nvars < 1:
                fail("vars must be a positive integer")
            gens = kwargs["gens"]
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
            if ints or subs or set(kwargs) != {"n"}:
                fail("expects (n=k)")
            n = kwargs["n"]
            if not isinstance(n, int) or n < 0:
                fail("n must be a non-negative integer")
            return RingExpr(kind, (n,))
        fail("unhandled constructor")


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
    if k == "zmod":
        n = expr.ints[0]
        if cap is not None and n > cap:
            raise SizeLimitError(f"zmod({n}) has order {n} > cap {cap}")
        return make_zmod(n)
    if k == "gf":
        return make_gf(expr.ints[0])
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
