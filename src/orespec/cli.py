"""Command-line front end.

Exit codes: 0 clean, 1 counterexample found (or an engine cross-check failed),
2 usage or parse error (also when the reader closes stdout early), 3 size
budget exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys

from .centre import centre_ring, rho, rho_criteria
from .dsl import ParseError, evaluate, parse_ring_expr
from .finring import (
    DEFAULT_ORDER_CAP,
    EngineInvariantError,
    RingError,
    RingTable,
    SizeLimitError,
    bits,
    centre_mask,
    interning,
    is_commutative,
    mask_of,
    units_mask,
)
from .harness import (
    AUDIT_ID,
    CorpusConfig,
    build_corpus,
    explain,
    inject_table_fault,
    render_machine,
    render_text,
    run_suite,
    track_of,
)
from .checks import COVERAGE, REGISTRY
from .ideals import (
    all_ideal_masks,
    is_semiprime_ring,
    min_prime_masks,
    prime_flags,
    prime_radical_mask,
)
from .localization import (
    EXHAUSTIVE_MULT_ORDER,
    classify_set,
    close_multiplicative,
    localize,
    min_RS,
    min_RS_id,
    mult_set_masks,
    ore_flags,
)
from .monomial import (
    an_build,
    an_min_primes,
    an_verify,
    default_degree_bound,
    localize_monomial,
    min_primes_monomial,
    render_monomial,
    saturate_monomial,
)

EXIT_CLEAN = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _eval_ring(text: str, cap: int) -> RingTable:
    obj = evaluate(parse_ring_expr(text), cap)
    if not isinstance(obj, RingTable):
        raise RingError("this subcommand needs a finite ring expression")
    return obj


# The exhaustive enumeration, by closure extension, costs at most N - 1
# closures per submonoid of a ring of order N, so its time follows the number
# of submonoids: 10 ms for the 209 of prod(prod(gf(2), gf(2)), prod(gf(2),
# gf(2))) at N = 16, but 101,455 submonoids and about 3 minutes for
# prod(tri(2, gf(2)), tri(2, gf(2))) at N = 64.
MAX_EXHAUSTIVE_ORDER = 16


# describe and ideals on zmod(1024) took 3.3 and 4.0 s with a 97 MB peak
# (Python 3.11, 2 shared cores), and each doubling of the order costs about
# 4x; past this --max-order is refused before any table is built
MAX_ORDER = 1024


def _check_sweep_budget(args) -> None:
    n = min(args.exhaustive_order, args.max_order)
    if n > MAX_EXHAUSTIVE_ORDER:
        raise SizeLimitError(f"exhaustive multiplicative-set sweep up to order {n}"
                             f" > {MAX_EXHAUSTIVE_ORDER}")


def _ideal_str(r: RingTable, mask) -> str:
    return "{" + ",".join(r.name(i) for i in bits(mask)) + "}"


def cmd_describe(args) -> int:
    r = _eval_ring(args.expr, args.max_order)
    print(f"ring:        {r.label}")
    print(f"order:       {r.order}")
    print(f"commutative: {is_commutative(r)}")
    print(f"semiprime:   {is_semiprime_ring(r)}")
    print(f"units:       {sorted(bits(units_mask(r)))}")
    print(f"centre:      {sorted(bits(centre_mask(r)))}")
    print("elements:")
    for i in r.elements():
        print(f"  {i:3d}  {r.name(i)}")
    return EXIT_CLEAN


def cmd_ideals(args) -> int:
    r = _eval_ring(args.expr, args.max_order)
    masks = all_ideal_masks(r)
    print(f"{len(masks)} two-sided ideals of {r.label}:")
    for m in masks:
        rep = prime_flags(r, m)
        flags = "".join(
            f for f, on in (
                (" prime", rep.is_prime),
                (" completely-prime", rep.is_completely_prime),
                (" semiprime", rep.is_semiprime_ideal),
            ) if on
        )
        print(f"  {_ideal_str(r, m)}{flags}")
    return EXIT_CLEAN


def cmd_minprimes(args) -> int:
    r = _eval_ring(args.expr, args.max_order)
    for m in min_prime_masks(r):
        print(_ideal_str(r, m))
    print(f"prime radical: {_ideal_str(r, prime_radical_mask(r))}")
    return EXIT_CLEAN


def cmd_multsets(args) -> int:
    _check_sweep_budget(args)
    r = _eval_ring(args.expr, args.max_order)
    sets = mult_set_masks(r, args.exhaustive_order)
    print(f"{len(sets)} multiplicative sets of {r.label}:")
    for m in sets:
        cls = ore_flags(r, m)
        tags = []
        if cls.left_den and cls.right_den:
            tags.append("denominator")
        elif cls.left_den:
            tags.append("left-denominator")
        elif cls.left_ore:
            tags.append("left-ore")
        print(f"  {list(bits(m))}  {' '.join(tags)}  ass_l={sorted(bits(cls.ass_l_mask))}")
    return EXIT_CLEAN


def _comma_items(text: str, flag: str) -> list[str]:
    """The items of a comma-separated flag value; none for an empty value,
    and an empty item is an error."""
    if not text.strip():
        return []
    items = [x.strip() for x in text.split(",")]
    if "" in items:
        raise RingError(f"{flag} {text!r} has an empty item")
    return items


def _int_items(text: str, flag: str) -> list[int]:
    """The items of a comma-separated flag value, each an integer."""
    out = []
    for x in _comma_items(text, flag):
        try:
            out.append(int(x))
        except ValueError:
            raise RingError(f"{flag} item {x!r} is not an integer") from None
    return out


def _gens_mask(text: str, r: RingTable) -> int:
    gens = _int_items(text, "--gens")
    for g in gens:
        if not 0 <= g < r.order:
            raise RingError(f"element id {g} is out of range for {r.label} of order {r.order}")
    return mask_of(gens)


def cmd_classify_set(args) -> int:
    r = _eval_ring(args.expr, args.max_order)
    s = close_multiplicative(r, _gens_mask(args.gens, r))
    cls = classify_set(s)
    print(f"set:        {s.members()}")
    print(f"left ore:   {cls.left_ore}\nright ore:  {cls.right_ore}")
    print(f"left den:   {cls.left_den}\nright den:  {cls.right_den}")
    print(f"ass_l:      {sorted(bits(cls.ass_l_mask))}")
    print(f"ass_r:      {sorted(bits(cls.ass_r_mask))}")
    return EXIT_CLEAN


def cmd_localize(args) -> int:
    r = _eval_ring(args.expr, args.max_order)
    s = close_multiplicative(r, _gens_mask(args.gens, r))
    sigma = localize(r, s)
    print(f"set:           {s.members()}")
    print(f"ass ideal:     {_ideal_str(r, sigma.kernel_mask())}")
    print(f"target order:  {sigma.target.order}")
    print(f"min(R,S):      {[_ideal_str(r, m) for m in min_RS(r, s)]}")
    print(f"min(R,S,id):   {[_ideal_str(r, m) for m in min_RS_id(sigma, s)]}")
    print(f"localized min: {[_ideal_str(sigma.target, m) for m in min_prime_masks(sigma.target)]}")
    return EXIT_CLEAN


def cmd_centre(args) -> int:
    r = _eval_ring(args.expr, args.max_order)
    centre = centre_ring(r).source
    print(f"centre order: {centre.order}")
    print(f"members:      {[centre.name(i) for i in centre.elements()]}")
    for m in min_prime_masks(centre):
        print(f"min prime:    {_ideal_str(centre, m)}")
    return EXIT_CLEAN


def cmd_rho(args) -> int:
    r = _eval_ring(args.expr, args.max_order)
    centre = centre_ring(r).source
    for pm, qm in rho(r):
        print(f"{_ideal_str(r, pm)} -> {_ideal_str(centre, qm)}")
    stay, miss, well, onto = rho_criteria(r)
    print(f"well-defined on minimals: {well}")
    print(f"surjective onto minimals: {onto}")
    if is_semiprime_ring(r):
        print(f"central regulars stay regular: {stay}")
        print(f"central regulars miss min(R):  {miss}")
    return EXIT_CLEAN


def cmd_mono(args) -> int:
    if args.action == "minprimes" and args.invert is not None:
        raise RingError("mono minprimes takes no --invert")
    expr = parse_ring_expr(args.expr)
    if expr.kind != "mono":  # before evaluating: a finite operand has no order cap here
        raise RingError("mono subcommands need a mono(...) expression")
    obj = evaluate(expr, None)
    if args.action == "minprimes":
        for cover in min_primes_monomial(obj):
            print("(" + ",".join(f"v{i + 1}" for i in bits(cover)) + ")")
        return EXIT_CLEAN
    variables = [v - 1 for v in _int_items(args.invert or "", "--invert")]
    for v in variables:
        if not 0 <= v < obj.nvars:
            raise RingError(f"--invert index {v + 1} is outside 1..{obj.nvars}")
    vmask = mask_of(variables)
    sat = saturate_monomial(obj, vmask)
    print(f"saturation:    {[render_monomial(g) for g in sat.gens]}")
    for name, ring in (("min source:   ", obj), ("min saturated:", sat)):
        print(f"{name} {[[v + 1 for v in bits(c)] for c in min_primes_monomial(ring)]}")
    failed = localize_monomial(obj, vmask)
    if failed:
        print("FAILURE: {}: {}".format(*failed))
        return EXIT_COUNTEREXAMPLE
    print(f"verified to degree {obj.degree_bound}")
    return EXIT_CLEAN


def cmd_an(args) -> int:
    n = args.n
    d = args.degree or default_degree_bound(max(n, 1))
    a = an_build(n, d)
    print(f"algebra:       {a!r}")
    print(f"minimal primes ({1 << n}):")
    for p in an_min_primes(a):
        print(f"  {p!r}")
    failed = an_verify(a)
    if failed:
        print("FAILURE: {}: {}".format(*failed))
        return EXIT_COUNTEREXAMPLE
    print(f"verified to degree {d}")
    return EXIT_CLEAN


def cmd_verify(args) -> int:
    _check_sweep_budget(args)
    if args.seed is not None and not args.inject_fault:
        raise RingError("--seed is read only with --inject-fault")
    cfg = CorpusConfig(
        order_cap=args.max_order,
        exhaustive_mult_order=args.exhaustive_order,
        seed=args.seed,
    )
    suite = args.suite
    if suite == "all":
        ids = COVERAGE
    elif suite in ("finite", "monomial"):
        ids = tuple(i for i in COVERAGE if track_of(REGISTRY[i][0].kinds) in (suite, "both"))
    else:
        if not suite.replace(",", "").strip():
            raise RingError(f"--suite {suite!r} names no check ids")
        ids = tuple(_comma_items(suite, "--suite"))
    if args.explain and args.explain[0] not in (AUDIT_ID,) + ids:
        raise RingError(f"--explain {args.explain[0]!r} is not a check of this run")
    with interning():  # the run reuses the tables building the corpus audited
        corpus = build_corpus(cfg)
        if args.inject_fault:  # seed k corrupts finite instance k modulo their count
            finite = [i for i, inst in enumerate(corpus) if inst.kind == "finite"] or [0]
            k = finite[(args.seed or 0) % len(finite)]
            corpus[k] = inject_table_fault(corpus[k], cfg)
        reports = run_suite(corpus, ids, cfg, jobs=args.jobs)
        if args.explain:
            cid, k = args.explain
            print(explain(next(r for r in reports if r.theorem_id == cid), k, corpus, cfg))
        elif args.format == "machine":
            print(render_machine(reports))
        else:
            print(render_text(reports))
    clean = all(r.clean() for r in reports)
    return EXIT_CLEAN if clean else EXIT_COUNTEREXAMPLE


def explain_target(text: str) -> tuple[str, int]:
    """Parse ID:K, a check id and a counterexample index."""
    cid, sep, k = text.rpartition(":")
    if not sep or not cid.strip():
        raise argparse.ArgumentTypeError(f"expected ID:K, got {text!r}")
    index = int(k)
    if index < 0:
        raise argparse.ArgumentTypeError(f"counterexample index must be at least 0, got {index}")
    return cid.strip(), index


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="orespec",
        description="spectra, centres and localizations of finite rings and monomial algebras",
    )
    # each subcommand declares only the flags it reads
    finite = argparse.ArgumentParser(add_help=False)
    finite.add_argument("--max-order", type=positive_int, default=DEFAULT_ORDER_CAP,
                        help=f"order cap for finite constructions (at most {MAX_ORDER})")
    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--exhaustive-order", type=positive_int, default=EXHAUSTIVE_MULT_ORDER,
                       help="largest order with exhaustive multiplicative-set enumeration")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, fn, text in (
        ("describe", cmd_describe, "order, units, centre, semiprimeness, element table"),
        ("ideals", cmd_ideals, "the two-sided ideal lattice with primality flags"),
        ("minprimes", cmd_minprimes, "minimal primes and the prime radical"),
        ("multsets", cmd_multsets, "multiplicative sets with their classification"),
        ("classify-set", cmd_classify_set, "Ore/denominator flags of one generated set"),
        ("localize", cmd_localize, "localize at a generated denominator set"),
        ("centre", cmd_centre, "the centre as a ring, with its minimal primes"),
        ("rho", cmd_rho, "restriction of primes to the centre"),
    ):
        parents = [finite, sweep] if fn is cmd_multsets else [finite]
        p = sub.add_parser(name, help=text, parents=parents)
        p.add_argument("expr")
        if fn in (cmd_classify_set, cmd_localize):
            p.add_argument("--gens", required=True, help="comma-separated element ids")
        p.set_defaults(fn=fn)

    p = sub.add_parser("mono", help="monomial-quotient operations")
    p.add_argument("action", choices=["minprimes", "localize"])
    p.add_argument("expr")
    p.add_argument("--invert", default=None,
                   help="comma-separated 1-based variable indices (localize only)")
    p.set_defaults(fn=cmd_mono)

    p = sub.add_parser("an", help="verify the noncommutative pairing algebra")
    p.add_argument("verify", choices=["verify"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=positive_int, default=None,
                   help="degree bound (default: the bound for n)")
    p.set_defaults(fn=cmd_an)

    p = sub.add_parser("verify", help="run the claim-verification suite", parents=[finite, sweep])
    p.add_argument("--suite", default="all",
                   help="all | finite | monomial | comma-separated check ids")
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the corrupted table and cell (with --inject-fault; default 0)")
    p.add_argument("--jobs", type=positive_int, default=1)
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt one table cell first (self-test)")
    # --explain prints one counterexample in place of the report, in no format
    shown = p.add_mutually_exclusive_group()
    shown.add_argument("--format", choices=["text", "machine"], default=None,
                       help="report format (default: text)")
    shown.add_argument("--explain", type=explain_target, default=None, metavar="ID:K",
                       help="print counterexample K of check ID instead of the report")
    p.set_defaults(fn=cmd_verify)
    return ap


def closed_stdout() -> int:
    """The exit code after the reader closed stdout, which is pointed at
    devnull so that the flush at interpreter exit does not raise again
    (Python docs, signal, SIGPIPE)."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_USAGE


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # every subcommand that reads --max-order declares it; mono and an do not
        if getattr(args, "max_order", 0) > MAX_ORDER:
            raise SizeLimitError(f"--max-order {args.max_order} > {MAX_ORDER}")
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, inside the try
        return code
    except SystemExit as exc:  # argparse's usage errors and --help
        return EXIT_USAGE if exc.code else EXIT_CLEAN
    except BrokenPipeError:
        return closed_stdout()
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeLimitError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except EngineInvariantError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    except (RingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
