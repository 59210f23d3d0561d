import contextlib
import errno
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from orespec.cli import main
from orespec.dsl import ParseError, RingExpr, evaluate, parse_ring_expr, render
from orespec.monomial import DegreeBudgetError

from expr_corpus import FIXED_EXPRESSIONS, edited_expressions


def test_fixed_corpus_is_big_enough():
    assert len(FIXED_EXPRESSIONS) >= 50


@pytest.mark.parametrize("text", FIXED_EXPRESSIONS)
def test_round_trip_on_the_fixed_corpus(text):
    expr = parse_ring_expr(text)
    assert parse_ring_expr(render(expr)) == expr


def test_parse_examples_evaluate():
    assert evaluate(parse_ring_expr("zmod(12)")).order == 12
    assert evaluate(parse_ring_expr("quot(zmod(12), gens=[6])")).order == 6
    r = evaluate(parse_ring_expr("mono(vars=2, gens=[v1*v2])"))
    assert r.nvars == 2 and r.gens == ((1, 1),)


def test_whitespace_insensitivity():
    a = parse_ring_expr("quot( zmod( 12 ) ,\n gens = [ 6 ] )")
    assert a == parse_ring_expr("quot(zmod(12),gens=[6])")


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_ring_expr("zmod(")
    assert exc.value.line == 1 and exc.value.column == 6
    with pytest.raises(ParseError) as exc:
        parse_ring_expr("nosuch(3)")
    assert exc.value.column == 1
    with pytest.raises(ParseError):
        parse_ring_expr("zmod(2, 3)")
    with pytest.raises(ParseError):
        parse_ring_expr("zmod(2) zmod(3)")
    with pytest.raises(ParseError):
        parse_ring_expr("mono(vars=2, gens=[v9])")


@pytest.mark.parametrize("text, column", [
    ("zmod(\u00b2)", 6),  # superscript two
    ("zmod(\u0663)", 6),  # Arabic-Indic three
    ("mono(vars=3, gens=[v\u0663])", 21),
])
def test_only_ascii_digits_and_letters_are_accepted(capsys, text, column):
    assert main(["describe", text]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and f"at line 1, column {column}" in err


def _exps_from_pairs(pairs):
    merged = {}
    for i, e in pairs:
        merged[i] = merged.get(i, 0) + e
    exp = [0, 0, 0]
    for i, e in merged.items():
        exp[i - 1] = e
    return (tuple(exp),) if merged else ()


def _exprs(depth):
    base = st.one_of(
        st.integers(2, 16).map(lambda n: RingExpr("zmod", (n,))),
        st.sampled_from([2, 3, 4]).map(lambda q: RingExpr("gf", (q,))),
        st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4)), max_size=3)
          .map(lambda pairs: RingExpr("mono", (3,), (), _exps_from_pairs(pairs))),
        st.integers(0, 4).map(lambda n: RingExpr("an", (n,))),
    )
    if depth == 0:
        return base
    sub = _exprs(depth - 1)
    return st.one_of(
        base,
        st.tuples(sub, sub).map(lambda ab: RingExpr("prod", (), ab)),
        st.tuples(st.integers(1, 2), sub).map(lambda ks: RingExpr("mat", (ks[0],), (ks[1],))),
        st.tuples(sub, st.lists(st.integers(0, 15), max_size=3)).map(
            lambda eg: RingExpr("quot", (), (eg[0],), tuple(eg[1]))
        ),
    )


@given(_exprs(2))
def test_round_trip_on_generated_expressions(expr):
    assert parse_ring_expr(render(expr)) == expr


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["describe", "rho", "ideals", "minprimes", "centre"]), _exprs(2))
def test_cli_describe_exits_with_a_documented_code(command, expr):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, render(expr)])
    assert code in (0, 2, 3)


_FLAG_TEXT = st.text(alphabet="0123456789,- ", max_size=6)
_FLAG_ARGV = st.one_of(
    _FLAG_TEXT.map(lambda t: ["classify-set", "zmod(6)", "--gens", t]),
    _FLAG_TEXT.map(lambda t: ["localize", "zmod(6)", "--gens", t]),
    _FLAG_TEXT.map(lambda t: ["mono", "localize", "mono(vars=2, gens=[v1*v2])", "--invert", t]),
    st.tuples(st.integers(-2, 5), st.sampled_from([-1, 0, 1, 2, 3, 9])).map(
        lambda nd: ["an", "verify", "--n", str(nd[0]), "--degree", str(nd[1])]),
    st.one_of(st.integers(-20, 20).map(str), _FLAG_TEXT).map(
        lambda t: ["describe", "zmod(4)", "--max-order", t]),
)


@settings(max_examples=60, deadline=None)
@given(_FLAG_ARGV)
def test_cli_flags_exit_with_a_documented_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)


def test_cli_rejects_max_order_below_one(capsys, monkeypatch):
    def no_corpus(*args):
        raise AssertionError("the corpus was built despite the order cap")

    monkeypatch.setattr("orespec.cli.build_corpus", no_corpus)
    assert main(["describe", "zmod(4)", "--max-order", "-3"]) == 2
    assert "--max-order: must be at least 1" in capsys.readouterr().err
    assert main(["verify", "--max-order", "0"]) == 2
    assert "--max-order: must be at least 1" in capsys.readouterr().err


def test_cli_minprimes(capsys):
    assert main(["minprimes", "zmod(12)"]) == 0
    out = capsys.readouterr().out
    assert "{0,3,6,9}" in out and "{0,2,4,6,8,10}" in out


def test_cli_localize(capsys):
    assert main(["localize", "zmod(6)", "--gens", "2"]) == 0
    out = capsys.readouterr().out
    assert "ass ideal:     {0,3}" in out
    assert "target order:  3" in out


def test_cli_describe_and_centre(capsys):
    assert main(["describe", "mat(2, gf(2))"]) == 0
    out = capsys.readouterr().out
    assert "order:       16" in out and "[1,0;0,1]" in out
    assert main(["centre", "mat(2, gf(2))"]) == 0
    assert "centre order: 2" in capsys.readouterr().out


def test_cli_multsets_classify_rho(capsys):
    assert main(["multsets", "zmod(6)"]) == 0
    assert "denominator" in capsys.readouterr().out
    assert main(["classify-set", "zmod(6)", "--gens", "2"]) == 0
    assert "ass_l:      [0, 3]" in capsys.readouterr().out
    assert main(["rho", "tri(2, gf(2))"]) == 0
    assert "well-defined on minimals: True" in capsys.readouterr().out


def test_cli_mono_and_an(capsys):
    assert main(["mono", "minprimes", "mono(vars=2, gens=[v1*v2])"]) == 0
    out = capsys.readouterr().out
    assert "(v1)" in out and "(v2)" in out
    assert main(["mono", "localize", "mono(vars=2, gens=[v1*v2])", "--invert", "1"]) == 0
    out = capsys.readouterr().out
    assert "min saturated: [[2]]" in out and "verified to degree 6" in out
    assert main(["an", "verify", "--n", "1"]) == 0
    assert "verified to degree" in capsys.readouterr().out


def test_cli_exit_codes(capsys):
    assert main(["minprimes", "zmod("]) == 2
    capsys.readouterr()
    assert main(["minprimes", "mat(3, gf(4))"]) == 3
    capsys.readouterr()
    assert main(["localize", "zmod(6)", "--gens", "2,3"]) == 2
    capsys.readouterr()


# every subcommand that reads an expression, with the flags it needs
_EXPR_COMMANDS = (
    (["describe"], []), (["ideals"], []), (["minprimes"], []), (["multsets"], []),
    (["centre"], []), (["rho"], []), (["classify-set"], ["--gens", "1"]),
    (["localize"], ["--gens", "1"]), (["mono", "minprimes"], []),
    (["mono", "localize"], ["--invert", "1"]),
)


def test_seeded_edits_of_the_fixed_corpus_exit_with_a_documented_code():
    # 300 one- to three-character edits at seed 1, fixed before the first
    # run, each passed to the subcommands in turn; most do not parse, and
    # some still build a ring or hit a budget
    codes = Counter()
    for k, text in enumerate(edited_expressions(seed=1, count=300)):
        head, tail = _EXPR_COMMANDS[k % len(_EXPR_COMMANDS)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes[main([*head, text, *tail])] += 1
    assert set(codes) <= {0, 1, 2, 3}
    assert codes[0] and codes[2] and codes[3], codes


def test_zero_exponent_is_a_parse_error(capsys):
    with pytest.raises(ParseError) as exc:
        parse_ring_expr("mono(vars=2, gens=[v1^0, v2])")
    assert exc.value.column == 23
    assert main(["mono", "minprimes", "mono(vars=2, gens=[v1^0, v2])"]) == 2
    capsys.readouterr()
    # every parsed monomial has a positive exponent, so render reparses
    text = "mono(vars=2, gens=[v1^2*v2, v2^3])"
    assert render(parse_ring_expr(text)) == text


def test_cli_quot_id_out_of_range(capsys):
    assert main(["describe", "quot(zmod(4), gens=[99])"]) == 2
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "prod(an(n=1), zmod(2))",
    "mat(2, mono(vars=1, gens=[v1]))",
    "prod(zmod(2), mono(vars=1, gens=[v1]))",
])
def test_cli_finite_constructor_needs_finite_operands(text, capsys):
    assert main(["describe", text]) == 2
    assert "applies to finite rings" in capsys.readouterr().err


def test_cli_classify_set_id_out_of_range(capsys):
    assert main(["classify-set", "zmod(6)", "--gens", "9"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_cli_localize_id_out_of_range(capsys):
    assert main(["localize", "zmod(6)", "--gens", "1,6"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_cli_mono_invert_out_of_range(capsys):
    assert main(["mono", "localize", "mono(vars=2, gens=[v1*v2])", "--invert", "7"]) == 2
    assert "outside 1..2" in capsys.readouterr().err
    assert main(["mono", "localize", "mono(vars=2, gens=[v1*v2])", "--invert", "0"]) == 2
    assert "outside 1..2" in capsys.readouterr().err


MONO = "mono(vars=2, gens=[v1*v2])"


@pytest.mark.parametrize("argv, flag", [
    (["localize", "zmod(6)", "--gens", ","], "--gens"),
    (["localize", "zmod(6)", "--gens", "1,,2"], "--gens"),
    (["localize", "zmod(6)", "--gens", "2,"], "--gens"),
    (["classify-set", "zmod(6)", "--gens", ",2"], "--gens"),
    (["mono", "localize", MONO, "--invert", "1,,2"], "--invert"),
    (["mono", "localize", MONO, "--invert", "1, "], "--invert"),
    (["verify", "--suite", "A11Sep23,,B29Sep23"], "--suite"),
    (["verify", "--suite", "A11Sep23,"], "--suite"),
])
def test_cli_an_empty_list_item_is_a_usage_error(capsys, monkeypatch, argv, flag):
    monkeypatch.setattr("orespec.cli.build_corpus", None)  # rejected before any corpus
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {flag} " in captured.err and "empty item" in captured.err
    assert captured.out == ""


def test_cli_an_empty_list_keeps_its_meaning(capsys):
    assert main(["localize", "zmod(6)", "--gens", ""]) == 0
    assert "set:           [1]" in capsys.readouterr().out
    assert main(["mono", "localize", MONO, "--invert", ""]) == 0
    assert "saturation:    ['v1*v2']" in capsys.readouterr().out


@pytest.mark.parametrize("argv, flag, item", [
    (["localize", "zmod(6)", "--gens", "1.5"], "--gens", "1.5"),
    (["classify-set", "zmod(6)", "--gens", "2, x"], "--gens", "x"),
    (["mono", "localize", MONO, "--invert", "1.5"], "--invert", "1.5"),
])
def test_cli_a_non_integer_list_item_names_the_flag_and_the_item(capsys, argv, flag, item):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {flag} item {item!r} is not an integer" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["mono", "minprimes", MONO, "--invert", "1"], "mono minprimes takes no --invert"),
    (["mono", "localize", MONO, "--invert", "1", "--max-order", "4"],
     "unrecognized arguments: --max-order 4"),
    (["an", "verify", "--n", "1", "--max-order", "2", "--exhaustive-order", "99"],
     "unrecognized arguments: --max-order 2 --exhaustive-order 99"),
    (["describe", "zmod(4)", "--exhaustive-order", "3"], "unrecognized arguments: --exhaustive-order 3"),
    (["localize", "zmod(6)", "--gens", "2", "--exhaustive-order", "3"],
     "unrecognized arguments: --exhaustive-order 3"),
    (["verify", "--explain", "A11Sep23:0", "--format", "machine"],
     "argument --format: not allowed with argument --explain"),
    (["verify", "--format", "text", "--explain", "A11Sep23:0"],
     "argument --explain: not allowed with argument --format"),
    (["verify", "--seed", "3"], "--seed is read only with --inject-fault"),
])
def test_cli_a_flag_the_subcommand_does_not_read_is_a_usage_error(capsys, monkeypatch, argv, message):
    monkeypatch.setattr("orespec.cli.build_corpus", None)  # rejected before any corpus
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_cli_a_repeated_check_id_is_a_usage_error(capsys):
    assert main(["verify", "--suite", "A11Sep23,A11Sep23", "--max-order", "4"]) == 2
    captured = capsys.readouterr()
    assert "repeated check ids: ['A11Sep23']" in captured.err and captured.out == ""


def test_cli_verify_machine_format_fields(capsys):
    code = main(["verify", "--suite", "A11Sep23", "--format", "machine", "--max-order", "6"])
    out = capsys.readouterr().out
    assert code == 0
    body = json.loads(out)
    assert body["format"] == "orespec-report-v1"
    assert body["clean"] is True
    report = body["reports"][1]
    assert set(report) == {
        "theorem_id", "track", "description", "note",
        "considered", "applicable", "passed", "cases", "counterexamples",
    }
    assert report["theorem_id"] == "A11Sep23"


def test_cli_verify_fault_injection_exit(capsys):
    code = main(["verify", "--suite", "A11Sep23", "--max-order", "6", "--inject-fault"])
    out = capsys.readouterr().out
    assert code == 1
    assert "counterexamples: 1" in out


def test_cli_verify_fault_seed_defaults_to_zero(capsys):
    argv = ["verify", "--max-order", "4", "--suite", "A11Sep23", "--inject-fault",
            "--format", "machine"]
    assert main(argv) == 1
    default = capsys.readouterr().out
    assert main(argv + ["--seed", "0"]) == 1
    assert capsys.readouterr().out == default


def test_cli_zmod_honours_the_order_cap(capsys, monkeypatch):
    def no_table(n, label=None):
        raise AssertionError(f"zmod({n}) table built despite the cap")

    monkeypatch.setattr("orespec.dsl.make_zmod", no_table)
    assert main(["describe", "zmod(40)", "--max-order", "16"]) == 3
    assert "zmod(40) has order 40 > cap 16" in capsys.readouterr().err
    assert main(["describe", "quot(zmod(40), gens=[20])", "--max-order", "16"]) == 3
    assert "zmod(40) has order 40 > cap 16" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["mat(120, gf(2))", "mat(5000, gf(2))", "tri(170, gf(2))"])
def test_cli_matrix_size_budget_is_checked_before_any_slot(capsys, text):
    # the order 2^(k*k) has thousands of digits; the message must not spell it out
    assert main(["describe", text]) == 3
    err = capsys.readouterr().err
    assert "> cap 16" in err and len(err) < 100, err


@pytest.mark.parametrize("text", ["mat(0, gf(2))", "tri(0, gf(2))"])
def test_cli_matrix_size_below_one_is_a_usage_error(capsys, text):
    assert main(["describe", text]) == 2
    err = capsys.readouterr().err
    assert "k >= 1, got k = 0" in err and "audit" not in err, err


def test_cli_verify_rejects_jobs_below_one(capsys):
    for jobs in ("0", "-1"):
        assert main(["verify", "--suite", "A11Sep23", "--max-order", "6", "--jobs", jobs]) == 2
        assert "--jobs: must be at least 1" in capsys.readouterr().err


def test_cli_rejects_exhaustive_order_below_one(capsys):
    for value in ("0", "-1"):
        assert main(["multsets", "zmod(6)", "--exhaustive-order", value]) == 2
        assert "--exhaustive-order: must be at least 1" in capsys.readouterr().err


def test_cli_exhaustive_sweep_budget_is_checked_before_any_ring(capsys, monkeypatch):
    def no_ring(*args):
        raise AssertionError("a ring was built despite the sweep budget")

    monkeypatch.setattr("orespec.cli.evaluate", no_ring)
    monkeypatch.setattr("orespec.cli.build_corpus", no_ring)
    assert main(["multsets", "zmod(6)", "--max-order", "32", "--exhaustive-order", "17"]) == 3
    assert "sweep up to order 17 > 16" in capsys.readouterr().err
    assert main(["verify", "--max-order", "17", "--exhaustive-order", "20"]) == 3
    assert "sweep up to order 17 > 16" in capsys.readouterr().err


def test_cli_mono_variable_budget_is_checked_before_any_sweep(capsys, monkeypatch):
    def no_sweep(*args):
        raise AssertionError("the subset sweep ran despite the variable budget")

    monkeypatch.setattr("orespec.cli.min_primes_monomial", no_sweep)
    assert main(["mono", "minprimes", "mono(vars=40, gens=[v1])"]) == 3
    assert "40 variables > 16" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["mat(5, gf(2))", "zmod(40)", "an(n=1)"])
def test_cli_mono_rejects_another_expression_before_building_it(capsys, monkeypatch, text):
    def no_ring(*args, **kwargs):
        raise AssertionError("a ring was built for a mono subcommand")

    for name in ("make_zmod", "make_gf", "make_matrix_ring", "make_upper_triangular",
                 "make_product", "make_quotient", "an_build"):
        monkeypatch.setattr(f"orespec.dsl.{name}", no_ring)
    for action in (["minprimes"], ["localize", "--invert", "1"]):
        assert main(["mono", action[0], text, *action[1:]]) == 2
        assert "mono subcommands need a mono(...) expression" in capsys.readouterr().err


def test_mono_variable_budget_is_checked_before_any_exponent_vector(capsys, monkeypatch):
    def no_vector(*args):
        raise AssertionError("an exponent vector was built despite the variable budget")

    monkeypatch.setattr("orespec.dsl._exponent_vector", no_vector)
    text = "mono(vars=2000000, gens=[v1, v2])"
    with pytest.raises(DegreeBudgetError):
        parse_ring_expr(text)
    assert main(["describe", text]) == 3
    assert "2000000 variables > 16" in capsys.readouterr().err


def test_cli_verify_explains_one_counterexample(capsys):
    argv = ["verify", "--max-order", "4", "--suite", "A11Sep23", "--inject-fault"]
    assert main(argv + ["--explain", "axiom-audit:0"]) == 1
    out = capsys.readouterr().out
    assert "clause:     axiom-audit" in out and "axiom-audit" in out.splitlines()[0]
    assert '"clean"' not in out and "A11Sep23" not in out


def test_cli_verify_explains_the_instance_that_ran(capsys):
    # the corrupted table failed the audit, so explain shows its audit, not the
    # healthy ring that the provenance alone would rebuild
    argv = ["verify", "--max-order", "4", "--suite", "A11Sep23", "--inject-fault"]
    assert main(argv + ["--explain", "axiom-audit:0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("audit:") for line in lines)
    assert not any(line.startswith("units:") for line in lines)


@pytest.mark.parametrize("value", ["axiom-audit:1", "A11Sep23:0"])
def test_cli_verify_explain_index_out_of_range(capsys, value):
    argv = ["verify", "--max-order", "4", "--suite", "A11Sep23", "--inject-fault"]
    assert main(argv + ["--explain", value]) == 2
    assert "counterexamples" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nope:0", "A2Oct23:0", "axiom-audit", "axiom-audit:x",
                                   "axiom-audit:-1", ":0"])
def test_cli_verify_explain_rejects_bad_targets_before_the_run(capsys, monkeypatch, value):
    def no_corpus(*args):
        raise AssertionError("the corpus was built despite a bad --explain")

    monkeypatch.setattr("orespec.cli.build_corpus", no_corpus)
    assert main(["verify", "--suite", "A11Sep23", "--explain", value]) == 2


def test_cli_exhaustive_order_is_bounded_by_the_order_cap(capsys):
    # the sweep never exceeds --max-order, so a large --exhaustive-order alone passes
    assert main(["multsets", "zmod(6)", "--exhaustive-order", "40"]) == 0
    assert "7 multiplicative sets of zmod(6)" in capsys.readouterr().out


def test_cli_an_rejects_negative_n_and_degree_below_one(capsys):
    assert main(["an", "verify", "--n", "2", "--degree", "-1"]) == 2
    assert "--degree: must be at least 1" in capsys.readouterr().err
    assert main(["an", "verify", "--n", "2", "--degree", "0"]) == 2
    capsys.readouterr()
    assert main(["an", "verify", "--n", "-1"]) == 2
    assert "n >= 0 and degree >= 1" in capsys.readouterr().err
    assert main(["an", "verify", "--n", "5"]) == 3
    assert main(["an", "verify", "--n", "1", "--degree", "9"]) == 3
    capsys.readouterr()


def test_cli_verify_rejects_an_empty_suite(capsys, monkeypatch):
    def no_corpus(*args):
        raise AssertionError("the corpus was built for an empty suite")

    monkeypatch.setattr("orespec.cli.build_corpus", no_corpus)
    for suite in (",", " , "):
        assert main(["verify", "--suite", suite]) == 2
        assert "names no check ids" in capsys.readouterr().err


ROOT = pathlib.Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def test_cli_closed_stdout_ends_quietly():
    proc = subprocess.Popen([sys.executable, "-m", "orespec.cli", "multsets", "zmod(12)"],
                            env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the reader is gone before the first write
    err = proc.stderr.read().decode()
    code = proc.wait(timeout=120)
    proc.stderr.close()
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert code == 2


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def fileno(self):
        return self.fd


def test_corpus_survey_closed_stdout_exits_2(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("corpus_survey",
                                                  ROOT / "scripts" / "corpus_survey.py")
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    with open(tmp_path / "stdout", "w") as fh:  # the descriptor pointed at devnull
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno()))
        monkeypatch.setattr(sys, "argv", ["corpus_survey.py", "--max-order", "4"])
        assert survey.main() == 2


@pytest.mark.parametrize("script", ["corpus_survey.py"])
def test_scripts_reject_max_order_below_one(script):
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--max-order", "0"],
                          env=ENV, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert "--max-order: must be at least 1" in done.stderr


def test_ab_finite_claims_a_gain_only_under_the_pair_rule():
    spec = importlib.util.spec_from_file_location("ab_finite", ROOT / "scripts" / "ab_finite.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    parent = [1.00, 1.02, 1.04, 1.06, 1.08, 1.10, 1.12, 1.14, 1.16, 1.18]
    assert ab.quartiles(parent) == pytest.approx((1.045, 1.135))
    assert ab.verdict(parent, [p - 0.2 for p in parent]) == (10, True)
    # lower in every round, but by less than the parent's interquartile range
    assert ab.verdict(parent, [p - 0.05 for p in parent]) == (10, False)
    # far lower in 8 rounds of 10; ties count for neither side
    assert ab.verdict(parent, [p - 0.2 for p in parent[:8]] + parent[8:]) == (8, False)
    assert ab.quartiles([0.5]) == (0.5, 0.5)
