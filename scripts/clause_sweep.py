#!/usr/bin/env python3
"""Clause-deletion sweep: which failure clauses does the test suite notice?

A clause site is a `yield "<clause>", ...` in `checks.py` or a
`return "<clause>", ...` in an evaluator of `checks.py`, `localization.py`,
`centre.py`, `ideals.py` or `monomial.py`.  A decision site is a
`return False` in `finring.py`, `ideals.py` or `localization.py`: the early
exit of a yes/no test of the engine, such as the audit's generator test,
named after its function.  For each site, one at a time, the
sweep copies the checkout to a temporary directory, replaces that statement
with `pass` there, and tests the copy in stages, cheapest first, stopping
at the first that fails:

1. `report`: the machine report of the default corpus, all checks, whose
   sha256 must equal the unmutated checkout's (about 1 s);
2. `fail-paths`: `tests/test_fail_paths.py`, stopping at the first failure;
3. `tier-1`: every test, stopping at the first failure.

The site is `killed` when a stage fails (the stage and, for the test
stages, the first failing test id are printed) and `survived` when all
three pass: nothing notices that the clause is gone.  The checkout itself
is never edited.

    python3 scripts/clause_sweep.py            # every site
    python3 scripts/clause_sweep.py --list     # the sites only
    python3 scripts/clause_sweep.py --only checks.py:681
    python3 scripts/clause_sweep.py --only centre.py --only finring.py

Exits 0 when every site is killed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = pathlib.Path("src") / "orespec"
TARGETS = {
    "checks.py": (ast.Yield, ast.Return),
    "localization.py": ast.Return,
    "centre.py": ast.Return,
    "ideals.py": ast.Return,
    "monomial.py": ast.Return,
}
DECISIONS = ("finring.py", "ideals.py", "localization.py")


def _clause(node) -> str | None:
    """The clause name of a `yield`/`return` of a (clause, detail) tuple."""
    value = node.value
    if isinstance(value, ast.Tuple) and value.elts:
        first = value.elts[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value
    return None


def sites() -> list[tuple[str, ast.stmt, str]]:
    """(file name, statement, clause) for every clause site, in file order."""
    out = []
    for name, kind in TARGETS.items():
        tree = ast.parse((ROOT / PACKAGE / name).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Expr) and isinstance(node.value, kind):
                expr = node.value
            elif isinstance(node, ast.Return) and isinstance(node, kind):
                expr = node
            else:
                continue
            clause = _clause(expr)
            if clause is not None:
                out.append((name, node, clause))
    for name in DECISIONS:
        tree = ast.parse((ROOT / PACKAGE / name).read_text())
        owner = {}  # return statement -> its innermost function; outer ones come first
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if (isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
                            and node.value.value is False):
                        owner[node] = fn.name
        out += [(name, node, f"{fn}: return False") for node, fn in owner.items()]
    files = list(dict.fromkeys([*TARGETS, *DECISIONS]))
    return sorted(out, key=lambda s: (files.index(s[0]), s[1].lineno))


def mutant(source: str, stmt: ast.stmt) -> str:
    """source with stmt replaced by `pass`."""
    lines = source.splitlines(keepends=True)
    first, last = stmt.lineno - 1, stmt.end_lineno - 1
    head = lines[first][: stmt.col_offset]
    tail = lines[last][stmt.end_col_offset:]
    return "".join(lines[:first]) + head + "pass" + tail + "".join(lines[last + 1:])


REPORT = """
import hashlib
from orespec.checks import COVERAGE
from orespec.harness import CorpusConfig, build_corpus, render_machine, run_suite
cfg = CorpusConfig()
print(hashlib.sha256(render_machine(run_suite(build_corpus(cfg), COVERAGE, cfg)).encode()).hexdigest())
"""


def _run(tree: pathlib.Path, args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], cwd=tree, env=env,
                          capture_output=True, text=True)


def report_sha(tree: pathlib.Path) -> str:
    """The sha256 of the default corpus's machine report in tree, or the
    interpreter's exit status when it fails."""
    proc = _run(tree, ["-c", REPORT])
    return proc.stdout.strip() if proc.returncode == 0 else f"exit {proc.returncode}"


def failing_test(tree: pathlib.Path, *paths: str) -> str | None:
    """The first failing test id of paths in tree, or None when they pass."""
    proc = _run(tree, ["-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
                       "--continue-on-collection-errors", *paths])
    if proc.returncode == 0:
        return None
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ")[0]
    return f"pytest exit {proc.returncode}"


def first_kill(copy: pathlib.Path, sha: str) -> str | None:
    """The first stage that fails in copy, with its failing test, or None."""
    if report_sha(copy) != sha:
        return "report"
    for stage, paths in (("fail-paths", ["tests/test_fail_paths.py"]), ("tier-1", [])):
        failing = failing_test(copy, *paths)
        if failing:
            return f"{stage:<10}  {failing}"
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--list", action="store_true", help="print the sites and run nothing")
    ap.add_argument("--only", action="append", default=[], metavar="FILE[:LINE]",
                    help="sweep only this site, or every site of FILE (repeatable)")
    args = ap.parse_args()

    todo = [s for s in sites()
            if not args.only or s[0] in args.only or f"{s[0]}:{s[1].lineno}" in args.only]
    if args.list:
        for name, stmt, clause in todo:
            print(f"{name}:{stmt.lineno}  {clause}")
        return 0

    survived = 0
    sha = report_sha(ROOT)
    with tempfile.TemporaryDirectory(prefix="clause-sweep-") as tmp:
        copy = pathlib.Path(tmp) / "repo"
        for name, stmt, clause in todo:
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
            path = copy / PACKAGE / name
            path.write_text(mutant(path.read_text(), stmt))
            kill = first_kill(copy, sha)
            survived += kill is None
            verdict = f"killed    {kill}" if kill else "survived"
            print(f"{name}:{stmt.lineno}  {clause!r}  {verdict}", flush=True)
    print(f"{len(todo)} sites: {len(todo) - survived} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
