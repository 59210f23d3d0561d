"""Every imported name is read by the file that imports it.

Covers the engine under `src/orespec/`, the scripts and the tests.  A name
counts as read when the file loads it (`name` or `name.attr`) anywhere, or
lists it in `__all__`.  `from __future__` imports are directives, not names.
Importing the command line loads no module it does not use.
"""

import ast
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parents[1]
SCANNED = (ROOT / "src" / "orespec", ROOT / "scripts", ROOT / "tests")


def _unread_imports(tree):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_unread_imports():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for folder in SCANNED
        for path in sorted(folder.glob("*.py"))
        for line, name in _unread_imports(ast.parse(path.read_text()))
    ]
    assert offenders == []


def test_importing_the_cli_loads_no_multiprocessing():
    code = "import sys, orespec.cli; print('multiprocessing' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)
    assert (done.returncode, done.stdout.strip()) == (0, "False"), done.stderr
