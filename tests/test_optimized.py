"""Guarantees are explicit checks, not `assert` statements, so they still
run under `python -O`.

Parses each module under permsplit with `ast` to find `assert`s, and runs a
broken base colorer in an optimized subprocess to see its check fire.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import permsplit

PACKAGE = Path(permsplit.__file__).parent

BROKEN_BASE = """
from permsplit.errors import VerificationError
from permsplit.matchings import Matching
from permsplit.perms import Permutation
from permsplit.splitters import ColoringCertificate, MatchingBase

wrong = (Permutation((1,)),)
base = MatchingBase(
    parts=(Permutation((2, 1)),),
    fn=lambda m: ColoringCertificate(subject=m, parts=wrong, colors=(0,) * len(m)),
)
try:
    base(Matching(((1, 2),)))
except VerificationError as exc:
    print("VerificationError:", exc)
"""


def test_no_assert_statements_in_the_package():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} has assert statements at lines {lines}"


def test_base_colorer_check_survives_optimize():
    src = str(PACKAGE.resolve().parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_BASE],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("VerificationError: base colorer must keep a fixed part list")
