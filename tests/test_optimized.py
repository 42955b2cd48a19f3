"""Guarantees are explicit checks, not `assert` statements, so they still
run under `python -O`.

Parses each module under permsplit with `ast` to find `assert`s, and triggers
every `VerificationError` check in one optimized subprocess to see it fire.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import permsplit

PACKAGE = Path(permsplit.__file__).parent

# Each check is reached through a public input where one exists; the others,
# which correct code never reaches, through a substituted module attribute.
EVERY_CHECK = """
from unittest import mock

from permsplit import constructions, envelope, matchings, oracle, splitters
from permsplit.errors import VerificationError
from permsplit.matchings import Matching
from permsplit.perms import Permutation
from permsplit.splitters import ColoringCertificate, MatchingBase

M, P = Matching.from_text, Permutation.from_text


def fires(fn, *args):
    try:
        fn(*args)
    except VerificationError as exc:
        print(f"{type(exc).__name__}: {exc}")


def colorer(parts):
    return lambda q: ColoringCertificate(subject=q, parts=parts, colors=(0,) * len(q))


fires(MatchingBase(parts=(P("21"),), fn=colorer((P("1"),))), M("1-2"))
fires(splitters.dilworth_matching_base(3), M("1-2 3-4"))
with mock.patch.object(splitters, "weight", lambda m: 0):
    fires(splitters.circle_color, M("1-3 2-4"), 3)
lone = splitters._ObstaclePlan(M("1-2"), 1, "", None, None)
with mock.patch.object(
    splitters, "_plan", lambda obs: splitters._ObstaclePlan(obs, len(obs), "components", lone, lone)
):
    fires(splitters.circle_color, M("1-3 2-4"), 3)
splitters.circle_color(M("1-3 2-4"), 3)  # no patched weight or plan outlives its line
with mock.patch.object(splitters, "matching_contains", lambda pattern, host: False):
    fires(splitters.match_split, M("1-2"), P("21"), M("1-2"), splitters.dilworth_matching_base(3))
with mock.patch.object(oracle, "_recheck_witness", lambda sigma, tau, pi: False):
    fires(oracle.unavoidable_witness, [P("123")], P("1"), P("1"), 1)
with mock.patch.object(envelope, "decode_envelope", lambda m: None):
    fires(envelope.matching_to_perm, M("1-2"))
with mock.patch.object(matchings, "blocks", lambda m: (m,)):
    fires(matchings.m_plus, M("1-2 3-4"))
with mock.patch.object(
    constructions, "_augment_connected_avoiding", lambda base, forbidden: forbidden
):
    fires(constructions.n_plus, P("2413"))
constructions.n_plus(P("3142"))  # cached, so n_minus(2413) reaches its own check
with mock.patch.object(constructions, "is_connected", lambda m: False):
    fires(constructions.n_minus, P("2413"))
    fires(constructions.n_plus, P("231"))
with mock.patch.object(constructions, "avoids", lambda pattern, host: False):
    fires(constructions.tau_of, M("1-2"), P("21"))
"""

EVERY_CHECK_FIRES = [
    "VerificationError: base colorer must keep a fixed part list",
    "VerificationError: base colorer needs a permutation matching",
    "VerificationError: palette exceeded the 4^weight bound",
    "VerificationError: recursive avoidance guarantee broke",
    "VerificationError: nonempty host cannot avoid a single-arc obstacle",
    "VerificationError: witness 1 failed its re-check",
    "VerificationError: short-arc insertion must produce an envelope matching",
    "VerificationError: leftmost arc of an indecomposable matching is long",
    "VerificationError: n_plus(2 4 1 3) failed its guarantees",
    "VerificationError: n_minus(2 4 1 3) failed its guarantees",
    "VerificationError: no connected avoiding augmentation within bounds",
    "VerificationError: tau_of produced a witness containing 1⊕2 1",
]


def test_no_assert_statements_in_the_package():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} has assert statements at lines {lines}"


def test_every_check_fires_under_optimize():
    # one line above per `raise` of a VerificationError
    raises = 0
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                name = getattr(node.exc.func, "id", "")
                raises += name == "VerificationError"
    assert raises == len(EVERY_CHECK_FIRES)
    src = str(PACKAGE.resolve().parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", EVERY_CHECK],
        capture_output=True,
        encoding="utf-8",
        env=dict(os.environ, PYTHONPATH=path, PYTHONIOENCODING="utf-8"),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == EVERY_CHECK_FIRES
