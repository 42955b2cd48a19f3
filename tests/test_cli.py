from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permsplit
from permsplit import cli
from permsplit.cli import parse_spec, run
from permsplit.perms import Permutation, enumerate_avoiders
from permsplit.splitters import ColoringCertificate, SplittingSpec

P = Permutation.from_text


def run_lines(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = run(argv)
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line]


@pytest.mark.parametrize(
    "basis, counts",
    [
        # OEIS A061552
        ("1324", [1, 1, 2, 6, 23, 103, 513, 2762, 15793, 94776]),
        # OEIS A047889
        ("1432", [1, 1, 2, 6, 23, 103, 513, 2761, 15767, 94359]),
        ("1234", [1, 1, 2, 6, 23, 103, 513, 2761, 15767, 94359]),
        # the walk reads these through completing intervals: OEIS A022558
        ("2413", [1, 1, 2, 6, 23, 103, 512, 2740, 15485, 91245]),
        # the separable permutations, OEIS A006318
        ("2413,3142", [1, 1, 2, 6, 22, 90, 394, 1806, 8558, 41586]),
    ],
)
def test_counts_match_oeis(capsys, basis, counts):
    got = [
        run_lines(capsys, ["enumerate", "--avoid", basis, "--n", str(n), "--count"])
        for n in range(10)
    ]
    assert got == [(0, [{"n": n, "count": count}]) for n, count in enumerate(counts)]
    elements = {P(b) for b in basis.split(",")}
    assert [len(list(enumerate_avoiders(elements, n))) for n in range(10)] == counts


def test_order_zero_and_a_basis_with_the_empty_permutation(capsys):
    # the outputs of the level walk that the last-value walk replaced
    cases = [
        (["enumerate", "--avoid", "132", "--n", "0"], 0, [{"perm": "ε"}]),
        (["enumerate", "--avoid", "132", "--n", "0", "--count"], 0, [{"n": 0, "count": 1}]),
        (["enumerate", "--avoid", "1", "--n", "0"], 0, [{"perm": "ε"}]),
        (["enumerate", "--avoid", "1", "--n", "1", "--count"], 0, [{"n": 1, "count": 0}]),
        (["enumerate", "--avoid", "ε", "--n", "0"], 0, []),
        (["enumerate", "--avoid", "ε", "--n", "0", "--count"], 0, [{"n": 0, "count": 0}]),
        (["enumerate", "--avoid", "ε,12", "--n", "2"], 0, []),
        (["enumerate", "--avoid", "ε", "--n", "3", "--count"], 0, [{"n": 3, "count": 0}]),
    ]
    empty = {"checked": 0, "failures": [], "max_colors_used": 0, "fallbacks": 0, "pass": True}
    one = dict(empty, checked=1)  # ε alone
    cases += [
        (["verify", "--class", "1432", "--parts", "132", "--max-n", "0"], 0, [one]),
        (["verify", "--class", "1", "--parts", "132", "--max-n", "3"], 0, [one]),
        (["verify", "--class", "ε", "--parts", "132", "--max-n", "0"], 0, [empty]),
        (["verify", "--class", "ε", "--parts", "132", "--max-n", "3"], 0, [empty]),
    ]
    for argv, code, lines in cases:
        assert run_lines(capsys, argv) == (code, lines), argv


def test_parse_spec():
    assert parse_spec("132,213") == SplittingSpec.of(P("132"), P("213"))
    assert parse_spec("2*132") == SplittingSpec(((P("132"), 2),))
    assert parse_spec("2*1 3 2,213") == SplittingSpec(((P("132"), 2), (P("213"), 1)))
    with pytest.raises(ValueError):
        parse_spec("")
    with pytest.raises(ValueError):
        parse_spec("132,,213")


def test_classify_and_contains(capsys):
    code, lines = run_lines(capsys, ["classify", "2413"])
    assert code == 0 and lines == [{"verdict": "unsplittable", "reason": "simple"}]
    code, lines = run_lines(capsys, ["contains", "132", "2413"])
    assert code == 0 and lines == [{"contains": True, "embedding": [1, 2, 4]}]
    code, lines = run_lines(capsys, ["contains", "1324", "2413"])
    assert code == 0 and lines == [{"contains": False, "embedding": None}]


def test_enumerate_and_count(capsys):
    code, lines = run_lines(capsys, ["enumerate", "--avoid", "21", "--n", "4"])
    assert code == 0 and lines == [{"perm": "1 2 3 4"}]
    code, lines = run_lines(capsys, ["enumerate", "--avoid", "132", "--n", "6", "--count"])
    assert code == 0 and lines == [{"n": 6, "count": 132}]
    # an order past the default recursion limit's depth of one level per frame pair
    code, lines = run_lines(capsys, ["enumerate", "--avoid", "21", "--n", "500", "--count"])
    assert code == 0 and lines == [{"n": 500, "count": 1}]


def test_split_stream_and_round_trip(capsys, monkeypatch):
    code, lines = run_lines(
        capsys,
        ["split", "--method", "greedy3", "--pattern", "1324", "--input", "-"],
        stdin_text="2413\n{\"perm\": \"3 2 1\"}\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0 and len(lines) == 2
    cert = ColoringCertificate.from_json_dict(lines[0])
    assert cert.subject == P("2413") and cert.colors == (0, 0, 0, 1)
    # every JSON output re-parses into the originating value
    assert ColoringCertificate.from_json_dict(lines[1]).subject == P("321")


def test_split_precondition_failure_exits_one(capsys, monkeypatch):
    code, _ = run_lines(
        capsys,
        ["split", "--method", "greedy3", "--pattern", "1324", "--input", "-"],
        stdin_text="1324\n",
        monkeypatch=monkeypatch,
    )
    assert code == 1
    # a pattern outside a forced method's domain: one error naming the method
    for method, pattern in (
        ("greedy3", "2143"),
        ("dilworth", "123"),
        ("oneplus", "1423"),
        ("oneplus", "12"),
    ):
        monkeypatch.setattr(sys, "stdin", io.StringIO("12\n"))
        code = run(["split", "--method", method, "--pattern", pattern, "--input", "-"])
        out, err = capsys.readouterr()
        assert code == 1 and out == "", (method, pattern)
        assert err.startswith("error:") and method in err, err


# SHA-256 of `split` stdout over the avoiders of orders 1-6 of the pattern,
# recorded before `split` dispatched through theorem_plan (13425, route b with
# the searched red part 1342 = 1⊕231, before greedy_colors read that search
# as a (completes, push) pair); a change is a behaviour change
SPLIT_STREAM_SHA256 = {
    ("greedy3", "1324"): "4c27d8f4649936c6056cac70aa341d41f1965420f83f002b1085063912a3e1a2",
    ("greedy3", "1243"): "58eee144767e66df331c1b36f86616b68054cd1b8d63468371714166facae8e7",
    ("dilworth", "321"): "eb42e2aa40e46c1f544170bf60893801a183bd5ce9f44a29cef61ecbdb1ab855",
    ("oneplus", "1432"): "51b94f987e5ad7c346bf92134b65db3e2770d7a2d4b9c6a0f15f5bc31ddb15d7",
    ("theorem", "1243"): "a199aa0d841e0d8c3cdec2136ae1718d8c17f308d25086e51e0784ffd35734d0",
    ("theorem", "1324"): "4c27d8f4649936c6056cac70aa341d41f1965420f83f002b1085063912a3e1a2",
    ("theorem", "1432"): "169f16c866b728163e19169b56383a1aae0d7b8cc4557d4f3da9f0e89ac7b904",
    ("theorem", "3214"): "4badfc45a4232750ef5121ba5f01f96659b48fe14a455eb933162ffa28245913",
    ("theorem", "4123"): "94e715f5148e0d2549373955b7052cad340a3f879573f000a17fe03ca88b5011",
    ("theorem", "13425"): "be6d19585795bb14c644bcb497d001d32a559bbf3559ae656aa3316155e2991c",
    # red part 1243 = I_2 ⊕ D_2, the only pinned scan with a >= 2; recorded
    # while greedy_colors still asked a separate run-drop state object
    ("greedy3", "12435"): "ef17f5f07615ff475a3ed34ea63685c1e36ba86f43b5411dedeb6a1c78bf6184",
    # route e through route a, behind an avoids(4321, ·) check: D_4, whose
    # image I_4 is decided by least_top's patience pass; recorded while that
    # check still took a k = 0 branch of _run_drop_splits
    ("theorem", "4321"): "633a4df8ccbd7f8639b8eea1dd8202397ead440464f708cd29c88008a279a856",
}


@pytest.mark.parametrize(("method", "pattern"), list(SPLIT_STREAM_SHA256))
def test_split_streams_are_pinned_and_parallel_safe(capsys, monkeypatch, method, pattern):
    subjects = "".join(
        p.text() + "\n" for n in range(1, 7) for p in enumerate_avoiders({P(pattern)}, n)
    )
    streams = []
    for jobs in ("1", "2"):
        monkeypatch.setattr(sys, "stdin", io.StringIO(subjects))
        argv = ["--jobs", jobs, "split", "--method", method, "--pattern", pattern]
        assert run(argv + ["--input", "-"]) == 0
        streams.append(capsys.readouterr().out)
    assert streams[0] == streams[1]
    assert hashlib.sha256(streams[0].encode()).hexdigest() == SPLIT_STREAM_SHA256[method, pattern]


@pytest.mark.parametrize("failing", ["1324", "1x3"])
def test_split_streams_fail_in_place_under_jobs(capsys, monkeypatch, failing):
    # a subject that violates the precondition, or a malformed line, second in
    # the stream and past the first chunk a worker receives: every subject
    # before it is still printed, whatever the number of workers
    for subjects in (["123", failing, "12"], ["123"] * 20 + [failing, "12"]):
        results = []
        for jobs in ("1", "2"):
            monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(subjects) + "\n"))
            argv = ["--jobs", jobs, "split", "--method", "theorem", "--pattern", "1324"]
            code = run(argv + ["--input", "-"])
            results.append((code, *capsys.readouterr()))
        assert results[0] == results[1], subjects
        code, out, err = results[0]
        assert code == 1 and out.count("\n") == len(subjects) - 2 and err.startswith("error:")


def test_jobs_beyond_the_cpu_count_are_lowered_to_it(capsys, monkeypatch):
    # the fake pool records its size and maps in this process, so no worker
    # starts; a bound of 1 (one CPU, or none reported) takes the serial path
    pools = []

    class FakePool:
        def __init__(self, processes):
            pools.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, lines, chunksize=1):
            return map(fn, lines)

    monkeypatch.setattr(cli, "Pool", FakePool)
    subjects = "".join(
        p.text() + "\n" for n in range(1, 6) for p in enumerate_avoiders({P("1324")}, n)
    )
    streams = []
    for cpus, jobs in ((4, "1000000"), (4, "1"), (1, "8"), (None, "8")):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        monkeypatch.setattr(sys, "stdin", io.StringIO(subjects))
        argv = ["--jobs", jobs, "split", "--method", "theorem", "--pattern", "1324"]
        assert run(argv + ["--input", "-"]) == 0
        streams.append(capsys.readouterr().out)
    assert pools == [4]
    assert streams[0].count("\n") == 135 and streams.count(streams[0]) == 4


def test_verify_exit_codes(capsys):
    code, lines = run_lines(
        capsys, ["verify", "--class", "1324", "--parts", "132,213", "--max-n", "4"]
    )
    assert code == 0 and lines[0]["pass"] is True
    code, lines = run_lines(
        capsys, ["verify", "--class", "123", "--parts", "12", "--max-n", "2"]
    )
    assert code == 1 and lines[0]["pass"] is False
    assert lines[0]["failures"][0]["subject"] == "1 2"


def test_envelope_verbs(capsys):
    code, lines = run_lines(capsys, ["envelope", "encode", "132"])
    assert code == 0 and lines == [
        {"perm": "1 3 2", "path": "DDDRRR", "arcs": "1-5 2-6 3-4"}
    ]
    code, lines = run_lines(capsys, ["envelope", "decode", "1-5 2-6 3-4"])
    assert lines == [{"perm": "1 3 2"}]
    code, lines = run_lines(capsys, ["envelope", "decode", "1-3 2-4"])
    assert lines == [{"perm": None}]
    code, lines = run_lines(capsys, ["envelope", "reduce", "132"])
    assert lines == [{"arcs": "1-3 2-4"}]


def test_construct_verbs(capsys):
    code, lines = run_lines(capsys, ["construct", "mprime", "--sigma", "231"])
    assert code == 0 and lines == [{"arcs": "1-5 2-3 4-6"}]
    code, lines = run_lines(
        capsys, ["construct", "tau", "--sigma", "21", "--matching", "1-2"]
    )
    assert lines == [{"perm": "1 2"}]
    code, _ = run_lines(capsys, ["construct", "nplus", "--sigma", "132"])
    assert code == 1  # 132 is decomposable
    code, lines = run_lines(capsys, ["construct", "nminus", "--sigma", "231"])
    assert code == 0 and lines == [{"arcs": "1-5 2-8 3-7 4-6"}]
    assert run(["construct", "tau", "--sigma", "231"]) == 1
    assert capsys.readouterr().err == "error: construct tau needs --matching\n"


def test_color_matching(capsys, monkeypatch):
    code, lines = run_lines(
        capsys,
        ["color-matching", "--forbid-clique", "3", "--input", "-"],
        stdin_text="1-3 2-4\n1-2 3-4\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert lines[0]["arcs"] == "1-3 2-4" and lines[0]["colors_used"] == 2
    assert lines[1]["colors_used"] == 1


def test_color_matching_the_empty_matching(capsys, monkeypatch):
    # the empty matching has no arc to colour, even with no colour to give:
    # m(1), one arc, is the obstacle for --forbid-clique 1
    for clique in ("1", "2", "3"):
        code, lines = run_lines(
            capsys,
            ["color-matching", "--forbid-clique", clique, "--input", "-"],
            stdin_text='{"arcs": ""}\n',
            monkeypatch=monkeypatch,
        )
        assert (code, lines) == (0, [{"arcs": "", "colors": [], "colors_used": 0}]), clique
    monkeypatch.setattr(sys, "stdin", io.StringIO("1-2\n"))
    assert run(["color-matching", "--forbid-clique", "1", "--input", "-"]) == 1
    assert capsys.readouterr().err == "error: matching has 1 pairwise crossing arcs\n"


def test_usage_errors(capsys):
    assert run(["bogus"]) == 2
    assert run(["enumerate", "--unknown-flag", "1"]) == 2
    assert run(["split", "--method", "nope", "--pattern", "1324"]) == 2


def test_input_errors_follow_the_exit_code_contract(capsys, monkeypatch, tmp_path):
    missing = str(tmp_path / "missing.txt")
    assert run(["split", "--method", "theorem", "--pattern", "1324", "--input", missing]) == 2
    assert capsys.readouterr().err.startswith("error:")
    readable = tmp_path / "subjects.txt"
    readable.write_text("2413\n\n321\n")
    assert run(["split", "--method", "theorem", "--pattern", "1324", "--input", str(readable)]) == 0
    assert capsys.readouterr().out.count("\n") == 2
    assert run(["color-matching", "--forbid-clique", "3", "--input", missing]) == 2
    assert capsys.readouterr().err.startswith("error:")
    cases = (
        (["split", "--method", "theorem", "--pattern", "1324"], '{"arcs": "1-2"}\n'),
        (["color-matching", "--forbid-clique", "3"], '{"perm": "1"}\n'),
        (["color-matching", "--forbid-clique", "3"], "nan-5 2-3\n"),
        (["color-matching", "--forbid-clique", "3"], '{"arcs": "2-3 nan-5"}\n'),
        (["color-matching", "--forbid-clique", "3"], "1-inf 2-3\n"),
        (["color-matching", "--forbid-clique", "3"], "12\n"),
        (["color-matching", "--forbid-clique", "3"], "1-2 3\n"),
    )
    # JSON nested past the parser's recursion limit, serial and in a worker;
    # a pattern outside the method's domain fails on empty input too
    deep = "[" * 10**5 + "]" * 10**5
    for jobs in ([], ["--jobs", "2"]):
        cases += (
            (jobs + ["split", "--method", "theorem", "--pattern", "1324"], f'{{"perm": {deep}}}\n'),
            (jobs + ["color-matching", "--forbid-clique", "3"], f'{{"arcs": {deep}}}\n'),
        )
        for method, pattern in (("dilworth", "132"), ("theorem", "2413"), ("greedy3", "1432")):
            cases += ((jobs + ["split", "--method", method, "--pattern", pattern], ""),)
    for argv, stdin_text in cases:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        assert run(argv + ["--input", "-"]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:"), argv
        if stdin_text in ("12\n", "1-2 3\n"):
            assert "bad arc token" in captured.err, stdin_text
    # an empty basis entry would be Av(ε), the empty class, and pass vacuously
    for argv in (
        ["verify", "--class", "1324,", "--parts", "132,213", "--max-n", "6"],
        ["enumerate", "--avoid", "132,", "--n", "4", "--count"],
    ):
        assert run(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:"), argv
    code, lines = run_lines(capsys, ["enumerate", "--avoid", "132,ε", "--n", "4", "--count"])
    assert code == 0 and lines == [{"n": 4, "count": 0}]  # an explicit ε stays accepted
    # integer options out of range are usage errors at parse time, before any
    # input is read or worker pool started
    for argv in (
        ["--jobs", "0", "classify", "1324"],
        ["--jobs", "-5", "classify", "1324"],
        ["verify", "--class", "1432", "--parts", "132,213", "--max-n", "-2"],
        ["enumerate", "--avoid", "132", "--n", "-1"],
        ["color-matching", "--forbid-clique", "0", "--input", missing],
        ["color-matching", "--forbid-clique", "-1", "--input", missing],
    ):
        assert run(argv) == 2, argv
        assert "must be at least" in capsys.readouterr().err, argv
    assert run(["--jobs", "abc", "classify", "1324"]) == 2
    assert "invalid integer 'abc'" in capsys.readouterr().err


def test_module_entry_point_runs():
    src = str(Path(permsplit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-m", "permsplit.cli", "classify", "1324"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"verdict": "splittable", "reason": "decomposable"}


def test_seed_accepted_and_ignored(capsys):
    code, lines = run_lines(capsys, ["--seed", "7", "classify", "1324"])
    assert code == 0 and lines[0]["verdict"] == "splittable"
