"""Tests of the benchmark itself: its generators, its correctness gate, its
metric names and its refusal to run under `python -O`.

Run with: PYTHONPATH=src python -m pytest -q bench
"""
from __future__ import annotations

import json
import random
import re
import subprocess
import sys
from itertools import combinations, permutations, product
from pathlib import Path

import generators as gen
import run
from permsplit.constructions import theorem_certificate
from permsplit.matchings import Matching
from permsplit.perms import Permutation

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def brute_contains(pattern: tuple[int, ...], host: tuple[int, ...]) -> bool:
    """Subset scan: some len(pattern) entries of host are order-isomorphic to it."""
    m = len(pattern)
    return any(
        all(
            (host[a] < host[b]) == (pattern[i] < pattern[j])
            for (i, a), (j, b) in combinations(enumerate(pos), 2)
        )
        for pos in combinations(range(len(host)), m)
    )


def test_321_avoiders_avoid_their_pattern():
    rng = random.Random(1)
    for n in range(1, 10):
        for _ in range(5):
            p = gen.random_321_avoider(n, rng).values
            assert not brute_contains((3, 2, 1), p)
            assert not brute_contains((1, 2, 3), p[::-1])


def test_dyck_map_is_a_bijection_onto_321_avoiders():
    for n in range(1, 7):
        paths = [
            "".join(w)
            for w in product("UD", repeat=2 * n)
            if all(w[:k].count("U") >= w[:k].count("D") for k in range(2 * n + 1))
            and w.count("U") == n
        ]
        images = {gen.dyck_to_321_avoider(path).values for path in paths}
        expected = {q for q in permutations(range(1, n + 1)) if not brute_contains((3, 2, 1), q)}
        assert images == expected


def test_random_dyck_paths_are_dyck_paths():
    rng = random.Random(2)
    for n in range(1, 30):
        path = gen.random_dyck_path(n, rng)
        heights = [path[:k].count("U") - path[:k].count("D") for k in range(2 * n + 1)]
        assert len(path) == 2 * n and min(heights) == 0 and heights[-1] == 0


def test_exhaustive_levels_match_a_brute_filter():
    for text in ("1243", "1324", "1432"):
        pattern = Permutation.from_text(text).values
        levels = gen.exhaustive_levels(Permutation.from_text(text), 6)
        for n, level in enumerate(levels):
            brute = [q for q in permutations(range(1, n + 1)) if not brute_contains(pattern, q)]
            assert level == brute


def test_skew_sums_of_class_members_avoid_the_pattern():
    rng = random.Random(3)
    for text in ("1243", "1324"):
        pattern = Permutation.from_text(text)
        levels = gen.exhaustive_levels(pattern, 5)
        for _ in range(6):
            pieces = [rng.choice(levels[rng.randint(1, 5)]) for _ in range(rng.randint(2, 3))]
            host = gen.skew_sum_of(pieces)
            assert not brute_contains(pattern.values, host.values)


def test_large_certs_subjects_avoid_their_patterns():
    inputs = run.Inputs("large-certs", 4)
    batch = inputs.batch(0)
    assert len(batch) == run.STRATA * len(run.ROUTES) >= 100
    for _, text, subject in batch:
        p = Permutation.from_text(subject)
        if len(p) <= 18:
            assert not brute_contains(Permutation.from_text(text).values, p.values)


def test_clique_free_matchings():
    six = gen.clique_free_matchings(6, 3)
    assert len(six) == run.TRIANGLE_FREE_6
    sample = gen.sampled_clique_free_matchings(40, (7, 8), 4, random.Random(5))
    assert [len(m) for m in sample[:2]] == [7, 8]
    for m in six[::97] + sample:
        clique = 3 if len(m) == 6 else 4
        nbr = gen.crossing_graph(m.arcs)
        assert not any(
            all(j in nbr[i] for i, j in combinations(subset, 2))
            for subset in combinations(range(len(m)), clique)
        )


def test_inputs_depend_only_on_the_seed():
    assert run.Inputs("large-certs", 7).batch(1) == run.Inputs("large-certs", 7).batch(1)
    assert run.Inputs("large-certs", 7).batch(1) != run.Inputs("large-certs", 8).batch(1)
    sizes = [len(s.split()) for _, _, s in run.Inputs("large-certs", 7).batch(0)]
    assert sizes == [len(s.split()) for _, _, s in run.Inputs("large-certs", 9).batch(3)]
    assert run.Inputs("circle-sweep", 2).circle == run.Inputs("circle-sweep", 2).circle


def _certificate_line(pattern: str, subject: str) -> str:
    cert = theorem_certificate(Permutation.from_text(pattern), Permutation.from_text(subject))
    return json.dumps(cert.to_json_dict())


def test_gate_accepts_valid_certificates():
    expected = [("1324", "2 1 4 3"), ("1432", "2 3 1 5 4"), ("4123", "3 2 1 4")]
    lines = [_certificate_line(pattern, subject) for pattern, subject in expected]
    assert run.check_certificates(lines, expected) == 0


def test_injected_invalid_certificate_raises_fail_ratio():
    payload = [(0, "1324", "2 1 4 3"), (1, "1324", "3 4 1 2")]
    lines = [_certificate_line(text, subject) for _, text, subject in payload]
    assert run.Gate("large-certs").check(lines, payload) == 0

    merged = json.loads(lines[0])
    merged["colors"] = [0, 0, 0, 0]  # class 0 is then 2 1 4 3, which contains its part 132
    assert run.Gate("large-certs").check([json.dumps(merged), lines[1]], payload) == 1

    relabelled = json.loads(lines[1])
    relabelled["parts"] = ["1 3 2", "1 3 2"]  # 3 4 1 2 avoids 132, but the parts are wrong
    relabelled["colors"] = [0] * 4
    assert run.Gate("large-certs").check([lines[0], json.dumps(relabelled)], payload) == 1

    raised = json.dumps({"error": "VerificationError: boom"})
    assert run.Gate("large-certs").check([raised, lines[1]], payload) == 1
    assert run.Gate("large-certs").check(lines[:1], payload) == 1  # a subject went missing


def test_gate_rejects_an_improper_coloring():
    arcs = "1-3 2-4"  # two crossing arcs
    expected = [(3, Matching.from_text(arcs).text())]
    good = json.dumps({"arcs": arcs, "colors": [0, 1], "colors_used": 2})
    bad = json.dumps({"arcs": arcs, "colors": [0, 0], "colors_used": 1})
    assert run.check_colorings([good], expected) == 0
    assert run.check_colorings([bad], expected) == 1


def test_scaling_to_reference_speed():
    ref = run.REFERENCE_PROBE_S
    probes = [(0, ref), (2, 2 * ref), (3, 2 * ref)]
    scaled = run.at_reference_speed([1.0, 1.0, 1.0], probes)
    assert scaled == [1 / 1.5, 1 / 1.5, 0.5]  # means of the probes on either side


def test_metric_names_and_benchmark_file():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(config) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in config["workloads"]] == list(run.WORKLOADS)
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        entries = config[section]
        assert [m["name"] for m in entries] == list(table)
        for m in entries:
            assert NAME.fullmatch(m["name"]), m["name"]
            assert (m["unit"], m["better"]) == table[m["name"]]
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
    names = [m["name"] for s in ("workloads", "end_to_end", "per_layer") for m in config[s]]
    assert all(NAME.fullmatch(n) for n in names) and len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in config["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in config["end_to_end"])


def test_refuses_to_run_optimized():
    proc = subprocess.run(
        [sys.executable, "-O", str(ROOT / "bench" / "run.py"), "--workload", "sweep-av1324",
         "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
