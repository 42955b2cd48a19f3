"""The permsplit benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Each pass runs in a fresh process
(bench/worker.py), so the package's caches start cold, as they do for every
CLI invocation; run.py generates the inputs before timing, runs passes
until about --seconds have gone by, checks every emitted certificate after
timing, and prints one JSON result as the last line of stdout.  With
--trace 0 the result holds the end-to-end metrics; with --trace 1 a separate
traced run gives the per-layer metrics and writes its spans under
.bench_out/.  See bench/README.md for what each workload and metric means.
"""
from __future__ import annotations

import argparse
import bisect
import functools
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".bench_out"

if not (SRC / "permsplit" / "__init__.py").is_file():
    print(f"error: no permsplit sources under {SRC}", file=sys.stderr)
    raise SystemExit(2)
sys.path.insert(0, str(SRC))

from permsplit.constructions import theorem_split  # noqa: E402
from permsplit.matchings import Matching  # noqa: E402
from permsplit.oracle import merge_check, merge_member  # noqa: E402
from permsplit.perms import Permutation  # noqa: E402
from permsplit.splitters import ColoringCertificate  # noqa: E402

import generators as gen  # noqa: E402

WORKLOADS = ("sweep-av1324", "large-certs", "circle-sweep", "oracle-verify")

END_TO_END = {
    "throughput": ("subjects/s", "higher"),
    "latency_ms_p50": ("ms", "lower"),
    "latency_ms_p90": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "colors_mean": ("colours", "lower"),
}

PER_LAYER = {
    "perms.enumerate_s": ("s", "lower"),
    "perms.enumerate_yield": ("ratio", "higher"),
    "perms.contains_ms_p50": ("ms", "lower"),
    "splitters.greedy_ms_p50": ("ms", "lower"),
    "splitters.match_split_ms_p50": ("ms", "lower"),
    "splitters.match_split_nodes": ("count", "lower"),
    "splitters.match_split_depth_max": ("count", "lower"),
    "splitters.palette_copies_ratio": ("ratio", "lower"),
    "matchings.contains_ms_p50": ("ms", "lower"),
    "envelope.reduced_ms_p50": ("ms", "lower"),
    "envelope.reduced_arcs_ratio": ("ratio", "lower"),
    "constructions.self_ms_p50": ("ms", "lower"),
    "constructions.route_a_ms_p50": ("ms", "lower"),
    "constructions.route_b_ms_p50": ("ms", "lower"),
    "constructions.route_c_ms_p50": ("ms", "lower"),
    "constructions.route_d_ms_p50": ("ms", "lower"),
    "constructions.route_e_ms_p50": ("ms", "lower"),
    "constructions.setup_s": ("s", "lower"),
    "constructions.cert_exponent": ("1", "lower"),
    "oracle.merge_member_ms_p50": ("ms", "lower"),
    "oracle.merge_member_ms_p90": ("ms", "lower"),
    "oracle.merge_check_ms_p50": ("ms", "lower"),
    "cli.emit_ms_total": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Known values the correctness gate holds the program to.
SWEEP_COUNT = 15_793  # |Av_8(1324)|
ORACLE_COUNT = 19_177  # sum over n <= 8 of |Av_n(1432)|
TRIANGLE_FREE_6 = 4_719  # 6-arc matchings with no 3 pairwise crossing arcs

# large-certs: each pass certifies a batch of STRATA subjects per route, with
# sizes stratified log-uniformly over [LARGE_MIN_N, MAX_N[pattern]].  Every
# batch has the same sizes and only the subjects' contents depend on the seed
# and the pass, so the mix of sizes in a run does not depend on how many passes
# fit.  Routes c-e cost about n^3.3 on the seed, so they stop lower than a and
# b, to fit well over 100 subjects in a run.
ROUTES = {"1243": "a", "1324": "b", "1432": "c", "3214": "d", "4123": "e"}
STRATA = 20
LARGE_MIN_N = 16
MAX_N = {"1243": 128, "1324": 128, "1432": 64, "3214": 64, "4123": 64}
PIECE = 8  # routes a and b: skew sums of members of the order-8 class
# circle-sweep: the sampled K4-free matchings that follow the 6-arc sweep
CIRCLE_SAMPLE = 800
CIRCLE_SAMPLE_ARCS = (7, 8)

# Times are reported at a fixed reference speed: each measured time is scaled by
# REFERENCE_PROBE_S over the time the reference kernel (generators.
# reference_kernel, which shares no code with the package) took next to it.
# On a shared 2-vCPU KVM guest (Intel Xeon, CPython 3.11) the interpreter's
# speed drops by up to 2x for tens of seconds at a time; there, scaled run
# totals varied less than half as much from run to run as raw ones (CV 0.046
# against 0.109 over 14 runs), and 0.4 ms is the kernel's uncontended time.
REFERENCE_PROBE_S = 0.0004

SETUP_PROBES = 6  # set-up-only processes per run, besides each pass's own set-up
MIN_PASSES = 2
WORKER_TIMEOUT = 150
RUN_BUDGET = 150  # never start a pass after this many seconds


class BenchError(RuntimeError):
    """The benchmark could not measure the program (a worker crashed)."""


# ---------------------------------------------------------------- inputs


class Inputs:
    """The subjects each pass receives, made from the seed alone before any
    timing.  sweep-av1324 and oracle-verify are exhaustive: the program
    enumerates their subjects itself, so they take none."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.circle: list[tuple[int, str]] = []
        self.levels: dict[str, list[list[tuple[int, ...]]]] = {}
        if workload == "circle-sweep":
            rng = random.Random(seed)
            six = gen.clique_free_matchings(6, 3)
            sample = gen.sampled_clique_free_matchings(CIRCLE_SAMPLE, CIRCLE_SAMPLE_ARCS, 4, rng)
            self.circle = [(3, m.text()) for m in six] + [(4, m.text()) for m in sample]
        elif workload == "large-certs":
            for text in ("1243", "1324"):
                self.levels[text] = gen.exhaustive_levels(Permutation.from_text(text), PIECE)

    def payload(self, index: int) -> list:
        if self.workload == "large-certs":
            return self.batch(index)
        return self.circle if self.workload == "circle-sweep" else []

    def batch(self, index: int) -> list[tuple[int, str, str]]:
        """(subject id, pattern, subject) for pass `index` of large-certs."""
        rng = random.Random(self.seed * 1_000_003 + index)
        out = []
        for k in range(STRATA):
            for r, text in enumerate(ROUTES):
                n = gen.stratified_size(k, STRATA, k * len(ROUTES) + r, LARGE_MIN_N, MAX_N[text])
                if text in self.levels:
                    # n // PIECE members of the order-8 class, then one of order n % PIECE
                    picks = [rng.choice(self.levels[text][PIECE]) for _ in range(n // PIECE)]
                    p = gen.skew_sum_of(picks + [rng.choice(self.levels[text][n % PIECE])])
                elif text == "4123":
                    p = Permutation(gen.random_321_avoider(n, rng).values[::-1])
                else:
                    p = gen.random_321_avoider(n, rng)
                out.append((len(out), text, p.text()))
        return out


# ---------------------------------------------------------------- gate


class Gate:
    """Checks emitted streams after timing.  A subject fails if it raised,
    fails oracle.merge_check, has the wrong part list, or disagrees with the
    independently generated subject list; a wrong count fails the missing
    or extra subjects."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.verified: set[str] = set()
        self.colors_mean_oracle: float | None = None
        self._expected: list[str] | None = None

    def expected_subjects(self) -> list[str]:
        if self._expected is None:
            if self.workload == "sweep-av1324":
                members = gen.exhaustive_class(Permutation.from_text("1324"), 8)
                self._expected = [Permutation(v).text() for v in members]
            else:
                self._expected = []
        return self._expected

    def check(self, lines: list[str], payload: list) -> int:
        """Number of failed subjects in one pass's stream.  Every pass gets
        the same inputs, so a stream identical to one already verified is
        correct without a second check."""
        digest = stream_sha256(lines)
        if digest in self.verified:  # the same stream as an earlier pass
            return 0
        if self.workload == "sweep-av1324":
            failed = check_certificates(lines, [("1324", s) for s in self.expected_subjects()])
            failed += abs(len(self.expected_subjects()) - SWEEP_COUNT)
        elif self.workload == "large-certs":
            failed = check_certificates(lines, [(text, s) for _, text, s in payload])
        elif self.workload == "circle-sweep":
            failed = check_colorings(lines, payload)
            failed += abs(sum(1 for clique, _ in payload if clique == 3) - TRIANGLE_FREE_6)
        else:
            failed = self.check_oracle(lines)
        if failed == 0:
            self.verified.add(digest)
        return failed

    def check_oracle(self, lines: list[str]) -> int:
        report = json.loads(lines[0])
        bad = len(report.get("failures", [])) + (0 if report.get("pass") is True else 1)
        bad += report.get("fallbacks", 0)
        bad += abs(report.get("checked", 0) - ORACLE_COUNT)
        if self.colors_mean_oracle is None:
            colors, bad_certs = oracle_certificate_colors()
            bad += bad_certs
            if colors and max(colors) != report.get("max_colors_used"):
                bad += 1
            self.colors_mean_oracle = statistics.fmean(colors) if colors else 0.0
        return bad


def stream_sha256(lines: list[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


@functools.cache
def _expected_parts(pattern_text: str) -> Counter:
    return Counter(theorem_split(Permutation.from_text(pattern_text)).flatten())


def check_certificates(lines: list[str], expected: list[tuple[str, str]]) -> int:
    """Failures among certificate lines against (pattern, subject) pairs."""
    failed = abs(len(lines) - len(expected))
    for line, (pattern_text, subject) in zip(lines, expected):
        data = json.loads(line)
        if "error" in data or data.get("subject") != subject:
            failed += 1
            continue
        cert = ColoringCertificate.from_json_dict(data)
        if Counter(cert.parts) != _expected_parts(pattern_text) or not merge_check(cert):
            failed += 1
    return failed


def check_colorings(lines: list[str], expected: list[tuple[int, str]]) -> int:
    """Failures among color-matching lines: each must properly colour the
    crossing graph of its matching (every class avoids m(21))."""
    failed = abs(len(lines) - len(expected))
    two_one = Permutation((2, 1))
    for line, (_, arcs) in zip(lines, expected):
        data = json.loads(line)
        if "error" in data or data.get("arcs") != arcs:
            failed += 1
            continue
        colors = tuple(data["colors"])
        m = Matching.from_text(arcs)
        if len(colors) != len(m) or min(colors) < 0 or data["colors_used"] != len(set(colors)):
            failed += 1
            continue
        cert = ColoringCertificate(subject=m, parts=(two_one,) * (max(colors) + 1), colors=colors)
        if not merge_check(cert):
            failed += 1
    return failed


def oracle_certificate_colors() -> tuple[list[int], int]:
    """Colours of merge_member's certificate for every member of Av_{<=8}(1432),
    from an independent enumeration; also counts certificates that fail."""
    pattern = Permutation.from_text("1432")
    spec = theorem_split(pattern)
    parts = Counter(spec.flatten())
    colors, bad, members = [], 0, 0
    for n in range(9):
        for values in gen.exhaustive_class(pattern, n):
            members += 1
            cert = merge_member(Permutation(values), spec)
            if cert is None or Counter(cert.parts) != parts or not merge_check(cert):
                bad += 1
                continue
            colors.append(cert.colors_used())
    return colors, bad + abs(members - ORACLE_COUNT)


# ---------------------------------------------------------------- passes


def run_worker(workload: str, mode: str, payload=None) -> dict:
    spawn = time.time()
    proc = subprocess.run(
        [sys.executable, str(WORKER), workload, mode, repr(spawn)],
        input="" if payload is None else json.dumps(payload),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout)
    result["wall_s"] = time.time() - spawn
    return result


def run_passes(workload: str, seconds: float, inputs: Inputs, mode: str, least: int) -> list[dict]:
    """Passes, each in a fresh process, until about `seconds` have gone by:
    another pass starts only while half a pass still fits, and at least
    `least` passes run."""
    started = time.time()
    passes: list[dict] = []
    while True:
        payload = inputs.payload(len(passes))
        passes.append(run_worker(workload, mode, payload) | {"payload": payload})
        elapsed = time.time() - started
        mean = elapsed / len(passes)
        if len(passes) >= least and (elapsed + mean / 2 >= seconds or elapsed > RUN_BUDGET):
            return passes


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------- metrics


def at_reference_speed(latency: list[float], probes: list[tuple[int, float]]) -> list[float]:
    """Scale each subject's time by the mean of the speed probes taken just
    before and just after it."""
    out = []
    j = 0
    for i, t in enumerate(latency):
        while j + 1 < len(probes) and probes[j + 1][0] <= i:
            j += 1
        after = next((sec for idx, sec in probes[j + 1 :] if idx > i), probes[j][1])
        out.append(t * REFERENCE_PROBE_S / ((probes[j][1] + after) / 2))
    return out


def end_to_end_metrics(workload: str, passes: list[dict], setups: list[float], gate: Gate) -> dict:
    """Throughput and latency over every subject of every pass, at reference
    speed.  oracle-verify emits a single report per pass, so its latency is
    that of the whole verify call."""
    scaled = [t for p in passes for t in at_reference_speed(p["latency_s"], p["probes"])]
    enumeration = 0.0
    if workload == "sweep-av1324":
        enumeration = sum(p["enumerate_s"] * REFERENCE_PROBE_S / p["enumerate_probe"] for p in passes)
    latency = [x * 1000 for x in scaled]
    if workload == "oracle-verify":
        colors_mean = gate.colors_mean_oracle or 0.0
    else:
        colors_mean = statistics.fmean(c for p in passes for c in p["colors"])
    return {
        "throughput": sum(subject_count(workload, p) for p in passes) / (enumeration + sum(scaled)),
        "latency_ms_p50": percentile(latency, 50),
        "latency_ms_p90": percentile(latency, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "colors_mean": colors_mean,
    }


def subject_count(workload: str, result: dict) -> int:
    if workload == "oracle-verify":
        return json.loads(result["lines"][0]).get("checked", 0)
    return len(result["lines"])


def _ms(values: list[float], q: int = 50) -> float:
    return percentile(values, q) * 1000 if values else 0.0


def span_scaler(speed: list[tuple[float, float]]):
    """factor(start, end): REFERENCE_PROBE_S over the mean of the speed
    samples inside [start, end] and the nearest one on either side."""
    samples = sorted(speed)
    times = [t for t, _ in samples]

    def factor(start: float, end: float) -> float:
        lo = max(bisect.bisect_left(times, start) - 1, 0)
        hi = bisect.bisect_right(times, end) + 1
        picked = [sec for _, sec in samples[lo:hi]]
        return REFERENCE_PROBE_S / statistics.fmean(picked) if picked else 1.0

    return factor


def per_layer_metrics(workload: str, traced: list[dict], baseline: dict) -> dict:
    """Span times at reference speed, like the end-to-end ones; the tracing
    overhead compares raw pass times."""
    durations: dict[str, list[float]] = defaultdict(list)
    per_subject: dict[tuple[int, int], dict[str, float]] = defaultdict(lambda: defaultdict(float))
    emit_totals, setup_totals = [], []
    for k, result in enumerate(traced):
        emit = setup = 0.0
        factor = span_scaler(result["speed"])
        for name, start, end, _parent, subject in result["spans"]:
            d = (end - start) * factor(start, end)
            durations[name].append(d)
            if subject is not None:
                per_subject[(k, subject)][name] += d
            emit += d if name == "cli.emit" else 0.0
            setup += d if name == "constructions.theorem_plan" else 0.0
        emit_totals.append(emit)
        setup_totals.append(setup)

    route_of, size_of = subject_routes(workload, traced)
    by_route: dict[str, list[float]] = defaultdict(list)
    self_times, fit = [], defaultdict(list)
    for key, spans in per_subject.items():
        total = spans.get("constructions.theorem_certificate")
        if total is None:
            continue
        route = route_of[key]
        by_route[route].append(total)
        children = sum(
            spans.get(name, 0.0)
            for name in ("perms.contains", "splitters.greedy_three_sum", "envelope.reduced_envelope_map")
        )
        self_times.append(total - children)  # derived: parent minus the replayed children
        fit[route].append((math.log(size_of[key]), math.log(total)))

    counters: dict[str, list[float]] = defaultdict(list)
    for result in traced:
        for name, values in result["counters"].items():
            counters[name].extend(values)

    def mean(name: str) -> float:
        return statistics.fmean(counters[name]) if counters[name] else 0.0

    metrics = {
        "perms.enumerate_s": statistics.median(durations["perms.enumerate_avoiders"])
        if durations["perms.enumerate_avoiders"]
        else 0.0,
        "perms.enumerate_yield": mean("enumerate_yield"),
        "perms.contains_ms_p50": _ms(durations["perms.contains"]),
        "splitters.greedy_ms_p50": _ms(durations["splitters.greedy_three_sum"]),
        "splitters.match_split_ms_p50": _ms(durations["splitters.match_split"]),
        "splitters.match_split_nodes": mean("match_split_nodes"),
        "splitters.match_split_depth_max": max(counters["match_split_depth"], default=0),
        "splitters.palette_copies_ratio": mean("palette_copies_ratio"),
        "matchings.contains_ms_p50": _ms(durations["matchings.matching_contains"]),
        "envelope.reduced_ms_p50": _ms(durations["envelope.reduced_envelope_map"]),
        "envelope.reduced_arcs_ratio": mean("reduced_arcs_ratio"),
        "constructions.self_ms_p50": _ms(self_times),
        "constructions.setup_s": statistics.median(setup_totals),
        "constructions.cert_exponent": log_log_slope(fit),
        "oracle.merge_member_ms_p50": _ms(durations["oracle.merge_member"]),
        "oracle.merge_member_ms_p90": _ms(durations["oracle.merge_member"], 90),
        "oracle.merge_check_ms_p50": _ms(durations["oracle.merge_check"]),
        "cli.emit_ms_total": statistics.median(emit_totals) * 1000,
        "trace.overhead_ratio": traced[0]["timed_s"] / baseline["timed_s"],
    }
    for text, route in ROUTES.items():
        metrics[f"constructions.route_{route}_ms_p50"] = _ms(by_route[route])
    return metrics


def subject_routes(workload: str, traced: list[dict]):
    """Route letter and order n of every certified subject, keyed by (pass, id)."""
    route_of, size_of = {}, {}
    for k, result in enumerate(traced):
        if workload == "sweep-av1324":
            for sid in range(len(result["lines"])):
                route_of[(k, sid)], size_of[(k, sid)] = "b", 8
        elif workload == "large-certs":
            for sid, text, subject in result["payload"]:
                route_of[(k, sid)] = ROUTES[text]
                size_of[(k, sid)] = len(subject.split())
    return route_of, size_of


def log_log_slope(points: dict[str, list[tuple[float, float]]]) -> float:
    """Least-squares slope of log time on log n with one intercept per route."""
    sxy = sxx = 0.0
    for pts in points.values():
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
    return sxy / sxx if sxx > 0 else 0.0


# ---------------------------------------------------------------- run


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "permsplit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "optimize": sys.flags.optimize,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown'
    when the checkout is not a repository (source_sha256 still names the
    program)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (result line, info) for one workload."""
    inputs = Inputs(workload, seed)
    gate = Gate(workload)
    setups = [run_worker(workload, "setup") for _ in range(SETUP_PROBES)]
    if trace:
        baseline = run_worker(workload, "pass", inputs.payload(0)) | {"payload": inputs.payload(0)}
        passes = run_passes(workload, seconds - baseline["wall_s"], inputs, "traced", 1)
        checked = [baseline] + passes
    else:
        passes = run_passes(workload, seconds, inputs, "pass", MIN_PASSES)
        checked = passes
    setups = [r["setup_s"] * REFERENCE_PROBE_S / r["setup_probe"] for r in setups + passes]

    attempted = sum(subject_count(workload, p) for p in checked)
    failed = sum(p["errors"] for p in checked)
    failed += sum(gate.check(p["lines"], p["payload"]) for p in checked)
    attempted = max(attempted, failed, 1)

    if trace:
        metrics = per_layer_metrics(workload, passes, baseline)
        units = PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{workload}-seed{seed}.json"
        with spans_file.open("w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "subject"],
                    "passes": [p["spans"] for p in passes],
                    "speed": [p["speed"] for p in passes],
                    "reference_probe_s": REFERENCE_PROBE_S,
                },
                fh,
            )
    else:
        metrics = end_to_end_metrics(workload, passes, setups, gate)
        units = END_TO_END
        spans_file = None

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
    }
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": len(passes),
        "fail_ratio": failed / attempted,
        "stream_sha256": stream_sha256(checked[0]["lines"]),
        "spans_file": str(spans_file.relative_to(ROOT)) if spans_file else None,
        "probe_ms_median": statistics.median(
            sec * 1000 for p in checked for _, sec in p.get("probes", [])
        ) if not trace else None,
        "env": environment(),
    }
    return result, info


def print_table(result: dict, info: dict) -> None:
    print(f"# {info['workload']}  seed={info['seed']}  passes={info['passes']}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(f"  {'fail_ratio':36s} {info['fail_ratio']:14.6g} ratio", file=sys.stderr)
    print(f"  attempted={result['attempted']} failed={result['failed']} correct={result['correct']}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("error: refusing to run under python -O: asserts are part of the checks", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {}
        for name in names:
            result, info = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_table(result, info)
            print(json.dumps({"bench": info}))
            results[name] = result
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({"workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
