"""One benchmark pass in a fresh process, so every `lru_cache` starts cold.

Usage: python3 bench/worker.py <workload> <setup|pass|traced> <spawn-time>

<spawn-time> is the parent's `time.time()` just before it started this
process; set-up time runs from there to the end of the workload's set-up
(import plus `theorem_plan` for its patterns).  In `pass` and `traced` mode
the inputs arrive as one JSON document on stdin, after set-up.  The result
is one JSON document on stdout.  `traced` mode also records spans around
every call into a layer and replays each sub-step through its public
function on the same input, so that per-layer times can be read off.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import threading  # noqa: E402

from permsplit.constructions import theorem_certificate, theorem_plan, theorem_split  # noqa: E402
from permsplit.envelope import reduced_envelope_map  # noqa: E402
from permsplit.matchings import Matching, m_of, matching_contains, weight  # noqa: E402
from permsplit.oracle import merge_check, merge_member, verify_splitting  # noqa: E402
from permsplit.perms import (  # noqa: E402
    Permutation,
    complement,
    contains,
    decreasing,
    enumerate_avoiders,
    reverse_complement,
)
from permsplit.splitters import (  # noqa: E402
    ColoringCertificate,
    MatchingSplitState,
    circle_color,
    dilworth_matching_base,
    greedy_three_sum,
    match_split,
)

from generators import reference_kernel  # noqa: E402
from spans import Tracer  # noqa: E402

SWEEP_PATTERN = "1324"
SWEEP_ORDER = 8
LARGE_PATTERNS = ("1243", "1324", "1432", "3214", "4123")
ORACLE_PATTERN = "1432"
ORACLE_MAX_N = 8
PROBE_EVERY = 0.05  # seconds of work between two speed probes


def speed_probe() -> float:
    """Seconds the reference kernel takes right now: the best of three runs,
    so that a single interrupt does not count as a slow machine."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - start)
    return best


def setup_patterns(workload: str) -> tuple[str, ...]:
    return {
        "sweep-av1324": (SWEEP_PATTERN,),
        "large-certs": LARGE_PATTERNS,
        "circle-sweep": (),
        "oracle-verify": (ORACLE_PATTERN,),
    }[workload]


def set_up(workload: str, tracer: Tracer | None) -> dict[str, Permutation]:
    patterns = {}
    for text in setup_patterns(workload):
        patterns[text] = pattern = Permutation.from_text(text)
        if tracer is None:
            theorem_plan(pattern)
        else:
            tracer.call("constructions.theorem_plan", None, theorem_plan, pattern)
    return patterns


def certify_line(pattern: Permutation, p: Permutation) -> tuple[str, int]:
    cert = theorem_certificate(pattern, p)
    return json.dumps(cert.to_json_dict()), cert.colors_used()


def color_line(m: Matching, clique: int) -> tuple[str, int]:
    coloring = circle_color(m, clique)
    used = len(set(coloring.values()))
    line = json.dumps(
        {"arcs": m.text(), "colors": [coloring[arc] for arc in m.arcs], "colors_used": used}
    )
    return line, used


class SpeedSampler:
    """Speed probes from a second thread while one long call runs: the thread
    sleeps PROBE_EVERY seconds, takes the interpreter lock for one probe
    (about 1 ms) and sleeps again, so the call loses a few percent of its
    time, the same share on every pass.  Samples are (perf_counter after the
    probe, probe seconds)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(PROBE_EVERY):
            seconds = speed_probe()
            self.samples.append((time.perf_counter(), seconds))

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


class Pass:
    """The outputs of one pass: emitted lines, per-subject latencies (s),
    colours used per certificate, per-subject errors, for the sweep the time
    of the enumeration that precedes the first subject (s), and speed probes
    as (index of the next subject, probe seconds), taken between subjects at
    least every PROBE_EVERY seconds and once more at the end."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.latency: list[float] = []
        self.colors: list[int] = []
        self.errors: int = 0
        self.enumerate_s: float = 0.0
        self.enumerate_probe: float = 0.0
        self.probes: list[tuple[int, float]] = []
        self._probed = float("-inf")

    def probe(self) -> float:
        seconds = speed_probe()
        self.probes.append((len(self.latency), seconds))
        self._probed = time.perf_counter()
        return seconds

    def run(self, fn, *args) -> None:
        if time.perf_counter() - self._probed >= PROBE_EVERY:
            self.probe()
        start = time.perf_counter()
        try:
            line, used = fn(*args)
        except Exception as exc:  # a failing subject is data, not the end of the run
            self.latency.append(time.perf_counter() - start)
            self.lines.append(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
            self.errors += 1
            return
        self.latency.append(time.perf_counter() - start)
        self.lines.append(line)
        self.colors.append(used)


def run_pass(workload: str, patterns: dict[str, Permutation], inputs) -> tuple[Pass, float]:
    out = Pass()
    start = time.perf_counter()
    if workload == "sweep-av1324":
        pattern = patterns[SWEEP_PATTERN]
        out.enumerate_probe = speed_probe()
        enum_start = time.perf_counter()
        subjects = list(enumerate_avoiders([pattern], SWEEP_ORDER))
        out.enumerate_s = time.perf_counter() - enum_start
        out.enumerate_probe = (out.enumerate_probe + out.probe()) / 2
        for p in subjects:
            out.run(certify_line, pattern, p)
    elif workload == "large-certs":
        for text, p in inputs:
            out.run(certify_line, patterns[text], p)
    elif workload == "circle-sweep":
        for clique, m in inputs:
            out.run(color_line, m, clique)
    else:
        pattern = patterns[ORACLE_PATTERN]
        before = speed_probe()
        with SpeedSampler() as sampler:
            call_start = time.perf_counter()
            report = verify_splitting([pattern], theorem_split(pattern), ORACLE_MAX_N)
            out.lines.append(json.dumps(report.to_json_dict()))
            out.latency.append(time.perf_counter() - call_start)
        # one subject: the speed during the call stands on both sides of it
        during = statistics.fmean([before, *(sec for _, sec in sampler.samples), speed_probe()])
        out.probes = [(0, during), (1, during)]
        return out, time.perf_counter() - start
    out.probe()
    return out, time.perf_counter() - start


def _traced_certificate(tr: Tracer, sid: int, pattern: Permutation, p: Permutation, out: Pass, counters: dict):
    """The real call split into certify and emit spans, then each sub-step
    replayed through its public function on the same input."""
    with tr.span("subject", sid):
        try:
            cert = tr.call("constructions.theorem_certificate", sid, theorem_certificate, pattern, p)
            line = tr.call("cli.emit", sid, lambda: json.dumps(cert.to_json_dict()))
        except Exception as exc:
            out.lines.append(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
            out.errors += 1
            return None
        out.lines.append(line)
        out.colors.append(cert.colors_used())
        plan = theorem_plan(pattern)
        host = p
        tr.call("perms.contains", sid, contains, pattern, host)
        if plan.route in ("d", "e"):
            host = (reverse_complement if plan.route == "d" else complement)(p)
            plan = plan.inner
            tr.call("perms.contains", sid, contains, plan.pattern, host)
        if plan.route in ("a", "b"):
            tr.call("splitters.greedy_three_sum", sid, greedy_three_sum, *plan.triple, host)
        else:
            reduced, _ = tr.call("envelope.reduced_envelope_map", sid, reduced_envelope_map, host)
            counters["reduced_arcs_ratio"].append(len(reduced) / len(p))
        return cert


def _traced_coloring(tr: Tracer, sid: int, clique: int, m: Matching, out: Pass, counters: dict):
    with tr.span("subject", sid):
        try:
            coloring = tr.call("splitters.circle_color", sid, circle_color, m, clique)
            used = len(set(coloring.values()))
            line = tr.call(
                "cli.emit",
                sid,
                lambda: json.dumps(
                    {"arcs": m.text(), "colors": [coloring[a] for a in m.arcs], "colors_used": used}
                ),
            )
        except Exception as exc:
            out.lines.append(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
            out.errors += 1
            return None
        out.lines.append(line)
        out.colors.append(used)
        obstacle = m_of(decreasing(clique))
        tr.call("matchings.matching_contains", sid, matching_contains, obstacle, m)
        state = MatchingSplitState(pattern_basis=decreasing(clique), obstacle=obstacle)
        base = dilworth_matching_base(clique)
        cert = tr.call(
            "splitters.match_split", sid, match_split, m, decreasing(clique), obstacle, base, state
        )
        counters["match_split_nodes"].append(len(state.trace))
        counters["match_split_depth"].append(max(depth for depth, *_ in state.trace))
        copies = len(cert.parts) // len(base.parts)
        counters["palette_copies_ratio"].append(copies / 4 ** weight(obstacle))
        return ColoringCertificate(
            subject=m, parts=(Permutation((2, 1)),) * (max(cert.colors) + 1), colors=cert.colors
        )


def _enumeration_yield(basis: list[Permutation], top: int) -> float:
    """Avoiders kept over candidates tried, levels 1..top (cached, not timed)."""
    sizes = [len(tuple(enumerate_avoiders(basis, n))) for n in range(top + 1)]
    return sum(sizes[1:]) / sum(n * sizes[n - 1] for n in range(1, top + 1))


def sample_speed(tr: Tracer, due: bool = False) -> None:
    """Record a speed probe next to the spans when PROBE_EVERY seconds have
    passed since the last one (or when `due`), so that the span times can be
    scaled to reference speed like the end-to-end ones."""
    if due or not tr.speed or time.perf_counter() - tr.speed[-1][0] >= PROBE_EVERY:
        seconds = speed_probe()
        tr.speed.append((time.perf_counter(), seconds))


def run_traced(workload: str, patterns: dict[str, Permutation], inputs, tr: Tracer) -> tuple[Pass, float, dict]:
    out = Pass()
    counters: dict[str, list] = {
        k: []
        for k in (
            "reduced_arcs_ratio",
            "match_split_nodes",
            "match_split_depth",
            "palette_copies_ratio",
            "enumerate_yield",
        )
    }
    certs = []
    start = time.perf_counter()
    if workload == "sweep-av1324":
        pattern = patterns[SWEEP_PATTERN]
        sample_speed(tr, due=True)
        subjects = tr.call(
            "perms.enumerate_avoiders", None, lambda: list(enumerate_avoiders([pattern], SWEEP_ORDER))
        )
        sample_speed(tr, due=True)
        for sid, p in enumerate(subjects):
            sample_speed(tr)
            certs.append(_traced_certificate(tr, sid, pattern, p, out, counters))
        counters["enumerate_yield"].append(_enumeration_yield([pattern], SWEEP_ORDER))
    elif workload == "large-certs":
        for sid, (text, p) in inputs:
            sample_speed(tr)
            certs.append(_traced_certificate(tr, sid, patterns[text], p, out, counters))
    elif workload == "circle-sweep":
        for sid, (clique, m) in enumerate(inputs):
            sample_speed(tr)
            certs.append(_traced_coloring(tr, sid, clique, m, out, counters))
    else:
        pattern = patterns[ORACLE_PATTERN]
        spec = theorem_split(pattern)
        sample_speed(tr, due=True)
        members = tr.call(
            "perms.enumerate_avoiders",
            None,
            lambda: [p for n in range(ORACLE_MAX_N + 1) for p in enumerate_avoiders([pattern], n)],
        )
        sample_speed(tr, due=True)
        for sid, p in enumerate(members):
            sample_speed(tr)
            tr.call("oracle.merge_member", sid, merge_member, p, spec)
        sample_speed(tr, due=True)
        with SpeedSampler() as sampler:
            report = tr.call("oracle.verify_splitting", None, verify_splitting, [pattern], spec, ORACLE_MAX_N)
        tr.speed.extend(sampler.samples)
        out.lines.append(tr.call("cli.emit", None, lambda: json.dumps(report.to_json_dict())))
        counters["enumerate_yield"].append(_enumeration_yield([pattern], ORACLE_MAX_N))
    timed = time.perf_counter() - start
    for sid, cert in enumerate(certs):
        sample_speed(tr)
        if cert is not None:
            tr.call("oracle.merge_check", sid, merge_check, cert)
    sample_speed(tr, due=True)
    return out, timed, counters


def peak_rss_mb() -> float:
    """Peak resident set of this process image.  Linux carries ru_maxrss over
    from the parent across fork and exec, so it would count run.py's own
    memory; VmHWM belongs to the address space that exec created."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def parse_inputs(workload: str, doc) -> list:
    if workload == "large-certs":
        return [(sid, (text, Permutation.from_text(p))) for sid, text, p in doc]
    if workload == "circle-sweep":
        return [(clique, Matching.from_text(arcs)) for clique, arcs in doc]
    return []


def main(argv: list[str]) -> int:
    workload, mode, spawn = argv[0], argv[1], float(argv[2])
    if sys.flags.optimize:
        print("refusing to run under python -O: the asserts are part of the checks", file=sys.stderr)
        return 2
    tracer = Tracer() if mode == "traced" else None
    patterns = set_up(workload, tracer)
    setup_s = time.time() - spawn
    result: dict = {"setup_s": setup_s, "setup_probe": speed_probe()}
    if mode != "setup":
        inputs = parse_inputs(workload, json.load(sys.stdin))
        if mode == "pass":
            if workload == "large-certs":
                inputs = [item for _, item in inputs]
            out, timed = run_pass(workload, patterns, inputs)
        else:
            out, timed, counters = run_traced(workload, patterns, inputs, tracer)
            result["counters"] = counters
            result["spans"] = tracer.spans
            result["speed"] = tracer.speed
        result.update(
            timed_s=timed,
            enumerate_s=out.enumerate_s,
            enumerate_probe=out.enumerate_probe,
            probes=out.probes,
            lines=out.lines,
            latency_s=out.latency,
            colors=out.colors,
            errors=out.errors,
        )
    result["peak_rss_mb"] = peak_rss_mb()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
