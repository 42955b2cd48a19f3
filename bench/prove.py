"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/prove.py --workloads large-certs,circle-sweep --seeds 1-10 [--trace 0]

For every workload and metric it prints the median over the seeds and the
distance between the first and third quartiles (statistics.quantiles with
n=4) as a share of the median, next to the bound BENCHMARK.json gives the
metric.  Each run is one `bench/run.py` invocation, with run_seconds taken
from BENCHMARK.json; the raw result lines go to .bench_out/prove-*.json.
With --record LABEL the summary is appended to bench/trajectory.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="LABEL", help="append the summary to bench/trajectory.json")
    args = parser.parse_args()
    metrics = config["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    summary = {}
    env = None
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            started = time.time()
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(config["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=600,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            *_, info_line, result_line = proc.stdout.strip().splitlines()
            env = json.loads(info_line)["bench"]["env"]
            result = json.loads(result_line)
            result["seed"], result["wall_s"] = seed, time.time() - started
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"wall={result['wall_s']:.1f}s", file=sys.stderr, flush=True)
        out = ROOT / ".bench_out" / f"prove-{workload}-trace{args.trace}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(runs, indent=1))
        rows = {}
        print(f"# {workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}, "
              f"max wall {max(r['wall_s'] for r in runs):.1f}s")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread(values) if len(values) > 1 else 0.0,
                          "unit": runs[0]["metrics"][name]["unit"]}
            bound = bounds[name]
            flag = "" if bound is None else ("  ok" if rows[name]["spread"] < bound / 3 else "  WIDE")
            print(f"  {name:34s} median {med:12.6g} {rows[name]['unit']:10s} "
                  f"spread {rows[name]['spread']:7.2%}  bound {bound}{flag}")
        summary[workload] = rows
    print(json.dumps({"summary": summary}))
    if args.record:
        path = Path(__file__).resolve().parent / "trajectory.json"
        points = json.loads(path.read_text()) if path.exists() else []
        points.append({"label": args.record, "date": time.strftime("%Y-%m-%d"), "seeds": args.seeds,
                       "run_seconds": config["run_seconds"], "trace": args.trace, "env": env,
                       "summary": summary})
        path.write_text(json.dumps(points, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
