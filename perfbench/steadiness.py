"""Run the benchmark repeatedly and summarise each metric's spread.

    python3 perfbench/steadiness.py --workloads operator_stream cold_tables \
        --seeds 1-10 [--sets 2] [--trace 0|1] [--out perfbench/steadiness.json] [--key NAME]

Run from the root of a checkout.  Runs are sequential.  For every metric it
records the ten values, their median and quartiles (``statistics.quantiles``
with n=4) and the spread, (Q3 - Q1) / median; per run it also keeps the
calibration rates that show drift of the machine, and the same summary of the
wall-clock values under ``wall_clock_metrics``.  With ``--sets 2`` it makes
two sets of runs of the same code, alternating between them seed by seed so
that both see the same drift, and prints how far the second set's median
moved from the first's.  With ``--out`` the summary is merged into that JSON
file under --key (default: the trace mode), with ``_set<n>`` appended per set.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed: {' '.join(cmd)}\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    context = next(json.loads(line.split(" context ", 1)[1]) for line in lines if " context " in line)
    return result, context


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1, help="sets of runs, alternated seed by seed")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", default="")
    parser.add_argument("--key", default="", help="section of --out to write (default: trace0 or trace1)")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    sets = [{} for _ in range(args.sets)]
    for workload in args.workloads:
        values: list[dict[str, list[float]]] = [{} for _ in sets]
        walls: list[dict[str, list[float]]] = [{} for _ in sets]
        runs: list[list[dict]] = [[] for _ in sets]
        for seed in seed_range(args.seeds):
            for n in range(args.sets):
                result, context = one_run(workload, seed, seconds, args.trace)
                for name, metric in result["metrics"].items():
                    values[n].setdefault(name, []).append(metric["value"])
                for name, value in context.get("wall_clock", {}).items():
                    walls[n].setdefault(name, []).append(value)
                runs[n].append({"seed": seed, "attempted": result["attempted"], "failed": result["failed"],
                                "calibration_steps_per_s": context["calibration_steps_per_s"],
                                "digest_round0": context["digests"][0]})
        for n, summary in enumerate(sets):
            metrics = {name: summarise(vals) for name, vals in values[n].items()}
            summary[workload] = {"seconds": seconds, "runs": runs[n], "metrics": metrics}
            if walls[n]:
                summary[workload]["wall_clock_metrics"] = {name: summarise(vals) for name, vals in walls[n].items()}
            for name, stats in metrics.items():
                bound = bounds.get(name)
                flag = "" if bound is None else f"  bound {bound}  {'ok' if stats['spread'] < bound / 3 else 'WIDE'}"
                wall = summary[workload].get("wall_clock_metrics", {}).get(name)
                wall = "" if wall is None else f"  (wall clock spread {wall['spread']:.4f})"
                print(f"set {n + 1} {workload:16s} {name:40s} median {stats['median']:.6g}  "
                      f"spread {stats['spread']:.4f}{flag}{wall}")
        for name, bound in bounds.items():
            if args.sets > 1 and name in values[0]:
                first, second = (statistics.median(vals[name]) for vals in values[:2])
                moved = second / first - 1.0
                print(f"sets 1->2 {workload:16s} {name:40s} median moved {moved:+.4f}  bound {bound}")

    if args.out:
        data = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                data = json.load(fh)
        key = args.key or f"trace{args.trace}"
        for n, summary in enumerate(sets):
            data.setdefault(key if args.sets == 1 else f"{key}_set{n + 1}", {}).update(summary)
        with open(args.out, "w") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
