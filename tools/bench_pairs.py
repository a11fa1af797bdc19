"""Run the benchmark on two checkouts in alternated pairs and write one BENCH_<PR>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --seeds 1801-1810 \
        --workloads operator_stream cold_tables warm_zonal \
        --claim operator_stream:ops_per_s --note "what changed" --out BENCH_17.json

Each DIR is a checkout of this repository (a clone or a worktree) at the
revision to measure.  For every workload and seed, one pair runs ``python3
perfbench/run.py --workload W --seed S --seconds N --trace 0`` in each
checkout, with N the ``run_seconds`` of ``BENCHMARK.json``, one process at a
time: the parent first in even pairs and the change first in odd pairs, so a
drift of the machine's speed does not favour one side.  The last stdout line
of each run holds its metrics; its ``context`` line holds the digest of
every round, and the digests of the rounds that both sides of a pair
completed are compared, so the file also says whether the two revisions gave
the same exact outputs.

Per metric, the file holds each side's runs, median and quartiles
(``statistics.quantiles(method='inclusive')``), the parent's IQR, the ratio
of the medians and the number of pairs the change won, with the units and
directions of ``BENCHMARK.json``.  It also records both revisions
(``git rev-parse HEAD`` in each checkout) and the line count of their
``src/`` Python files.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def parse_seeds(text: str) -> list[int]:
    """``1801-1810`` or ``1,5,9`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def revision(checkout: str) -> str:
    proc = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def src_lines(checkout: str) -> int:
    total = 0
    for folder, _, files in os.walk(os.path.join(checkout, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its JSON result plus the round digests of its context line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} printed no result:\n{proc.stderr[-4000:]}")
    result = json.loads(lines[-1])
    marker = f"{workload} context "
    context = next((json.loads(line[len(marker):]) for line in lines if line.startswith(marker)), {})
    result["digests"] = context.get("digests", [])
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    p, c = summary(parent), summary(change)
    wins = sum((b > a) if better == "higher" else (b < a) for a, b in zip(parent, change))
    return {
        "parent": p,
        "change": c,
        "change_wins": wins,
        "median_ratio": c["median"] / p["median"],
        "parent_iqr": p["q3"] - p["q1"],
        "runs": {"parent": parent, "change": change},
    }


def bench_workload(args, workload: str, specs: dict) -> dict:
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    compared = equal = 0
    for index, seed in enumerate(args.seeds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            pair[side] = run_once(sides[side], workload, seed, args.seconds)
            runs[side].append(pair[side])
        digests = list(zip(pair["parent"]["digests"], pair["change"]["digests"]))
        compared += len(digests)
        equal += sum(a == b for a, b in digests)
        ratio = pair["change"]["metrics"]["ops_per_s"]["value"] / pair["parent"]["metrics"]["ops_per_s"]["value"]
        print(f"{workload} seed {seed}: change/parent ops_per_s {ratio:.3f}", file=sys.stderr, flush=True)
    metrics = {}
    for name, spec in specs.items():
        values = {side: [run["metrics"][name]["value"] for run in runs[side]] for side in runs}
        metrics[name] = {"unit": spec["unit"], "better": spec["better"],
                         **compare(values["parent"], values["change"], spec["better"])}
    return {
        "seeds": args.seeds,
        "run_seconds": args.seconds,
        "pairs": len(args.seeds),
        "order": "parent first in even pairs, change first in odd pairs",
        "correct": all(run["correct"] for side in runs.values() for run in side),
        "failed": {side: sum(run["failed"] for run in runs[side]) for side in runs},
        "attempted": {side: sum(run["attempted"] for run in runs[side]) for side in runs},
        "round_digests": {"compared": compared, "equal": equal},
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent revision")
    parser.add_argument("--change", required=True, help="checkout of the changed revision")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1801-1810")
    parser.add_argument("--claim", default="", help="WORKLOAD:METRIC that the change claims to improve")
    parser.add_argument("--note", default="", help="one line on what the change is")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two pairs; give two or more seeds")

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    specs = {m["name"]: m for m in benchmark["end_to_end"]}
    args.seconds = benchmark["run_seconds"]
    report = {
        "change": args.note,
        "claim": dict(zip(("workload", "metric"), args.claim.split(":"))) if args.claim else None,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0"
                   " (last line of stdout)",
        "machine": f"{os.cpu_count()}-CPU {platform.machine()}, {platform.python_implementation()} "
                   f"{platform.python_version()}; times on the perfbench reference clock",
        "revisions": {"parent": revision(args.parent), "change": revision(args.change)},
        "src_lines": {"parent": src_lines(args.parent), "change": src_lines(args.change)},
        "quartiles": "statistics.quantiles(method='inclusive') over the runs of one side",
        "workloads": {},
    }
    for workload in args.workloads:
        report["workloads"][workload] = bench_workload(args, workload, specs)
        with open(args.out, "w") as fh:  # rewritten after each workload, so a cut run keeps its data
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
