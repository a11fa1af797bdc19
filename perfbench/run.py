"""Benchmark for dunkl-harmonics: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` it measures the
end-to-end metrics: it runs two set-up-only processes and one timed process
(set-up, then whole rounds of ops for about S seconds, one caller, closed
loop) and reports ops_per_s, op_p50_ms, op_p90_ms, setup_s (median of the
three set-ups) and peak_rss_mb.  Times are on the reference clock of
``worker.py`` (wall time scaled by the machine speed measured around each
op); the wall-clock values are printed alongside.  With ``--trace 1`` it runs the same fixed
rounds twice in fresh processes, untraced and then traced, and reports the
per-layer metrics plus trace.overhead_frac.  Processes run one at a time.

Every op's exact output is folded into one SHA-256 digest per round, and
the warm-up ops that end every set-up into one more.  The warm-up does not
depend on the seed, so its digest must equal the pinned one in
``pins.json`` on every run; for the default seed the round digests must
equal the pinned ones as well, and for any other seed they are printed so
that two versions can be compared.  An op fails on an exception, a failed
check (a Funk-Hecke identity, the reproducing property, a 4-sigma
Monte-Carlo miss) or a digest mismatch.  Any failure makes the command exit
with code 1.  Human-readable lines go first; the last line of stdout is one
JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
PINS = os.path.join(HERE, "pins.json")
DEFAULT_SEED = 0
SETUP_PROBES = 2  # set-up-only processes; the timed process adds a third sample
# rounds per process in a traced run: fixed, so every count repeats exactly
TRACE_ROUNDS = {"operator_stream": 4, "cold_tables": 6, "warm_zonal": 6}
TIME_LIMIT_S = 170.0
# numpy's BLAS would otherwise start one thread per core at import
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = tuple(TRACE_ROUNDS)

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def checkout_root() -> str:
    return os.getcwd()


def run_worker(deadline: float, **options) -> dict:
    cmd = [sys.executable, WORKER]
    for key, value in options.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("time limit reached before a worker could start")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining,
                              cwd=checkout_root(), env=WORKER_ENV)
    except subprocess.TimeoutExpired as exc:  # subprocess.run kills and reaps the child
        raise WorkerError(f"worker timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker failed ({proc.returncode}): {' '.join(cmd)}\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_pins(workload: str) -> dict:
    with open(PINS) as fh:
        return json.load(fh)[workload]


def check(out: dict, warm_up_pin: str, round_pins: list[str]) -> tuple[int, int, list[str]]:
    """Attempted ops, failed ops and failure messages of one worker process.

    An op fails on its own (an exception or a failed check), or because the
    digest of its round, or of the warm-up, differs from the reference one;
    either way it counts once.  Rounds without a reference digest (past the
    end of ``round_pins``, or None there) are checked op by op only.
    """
    messages = list(out["failures"])
    warm = out["warm_up"]
    attempted, failed = warm["ops"], warm["failed"]
    if warm["digest"] != warm_up_pin:
        failed = warm["ops"]
        messages.append(f"warm-up digest {warm['digest']} differs from pinned {warm_up_pin}")
    for index, rnd in enumerate(out.get("rounds", [])):
        attempted += rnd["ops"]
        want = round_pins[index] if index < len(round_pins) else None
        if want is not None and rnd["digest"] != want:
            failed += rnd["ops"]
            messages.append(f"round {index}: digest {rnd['digest']} differs from {want}")
        else:
            failed += rnd["failed"]
    return attempted, failed, messages


def round_pins(args, out: dict, pins: dict) -> tuple[list[str | None], int]:
    """The pinned digest of each round of this run (None: not pinned), and the complete rounds past the pins.

    Only the default seed is pinned, and a round cut short by ``--ops`` has no pin.
    """
    if args.seed != DEFAULT_SEED:
        return [], 0
    complete = [rnd["complete"] for rnd in out["rounds"]]
    wanted = [pin if done else None for pin, done in zip(pins["rounds"], complete)]
    return wanted, sum(complete[len(pins["rounds"]):])


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile of a non-empty list."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def timing_metrics(latencies: list[float], setups: list[float]) -> dict[str, float]:
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * quantile(latencies, 0.5),
        "op_p90_ms": 1e3 * quantile(latencies, 0.9),
        "setup_s": statistics.median(setups),
    }


def measure(args, deadline: float) -> tuple[dict, int, int, list[str], dict]:
    """End-to-end run: set-up probes, then one timed process."""
    runs = [run_worker(deadline, workload=args.workload, seed=args.seed, mode="setup")
            for _ in range(SETUP_PROBES)]
    options = dict(workload=args.workload, seed=args.seed, mode="timed", seconds=args.seconds)
    if args.ops:
        options["ops"] = args.ops
    timed = run_worker(deadline, **options)
    runs.append(timed)
    setups = [run["setup_s"] for run in runs]
    metrics = timing_metrics(timed["latencies"], setups)
    metrics["peak_rss_mb"] = timed["peak_rss_mb"]
    wall = timing_metrics(timed["wall_latencies"], [run["setup_wall_s"] for run in runs])
    pins = load_pins(args.workload)
    wanted, unpinned = round_pins(args, timed, pins)
    attempted = failed = 0
    messages = []
    for run in runs:
        a, f, m = check(run, pins["warm_up"], wanted if run is timed else [])
        attempted, failed, messages = attempted + a, failed + f, messages + m
    context = {
        "ops": timed["ops"],
        "rounds": len(timed["rounds"]),
        "setup_samples_s": setups,
        "wall_clock": wall,
        "calibration_steps_per_s": timed["calibration"],
        "setup_calibration_steps_per_s": [run["setup_calibration"] for run in runs],
        "digests": [rnd["digest"] for rnd in timed["rounds"]],
        "pinned_rounds_checked": sum(pin is not None for pin in wanted),
        "unpinned_rounds": unpinned,
    }
    return metrics, attempted, failed, messages, context


def trace(args, deadline: float) -> tuple[dict, int, int, list[str], dict]:
    """Traced run: the same fixed rounds untraced, then traced, in fresh processes."""
    rounds = TRACE_ROUNDS[args.workload]
    common = dict(workload=args.workload, seed=args.seed, rounds=rounds)
    if args.ops:
        common["ops"] = args.ops
    plain = run_worker(deadline, mode="untraced", **common)
    out_dir = os.path.join(checkout_root(), ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{args.workload}.npz")
    traced = run_worker(deadline, mode="traced", spans_out=spans, **common)
    metrics = dict(traced["per_layer"])
    metrics["trace.overhead_frac"] = 1.0 - plain["busy_s"] / traced["busy_s"]
    pins = load_pins(args.workload)
    wanted, _ = round_pins(args, plain, pins)
    plain_digests = [rnd["digest"] for rnd in plain["rounds"]]
    a1, f1, m1 = check(plain, pins["warm_up"], wanted)
    # the traced rounds must reproduce the untraced ones digest for digest
    a2, f2, m2 = check(traced, pins["warm_up"], plain_digests)
    messages = m1 + [f"traced {message}" for message in m2]
    if traced["leftover_wrappers"]:
        messages.append(f"wrappers left installed: {traced['leftover_wrappers']}")
        f2 = a2
    context = {
        "ops": plain["ops"],
        "rounds": len(plain["rounds"]),
        "digests": plain_digests,
        "untraced_busy_s": plain["busy_s"],
        "traced_busy_s": traced["busy_s"],
        "untraced_wall_busy_s": sum(plain["wall_latencies"]),
        "traced_wall_busy_s": sum(traced["wall_latencies"]),
        "patched_bindings": traced["patched"],
        "spans_file": os.path.relpath(spans, checkout_root()),
        "calibration_steps_per_s": plain["calibration"] + traced["calibration"],
    }
    return metrics, a1 + a2, f1 + f2, messages, context


def load_units() -> dict[str, str]:
    units = dict(END_TO_END_UNITS)
    path = os.path.join(checkout_root(), "BENCHMARK.json")
    if os.path.exists(path):
        with open(path) as fh:
            spec = json.load(fh)
        units.update({m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]})
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0, help="stop after this many ops (smoke tests)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(checkout_root(), "src", "dunkl_harmonics", "__init__.py")):
        print("perfbench: run from the root of a dunkl-harmonics checkout (src/dunkl_harmonics not found)",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        metrics, attempted, failed, messages, context = (trace if args.trace else measure)(args, deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    units = load_units()
    for name, value in metrics.items():
        samples = f" (n={context['ops']} ops)" if name.startswith("op_p") else ""
        wall = context.get("wall_clock", {}).get(name)
        wall = "" if wall is None else f"; wall clock {wall:.6g}"
        print(f"{args.workload} {name} = {value!r} {units.get(name, '')}{samples}{wall}")
    print(f"{args.workload} failed_frac = {failed / attempted!r} frac (failed {failed} of {attempted} ops)")
    print(f"{args.workload} context {json.dumps(context)}")
    for message in messages:
        print(f"{args.workload} FAILED {message}", file=sys.stderr)
    if context.get("unpinned_rounds"):
        print(f"{args.workload} WARNING {context['unpinned_rounds']} complete rounds ran past the "
              f"{context['pinned_rounds_checked']} pinned ones and were checked op by op only; "
              "pin more rounds with perfbench/pin.py --rounds", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "")} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
