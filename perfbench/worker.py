"""One benchmark process: set up one workload, run it, print one JSON line.

Modes:
  setup     time the set-up alone (import, contexts, tables, warm-up ops);
  timed     set up, then run whole rounds for about --seconds with tracing off;
  untraced  set up, then run exactly --rounds rounds with tracing off;
  traced    the same rounds with the tracer installed.

Times are reported on a reference clock.  The benchmark runs on shared
machines whose pure-Python speed drifts by up to 2x within a minute, so
between ops (about every CAL_INTERVAL_S) the process times a fixed
pure-Python Fraction loop, the calibration.  Each op's wall time is scaled
by the calibration rate measured around it (pooled over CAL_WINDOW_S on
either side) over REFERENCE_RATE: the time the op would take on a machine
that runs the loop at REFERENCE_RATE steps per second.  Set-up is scaled by
the rate measured just before and just after it.  Wall times are reported
too.

Run by ``run.py``; the library is imported from ``src/`` of the checkout
that holds this file.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE_RATE = 250_000.0  # calibration steps per second of the reference clock
CAL_STEPS = 2500  # one calibration sample between ops, about 10 ms
CAL_INTERVAL_S = 0.25  # wall time from one sample to the next in a measured phase
CAL_WINDOW_S = 1.0  # samples this close to an op set its speed
SETUP_CAL_STEPS = 10000  # the samples just before and just after set-up


def calibrate(steps: int) -> tuple[float, int, float]:
    """Run the fixed Fraction loop; return (mid time, steps, seconds)."""
    start = time.perf_counter()
    total = Fraction(0)
    for n in range(steps):
        total += Fraction(n % 7 + 1, n % 11 + 1)
    end = time.perf_counter()
    return (start + end) / 2, steps, end - start


def call(func):
    return func()


class Clock:
    """Times ops, samples the calibration rate between them, and scales op times to the reference clock."""

    def __init__(self):
        self.starts: list[float] = []
        self.walls: list[float] = []
        self.samples: list[tuple[float, int, float]] = []
        self._next_sample = 0.0

    def sample(self) -> None:
        self.samples.append(calibrate(CAL_STEPS))
        self._next_sample = time.perf_counter() + CAL_INTERVAL_S

    def record(self, start: float, wall: float) -> None:
        self.starts.append(start)
        self.walls.append(wall)
        if time.perf_counter() >= self._next_sample:
            self.sample()

    def rates(self) -> list[float]:
        return [steps / seconds for _, steps, seconds in self.samples]

    def scaled(self) -> list[float]:
        """Each op's wall time times (calibration rate around it) / REFERENCE_RATE."""
        mids = [mid for mid, _, _ in self.samples]
        steps = [0]
        seconds = [0.0]
        for _, n, s in self.samples:
            steps.append(steps[-1] + n)
            seconds.append(seconds[-1] + s)
        out = []
        for start, wall in zip(self.starts, self.walls):
            lo = bisect.bisect_left(mids, start - CAL_WINDOW_S)
            hi = bisect.bisect_right(mids, start + wall + CAL_WINDOW_S)
            if lo == hi:  # no sample in the window: the last one before the op
                lo = min(max(bisect.bisect_left(mids, start) - 1, 0), len(mids) - 1)
                hi = lo + 1
            rate = (steps[hi] - steps[lo]) / (seconds[hi] - seconds[lo])
            out.append(wall * rate / REFERENCE_RATE)
        return out


def run_ops(ops, runner, clock: Clock | None = None) -> list:
    """Run ops one by one; return each op's result or the exception it raised."""
    outcomes = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            outcome = runner(op.run)
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            outcome = exc
        if clock is not None:
            clock.record(t0, time.perf_counter() - t0)
        outcomes.append(outcome)
    return outcomes


def fold(ops, outcomes, failures: list[str]) -> dict:
    """Check the ops' outcomes and fold their exact outputs into one SHA-256 digest."""
    digest = hashlib.sha256()
    failed = 0
    for op, outcome in zip(ops, outcomes):
        if isinstance(outcome, Exception):
            text, reason = "<raised>", f"{type(outcome).__name__}: {outcome}"
        else:
            text = op.canon(outcome)
            reason = op.check(outcome) if op.check is not None else None
        digest.update(f"{op.cell}\0{text}\n".encode())
        if reason is not None:
            failed += 1
            failures.append(f"{op.cell}: {reason}")
    return {"ops": len(ops), "failed": failed, "digest": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "untraced", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--ops", type=int, default=0, help="stop after this many ops (0: no limit)")
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args(argv)

    before = calibrate(SETUP_CAL_STEPS)
    setup_start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    warm_ops = workload.warm_up_ops()
    warm_outcomes = run_ops(warm_ops, call)
    setup_wall_s = time.perf_counter() - setup_start
    after = calibrate(SETUP_CAL_STEPS)
    setup_rate = (before[1] + after[1]) / (before[2] + after[2])
    failures: list[str] = []
    out: dict = {
        "setup_s": setup_wall_s * setup_rate / REFERENCE_RATE,
        "setup_wall_s": setup_wall_s,
        "setup_calibration": setup_rate,
        "warm_up": fold(warm_ops, warm_outcomes, failures),
        "failures": failures,
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    runner = call
    if args.mode == "traced":
        from tracer import Tracer, leftover_wrappers

        tracer = Tracer()
        tracer.install(extra_modules=[workloads])
        runner = tracer.run_op
        out["patched"] = tracer.patched_bindings

    clock = Clock()
    clock.sample()
    rounds: list[dict] = []
    phase_start = time.perf_counter()
    while True:
        ops = workload.round_ops(len(rounds))
        full = len(ops)
        if args.ops:
            ops = ops[: args.ops - len(clock.walls)]
        outcomes = run_ops(ops, runner, clock)
        rounds.append({**fold(ops, outcomes, failures), "complete": len(ops) == full})
        if args.ops and len(clock.walls) >= args.ops:
            break
        if args.mode == "timed":
            elapsed = time.perf_counter() - phase_start
            if elapsed + elapsed / len(rounds) > args.seconds:
                break
        elif len(rounds) >= args.rounds:
            break
    clock.sample()
    latencies = clock.scaled()

    if tracer is not None:
        tracer.uninstall()
        out["leftover_wrappers"] = leftover_wrappers([workloads])
        out["per_layer"] = tracer.metrics(time_scale=sum(latencies) / sum(clock.walls))
        if args.spans_out:
            tracer.write(args.spans_out)

    rates = clock.rates()
    out.update(
        ops=len(latencies),
        latencies=latencies,
        busy_s=sum(latencies),
        wall_latencies=clock.walls,
        rounds=rounds,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        calibration=[rates[0], statistics.median(rates), rates[-1]],
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
