"""Regenerate pins.json: per workload, the digest of the warm-up ops (the
same for every seed) and the per-round digests of the default seed.

    python3 perfbench/pin.py [--rounds 96] [workload ...]

Run from the root of a checkout, and only when an exact output is meant to
change.  A run of the default seed that goes past the pinned rounds checks
the rest op by op only and says so on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--rounds", type=int, default=96)
    parser.add_argument("workloads", nargs="*", default=list(run.WORKLOAD_NAMES))
    args = parser.parse_args(argv)
    pins = {}
    if os.path.exists(run.PINS):
        with open(run.PINS) as fh:
            pins = json.load(fh)
    for name in args.workloads:
        out = run.run_worker(time.monotonic() + 3600, workload=name, seed=run.DEFAULT_SEED,
                             mode="untraced", rounds=args.rounds)
        if out["failures"]:
            raise SystemExit(f"{name}: ops failed, nothing pinned: {out['failures'][:3]}")
        pins[name] = {"warm_up": out["warm_up"]["digest"], "rounds": [rnd["digest"] for rnd in out["rounds"]]}
        print(f"{name}: pinned the warm-up and {len(out['rounds'])} rounds")
    with open(run.PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
