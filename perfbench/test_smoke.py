"""Smoke test of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at two ops in both modes, checks that every metric named
in BENCHMARK.json is emitted, that op times are scaled to the reference
clock, that the tracer's wrappers are removed again,
that a wrong digest in pins.json fails the run (a round digest for the
default seed, the warm-up digest for any seed), that the default seed
matches the pinned digests, that every Monte-Carlo (target, seed) pair
passes at 4 sigma, that meta.json describes exactly the metrics of
BENCHMARK.json, and that the command refuses to run without the library
sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import dunkl_harmonics as dh  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--ops", "2")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and math.isfinite(got["value"])


def test_tracer_patches_from_imports_and_restores_them():
    originals = {
        ("harmonic", "laplacian"): dh.harmonic.laplacian,
        ("spherical", "laplacian"): dh.spherical.laplacian,
        ("spherical", "apply_operator_poly"): dh.spherical.apply_operator_poly,
        ("intertwine", "dunkl_axis"): dh.intertwine.dunkl_axis,
        ("intertwine", "sphere_integrate"): dh.intertwine.sphere_integrate,
        ("intertwine", "reduce_mod_sphere"): dh.intertwine.reduce_mod_sphere,
        ("_linalg", "rref"): dh._linalg.rref,
    }
    methods = {name: dh.Poly.__dict__[name] for name in ("divided_difference", "reflect", "__mul__")}
    wl = workloads.ColdTables(seed=5)
    op = wl.round_ops(0)[0]
    plain = op.canon(op.run())

    tr = tracer_mod.Tracer()
    tr.install(extra_modules=[workloads])
    try:
        for (mod, name), orig in originals.items():
            assert getattr(getattr(dh, mod), name) is not orig, f"{mod}.{name} not wrapped"
        for name, orig in methods.items():
            assert dh.Poly.__dict__[name] is not orig, f"Poly.{name} not wrapped"
        traced = op.canon(tr.run_op(op.run))
    finally:
        tr.uninstall()

    assert traced == plain
    assert tracer_mod.leftover_wrappers([workloads]) == []
    for (mod, name), orig in originals.items():
        assert getattr(getattr(dh, mod), name) is orig
    for name, orig in methods.items():
        assert dh.Poly.__dict__[name] is orig
    metrics = tr.metrics()
    assert metrics["linalg.rref.calls"] > 0 and metrics["reflection.make_context.calls"] == 1
    assert metrics["polyring.divided_difference.calls"] > 0
    self_times = tr.self_times()
    assert (self_times >= -1e-6).all()


def run_with_pins(monkeypatch, capsys, tmp_path, corrupt, *args: str) -> tuple[int, dict]:
    """Run the command in-process against a copy of pins.json changed by ``corrupt``."""
    with open(run.PINS) as fh:
        pins = json.load(fh)
    corrupt(pins)
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(pins))
    monkeypatch.setattr(run, "PINS", str(path))
    monkeypatch.chdir(ROOT)
    code = run.main(list(args))
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


COLD_ROUND = ("--workload", "cold_tables", "--seed", "0", "--seconds", "1", "--trace", "0",
              "--ops", str(len(workloads.ColdTables(0).round_ops(0))))


def test_pinned_round_digest_is_checked(monkeypatch, capsys, tmp_path):
    code, result = run_with_pins(monkeypatch, capsys, tmp_path, lambda pins: None, *COLD_ROUND)
    assert code == 0 and result["correct"] and result["failed"] == 0

    def corrupt(pins):
        pins["cold_tables"]["rounds"][0] = "0" * 64

    code, result = run_with_pins(monkeypatch, capsys, tmp_path, corrupt, *COLD_ROUND)
    assert code == 1
    assert not result["correct"] and result["failed"] == int(COLD_ROUND[-1])


def test_pinned_warm_up_digest_is_checked_for_every_seed(monkeypatch, capsys, tmp_path):
    def corrupt(pins):
        pins["operator_stream"]["warm_up"] = "0" * 64

    args = ("--workload", "operator_stream", "--seed", "3", "--seconds", "1", "--trace", "0", "--ops", "2")
    code, result = run_with_pins(monkeypatch, capsys, tmp_path, corrupt, *args)
    assert code == 1
    warm_ops = len(workloads.OperatorStream(3).warm_up_ops())
    assert not result["correct"] and result["failed"] == (run.SETUP_PROBES + 1) * warm_ops


def test_clock_scales_each_op_by_the_calibration_rate_around_it():
    ref = worker.REFERENCE_RATE
    clock = worker.Clock()
    # one sample a second: the machine runs at the reference rate until t=5, then at half of it
    clock.samples = [(float(t), 1000, 1000 / (ref if t < 5 else ref / 2)) for t in range(11)]
    clock.starts, clock.walls = [1.0, 8.0, 20.0], [0.1, 0.2, 0.4]
    scaled = clock.scaled()
    assert scaled[0] == pytest.approx(0.1)  # fast machine: the wall time
    assert scaled[1] == pytest.approx(0.1)  # twice as slow: half the wall time
    assert scaled[2] == pytest.approx(0.2)  # no sample within the window: the last one before


def test_meta_describes_exactly_the_benchmark_metrics():
    with open(os.path.join(HERE, "meta.json")) as fh:
        meta = json.load(fh)
    assert set(meta["metrics"]) == {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert set(meta["workloads"]) == set(WORKLOADS)


def test_default_seed_matches_pins():
    proc = bench("--workload", "warm_zonal", "--seed", "0", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert last_json(proc)["correct"]


def test_every_monte_carlo_pair_is_within_4_sigma():
    wl = workloads.WarmZonal(seed=0)
    for _, ctx, _, targets in wl.contexts:
        for label, p, exact in targets:
            for mc_seed in workloads.MC_SEEDS:
                est = dh.mc_sphere_integral(ctx, p, seed=mc_seed, samples=workloads.MC_SAMPLES)
                assert abs(est.mean - float(exact)) <= 4 * est.std_error, (label, mc_seed)


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "operator_stream", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
