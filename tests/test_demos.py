"""The demos print exact results; their stdout is pinned byte for byte.

Each demo runs in a fresh interpreter with one BLAS thread, and the
SHA-256 of its stdout must match the digest recorded from the reference
implementation.  A deliberate change of a demo's output must re-record
its digest and say why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DIGESTS = {
    "01_operators_and_pairing.py": "6d3bb66ed819e8c161341e8da222706f43572d38860b7a2f1fb519d65b631bea",
    "02_harmonic_decomposition.py": "f788ac2be7ab8cbf7d86878e3b2938cb2a30538269d768c5a306ebb67d5b7921",
    "03_spherical_means.py": "7b3711bbc8aeb471822c6acbbd0eaa532e7c03e70d2187802853d65b7291aac8",
    "04_zonal_kernels.py": "247695e413de13cf827909f5fd471e2b4903941b22010c68a46d6583bb989493",
    "05_floating_oracles.py": "7a0ab8e658fe2e1425f063dcc12a8c00c9466e79dd34383e44385b8a1ca74db6",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output(name):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, check=True, timeout=120,
    )
    assert hashlib.sha256(run.stdout).hexdigest() == DIGESTS[name]
