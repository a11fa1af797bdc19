import json

import pytest

from dunkl_harmonics import harmonic
from dunkl_harmonics.cli import main
from dunkl_harmonics.verify import default_corpus, filter_corpus, verify


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSubcommands:
    def test_pair_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "pair", "--group", "z2^2", "--kappa", "1/2,1/2", "--p", "x1", "--q", "x1"
        )
        assert code == 0
        assert json.loads(out) == {"result_rational": "2"}

    def test_sphere_int_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "sphere-int", "--group", "z2^2", "--kappa", "1/2,1/2", "--poly", "x1^2"
        )
        assert code == 0
        assert json.loads(out) == {"result_rational": "1/2"}

    def test_apply_with_vector_direction(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "apply", "--group", "z2^2", "--kappa", "0,0", "--xi", "v:1,1", "--poly", "x1^2",
        )
        assert code == 0
        assert json.loads(out) == {"result": "2*x1"}

    def test_laplacian(self, capsys):
        code, out, _ = run_cli(
            capsys, "laplacian", "--group", "z2^2", "--kappa", "1/2,1/2", "--poly", "x1^2+x2^2"
        )
        assert code == 0
        assert json.loads(out) == {"result": "8"}

    def test_decompose(self, capsys):
        code, out, _ = run_cli(
            capsys, "decompose", "--group", "z2^2", "--kappa", "0,0", "--poly", "x1^2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["degree"] == 2
        assert payload["components"] == [
            {"i": 0, "poly": "1/2*x1^2 - 1/2*x2^2"},
            {"i": 1, "poly": "1/2"},
        ]

    def test_hbasis(self, capsys):
        code, out, _ = run_cli(capsys, "hbasis", "--group", "a2", "--kappa", "1", "--degree", "2")
        assert code == 0
        assert len(json.loads(out)["basis"]) == 5

    def test_pizzetti(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "pizzetti", "--group", "z2^2", "--kappa", "1/2,1/2",
            "--f", "x1^2+x2^2", "--N", "1",
        )
        assert code == 0
        assert json.loads(out) == {"m": 0, "coeffs": ["0", "1"]}

    def test_hobson(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "hobson", "--group", "z2^2", "--kappa", "1/2,1/2", "--p", "x1", "--radial", "1:1",
        )
        assert code == 0
        assert json.loads(out) == {"result": "2*x1"}

    def test_intertwine(self, capsys):
        code, out, _ = run_cli(
            capsys, "intertwine", "--group", "z2^2", "--kappa", "1/2,1/2", "--poly", "x1"
        )
        assert code == 0
        assert json.loads(out) == {"result": "1/2*x1"}

    def test_funk_hecke(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "funk-hecke", "--group", "z2^2", "--kappa", "1/2,1/2", "--phi", "t^3", "--q", "x1",
        )
        assert code == 0
        assert json.loads(out) == {"a": "1/8", "holds": True}

    @pytest.mark.parametrize(
        "phi,a",
        [("0", "0"), ("2*t^4 - 1/3*t^2 + 3", "7/72")],
        ids=["zero", "rational-four-term"],
    )
    def test_funk_hecke_profiles(self, capsys, phi, a):
        code, out, _ = run_cli(
            capsys,
            "funk-hecke", "--group", "z2^2", "--kappa", "1/2,1/2", "--phi", phi, "--q", "x1^2 - x2^2",
        )
        assert code == 0
        assert json.loads(out) == {"a": a, "holds": True}

    def test_kernel(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--group", "z2^2", "--kappa", "1/2,1/2", "--n", "0")
        assert code == 0
        assert json.loads(out) == {"block_dim": 2, "n": 0, "result": "1"}

    def test_mc(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "mc", "--group", "z2^2", "--kappa", "1/2,1/2",
            "--poly", "x1^2", "--samples", "20000", "--seed", "5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["samples"] == 20000 and payload["seed"] == 5
        assert abs(payload["mean"] - 0.5) <= 5 * payload["stderr"]


class TestErrorPaths:
    def test_malformed_polynomial(self, capsys):
        code, out, err = run_cli(
            capsys, "sphere-int", "--group", "z2^2", "--kappa", "0,0", "--poly", "x1^"
        )
        assert code == 2
        assert "error" in json.loads(err)

    def test_variable_beyond_dimension(self, capsys):
        code, _, err = run_cli(
            capsys, "sphere-int", "--group", "z2^2", "--kappa", "0,0", "--poly", "x3"
        )
        assert code == 2
        assert "dimension" in json.loads(err)["error"]

    def test_bad_kappa(self, capsys):
        code, _, err = run_cli(
            capsys, "sphere-int", "--group", "z2^2", "--kappa=-1,0", "--poly", "x1"
        )
        assert code == 2
        assert "non-negative" in json.loads(err)["error"]

    @pytest.mark.parametrize(
        "kappa,poly,named",
        [
            ("1e400,0", "x1", "multiplicity"),
            ("1,0", "1" + "0" * 400 + "*x1", "coefficient"),
            ("1e300,0", "x1", "not finite"),
            ("1,0", "1" + "0" * 300 + "*x1^2", "not finite"),
        ],
    )
    def test_mc_value_beyond_float_range(self, capsys, kappa, poly, named):
        code, _, err = run_cli(
            capsys, "mc", "--group", "z2^2", "--kappa", kappa, "--poly", poly, "--samples", "10"
        )
        assert code == 2
        assert named in json.loads(err)["error"]

    def test_bad_group(self, capsys):
        code, _, err = run_cli(capsys, "sphere-int", "--group", "q7", "--kappa", "1", "--poly", "x1")
        assert code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["decompose", "--poly", "x1^2 + x2"], "decomposition input must be homogeneous"),
            (["pizzetti", "--q", "x1^2", "--f", "x1^2", "--N", "2"], "q must be h-harmonic"),
            (["hobson", "--p", "x1^2 + x2", "--radial", "1:1"], "p must be homogeneous"),
            (["funk-hecke", "--phi", "t^3", "--q", "x1^2"], "q must be h-harmonic"),
            (["kernel", "--n", "2"], "the reproducing kernel needs a positive spectral index"),
            (
                ["mc", "--poly", "x1^2", "--samples", "1"],
                "--samples must be >= 2: one sample has no standard error",
            ),
            (
                ["verify", "--samples", "0"],
                "--samples must be >= 2: one sample has no standard error",
            ),
            (
                ["verify", "--samples", "1"],
                "--samples must be >= 2: one sample has no standard error",
            ),
            (["apply", "--xi", "e0", "--poly", "x1"], "--xi axis e0 is out of range 1..2"),
            (["apply", "--xi", "e3", "--poly", "x1"], "--xi axis e3 exceeds dimension 2"),
            (
                ["funk-hecke", "--phi", "t^2 + t^", "--q", "x1"],
                "bad --phi: expected an exponent (at position 8)",
            ),
            (
                ["funk-hecke", "--phi", "t^2 t", "--q", "x1"],
                "bad --phi: unexpected character 't' (at position 4)",
            ),
            (
                ["funk-hecke", "--phi", "x1^2", "--q", "x1"],
                "--phi is a polynomial in t, not in x variables",
            ),
        ],
        ids=["decompose", "pizzetti", "hobson", "funk-hecke", "kernel", "mc-one-sample",
             "verify-zero-samples", "verify-one-sample", "apply-axis-zero", "apply-axis-beyond",
             "phi-missing-exponent", "phi-two-terms-without-sign", "phi-in-x"],
    )
    def test_invalid_input_exits_2(self, capsys, argv, message):
        context = [] if argv[0] == "verify" else ["--group", "z2^2", "--kappa", "0,0"]
        code, _, err = run_cli(capsys, *argv, *context)
        assert code == 2
        assert json.loads(err) == {"error": message}


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        _, first, _ = run_cli(
            capsys, "hbasis", "--group", "b2", "--kappa", "1/2,3/2", "--degree", "3"
        )
        _, second, _ = run_cli(
            capsys, "hbasis", "--group", "b2", "--kappa", "1/2,3/2", "--degree", "3"
        )
        assert first == second

    def test_mc_byte_identical(self, capsys):
        args = ["mc", "--group", "z2^2", "--kappa", "1/2,1/2",
                "--poly", "x1^2", "--samples", "5000", "--seed", "42"]
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestVerify:
    def test_quick_run_passes(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "verify", "--max-degree", "3", "--families", "z2",
            "--samples", "20000", "--out", str(out_path),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["failed"] == 0
        assert payload["summary"]["total"] >= 12
        assert json.loads(out_path.read_text()) == payload

    def test_at_least_12_named_groups(self):
        report = verify(max_degree=2, families=["b"], mc_samples=5000)
        names = {c.name for c in report.checks}
        assert len(names) >= 12
        assert report.all_pass

    def test_families_filter(self):
        entries = filter_corpus(default_corpus(), ["z2"])
        assert entries and all(ctx.family == "z2" for ctx in entries)
        report = verify(max_degree=2, families=["z2"], mc_samples=5000)
        assert all(c.group.startswith("z2^") for c in report.checks)

    def test_injected_bug_is_caught(self, monkeypatch):
        real_project = harmonic._project

        def flipped(ctx, n, powers, *scale):
            out = real_project(ctx, n, powers, *scale)
            return -out if n >= 2 else out  # sign bug in the projection

        monkeypatch.setattr(harmonic, "_project", flipped)
        report = verify(max_degree=3, families=["z2"], mc_samples=5000)
        failing = [c for c in report.checks if c.name == "harmonic_reconstruction" and not c.passed]
        assert failing
        assert failing[0].counterexample is not None
        inputs = failing[0].counterexample
        assert "p" in inputs and ("reconstructed" in inputs or "component" in inputs)

    def test_invalid_max_degree(self):
        with pytest.raises(ValueError):
            verify(max_degree=1)
