"""Command-line surface: exact operator calculus from the shell, JSON out.

Every subcommand prints a single JSON document on stdout with rationals
serialized as strings (never binary floats), so output is byte-deterministic
for fixed inputs and seeds.  Exit codes: 0 on success or an all-pass verify
run, 1 when verification finds a failing check, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import harmonic, intertwine, oracle, spherical
from .dunkl import dunkl_apply, laplacian, pairing
from .verify import MC_SAMPLES_ERROR, verify as run_verify
from .polyring import Poly, PolyParseError, format_poly, parse
from .reflection import DunklContext, context_from_descriptor


class UsageError(ValueError):
    pass


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _parse_kappa(text: str) -> list[Fraction]:
    try:
        return [Fraction(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad --kappa value {text!r}: {exc}") from exc


def _context(args) -> DunklContext:
    if not args.group:
        raise UsageError("--group is required")
    kappa = _parse_kappa(args.kappa) if args.kappa else []
    return context_from_descriptor(args.group, kappa)


def _poly(args_value: str, ctx: DunklContext, flag: str) -> Poly:
    if args_value is None:
        raise UsageError(f"{flag} is required")
    try:
        return parse(args_value, ctx.dim)
    except PolyParseError as exc:
        raise UsageError(f"bad polynomial for {flag}: {exc}") from exc


def _parse_xi(text: str, dim: int) -> list[Fraction]:
    text = text.strip()
    if text.startswith("e"):
        try:
            k = int(text[1:])
        except ValueError as exc:
            raise UsageError(f"bad --xi value {text!r}") from exc
        if k < 1:
            raise UsageError(f"--xi axis e{k} is out of range 1..{dim}")
        if k > dim:
            raise UsageError(f"--xi axis e{k} exceeds dimension {dim}")
        return [Fraction(1 if i == k - 1 else 0) for i in range(dim)]
    if text.startswith("v:"):
        try:
            vec = [Fraction(part.strip()) for part in text[2:].split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad --xi vector {text!r}: {exc}") from exc
        if len(vec) != dim:
            raise UsageError(f"--xi vector length {len(vec)} does not match dimension {dim}")
        return vec
    raise UsageError(f"bad --xi value {text!r}; expected eK or v:c1,...,cd")


def _parse_radial(text: str) -> spherical.RadialPowerSum:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise UsageError(f"bad --radial entry {chunk!r}; expected j:c")
        j_text, c_text = chunk.split(":", 1)
        try:
            pairs.append((int(j_text), Fraction(c_text)))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad --radial entry {chunk!r}: {exc}") from exc
    if not pairs:
        raise UsageError("--radial needs at least one j:c entry")
    return spherical.RadialPowerSum.from_pairs(pairs)


def _parse_phi(text: str) -> Poly:
    """The profile phi(t) as a one-variable Poly; errors quote the text as typed."""
    if "x" in text:
        raise UsageError("--phi is a polynomial in t, not in x variables")
    # t is parsed as "x1 ", whose space keeps a digit after t out of the variable
    # index; typed_at maps each position of the rewritten text back to the typed one
    typed_at = [i for i, ch in enumerate(text) for _ in ("x1 " if ch == "t" else ch)]
    typed_at.append(len(text))
    try:
        return parse(text.replace("t", "x1 "), 1)
    except PolyParseError as exc:
        at = typed_at[exc.position]
        message = exc.message
        if message.startswith("unexpected character"):
            message = f"unexpected character {text[at]!r}"
        raise UsageError(f"bad --phi: {message} (at position {at})") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dunkl",
        description="Exact Dunkl-operator calculus on rational-root reflection groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--group", help="group descriptor: z2^D, aR, bD, dD")
        p.add_argument("--kappa", default="", help="comma-separated multiplicities in orbit order")
        return p

    p = add("apply", help="apply the Dunkl operator in a direction")
    p.add_argument("--xi", required=True, help="direction: eK or v:c1,...,cd")
    p.add_argument("--poly", required=True)

    p = add("laplacian", help="apply the Dunkl Laplacian")
    p.add_argument("--poly", required=True)

    p = add("pair", help="the bilinear pairing (p(D) q)(0)")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)

    p = add("decompose", help="canonical h-harmonic decomposition of a homogeneous polynomial")
    p.add_argument("--poly", required=True)

    p = add("hbasis", help="exact basis of the degree-n h-harmonics")
    p.add_argument("--degree", required=True, type=int)

    p = add("sphere-int", help="normalized weighted spherical integral")
    p.add_argument("--poly", required=True)

    p = add("pizzetti", help="radius expansion of the weighted spherical mean")
    p.add_argument("--q", default="1", help="h-harmonic factor (default 1)")
    p.add_argument("--f", required=True)
    p.add_argument("--N", required=True, type=int, dest="n_terms")

    p = add("hobson", help="apply p(D) to a radial polynomial via the radial expansion")
    p.add_argument("--p", required=True)
    p.add_argument("--radial", required=True, help="f0 as j:c,j:c for sum of c rho^(2j)")

    p = add("intertwine", help="apply the intertwining operator")
    p.add_argument("--poly", required=True)

    p = add("funk-hecke", help="check the zonal-kernel identity for a polynomial profile")
    p.add_argument("--phi", required=True, help="polynomial in t, e.g. t^3 or 2*t^2 - 1")
    p.add_argument("--q", required=True)

    p = add("kernel", help="degree-n reproducing kernel (y-block printed as x_{d+1}..x_{2d})")
    p.add_argument("--n", required=True, type=int)

    p = add("mc", help="Monte-Carlo estimate of the normalized weighted integral")
    p.add_argument("--poly", required=True)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)

    p = add("verify", help="run the full identity corpus")
    p.add_argument("--max-degree", type=int, default=6, dest="max_degree")
    p.add_argument("--families", default="", help="comma-separated family filter: z2,a,b,d")
    p.add_argument("--seed", type=int, default=20260801)
    p.add_argument("--samples", type=int, default=200_000, help="Monte-Carlo samples per check")
    p.add_argument("--out", default="", help="also write the JSON report to this path")

    return parser


def _run(args) -> int:
    command = args.command
    if command == "verify":
        families = [f.strip() for f in args.families.split(",") if f.strip()] or None
        report = run_verify(
            max_degree=args.max_degree,
            families=families,
            seed=args.seed,
            mc_samples=args.samples,
        )
        payload = report.to_json_dict()
        _emit(payload)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
                handle.write("\n")
        return 0 if report.all_pass else 1

    ctx = _context(args)

    if command == "apply":
        p = _poly(args.poly, ctx, "--poly")
        xi = _parse_xi(args.xi, ctx.dim)
        _emit({"result": format_poly(dunkl_apply(ctx, xi, p))})
    elif command == "laplacian":
        p = _poly(args.poly, ctx, "--poly")
        _emit({"result": format_poly(laplacian(ctx, p))})
    elif command == "pair":
        p = _poly(args.p, ctx, "--p")
        q = _poly(args.q, ctx, "--q")
        _emit({"result_rational": str(pairing(ctx, p, q))})
    elif command == "decompose":
        p = _poly(args.poly, ctx, "--poly")
        decomp = harmonic.canonical_decompose(ctx, p)
        _emit(
            {
                "degree": decomp.degree,
                "components": [
                    {"i": i, "poly": format_poly(comp)} for i, comp in decomp.components
                ],
            }
        )
    elif command == "hbasis":
        if args.degree < 0:
            raise UsageError("--degree must be >= 0")
        basis = harmonic.h_harmonic_basis(ctx, args.degree)
        _emit({"degree": args.degree, "basis": [format_poly(b) for b in basis]})
    elif command == "sphere-int":
        p = _poly(args.poly, ctx, "--poly")
        _emit({"result_rational": str(spherical.sphere_integrate(ctx, p))})
    elif command == "pizzetti":
        q = _poly(args.q, ctx, "--q")
        f = _poly(args.f, ctx, "--f")
        if args.n_terms < 0:
            raise UsageError("--N must be >= 0")
        series = spherical.extended_pizzetti(ctx, q, f, args.n_terms)
        _emit({"m": series.m, "coeffs": [str(c) for c in series.coefficients]})
    elif command == "hobson":
        p = _poly(args.p, ctx, "--p")
        radial = _parse_radial(args.radial)
        result = spherical.hobson_apply(ctx, p, radial)
        _emit({"result": format_poly(result)})
    elif command == "intertwine":
        p = _poly(args.poly, ctx, "--poly")
        _emit({"result": format_poly(intertwine.intertwiner_apply(ctx, p))})
    elif command == "funk-hecke":
        q = _poly(args.q, ctx, "--q")
        phi = _parse_phi(args.phi)
        result = intertwine.funk_hecke_check(ctx, phi, q)
        _emit({"holds": result.holds, "a": str(result.coefficient)})
    elif command == "kernel":
        if args.n < 0:
            raise UsageError("--n must be >= 0")
        kernel = intertwine.reproducing_kernel(ctx, args.n)
        _emit({"n": args.n, "block_dim": ctx.dim, "result": format_poly(kernel.poly)})
    elif command == "mc":
        p = _poly(args.poly, ctx, "--poly")
        if args.samples < 2:
            raise UsageError(MC_SAMPLES_ERROR)
        estimate = oracle.mc_sphere_integral(ctx, p, seed=args.seed, samples=args.samples)
        _emit(
            {
                "mean": estimate.mean,
                "stderr": estimate.std_error,
                "samples": estimate.samples,
                "seed": estimate.seed,
            }
        )
    else:  # pragma: no cover - argparse enforces the command set
        raise UsageError(f"unknown command {command!r}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ValueError as exc:  # UsageError and PolyParseError among them
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
