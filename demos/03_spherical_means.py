"""Exact weighted spherical means and their radius expansions.

The normalized mean of a polynomial over the weighted sphere is a single
rational number; the mean of f(r y), as a function of the radius r, expands
in a finite series whose coefficients are iterated-Laplacian values.  The
radial calculus below also applies p(D) to radial polynomials in closed
form.
"""

from fractions import Fraction

from dunkl_harmonics import (
    RadialPowerSum,
    apply_operator_poly,
    extended_pizzetti,
    h_harmonic_basis,
    hobson_apply,
    make_context,
    parse,
    pizzetti,
    pizzetti_from_hobson,
    sphere_integrate,
)

ctx = make_context("b", 2, [Fraction(1, 2), Fraction(3, 2)])
print(f"group: {ctx.label()},  lambda = {ctx.lambda_kappa}")

print("\nnormalized weighted means:")
for text in ("1", "x1^2", "x1^2*x2^2", "x1^3"):
    print(f"  mean of {text:10s} = {sphere_integrate(ctx, parse(text, 2))}")

# the radius expansion of the mean of f(r y): exact for polynomial f
f = parse("x1^4 + x2^2", 2)
series = pizzetti(ctx, f, 2)
print(f"\nmean of ({f})(r y) as a polynomial in r:")
print("  coefficients c_n of r^(2n):", [str(c) for c in series.coefficients])
print("  value at r = 1 equals the plain mean?",
      series.eval_rational(1) == sphere_integrate(ctx, f))

# inserting a harmonic factor shifts the expansion by its degree
q = h_harmonic_basis(ctx, 2)[0]
g = parse("x1^3*x2 - x2^4 + x1*x2", 2)
ext = extended_pizzetti(ctx, q, g, 2)
print(f"\nmean of q(y) g(r y) for harmonic q = {q} and g = {g}:")
print("  coefficients of r^(2+2n):", [str(c) for c in ext.coefficients])
print("  same series through the product route?",
      pizzetti_from_hobson(ctx, q, g, 2) == ext)

# radial calculus: p(D) applied to a polynomial in |x|^2, two ways
p = parse("x1*x2", 2)
f0 = RadialPowerSum.from_pairs([(2, 1), (3, Fraction(-1, 2))])
closed = hobson_apply(ctx, p, f0)
direct = apply_operator_poly(ctx, p, f0.to_poly(2))
print(f"\np(D) f0(|x|) for p = {p}, f0 = rho^4 - rho^6/2:")
print("  closed form:", closed)
print("  equals the direct operator substitution?", closed == direct)
