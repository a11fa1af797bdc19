"""The intertwining operator and zonal kernel identities.

The intertwiner V is the unique degree-preserving map that fixes constants
and exchanges the deformed derivatives for plain ones.  Pushing a profile
phi(<x, y>) through V in the y variables and integrating against a
harmonic q multiplies q by a single rational eigenvalue; with Gegenbauer
profiles this builds the reproducing kernel of each harmonic space.
"""

from fractions import Fraction

from dunkl_harmonics import (
    Poly,
    funk_hecke_check,
    funk_hecke_coeff,
    gegenbauer,
    h_harmonic_basis,
    intertwiner_apply,
    make_context,
    parse,
    reproducing_check,
    reproducing_kernel,
)

ctx = make_context("z2", 3, [1, Fraction(1, 2), 0])
print(f"group: {ctx.label()},  lambda = {ctx.lambda_kappa}")

print("\nthe intertwiner on low-degree monomials:")
for text in ("x1", "x2", "x3", "x1*x2", "x1^2"):
    print(f"  V[{text:6s}] = {intertwiner_apply(ctx, parse(text, 3))}")

# zonal integral against a degree-1 harmonic: the profile t^3, a polynomial
# in one variable
q = parse("x1", 3)
result = funk_hecke_check(ctx, Poly.monomial(1, (3,)), q)
print(f"\nzonal identity for phi = t^3 against q = {q}:")
print("  holds exactly?", result.holds)
print("  eigenvalue a =", result.coefficient)
print("  left side (reduced to the sphere):", result.lhs)

# Gegenbauer profiles diagonalize the construction
lam = ctx.lambda_kappa
print("\neigenvalues of Gegenbauer profiles (nonzero only on the matching degree):")
for m in range(3):
    row = [str(funk_hecke_coeff(ctx, m, gegenbauer(n, lam))) for n in range(3)]
    print(f"  m={m}: ", row)

# the reproducing kernel picks out each harmonic exactly: integrating it
# against a degree-m harmonic returns the harmonic when m = 1 and zero
# otherwise, and reproducing_check confirms that delta behavior
kernel = reproducing_kernel(ctx, 1)
print("\ndegree-1 reproducing kernel (y-block printed as x4..x6):")
print("  ", kernel)
for m in range(3):
    q = h_harmonic_basis(ctx, m)[0]
    print(f"  delta behavior against a degree-{m} harmonic: {reproducing_check(ctx, 1, q)}")
