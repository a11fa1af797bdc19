"""Splitting polynomials into deformed-harmonic layers.

Every homogeneous polynomial splits uniquely as
p = p_n + |x|^2 p_(n-2) + |x|^4 p_(n-4) + ...
with each layer annihilated by the deformed Laplacian.  The split is
computed from a closed formula and checked here by direct reconstruction.
"""

from dunkl_harmonics import (
    canonical_decompose,
    h_harmonic_basis,
    is_h_harmonic,
    laplacian,
    make_context,
    parse,
)

ctx = make_context("a", 3, [1])  # symmetric group on 3 coordinates, kappa = 1
print(f"group: {ctx.label()},  lambda = {ctx.lambda_kappa}")

p = parse("x1^4", 3)
decomp = canonical_decompose(ctx, p)
print(f"\ndecomposition of {p}:")
for i, comp in decomp.components:
    tag = "harmonic" if is_h_harmonic(ctx, comp) else "NOT harmonic"
    print(f"  |x|^{2 * i} * ({comp})   [{tag}]")
print("  reconstructs exactly?", decomp.reconstruct() == p)

# exact bases of each harmonic space, sized by the two-binomial formula
print("\nharmonic space dimensions (d = 3): expected 1, 3, 5, 7, 9, ...")
for n in range(5):
    basis = h_harmonic_basis(ctx, n)
    assert all(laplacian(ctx, b).is_zero for b in basis)
    print(f"  degree {n}: dimension {len(basis)}")

print("\na degree-2 basis, every element killed by the Laplacian:")
for b in h_harmonic_basis(ctx, 2):
    print("  ", b)
