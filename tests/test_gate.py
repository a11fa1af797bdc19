"""The one argument gate: every public function refuses a polynomial of another dimension.

Each (function, parameter) pair below is a polynomial slot of a public
function that also takes a :class:`DunklContext`.  A zero and a nonzero
polynomial of the wrong dimension are passed in that slot, with valid
values everywhere else, and each call must stop at
:meth:`DunklContext.check_dim`.  The completeness test reads the
signatures of the package's public names, so a new function with a context
and a polynomial cannot go unchecked.
"""

import inspect

import pytest

import dunkl_harmonics as dh
from dunkl_harmonics import Poly, RadialPowerSum

PROFILE = Poly.monomial(1, (2,))  # phi(t) = t^2
RADIAL = RadialPowerSum.from_pairs([(1, 1)])  # |x|^2
X1 = Poly.variable(2, 1)  # homogeneous and h-harmonic in every context of dimension 2

# (function, parameter) -> the call with `p` in that slot and valid values elsewhere
SLOTS = {
    ("dunkl_apply", "p"): lambda ctx, p: dh.dunkl_apply(ctx, [1, 0], p),
    ("dunkl_axis", "p"): lambda ctx, p: dh.dunkl_axis(ctx, 1, p),
    ("laplacian", "p"): lambda ctx, p: dh.laplacian(ctx, p),
    ("apply_operator_poly", "q"): lambda ctx, p: dh.apply_operator_poly(ctx, p, X1),
    ("apply_operator_poly", "p"): lambda ctx, p: dh.apply_operator_poly(ctx, X1, p),
    ("pairing", "p"): lambda ctx, p: dh.pairing(ctx, p, X1),
    ("pairing", "q"): lambda ctx, p: dh.pairing(ctx, X1, p),
    ("is_h_harmonic", "p"): lambda ctx, p: dh.is_h_harmonic(ctx, p),
    ("proj", "p"): lambda ctx, p: dh.proj(ctx, 1, p),
    ("canonical_decompose", "p"): lambda ctx, p: dh.canonical_decompose(ctx, p),
    ("reduce_mod_sphere", "p"): lambda ctx, p: dh.reduce_mod_sphere(ctx, p),
    ("sphere_integrate", "p"): lambda ctx, p: dh.sphere_integrate(ctx, p),
    ("pair_integral", "q"): lambda ctx, p: dh.pair_integral(ctx, p, X1),
    ("pair_integral", "p"): lambda ctx, p: dh.pair_integral(ctx, X1, p),
    ("extended_pizzetti", "q"): lambda ctx, p: dh.extended_pizzetti(ctx, p, X1, 2),
    ("extended_pizzetti", "f"): lambda ctx, p: dh.extended_pizzetti(ctx, X1, p, 2),
    ("pizzetti", "f"): lambda ctx, p: dh.pizzetti(ctx, p, 2),
    ("hobson_apply", "p"): lambda ctx, p: dh.hobson_apply(ctx, p, RADIAL),
    ("harmonic_radial_power", "q"): lambda ctx, p: dh.harmonic_radial_power(ctx, p, 2),
    ("pizzetti_from_hobson", "q"): lambda ctx, p: dh.pizzetti_from_hobson(ctx, p, X1, 2),
    ("pizzetti_from_hobson", "f"): lambda ctx, p: dh.pizzetti_from_hobson(ctx, X1, p, 2),
    ("bessel_form_eval", "q"): lambda ctx, p: dh.bessel_form_eval(ctx, p, X1, 0.5),
    ("bessel_form_eval", "f"): lambda ctx, p: dh.bessel_form_eval(ctx, X1, p, 0.5),
    ("intertwiner_apply", "p"): lambda ctx, p: dh.intertwiner_apply(ctx, p),
    ("funk_hecke_check", "q"): lambda ctx, p: dh.funk_hecke_check(ctx, PROFILE, p),
    ("reproducing_check", "q"): lambda ctx, p: dh.reproducing_check(ctx, 1, p),
    ("mc_sphere_integral", "p"): lambda ctx, p: dh.mc_sphere_integral(ctx, p, seed=1, samples=16),
}

WRONG_DIMENSION = {"zero": Poly.zero(3), "nonzero": Poly.variable(3, 1)}


@pytest.mark.parametrize("slot", sorted(SLOTS), ids="-".join)
@pytest.mark.parametrize("kind", sorted(WRONG_DIMENSION))
def test_wrong_dimension_refused_by_the_gate(b2, slot, kind):
    with pytest.raises(ValueError, match="dimension does not match the context$"):
        SLOTS[slot](b2, WRONG_DIMENSION[kind])


@pytest.mark.parametrize("slot", sorted(SLOTS), ids="-".join)
def test_the_other_arguments_are_valid(b2, slot):
    # with the right dimension the same call goes through, so the gate is what refuses
    SLOTS[slot](b2, X1)


def test_every_polynomial_slot_is_covered():
    found = set()
    for name in dh.__all__:
        obj = getattr(dh, name)
        if not inspect.isfunction(obj):
            continue
        params = inspect.signature(obj).parameters.values()  # string annotations
        if any(param.annotation == "DunklContext" for param in params):
            found.update((name, param.name) for param in params if param.annotation == "Poly")
    # the one-variable profile phi(t) is a polynomial of dimension 1, not of the context's
    found -= {(name, "phi") for name in ("funk_hecke_check", "funk_hecke_coeff", "funk_hecke_coeff_moments")}
    assert found == set(SLOTS)
