"""Exact rational Dunkl-operator calculus on rational-root reflection groups.

The package keeps two strictly separated lanes: an exact lane where every
value is an arbitrary-precision rational and every identity is an equality
of polynomials, and a floating oracle lane (Monte-Carlo quadrature and
numeric series) used only to cross-check the exact lane.
"""

from .polyring import (
    Monomial,
    Poly,
    PolyParseError,
    format_poly,
    monomials_of_degree,
    parse,
    pochhammer,
)
from .reflection import (
    DunklContext,
    context_from_descriptor,
    make_context,
    reflection_matrix,
)
from .dunkl import apply_operator_poly, dunkl_apply, dunkl_axis, laplacian, pairing
from .harmonic import (
    HarmonicDecomposition,
    canonical_decompose,
    h_harmonic_basis,
    is_h_harmonic,
    proj,
    reduce_mod_sphere,
)
from .spherical import (
    PizzettiSeries,
    RadialPowerSum,
    bessel_form_eval,
    extended_pizzetti,
    harmonic_radial_power,
    hobson_apply,
    pair_integral,
    pizzetti,
    pizzetti_from_hobson,
    sphere_integrate,
)
from .intertwine import (
    FunkHeckeResult,
    UniPoly,
    funk_hecke_check,
    funk_hecke_coeff,
    funk_hecke_coeff_moments,
    gegenbauer,
    intertwiner_apply,
    reproducing_check,
    reproducing_kernel,
)
from .oracle import McEstimate, bessel_phi, dirichlet_monomial, mc_sphere_integral
from .verify import CheckResult, VerifyReport

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "DunklContext",
    "FunkHeckeResult",
    "HarmonicDecomposition",
    "McEstimate",
    "Monomial",
    "PizzettiSeries",
    "Poly",
    "PolyParseError",
    "RadialPowerSum",
    "UniPoly",
    "VerifyReport",
    "apply_operator_poly",
    "bessel_form_eval",
    "bessel_phi",
    "canonical_decompose",
    "context_from_descriptor",
    "dirichlet_monomial",
    "dunkl_apply",
    "dunkl_axis",
    "extended_pizzetti",
    "format_poly",
    "funk_hecke_check",
    "funk_hecke_coeff",
    "funk_hecke_coeff_moments",
    "gegenbauer",
    "h_harmonic_basis",
    "harmonic_radial_power",
    "hobson_apply",
    "intertwiner_apply",
    "is_h_harmonic",
    "laplacian",
    "make_context",
    "mc_sphere_integral",
    "monomials_of_degree",
    "pair_integral",
    "pairing",
    "parse",
    "pizzetti",
    "pizzetti_from_hobson",
    "pochhammer",
    "proj",
    "reduce_mod_sphere",
    "reflection_matrix",
    "reproducing_check",
    "reproducing_kernel",
    "sphere_integrate",
]
