"""Golden digests: the exact outputs of the core operators, byte for byte.

Each case hashes the canonical text (``str``, which is ``format_poly`` for
a polynomial) of one operator's outputs on seeded inputs.  The digests were
recorded from the reference implementation; any change to an exact output,
however small, changes a digest.  A deliberate change of an output must re-record the digest and say
why.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from dunkl_harmonics import (
    Poly,
    RadialPowerSum,
    canonical_decompose,
    dunkl_apply,
    extended_pizzetti,
    funk_hecke_check,
    funk_hecke_coeff_moments,
    h_harmonic_basis,
    hobson_apply,
    intertwiner_apply,
    laplacian,
    make_context,
    monomials_of_degree,
    pairing,
    proj,
    reduce_mod_sphere,
    reproducing_kernel,
    sphere_integrate,
)
from dunkl_harmonics.verify import random_poly

CONTEXTS = {
    "z2^3": ("z2", 3, [1, Fraction(1, 2), Fraction(2, 3)]),
    "a2": ("a", 3, [Fraction(1, 3)]),
    "b3": ("b", 3, [Fraction(1, 2), Fraction(3, 2)]),
    "d4": ("d", 4, [Fraction(2, 3)]),
}


def _laplacian(ctx, rng):
    return [laplacian(ctx, random_poly(rng, ctx.dim, 8, max_terms=8)) for _ in range(3)]


def _decompose(ctx, rng, degree=6):
    p = random_poly(rng, ctx.dim, degree, homogeneous=True, max_terms=6)
    return [comp for _, comp in canonical_decompose(ctx, p).components]


def _basis(ctx, rng):
    return h_harmonic_basis(ctx, 3)


def _intertwiner(ctx, rng):
    return [intertwiner_apply(ctx, random_poly(rng, ctx.dim, 3, max_terms=6)) for _ in range(2)]


def _intertwiner_monomials(ctx, rng):
    # every column of the degree-6 V table, and through its recursion every lower one
    return [intertwiner_apply(ctx, Poly.monomial(ctx.dim, m)) for m in monomials_of_degree(ctx.dim, 6)]


def _proj(ctx, rng):
    return [proj(ctx, 8, random_poly(rng, ctx.dim, 8, homogeneous=True, max_terms=6))]


def _pizzetti(ctx, rng):
    q = h_harmonic_basis(ctx, 2)[0]
    f = q * random_poly(rng, ctx.dim, 6, homogeneous=True, max_terms=4) + random_poly(
        rng, ctx.dim, 8, max_terms=6
    )
    series = extended_pizzetti(ctx, q, f, 4)
    return [series.m, *series.coefficients]


def _hobson(ctx, rng):
    p = random_poly(rng, ctx.dim, 6, homogeneous=True, max_terms=6)
    f0 = RadialPowerSum.from_pairs([(3, 2), (4, Fraction(-1, 3)), (5, Fraction(5, 7))])
    return [hobson_apply(ctx, p, f0)]


def _sphere_integrate(ctx, rng):
    # inhomogeneous inputs up to degree 8, each with an odd homogeneous part
    return [
        sphere_integrate(
            ctx,
            random_poly(rng, ctx.dim, 8, max_terms=10)
            + random_poly(rng, ctx.dim, 5, homogeneous=True, max_terms=3),
        )
        for _ in range(4)
    ]


def _dunkl_apply(ctx, rng):
    xi = [0] * ctx.dim
    while not any(xi):
        xi = [rng.randint(-3, 3) for _ in range(ctx.dim)]
    return [dunkl_apply(ctx, xi, random_poly(rng, ctx.dim, 8, homogeneous=True, max_terms=12))]


def _pairing(ctx, rng):
    p, q = (random_poly(rng, ctx.dim, 6, homogeneous=True, max_terms=8) for _ in range(2))
    return [pairing(ctx, p, q)]


def _reduce(ctx, rng):
    return [reduce_mod_sphere(ctx, random_poly(rng, ctx.dim, 7, max_terms=8))]


def _profile(rng):
    # a degree-5 profile phi(t) with every coefficient nonzero, drawn for l = 0..5
    coeffs = [rng.choice((-1, 1)) * Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(6)]
    return sum((c * Poly.monomial(1, (l,)) for l, c in enumerate(coeffs)), Poly.zero(1))


def _reproducing_kernel(ctx, rng):
    return [reproducing_kernel(ctx, 3).poly]


def _funk_hecke_check(ctx, rng):
    result = funk_hecke_check(ctx, _profile(rng), h_harmonic_basis(ctx, 1)[0])
    return [result.holds, result.lhs, result.rhs, result.coefficient]


def _funk_hecke_moments(ctx, rng):
    phi = _profile(rng)
    return [funk_hecke_coeff_moments(ctx, m, phi) for m in range(5)]


OPERATIONS = {
    "laplacian": _laplacian,
    "canonical_decompose": _decompose,
    "h_harmonic_basis": _basis,
    "intertwiner_apply": _intertwiner,
    "proj": _proj,
    "canonical_decompose_8": lambda ctx, rng: _decompose(ctx, rng, 8),
    "extended_pizzetti": _pizzetti,
    "hobson_apply": _hobson,
    "reduce_mod_sphere": _reduce,
    "intertwiner_monomials_6": _intertwiner_monomials,
    "sphere_integrate": _sphere_integrate,
    "dunkl_apply": _dunkl_apply,
    "pairing": _pairing,
    "reproducing_kernel_3": _reproducing_kernel,
    "funk_hecke_check_5": _funk_hecke_check,
    "funk_hecke_moments_5": _funk_hecke_moments,
}


def digest(group: str, operation: str) -> str:
    family, dim, kappas = CONTEXTS[group]
    ctx = make_context(family, dim, kappas)
    rng = random.Random(f"golden:{group}:{operation}")
    text = "\n".join(str(x) for x in OPERATIONS[operation](ctx, rng))
    return hashlib.sha256(text.encode()).hexdigest()


DIGESTS = {
    ("z2^3", "laplacian"): "d5b88828dc716cd86e614f40c4e704e925cbc3cdc8f69dcc6d5df3893d368469",
    ("z2^3", "canonical_decompose"): "05492649317bd0a0c14585daa1edf680fdd801dae7cde58e7a0c9a7c71f0505a",
    ("z2^3", "h_harmonic_basis"): "d5e7ffab87e990458745b98923943cb8abc353a0ea1c7515b23fe6c4d4f4227e",
    ("z2^3", "intertwiner_apply"): "fdb319a1ad4770cead58585b1752877ccef1d75aa6a9c45eb03868429c4b47fd",
    ("a2", "laplacian"): "193ad193020798a1d6d4f18effc1c3bca7938897b3b9e8fde383977a42903678",
    ("a2", "canonical_decompose"): "36b643efb04f892bfd9bfcbea5c4ca4693b660b95387ffd51b0e896cdfccc9ae",
    ("a2", "h_harmonic_basis"): "5c4d465f0593159f22fc4aeb155e5da54bff867b49ab9b07d1c557b26fabe827",
    ("a2", "intertwiner_apply"): "36c9b48936889d8302a0979870a6baaeec732b73ca85856c43bd700065da8421",
    ("b3", "laplacian"): "7acfe3ee4edadb930473cd1b2a474f5e72c2c22b4a5776fa13a9fc28ad12c9c5",
    ("b3", "canonical_decompose"): "ca3f199c88e593e86210e52ae4aaf249af3f38cef2ee0df3a51f854653921b4c",
    ("b3", "h_harmonic_basis"): "4d077d8693805a4ce07374e66d47a3a292a2c30469474d964d6ba70386a6565d",
    ("b3", "intertwiner_apply"): "5f332f9ea93db69d139f535f58bdfeb68e9ba178ffb665de7a3d4623dfe95158",
    ("d4", "laplacian"): "84e416d807a8f50d667b851d00dd390cca1c7f4eed807688090487b4a50bb193",
    ("d4", "canonical_decompose"): "036c492db15b12ddf7fc4ffeeee0cb9b37e934b750c607362b978c4daadd57a4",
    ("d4", "h_harmonic_basis"): "16d5a4416bdb5d2b629c2f28ddef3a09668eb7031cda17cb600cc6aebee44f0f",
    ("d4", "intertwiner_apply"): "c652156694b875449873bbc186dfde7b3bfc215192ce9fe3cc32c4bd42a2d2cf",
    ("z2^3", "proj"): "e5ea9717e17e0084dcf8ca496ef98178e93dd8531f3486c1648959ea89b91844",
    ("z2^3", "canonical_decompose_8"): "fe802f67e32446bc2b4385329760e234792eed0da8fc4fb430efc504620392ff",
    ("z2^3", "extended_pizzetti"): "d6ebc45a38ee41d34c5577228ad15598217265840170aa0e3e2ddfe477d299bd",
    ("z2^3", "hobson_apply"): "0a5daf695570a2c16d957a25b938350804c9ddd2245d7ea4dcbf1d10d429ee74",
    ("z2^3", "reduce_mod_sphere"): "2331d94b8504a41dc95ee11a0dccfe9fc677558b63dc1b3505f2c3f8bc33b2a5",
    ("a2", "proj"): "c6a63f1c80d0c2d85daf4298493e75033d631d65e115429a461943ad3ce2f694",
    ("a2", "canonical_decompose_8"): "0584b9f50b72b51292571859bbe43a1af1cbeb88d9c7532bda41e57d6358dd68",
    ("a2", "extended_pizzetti"): "d46665505d690897d615ee43da3d717b19fd4f97a597870a3917ab3060ea5a63",
    ("a2", "hobson_apply"): "30d18a4e0fbc4f335127ee75edac334591d9692f95bf0599cd87a298bf9c3c76",
    ("a2", "reduce_mod_sphere"): "888934eb5c1bca3de1ed6d57bd4575dfa0574d91f9b10809a6c27cc1a227f5ee",
    ("b3", "proj"): "0bed3ee679599d75b28cd9b4aec0f2fead77ed4203751a30a6f21f13ea377abb",
    ("b3", "canonical_decompose_8"): "ed7dd84b38b5ff1d96a223cba82f6aa3f9cd3e22ced3da18004e249148cdd8ed",
    ("b3", "extended_pizzetti"): "46c0f9e9ea969b7a6f8ef637649129c919e352f95d1fe0071cc0cfc35ee7eec7",
    ("b3", "hobson_apply"): "fefeabf5863e7c891681a2f6f4db34a451ad445080b540e53600ebd74406963f",
    ("b3", "reduce_mod_sphere"): "d92c73fa3da53f2493fc52153196274a188bbe0b2d13d1a4069c907cdb3a351e",
    ("d4", "proj"): "349386fae36f07b1095a54b832217ffebd39bde924f254340dc660c9cd394e65",
    ("d4", "canonical_decompose_8"): "1cd42966c60c76e04b39d64f9641e1cc9ba17ddec53ebd1e19685aa892f0e229",
    ("d4", "extended_pizzetti"): "341906ca6184ac79d34fa809a987573219be8d0be8beb1fbcccc6ec65a5a9c48",
    ("d4", "hobson_apply"): "596f65bf03c5eb7bf39441caf291eddaafade5385e0a265c4865c8f88b1edb31",
    ("d4", "reduce_mod_sphere"): "c529a89e41e522ccc3008eacee50cc46d0c823affe106848441b72dd80c3b94b",
    ("z2^3", "intertwiner_monomials_6"): "db3b10ed246089bea7db68623fe6028f4cd5c8e6a955036e3567eaf8276504ee",
    ("a2", "intertwiner_monomials_6"): "5f371f2f379e820375ea5fd4bdcf41edc34070612261154f63610e0c49d45d75",
    ("b3", "intertwiner_monomials_6"): "266844a4e3a2d4fbdc59b62fcab5ce5a03f96d7a554b0dc7576d5167acb73883",
    ("d4", "intertwiner_monomials_6"): "3fde102f769e7ec72965f71203b5f46d39bfb2898373d5a0c5ef59149f9d12f0",
    ("z2^3", "sphere_integrate"): "b4f5d30fbd38ad50842dcd45a3f86cab1769a70163f7d6c018f1570d11341652",
    ("a2", "sphere_integrate"): "7d9470535ac1e56382c14e2188f44a5d54d84005a588cc7ea977fe84bb81f972",
    ("b3", "sphere_integrate"): "fa85a129cf3c83a51133d9ca6a97685bb8124963a61286c2007074e08130473b",
    ("d4", "sphere_integrate"): "bb18e9c1d702c0a40e60808c4adc3a25a5ab5702c2c1239688588f0acdfadc5d",
    ("z2^3", "dunkl_apply"): "f0a92c31437833609cf8a48159f838fcf1ba0c739210c034267d579365688e3d",
    ("a2", "dunkl_apply"): "a9ece9f7c37ed31b1f955e6c36687d2cfc6ced2513da1a4c892378482c4ef18e",
    ("b3", "dunkl_apply"): "7187843dda81710766f8cacf8a182b8f63de929a04e0d329b58eefdaaefac5be",
    ("d4", "dunkl_apply"): "1620933af1a43fd93339d9cdfe6415181dfa6f3252a40b103fa53649735ea21a",
    ("z2^3", "pairing"): "4326efdaab194828e3b71cb745ef67fe16aa95aef49cb9917ad0f27f0e4b38d7",
    ("a2", "pairing"): "cad8b52936184d4f34fd6158e3e0ccfa97f7e18a3c07b621826404efebe32b48",
    ("b3", "pairing"): "a31b00d9c6a5bc7f6d922862ca4817228a5f064402fb4d15a1ade5db21ef8dbb",
    ("d4", "pairing"): "69c3b37a48de2cc9629ec74f915ad05a6a8354ba2b054cb040139111d81839fb",
    ("z2^3", "reproducing_kernel_3"): "a230f1c28b548f623475388f936d5cb24ab3fa76f2065975401477961826c3e8",
    ("a2", "reproducing_kernel_3"): "57b592331bc385ad0f5e8b983a2528d3e2662400710f2c43e227359e5eee77ea",
    ("b3", "reproducing_kernel_3"): "5f73b091caa653defc99fecaf5bd402ca27e06ecc2d3dd5eccc2ccb375b01e2b",
    ("d4", "reproducing_kernel_3"): "4b16c90250c0f01ff96929d347cda87d467892840d398e391bd3776eb15fd3ab",
    ("z2^3", "funk_hecke_check_5"): "967b4542c9f38b1aad434513961f7d63aafbde9e4293398498d0718e8a0479de",
    ("a2", "funk_hecke_check_5"): "e72163ee7504a830c9ef985e3426197b2ba93f82a928c7300dd54ea108c44b41",
    ("b3", "funk_hecke_check_5"): "67a5cbc93a827881f2ebf7369945966d0d5306c9faf3784c53969a821cb4ff1f",
    ("d4", "funk_hecke_check_5"): "1648e249d410bf4456712bbee12004fb78d3eb9d5c027ac154a20dfab16c9bce",
    ("z2^3", "funk_hecke_moments_5"): "e7f2af4c7badd18a67c2f81fa28b45c066535a7c30ae6e816f36ab402b8009f3",
    ("a2", "funk_hecke_moments_5"): "2655d4d094c6a65a1eb8c1b616e5bfdb24a7d162d456df2269abe39e2d7d2a5a",
    ("b3", "funk_hecke_moments_5"): "fb4de840dc318173b91efffc8e2314c51b02fd2f7abecb37fff020dadf6ba1b4",
    ("d4", "funk_hecke_moments_5"): "9681433da9f03e63d8c269b4880ea3aa06aa43f479b499e504eef80e3b31a372",
}


@pytest.mark.parametrize("group,operation", sorted(DIGESTS))
def test_golden_digest(group, operation):
    assert digest(group, operation) == DIGESTS[(group, operation)]
