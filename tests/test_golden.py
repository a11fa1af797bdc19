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

from dense_roots import rotated_b3
from dunkl_harmonics import (
    DunklContext,
    Poly,
    RadialPowerSum,
    apply_operator_poly,
    bessel_form_eval,
    canonical_decompose,
    dunkl_apply,
    dunkl_axis,
    extended_pizzetti,
    funk_hecke_check,
    funk_hecke_coeff_moments,
    h_harmonic_basis,
    harmonic_radial_power,
    hobson_apply,
    intertwiner_apply,
    laplacian,
    make_context,
    monomials_of_degree,
    pair_integral,
    pairing,
    pizzetti_from_hobson,
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
    "a3": ("a", 4, [Fraction(1, 3)]),
}

# contexts outside the catalog, built from their roots
CUSTOM_CONTEXTS = {
    "dense": lambda: DunklContext(
        2, ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(-1))), (0, 1), (Fraction(1, 2), Fraction(3, 4))),
    "b2-scaled": lambda: DunklContext(  # the short roots of b2 rescaled by 2
        2, ((2, 0), (0, 2), (1, 1), (1, -1)), (0, 0, 1, 1), (Fraction(1, 2), Fraction(3, 4))),
    "b3-rotated": rotated_b3,  # eight dense roots, not in one plane
}


def _laplacian(ctx, rng):
    return [laplacian(ctx, random_poly(rng, ctx.dim, 8, max_terms=8)) for _ in range(3)]


def _decompose(ctx, rng, degree=6):
    p = random_poly(rng, ctx.dim, degree, homogeneous=True, max_terms=6)
    return [comp for _, comp in canonical_decompose(ctx, p).components]


def _basis(ctx, rng, degree=3):
    return h_harmonic_basis(ctx, degree)


def _intertwiner(ctx, rng):
    return [intertwiner_apply(ctx, random_poly(rng, ctx.dim, 3, max_terms=6)) for _ in range(2)]


def _intertwiner_monomials(ctx, rng):
    # every column of the degree-6 V table, and through its recursion every lower one
    return [intertwiner_apply(ctx, Poly.monomial(ctx.dim, m)) for m in monomials_of_degree(ctx.dim, 6)]


def _proj(ctx, rng):
    return [proj(ctx, 8, random_poly(rng, ctx.dim, 8, homogeneous=True, max_terms=6))]


def _pizzetti(ctx, rng, expansion=extended_pizzetti):
    q = h_harmonic_basis(ctx, 2)[0]
    f = q * random_poly(rng, ctx.dim, 6, homogeneous=True, max_terms=4) + random_poly(
        rng, ctx.dim, 8, max_terms=6
    )
    series = expansion(ctx, q, f, 4)
    return [series.m, *series.coefficients]


def _pair_integral(ctx, rng):
    # q from the degree-m basis, m <= 3, against p of degree m + 2k, k = 0, 1, 2; the
    # last p of each m is h-harmonic of degree m + 2, so Lap p is already zero
    values = []
    for m in range(4):
        q = rng.choice(h_harmonic_basis(ctx, m))
        for k in range(3):
            values.append(pair_integral(ctx, q, random_poly(rng, ctx.dim, m + 2 * k, homogeneous=True)))
        values.append(pair_integral(ctx, q, rng.choice(h_harmonic_basis(ctx, m + 2))))
    return values


def _bessel_form_eval(ctx, rng):
    # the repr of each float, so the digest pins every bit
    values = []
    for m in range(3):
        q = rng.choice(h_harmonic_basis(ctx, m))
        f = q * random_poly(rng, ctx.dim, 6 - m, max_terms=4) + random_poly(rng, ctx.dim, 6, max_terms=6)
        values.extend(repr(bessel_form_eval(ctx, q, f, r)) for r in (0.1, 0.5, 1.0))
    return values


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


def _dunkl_axis_images(ctx, rng):
    # D_j x^beta for every axis and every monomial of degree <= 8: every axis-table image
    return [
        dunkl_axis(ctx, j, Poly.monomial(ctx.dim, mono))
        for n in range(9) for mono in monomials_of_degree(ctx.dim, n) for j in range(1, ctx.dim + 1)
    ]


def _pairing(ctx, rng):
    p, q = (random_poly(rng, ctx.dim, 6, homogeneous=True, max_terms=8) for _ in range(2))
    return [pairing(ctx, p, q)]


def _apply_operator_poly(ctx, rng):
    # q(D) p for q of degree <= 3 and p of degree <= 7, both inhomogeneous
    return [
        apply_operator_poly(
            ctx, random_poly(rng, ctx.dim, 3, max_terms=4), random_poly(rng, ctx.dim, 7, max_terms=8)
        )
        for _ in range(3)
    ]


def _harmonic_radial_power(ctx, rng):
    # q(D) |x|^(2j) for q from the degree-m basis, m <= 3, and j = 0..6, zero for j < m
    values = []
    for m in range(4):
        q = rng.choice(h_harmonic_basis(ctx, m))
        values.extend(harmonic_radial_power(ctx, q, j) for j in range(7))
    return values


def _reduce(ctx, rng):
    return [reduce_mod_sphere(ctx, random_poly(rng, ctx.dim, 7, max_terms=8))]


def _profile(rng):
    # a degree-5 profile phi(t) with every coefficient nonzero, drawn for l = 0..5
    coeffs = [rng.choice((-1, 1)) * Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(6)]
    return sum((c * Poly.monomial(1, (l,)) for l, c in enumerate(coeffs)), Poly.zero(1))


def _reproducing_kernel(ctx, rng):
    return [reproducing_kernel(ctx, 3)]


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
    "h_harmonic_basis_6": lambda ctx, rng: _basis(ctx, rng, 6),
    "h_harmonic_basis_8": lambda ctx, rng: _basis(ctx, rng, 8),
    "intertwiner_apply": _intertwiner,
    "proj": _proj,
    "canonical_decompose_8": lambda ctx, rng: _decompose(ctx, rng, 8),
    "extended_pizzetti": _pizzetti,
    "pizzetti_from_hobson": lambda ctx, rng: _pizzetti(ctx, rng, pizzetti_from_hobson),
    "hobson_apply": _hobson,
    "pair_integral": _pair_integral,
    "bessel_form_eval": _bessel_form_eval,
    "reduce_mod_sphere": _reduce,
    "intertwiner_monomials_6": _intertwiner_monomials,
    "sphere_integrate": _sphere_integrate,
    "dunkl_apply": _dunkl_apply,
    "dunkl_axis_images_8": _dunkl_axis_images,
    "pairing": _pairing,
    "apply_operator_poly": _apply_operator_poly,
    "harmonic_radial_power": _harmonic_radial_power,
    "reproducing_kernel_3": _reproducing_kernel,
    "funk_hecke_check_5": _funk_hecke_check,
    "funk_hecke_moments_5": _funk_hecke_moments,
}


def digest(group: str, operation: str) -> str:
    ctx = CUSTOM_CONTEXTS[group]() if group in CUSTOM_CONTEXTS else make_context(*CONTEXTS[group])
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
    ("dense", "laplacian"): "da4771b62edbc3fd5b473424b293dcc6ad7a7577110d15e78808d0d0d8bb0288",
    ("dense", "dunkl_apply"): "662240bfccdb5163bbd83ed5c9a59e42ccee3de5ed503c2052874f9945b019f2",
    ("dense", "sphere_integrate"): "110d91f129062943f441b3a3a9d6f3e72f07deb928613e43fad0e3f46f6eac81",
    ("dense", "canonical_decompose"): "65849ed0e3e2c96570c2a6e9bdcf41b0e1cae570dc1f0df954ba3f0f9c73a6f4",
    ("dense", "h_harmonic_basis"): "3c2b2f06140b382e78aed24175e06d060ddbad7d5c4a5e929cab58d654a8f671",
    ("dense", "intertwiner_apply"): "e33f998096373b8a4ff4f02b18486d734d10ce78f8ab95561137a47722d32056",
    ("b2-scaled", "laplacian"): "dd15485636af235430100fe1f8622135b1be335e7cf291b386311e844f055f0d",
    ("b2-scaled", "dunkl_apply"): "47ded7be06d9626f030645b698351b0884b44519b3de3ee734c40dc4f194c5ba",
    ("b2-scaled", "sphere_integrate"): "37627444dff5bf8c7f68ec18b6fe689c4311e209e1973b90d0e72c4ec58b06f1",
    ("b2-scaled", "canonical_decompose"): "55bd4dc544b585176e88c68f4f7342b0c1e91b6c65fba6e9b859da38cded7f96",
    ("b2-scaled", "h_harmonic_basis"): "ab2da8db9e5e8a9711de413ce70170f0f9cee2e0566f97b50a264d4013ff396b",
    ("b2-scaled", "intertwiner_apply"): "ab8ca51d49d7f6d6446932d11ae2b98808ffd2e4365b5b249685596f0ced8ffb",
    ("z2^3", "pair_integral"): "77ce2375c9874c88e1f5712a827f3cc170efa0e4eac94908ca3f637cacd7916a",
    ("a2", "pair_integral"): "1d3d90606b462a3045f047bff8982ce58e6167f85f438cbada74313e49fca0b1",
    ("b3", "pair_integral"): "bf7465edb1e246af79ea3e85e6ef58525bfa4bd3f4fd4432e052086b39062e80",
    ("d4", "pair_integral"): "45cc0d9ea48adcb5c43deb65e9c060b77afce31b0a48acd20d001e8e3444e33c",
    ("z2^3", "bessel_form_eval"): "8516a90d6d3a80392fb77e02db602eff68edeffba31480ab2d03eaebbb3a8992",
    ("a2", "bessel_form_eval"): "63d95581bfe08bf504a81046e6c637a374d7bcbe87e0797973885336dde90fb6",
    ("b3", "bessel_form_eval"): "d8f739b8c9e795144fe17b03dd222b3c9c13b7c9e430dba969ca74ef95355d60",
    ("d4", "bessel_form_eval"): "252d756be9c0637da2ae12ded47590f9dbb6c533cfbe9173a73046380fdd6e93",
    ("dense", "extended_pizzetti"): "8e7339b613651471e98b3352a2a9b3fa31d115a0919a716aa28fda78f96b1124",
    ("dense", "pair_integral"): "f6e9fb63ac00ebfb67c7da3090e920a3af2a13f7556f7d4d3868dc1efc448548",
    ("dense", "bessel_form_eval"): "a551f15e5faa3fd94da3ede8cfda70e4d9203f33b49b798d4f250a58b53e775e",
    ("b2-scaled", "extended_pizzetti"): "74aeb6e13e756a9f7852866074719cfadee24544c0a6a3b9321bff89da62cb12",
    ("b2-scaled", "pair_integral"): "637652b5c47b9d39b55687f48a498ee3fcf44839225d9811a407c7eb747bc605",
    ("b2-scaled", "bessel_form_eval"): "ad16b100162afd0573bd5800e001519739ad3b0c5af10d85991039c2692e9ba6",
    ("z2^3", "apply_operator_poly"): "b6b35b4a0471437e3f9b295b18c9806c92ce9f15685a867ec6b52422aa38f186",
    ("z2^3", "harmonic_radial_power"): "a7b6e3b82731970f989f382acf71773ff7825270da360102f20b98e9248af0bc",
    ("a2", "apply_operator_poly"): "cbe0e2b369efaa47e782bce4a3b31e34f3e249a1e8b71ad96e9c0cadf73a6d68",
    ("a2", "harmonic_radial_power"): "3adf0c00f06f1689d4efce3e92f5b8e53803ae1231c80ae5857082b6cb156d89",
    ("b3", "apply_operator_poly"): "7c94703f77779606e3847a1cfd5058f88587e3840882d0734b3e37a132f1ab9a",
    ("b3", "harmonic_radial_power"): "9039eb55ed6b14222a06c34541596595f20800ebafa8f7f79309f4f9108f8de1",
    ("d4", "apply_operator_poly"): "52faab0b1eb5c027bd0274d28db7a6b3726e409cf884aa66e8d705e66359a8be",
    ("d4", "harmonic_radial_power"): "f8338fe9396ff2bbebcf5b8fdd161eaa4e467ba06e38309827cb635c93fb20fb",
    ("dense", "apply_operator_poly"): "6c26add9740ec53966e8b77fd8fa051c2fa4a6374839157cd5a9b9022a24a6e0",
    ("dense", "harmonic_radial_power"): "cfff7e86508cbbc4e1275955173b7cb7f3974b2f9d2060c5a199560dae559c0c",
    ("dense", "hobson_apply"): "f5530a1236de6215b209ba6618f0a6215fcfff3a79bf4e71041c4b046f6a9212",
    ("dense", "reduce_mod_sphere"): "992ded11f6058e450402f97536998452d109f89e9f5d604e2b5d8d7f212cdac4",
    ("b2-scaled", "apply_operator_poly"): "c6ca7f763719d9a91436f02d6da6f6775f40a50c24bf2b4676ceed8a9bbc8df4",
    ("b2-scaled", "harmonic_radial_power"): "07271fcf56b4730763f771ceb9019bef08c356c1201ba4f98f2d8aa12a7ffc4a",
    ("b2-scaled", "hobson_apply"): "3a3a4822b22e2268479b76d8b4d63c8c0a85ef948f8ab2224306307c7601d9b3",
    ("b2-scaled", "reduce_mod_sphere"): "884963de4fd23a2fc943f908569fbd1db2b2fe7d834a92724f2bede19865ba3c",
    ("z2^3", "pizzetti_from_hobson"): "2bf8a3e76abe24d46ea6437d14cefb2c21527b3367baa52a36223d9d5918e807",
    ("a2", "pizzetti_from_hobson"): "ad30ff18382731de4563d2de724ae2152e60750dd0e6e0e0534d3d3f0de1d230",
    ("b3", "pizzetti_from_hobson"): "17d1c51104f90d40a003675b890eb6e8b05213c9c1f75125946acd80cdc79700",
    ("d4", "pizzetti_from_hobson"): "e14907f26ef7de9c9409ffa418304d6b5ea38395b0934db9e42098f6aff4a82a",
    ("dense", "pairing"): "46cb75c5519182240cd2430c2317673598c94c6c52f69710db4f4549fdc5ca9e",
    ("b2-scaled", "pairing"): "2adfae663d7db37ea9f9959859d22fec8ece3e96c3abb8b05ba70120fce00850",
    # the exact solver's gate: a large A3 kernel, and mixed-denominator rows from the dense root
    ("a3", "h_harmonic_basis_8"): "763a82c37cd6c5ea324d22addd08ca9d21d6cd91a151058bc9c70b30341204fc",
    ("dense", "h_harmonic_basis_6"): "de354fdf7cf252c909a964a5227ed69ef63c8f860f5262c2d3ad5f27e378bf01",
    ("b2-scaled", "h_harmonic_basis_6"): "b2884e3fc2abb97b2a2fa7782c05a6d612330cba9eee3c3ebe5fce22fab28bcc",
    # every axis-table image D_j x^beta of degree <= 8, recorded before the integer miss path
    ("z2^3", "dunkl_axis_images_8"): "b8c94a57dc7ae2abe063a51d137917cf63fb5428085519889ade5174e88306ee",
    ("a2", "dunkl_axis_images_8"): "2105bc3a219f8ab2518846286cdd9a0bd61401c1c30f97e71c6b4c8e50462681",
    ("b3", "dunkl_axis_images_8"): "e71997029628791632572dba404cbb6ed521a57160629a03c8e3e67a4c10e4dd",
    ("d4", "dunkl_axis_images_8"): "9893ce580a7aeb707861cc68b757e4da79401762ee0e74b775ef0c9874604e81",
    ("a3", "dunkl_axis_images_8"): "1c659513a16bb01448639721358e7d812feb49ac6ddde793eeea381c888fa466",
    ("dense", "dunkl_axis_images_8"): "2f3c0d93d1f0d1c1d50f344c8653a2eec32e2153f8e2f5cea4831a4f66cd7fa6",
    ("b2-scaled", "dunkl_axis_images_8"): "1ecef5a80d4d7785a612fdd7a11158a356f0249690a0e9717bc4ef23f76aa4c7",
    # eight dense roots in space, recorded before the dense reflections took the product rule
    ("b3-rotated", "laplacian"): "3c81e81f7d4bf396df3e3e94f8497d0b8c8e390d650e1534d731c1b4d0318cbe",
    ("b3-rotated", "dunkl_apply"): "bc325cf19e06c4a4f56a503f0c852e211fd49eb40c83aef5fd6d741cce8011b6",
    ("b3-rotated", "h_harmonic_basis"): "a9ab139c7c4ead7f351e06363fb9dc80f72c054ea633416eae1b3f81e04885c1",
    ("b3-rotated", "h_harmonic_basis_6"): "2bd7091eb2d6d577f53988ee66a6210d1caaec5fa9c6da15166295021671e24b",
    ("b3-rotated", "intertwiner_apply"): "71f0fdde4d27745a25c802c83fe6d1b68abe399a5a5ae07c7ed8fbdc2c57fd44",
    ("b3-rotated", "intertwiner_monomials_6"): "be0cf5f668bd57245bd867ad159f648944987646ff638e8b8dbfdf0622b371d2",
    ("b3-rotated", "dunkl_axis_images_8"): "391ae45ceba059eb3de221424f89d9191d2d41f4707421b768f6217c2ba9d34b",
    ("b3-rotated", "sphere_integrate"): "93a2510b7476e9cae613514b7a5b8336f0edac426dd09b687c037f648cb41c7f",
    ("b3-rotated", "canonical_decompose"): "5cbde0d04109ccb91a7bc58682212e4a6a0e8578c53141cd7952bb4ca11406d2",
    ("b3-rotated", "pairing"): "6e9c915a73646c8f0518ee0e7ee687217c0cd3bb436c4e47beddefa270037ad4",
    ("b3-rotated", "apply_operator_poly"): "065c51f7775d8abbdff591827b7c3563f18d198de521a1ed1053ab19760e29fe",
}


@pytest.mark.parametrize("group,operation", sorted(DIGESTS))
def test_golden_digest(group, operation):
    assert digest(group, operation) == DIGESTS[(group, operation)]
