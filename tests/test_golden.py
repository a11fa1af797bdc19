"""Golden digests: the exact outputs of the core operators, byte for byte.

Each case hashes the canonical text (``format_poly``) of one operator's
outputs on seeded inputs.  The digests were recorded from the reference
implementation; any change to an exact output, however small, changes a
digest.  A deliberate change of an output must re-record the digest and say
why.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from dunkl_harmonics import (
    canonical_decompose,
    format_poly,
    h_harmonic_basis,
    intertwiner_apply,
    laplacian,
    make_context,
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


def _decompose(ctx, rng):
    p = random_poly(rng, ctx.dim, 6, homogeneous=True, max_terms=6)
    return [comp for _, comp in canonical_decompose(ctx, p).components]


def _basis(ctx, rng):
    return h_harmonic_basis(ctx, 3)


def _intertwiner(ctx, rng):
    return [intertwiner_apply(ctx, random_poly(rng, ctx.dim, 3, max_terms=6)) for _ in range(2)]


OPERATIONS = {
    "laplacian": _laplacian,
    "canonical_decompose": _decompose,
    "h_harmonic_basis": _basis,
    "intertwiner_apply": _intertwiner,
}


def digest(group: str, operation: str) -> str:
    family, dim, kappas = CONTEXTS[group]
    ctx = make_context(family, dim, kappas)
    rng = random.Random(f"golden:{group}:{operation}")
    text = "\n".join(format_poly(p) for p in OPERATIONS[operation](ctx, rng))
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
}


@pytest.mark.parametrize("group,operation", sorted(DIGESTS))
def test_golden_digest(group, operation):
    assert digest(group, operation) == DIGESTS[(group, operation)]
