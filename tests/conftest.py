import random

import pytest

from dunkl_harmonics.verify import default_corpus


@pytest.fixture(scope="session")
def corpus():
    """verify's corpus, built once: the registry rows and the unit tests share its tables."""
    return default_corpus()


@pytest.fixture(scope="session")
def z2_2(corpus):
    return corpus[0]


@pytest.fixture(scope="session")
def z2_2_zero(corpus):
    return corpus[1]


@pytest.fixture(scope="session")
def z2_3(corpus):
    return corpus[2]


@pytest.fixture(scope="session")
def a2(corpus):
    return corpus[4]


@pytest.fixture(scope="session")
def b2(corpus):
    return corpus[6]


@pytest.fixture(scope="session")
def d3(corpus):
    return corpus[8]


@pytest.fixture(scope="session")
def nonzero_corpus(z2_2, z2_3, a2, b2):
    return [z2_2, z2_3, a2, b2]


@pytest.fixture
def rng():
    return random.Random("dunkl-harmonics-tests")
