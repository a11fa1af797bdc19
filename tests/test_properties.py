"""Every row of ``dunkl verify`` on every corpus context, at verify's defaults.

One case per (row, context) pair that ``verify()`` reports, so a row added
to the registry is tested as soon as it is registered; run one row with
``pytest tests/test_properties.py -k dunkl_commutativity``.
"""

import pytest

from dunkl_harmonics import verify

ROWS = verify.rows()
LABELS = [ctx.label() for ctx in verify.default_corpus()]


@pytest.mark.parametrize("index", range(len(LABELS)), ids=LABELS)
@pytest.mark.parametrize("name,check", ROWS, ids=[name for name, _ in ROWS])
def test_row(corpus, name, check, index):
    result = verify.run_row(name, check, corpus[index], verify.DEFAULT_SEED, verify.DEFAULT_MAX_DEGREE)
    assert result.passed, result.to_json_dict()
