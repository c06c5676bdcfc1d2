"""Property-based round-trip laws for :class:`ColumnBatch`.

Hypothesis generates heterogeneous record batches — mixed int/float/
str/bool fields, optional holes — and checks the algebraic contracts
every kernel relies on:

* ``from_rows . materialize . to_rows`` is the identity (values *and*
  ``ts``/``seq`` stamps);
* ``compress(mask)`` agrees with :func:`itertools.compress` on rows;
* ``with_columns`` preserves element count, order, and stamps.

Each law is checked on every backend (looped inside the test body
because hypothesis forbids function-scoped fixtures under ``@given``).
"""

from __future__ import annotations

from itertools import compress as itcompress

import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar import BACKENDS, ColumnBatch
from repro.core import Record

# Hypothesis property suites run in the slow CI lane, like the synopsis
# and adaptive property layers.
pytestmark = pytest.mark.slow

_value = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=8),
    st.booleans(),
)

_row = st.fixed_dictionaries(
    {"ts": st.floats(min_value=0.0, max_value=1e6, allow_nan=False)},
    optional={"a": _value, "b": _value, "c": _value},
)

_rows = st.lists(_row, min_size=1, max_size=40)


def _records(rows):
    return [
        Record(dict(row), ts=row["ts"], seq=i) for i, row in enumerate(rows)
    ]


@settings(max_examples=60, deadline=None)
@given(rows=_rows)
def test_materialize_to_rows_round_trip(rows):
    records = _records(rows)
    for backend in BACKENDS:
        rebuilt = (
            ColumnBatch.from_rows(records, backend).materialize().to_rows()
        )
        assert rebuilt == records
        assert [(r.ts, r.seq, r.size) for r in rebuilt] == [
            (r.ts, r.seq, r.size) for r in records
        ]


@settings(max_examples=60, deadline=None)
@given(rows=_rows, data=st.data())
def test_compress_matches_itertools_compress(rows, data):
    records = _records(rows)
    mask = data.draw(
        st.lists(
            st.booleans(), min_size=len(records), max_size=len(records)
        )
    )
    want = list(itcompress(records, mask))
    for backend in BACKENDS:
        # row-backed slice
        assert ColumnBatch.from_rows(records, backend).compress(
            mask
        ).to_rows() == want
        # columnar-mode slice rebuilds identical records
        assert (
            ColumnBatch.from_rows(records, backend)
            .materialize()
            .compress(mask)
            .to_rows()
            == want
        )


@settings(max_examples=60, deadline=None)
@given(rows=_rows)
def test_with_columns_preserves_stamps(rows):
    records = _records(rows)
    for backend in BACKENDS:
        batch = ColumnBatch.from_rows(records, backend)
        derived = batch.with_columns({"idx": list(range(len(records)))})
        assert len(derived) == len(records)
        out = derived.to_rows()
        assert [r.values["idx"] for r in out] == list(range(len(records)))
        assert [(r.ts, r.seq) for r in out] == [
            (r.ts, r.seq) for r in records
        ]
