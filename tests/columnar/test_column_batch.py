"""Unit behaviour of :class:`repro.columnar.ColumnBatch`.

The batch is the contract every vectorized kernel builds on: lazy
row-backed views, strict ``column()`` access (missing values must push
kernels onto the row fallback so tuple-mode error behaviour is
reproduced exactly), null masks, zero-copy-ish ``compress`` slicing,
and ``to_rows`` round-trips that are bit-identical to the originals.
"""

from __future__ import annotations

import pytest

from repro.columnar import (
    ColumnBatch,
    ColumnError,
    ColumnUnavailable,
)
from repro.core import Engine, Record
from repro.core.graph import linear_plan
from repro.errors import PlanError
from repro.operators.select import Select


def _records(rows, ts_attr="ts"):
    return [
        Record(dict(row), ts=float(row[ts_attr]), seq=i)
        for i, row in enumerate(rows)
    ]


ROWS = [
    {"ts": 0.0, "ip": 7, "length": 100},
    {"ts": 1.0, "ip": 8, "length": 900},
    {"ts": 2.0, "ip": 7, "length": 40},
    {"ts": 3.0, "ip": 9, "length": 1500},
]


def test_from_rows_is_lazy_and_to_rows_returns_originals(backend):
    records = _records(ROWS)
    batch = ColumnBatch.from_rows(records, backend)
    assert batch.row_backed
    assert len(batch) == 4
    assert batch.fields() == []  # nothing extracted yet
    assert batch.to_rows() is records  # row-backed: free, same objects


def test_column_access_and_native_values(backend):
    batch = ColumnBatch.from_rows(_records(ROWS), backend)
    assert batch.column("length") == [100, 900, 40, 1500]
    assert batch.column("ip") == [7, 8, 7, 9]
    # columns are lists of the records' own values (hashable group
    # keys that repr exactly as on the tuple path).
    assert type(batch.column("length")) is list
    assert all(type(v) is int for v in batch.column("length"))
    assert batch.ts_list() == [0.0, 1.0, 2.0, 3.0]


def test_missing_field_raises_column_unavailable(backend):
    batch = ColumnBatch.from_rows(_records(ROWS), backend)
    with pytest.raises(ColumnUnavailable):
        batch.column("nope")


def test_null_mask_strict_vs_raw(backend):
    rows = [dict(r) for r in ROWS]
    del rows[2]["length"]  # one hole
    batch = ColumnBatch.from_rows(_records(rows), backend)
    # strict accessor refuses holed columns -> kernels take the row path
    with pytest.raises(ColumnUnavailable):
        batch.column("length")
    values, mask = batch.raw_column("length")
    assert list(values) == [100, 900, None, 1500]
    assert mask == [True, True, False, True]
    assert batch.mask_for("length") == mask
    assert batch.mask_for("ip") is None


def test_compress_row_backed(backend):
    records = _records(ROWS)
    batch = ColumnBatch.from_rows(records, backend)
    kept = batch.compress([True, False, True, False])
    assert len(kept) == 2
    assert kept.to_rows() == [records[0], records[2]]
    # truthiness decides, exactly like the tuple path's `if pred(r)`
    kept2 = batch.compress([1, 0, "", 7.5])
    assert [r.values["ip"] for r in kept2.to_rows()] == [7, 9]


def test_compress_columnar_mode_and_masks(backend):
    rows = [dict(r) for r in ROWS]
    del rows[1]["length"]
    batch = ColumnBatch.from_rows(_records(rows), backend).materialize()
    assert not batch.row_backed
    kept = batch.compress([True, True, False, True])
    assert len(kept) == 3
    vals, mask = kept.raw_column("length")
    assert list(vals) == [100, None, 1500]
    assert mask == [True, False, True]
    # dropping every holed element collapses the mask back to None
    solid = batch.compress([True, False, True, True])
    assert solid.mask_for("length") is None


def test_with_columns_keeps_stamps_and_validates_length(backend):
    records = _records(ROWS)
    batch = ColumnBatch.from_rows(records, backend)
    doubled = batch.with_columns(
        {"twice": [2 * r.values["length"] for r in records]}
    )
    assert not doubled.row_backed
    out = doubled.to_rows()
    assert [r.values for r in out] == [
        {"twice": 200},
        {"twice": 1800},
        {"twice": 80},
        {"twice": 3000},
    ]
    # ts/seq stamps survive the transform untouched
    assert [(r.ts, r.seq) for r in out] == [
        (r.ts, r.seq) for r in records
    ]
    with pytest.raises(ColumnError):
        batch.with_columns({"bad": [1, 2]})


def test_materialize_unions_fields_first_seen_order(backend):
    rows = [
        {"ts": 0.0, "a": 1},
        {"ts": 1.0, "a": 2, "b": 10},
    ]
    batch = ColumnBatch.from_rows(_records(rows), backend).materialize()
    assert batch.fields() == ["ts", "a", "b"]
    rebuilt = batch.to_rows()
    assert [r.values for r in rebuilt] == rows[:1] + rows[1:]


def test_to_rows_round_trip_bit_identical(backend):
    rows = [dict(r) for r in ROWS]
    del rows[3]["ip"]
    records = _records(rows)
    rebuilt = ColumnBatch.from_rows(records, backend).materialize().to_rows()
    assert rebuilt == records
    assert [(r.ts, r.seq, r.size) for r in rebuilt] == [
        (r.ts, r.seq, r.size) for r in records
    ]


def test_direct_construction_is_forbidden():
    with pytest.raises(ColumnError):
        ColumnBatch()


@pytest.mark.parametrize("name", ["arrow", "numpy", "array"])
def test_unknown_backend_rejected(name):
    with pytest.raises(ColumnError):
        ColumnBatch.from_rows(_records(ROWS), name)
    plan = linear_plan("in", [Select(lambda r: True)], "out")
    with pytest.raises(PlanError):
        Engine(plan, batch_size=4, column_backend=name)
