"""Struct-of-arrays micro-batches (the columnar execution tier).

A :class:`ColumnBatch` is the unit the vectorized ``process_columns``
kernels exchange.  Its design is *lazy*: a batch built from records
(:meth:`ColumnBatch.from_rows`) keeps the row list and extracts a
per-field column only when a kernel first asks for it — a selection
that touches two of seven CDR fields never pays for the other five.
Batches produced by transforms (:meth:`ColumnBatch.with_columns`) hold
materialized columns but always retain a *stamp row* per element, so
``ts``/``seq``/``size`` survive any number of columnar hops and
:meth:`to_rows` rebuilds records bit-identical to the tuple path.

Storage
-------

Every column is a plain ``list`` of the records' own Python values, so
group keys, ``repr``-sorted emission order and rebuilt records match
the tuple path exactly.  :data:`BACKENDS` names that one storage
(``"python"``).

Null masks
----------

Rows are heterogeneous dicts; a field missing from *some* rows extracts
into a column with ``None`` holes plus a validity mask.  The strict
kernel accessor :meth:`ColumnBatch.column` refuses such columns
(raising :class:`~repro.errors.ColumnUnavailable`, which sends the
kernel down its row-path fallback so schema errors surface exactly as
in tuple mode), while :meth:`to_rows`/:meth:`compress` preserve the
mask so round trips keep missing fields missing.
"""

from __future__ import annotations

from itertools import compress as _itcompress
from typing import Iterable, Sequence

from repro.core.tuples import Record
from repro.errors import ColumnError, ColumnUnavailable

__all__ = ["ColumnBatch", "BACKENDS"]

#: Recognized column storage backends.
BACKENDS = ("python",)


class ColumnBatch:
    """A micro-batch of records in struct-of-arrays form.

    Two internal modes share one interface:

    * **row-backed** — ``_rows`` holds the original records; columns are
      extracted (and cached) on demand; :meth:`to_rows` is free.
    * **columnar** — ``_rows`` is ``None``; ``_columns`` holds the
      transformed values and ``_stamp_rows`` still references one
      record per element for the ``ts``/``seq``/``size`` stamps.

    Batches are *logically* immutable: kernels derive new batches via
    :meth:`compress`/:meth:`with_columns` and must treat the lists
    returned by accessors (and by :meth:`to_rows` in row-backed mode)
    as read-only.
    """

    __slots__ = ("_rows", "_stamp_rows", "_columns", "_masks", "_ts",
                 "length")

    def __init__(self) -> None:  # use the named constructors
        raise ColumnError(
            "construct via ColumnBatch.from_rows / with_columns"
        )

    @classmethod
    def _new(cls, rows, stamp_rows, columns, masks) -> "ColumnBatch":
        self = object.__new__(cls)
        self._rows = rows
        self._stamp_rows = stamp_rows
        self._columns = columns
        self._masks = masks
        self._ts = None
        self.length = len(stamp_rows)
        return self

    @classmethod
    def from_rows(
        cls, rows: Sequence[Record], backend: str = "python"
    ) -> "ColumnBatch":
        """Wrap ``rows`` (records only, no punctuations) lazily."""
        if backend not in BACKENDS:
            raise ColumnError(
                f"unknown column backend {backend!r}; "
                f"expected one of {BACKENDS}"
            )
        rows = rows if type(rows) is list else list(rows)
        return cls._new(rows, rows, {}, {})

    @property
    def row_backed(self) -> bool:
        """True while the original records are still attached."""
        return self._rows is not None

    def fields(self) -> list[str]:
        """Known field names (extraction-cached for row-backed batches;
        use :meth:`materialize` first for the full union)."""
        return list(self._columns)

    # -- column access ---------------------------------------------------

    def _extract(self, name: str) -> None:
        rows = self._rows
        if rows is None:
            raise ColumnUnavailable(
                f"column {name!r} is not in this batch "
                f"(it has {list(self._columns)})"
            )
        try:
            values = [r.values[name] for r in rows]
            mask = None
        except KeyError:
            values = [r.values.get(name) for r in rows]
            mask = [name in r.values for r in rows]
        self._columns[name] = values
        self._masks[name] = mask

    def column(self, name: str):
        """The full column ``name`` — strict kernel accessor.

        Raises :class:`~repro.errors.ColumnUnavailable` when the field
        is missing from any row (kernels must then fall back to the row
        path, which reproduces tuple-mode error behaviour exactly).
        """
        if name not in self._columns:
            self._extract(name)
        if self._masks.get(name) is not None:
            raise ColumnUnavailable(
                f"column {name!r} has missing values (null mask)"
            )
        return self._columns[name]

    def raw_column(self, name: str) -> tuple[list, list | None]:
        """``(values, validity_mask)`` — tolerates null masks.

        ``values`` carries ``None`` holes where the mask is ``False``;
        ``mask`` is ``None`` for a hole-free column.
        """
        if name not in self._columns:
            self._extract(name)
        return self._columns[name], self._masks.get(name)

    def mask_for(self, name: str) -> list | None:
        """The validity mask of ``name`` (``None`` when hole-free)."""
        if name not in self._columns:
            self._extract(name)
        return self._masks.get(name)

    def ts_list(self) -> list[float]:
        """Per-element ordering-attribute values (cached)."""
        if self._ts is None:
            self._ts = [r.ts for r in self._stamp_rows]
        return self._ts

    # -- derivation ------------------------------------------------------

    def with_columns(
        self, columns: dict, masks: dict | None = None
    ) -> "ColumnBatch":
        """A columnar batch with ``columns``, sharing this batch's stamps.

        Used by transforms (project/map/rename/extend): the element
        count, order, and ``ts``/``seq``/``size`` stamps are unchanged;
        only the value columns are replaced.
        """
        for name, col in columns.items():
            if len(col) != self.length:
                raise ColumnError(
                    f"column {name!r} has {len(col)} values for a batch "
                    f"of {self.length}"
                )
        return ColumnBatch._new(
            None, self._stamp_rows, dict(columns),
            dict(masks) if masks else {},
        )

    def compress(self, mask) -> "ColumnBatch":
        """Keep exactly the elements whose ``mask`` entry is truthy.

        ``mask`` may be any per-element sequence — a list of bools or
        raw predicate results (truthiness decides, as in the tuple path).
        """
        if self._rows is not None:
            rows = list(_itcompress(self._rows, mask))
            return ColumnBatch._new(rows, rows, {}, {})
        stamp = list(_itcompress(self._stamp_rows, mask))
        columns: dict = {}
        masks: dict = {}
        for name, col in self._columns.items():
            columns[name] = list(_itcompress(col, mask))
            valid = self._masks.get(name)
            if valid is not None:
                valid = list(_itcompress(valid, mask))
                if all(valid):
                    valid = None
            masks[name] = valid
        return ColumnBatch._new(None, stamp, columns, masks)

    def materialize(self) -> "ColumnBatch":
        """Force full columnar form (every field extracted, masks kept).

        For a row-backed batch the field set is the first-seen-ordered
        union over all rows; already-columnar batches return themselves.
        """
        rows = self._rows
        if rows is None:
            return self
        names: dict[str, None] = {}
        for r in rows:
            for k in r.values:
                if k not in names:
                    names[k] = None
        for name in names:
            if name not in self._columns:
                self._extract(name)
        return ColumnBatch._new(
            None, self._stamp_rows,
            {n: self._columns[n] for n in names},
            {n: self._masks[n] for n in names if self._masks[n] is not None},
        )

    # -- conversion ------------------------------------------------------

    def to_rows(self) -> list[Record]:
        """The batch as records, bit-identical to the tuple path.

        Row-backed batches return the original record list (treat it as
        read-only); columnar batches rebuild records from the columns
        and the retained stamps, omitting fields whose
        validity mask is ``False``.
        """
        rows = self._rows
        if rows is not None:
            return rows
        names = list(self._columns)
        cols = [self._columns[n] for n in names]
        holed = [
            (j, self._masks[names[j]])
            for j in range(len(names))
            if self._masks.get(names[j]) is not None
        ]
        out: list[Record] = []
        rng = range(len(names))
        for i, stamp in enumerate(self._stamp_rows):
            values = {names[j]: cols[j][i] for j in rng}
            for j, valid in holed:
                if not valid[i]:
                    del values[names[j]]
            out.append(
                Record(values, ts=stamp.ts, seq=stamp.seq, size=stamp.size)
            )
        return out

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        mode = "rows" if self._rows is not None else "columns"
        return (
            f"ColumnBatch({mode}, n={self.length}, "
            f"fields={list(self._columns)})"
        )
