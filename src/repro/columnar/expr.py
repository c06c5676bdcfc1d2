"""Vectorizable expressions over records *and* column batches.

The tuple-path operators take plain callables (``lambda r: r["x"] > 5``),
which a columnar kernel cannot introspect.  This module provides an
expression AST whose nodes are **both**:

* record predicates/extractors — ``expr(record)`` evaluates row-at-a-time
  with exactly the semantics the lambda would have had (including the
  ``KeyError``/``SchemaError`` surface of ``record[attr]``), so an
  expression-built plan run on the tuple path is bit-identical to the
  lambda-built plan; and
* column programs — ``expr.values(batch)`` / ``expr.mask(batch)``
  evaluate one whole :class:`~repro.columnar.batch.ColumnBatch` per
  call, one list comprehension per node.

Build them from :class:`Col` and :class:`Lit`::

    from repro.columnar import Col
    intl = Col("is_intl")                       # Select(intl)
    toll = (Col("duration") > 10.0) & ~Col("is_toll_free")
    minutes = Col("duration") / Lit(60.0)       # Project/Extend spec

``values`` may return a scalar for constant expressions; kernels
normalize with :func:`column_of`.  Any column access on a field with
missing values raises :class:`~repro.errors.ColumnUnavailable`, which
kernels translate into their row-path fallback.
"""

from __future__ import annotations

import operator as _op

from repro.columnar.batch import ColumnBatch
from repro.errors import ColumnUnavailable

__all__ = ["Expr", "Col", "Lit", "ColumnMapFn", "column_of"]


def column_of(value, batch: ColumnBatch) -> list:
    """Normalize a ``values()`` result to a full-length column."""
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value] * batch.length


def _right_mask(expr: "Expr", batch: ColumnBatch):
    """The right operand's mask of a short-circuiting ``&`` / ``|``.

    Row-at-a-time, the right operand never sees the records the left
    one already decided (``d != 0 & n / d > 1``); a column program
    evaluates it over all of them.  If it raises there, only the row
    path can tell whether the tuple engine would have raised too, so
    the batch is sent down it.
    """
    try:
        return expr.mask(batch)
    except ColumnUnavailable:
        raise
    except Exception as exc:
        raise ColumnUnavailable(
            f"right operand {expr!r} raised {exc!r} over the whole batch"
        ) from exc


def _zip_apply(fn, left, right, batch: ColumnBatch) -> list:
    """Elementwise ``fn`` over scalar-or-column operands, as a list."""
    lseq = type(left) is list
    rseq = type(right) is list
    if lseq and rseq:
        return [fn(a, b) for a, b in zip(left, right)]
    if lseq:
        return [fn(a, right) for a in left]
    if rseq:
        return [fn(left, b) for b in right]
    return [fn(left, right)] * batch.length


class Expr:
    """Base node: callable on a record, vectorizable over a batch."""

    def __call__(self, record):
        raise NotImplementedError

    def values(self, batch: ColumnBatch):
        """Evaluate over ``batch`` → column (or scalar for constants)."""
        raise NotImplementedError

    def mask(self, batch: ColumnBatch):
        """Evaluate as a selection mask (truthiness per element)."""
        return self.values(batch)

    # -- composition (arithmetic) --
    def __add__(self, other):
        return BinOp(_op.add, self, _wrap(other), "+")

    def __radd__(self, other):
        return BinOp(_op.add, _wrap(other), self, "+")

    def __sub__(self, other):
        return BinOp(_op.sub, self, _wrap(other), "-")

    def __rsub__(self, other):
        return BinOp(_op.sub, _wrap(other), self, "-")

    def __mul__(self, other):
        return BinOp(_op.mul, self, _wrap(other), "*")

    def __rmul__(self, other):
        return BinOp(_op.mul, _wrap(other), self, "*")

    def __truediv__(self, other):
        return BinOp(_op.truediv, self, _wrap(other), "/")

    def __rtruediv__(self, other):
        return BinOp(_op.truediv, _wrap(other), self, "/")

    def __mod__(self, other):
        return BinOp(_op.mod, self, _wrap(other), "%")

    # -- composition (comparisons → masks) --
    def __eq__(self, other):  # type: ignore[override]
        return BinOp(_op.eq, self, _wrap(other), "==")

    def __ne__(self, other):  # type: ignore[override]
        return BinOp(_op.ne, self, _wrap(other), "!=")

    def __lt__(self, other):
        return BinOp(_op.lt, self, _wrap(other), "<")

    def __le__(self, other):
        return BinOp(_op.le, self, _wrap(other), "<=")

    def __gt__(self, other):
        return BinOp(_op.gt, self, _wrap(other), ">")

    def __ge__(self, other):
        return BinOp(_op.ge, self, _wrap(other), ">=")

    # overloading == breaks default hashing; expressions hash by identity
    __hash__ = object.__hash__

    # -- composition (boolean) --
    def __and__(self, other):
        return And(self, _wrap(other))

    def __or__(self, other):
        return Or(self, _wrap(other))

    def __invert__(self):
        return Not(self)


def _wrap(value) -> Expr:
    return value if isinstance(value, Expr) else Lit(value)


class Col(Expr):
    """The value of field ``attr`` (row: ``record[attr]``)."""

    __slots__ = ("attr",)

    def __init__(self, attr: str) -> None:
        self.attr = attr

    def __call__(self, record):
        return record[self.attr]

    def values(self, batch: ColumnBatch):
        return batch.column(self.attr)

    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"Col({self.attr!r})"


class Lit(Expr):
    """A constant."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __call__(self, record):
        return self.value

    def values(self, batch: ColumnBatch):
        return self.value

    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"Lit({self.value!r})"


class BinOp(Expr):
    """Elementwise binary op (a scalar when both operands are)."""

    __slots__ = ("fn", "left", "right", "symbol")

    def __init__(self, fn, left: Expr, right: Expr, symbol: str) -> None:
        self.fn = fn
        self.left = left
        self.right = right
        self.symbol = symbol

    def __call__(self, record):
        return self.fn(self.left(record), self.right(record))

    def values(self, batch: ColumnBatch):
        lv = self.left.values(batch)
        rv = self.right.values(batch)
        if type(lv) is not list and type(rv) is not list:
            return self.fn(lv, rv)  # constant folds to a scalar
        return _zip_apply(self.fn, lv, rv, batch)

    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"({self.left!r} {self.symbol} {self.right!r})"


class And(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr) -> None:
        self.left = left
        self.right = right

    def __call__(self, record):
        return self.left(record) and self.right(record)

    def values(self, batch: ColumnBatch):
        lm = column_of(self.left.mask(batch), batch)
        rm = column_of(_right_mask(self.right, batch), batch)
        return [a and b for a, b in zip(lm, rm)]

    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"({self.left!r} & {self.right!r})"


class Or(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr) -> None:
        self.left = left
        self.right = right

    def __call__(self, record):
        return self.left(record) or self.right(record)

    def values(self, batch: ColumnBatch):
        lm = column_of(self.left.mask(batch), batch)
        rm = column_of(_right_mask(self.right, batch), batch)
        return [a or b for a, b in zip(lm, rm)]

    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"({self.left!r} | {self.right!r})"


class Not(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr) -> None:
        self.operand = operand

    def __call__(self, record):
        return not self.operand(record)

    def values(self, batch: ColumnBatch):
        m = column_of(self.operand.mask(batch), batch)
        return [not v for v in m]

    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"~{self.operand!r}"


class ColumnMapFn:
    """A ``MapOp`` function with a vectorized ``apply_columns``.

    ``columns`` maps output field names to :class:`Expr` nodes; the row
    form builds the same dict per record via ``record.with_values``, so
    tuple and columnar paths agree bit-for-bit.  The record's full value
    dict is *replaced* (like ``Project``), not extended — use
    ``Extend`` for additive maps.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: dict) -> None:
        self.columns = dict(columns)

    def __call__(self, record):
        return record.with_values(
            {name: expr(record) for name, expr in self.columns.items()}
        )

    def apply_columns(self, batch: ColumnBatch) -> ColumnBatch:
        out = {
            name: column_of(expr.values(batch), batch)
            for name, expr in self.columns.items()
        }
        return batch.with_columns(out)

    def __repr__(self) -> str:
        return f"ColumnMapFn({self.columns!r})"
