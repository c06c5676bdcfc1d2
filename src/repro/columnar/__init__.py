"""Columnar vectorized execution (the third execution tier).

The engine runs plans on three tiers, selectable per engine (and, via
:class:`repro.adaptive.SetRepresentation`, per chain at runtime):

1. **tuple** — record-at-a-time dispatch (the differential oracle);
2. **row batch** — micro-batched ``process_batch`` (PR 1);
3. **columnar** — struct-of-arrays :class:`ColumnBatch` batches flowing
   through vectorized ``process_columns`` kernels.

All three produce bit-identical output streams; the columnar tier
auto-converts at the boundary between columnar-capable and tuple-only
operators, so mixed plans run unmodified.
"""

from repro.columnar.batch import BACKENDS, ColumnBatch
from repro.columnar.expr import (
    Col,
    ColumnMapFn,
    Expr,
    Lit,
    column_of,
)
from repro.errors import ColumnError, ColumnUnavailable

__all__ = [
    "BACKENDS",
    "Col",
    "ColumnBatch",
    "ColumnError",
    "ColumnMapFn",
    "ColumnUnavailable",
    "Expr",
    "Lit",
    "column_of",
]
