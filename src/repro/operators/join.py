"""Symmetric hash join (Wilschut & Apers, PDIS 1991; slide 31).

The classic streaming equijoin: one hash table per input; every arriving
tuple probes the *other* input's table and then inserts itself into its
own.  Results are produced incrementally and the operator never blocks —
"takes into account the streaming nature of inputs".

Without windows the tables grow without bound (the general join problem
of slide 30); :class:`~repro.operators.window_join.WindowJoin` bounds
them with per-input windows, and :class:`~repro.operators.xjoin.XJoin`
spills them to disk.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.tuples import Punctuation, Record
from repro.errors import ColumnUnavailable
from repro.operators.base import BinaryOperator, Element

__all__ = ["SymmetricHashJoin"]


class SymmetricHashJoin(BinaryOperator):
    """Unwindowed streaming equijoin.

    Parameters
    ----------
    left_keys, right_keys:
        Equi-join attribute lists (same length); a pair matches when the
        key tuples are equal.
    theta:
        Optional residual predicate ``theta(left_record, right_record)``
        applied after the hash match.
    """

    def __init__(
        self,
        left_keys: Sequence[str],
        right_keys: Sequence[str],
        theta: Callable[[Record, Record], bool] | None = None,
        name: str = "shjoin",
        cost_per_tuple: float = 1.0,
        selectivity: float = 1.0,
    ) -> None:
        super().__init__(name, cost_per_tuple, selectivity)
        if len(left_keys) != len(right_keys):
            raise ValueError("left_keys and right_keys must align")
        self.keys = (list(left_keys), list(right_keys))
        self.theta = theta
        self._tables: tuple[dict, dict] = ({}, {})
        #: number of hash-bucket entries inspected (cost accounting)
        self.probes = 0

    def on_record(self, record: Record, port: int) -> list[Element]:
        other = 1 - port
        key = record.key(self.keys[port])
        out: list[Element] = []
        for match in self._tables[other].get(key, ()):
            self.probes += 1
            left, right = (record, match) if port == 0 else (match, record)
            if self.theta is None or self.theta(left, right):
                out.append(left.merged(right, ts=max(left.ts, right.ts)))
        self._tables[port].setdefault(key, []).append(record)
        return out

    def supports_columns(self) -> bool:
        return True

    def process_columns(self, batch, port: int = 0) -> list[Element]:
        # Vectorized probe: extract the key columns once for the whole
        # batch instead of building a key tuple through record.key()
        # per row, then run the classic probe+insert per element.
        self._validate_port(port)
        names = self.keys[port]
        try:
            key_cols = [batch.column(n) for n in names]
        except ColumnUnavailable:
            # Row path reproduces the exact KeyError of record.key().
            return self.process_batch(batch.to_rows(), port)
        rows = batch.to_rows()
        other = self._tables[1 - port]
        mine = self._tables[port]
        theta = self.theta
        out: list[Element] = []
        keys = zip(*key_cols) if key_cols else iter([()] * batch.length)
        for record, key in zip(rows, keys):
            matches = other.get(key)
            if matches:
                for match in matches:
                    self.probes += 1
                    left, right = (
                        (record, match) if port == 0 else (match, record)
                    )
                    if theta is None or theta(left, right):
                        out.append(
                            left.merged(right, ts=max(left.ts, right.ts))
                        )
            bucket = mine.get(key)
            if bucket is None:
                mine[key] = [record]
            else:
                bucket.append(record)
        return out

    def on_punctuation(self, punct: Punctuation, port: int) -> list[Element]:
        # A one-input punctuation does not constrain joined outputs in
        # general; swallow it (a window join handles these usefully).
        return []

    def reset(self) -> None:
        self._tables = ({}, {})
        self.probes = 0

    def snapshot(self) -> object:
        return {
            "tables": (
                {k: list(v) for k, v in self._tables[0].items()},
                {k: list(v) for k, v in self._tables[1].items()},
            ),
            "probes": self.probes,
        }

    def restore(self, state: object) -> None:
        left, right = state["tables"]
        self._tables = (
            {k: list(v) for k, v in left.items()},
            {k: list(v) for k, v in right.items()},
        )
        self.probes = state["probes"]

    def memory(self) -> float:
        return float(
            sum(len(v) for v in self._tables[0].values())
            + sum(len(v) for v in self._tables[1].values())
        )

    def table_sizes(self) -> tuple[int, int]:
        return (
            sum(len(v) for v in self._tables[0].values()),
            sum(len(v) for v in self._tables[1].values()),
        )
