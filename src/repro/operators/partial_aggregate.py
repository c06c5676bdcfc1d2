"""Two-level (partial/final) aggregation, Gigascope-style (slide 37).

Gigascope evaluates aggregation in two tiers: the **LFTA** (low-level,
resource-limited — e.g. on the network card) keeps a *bounded* group
table for the current time bucket; the **HFTA** (high-level host
process) merges whatever the LFTA ships and can maintain an unbounded
number of groups.

:class:`PartialAggregate` is the LFTA side: when its group table is full
and a new group arrives, the largest-count resident group is *evicted
early* — emitted downstream as a partial row — freeing the slot.  At
bucket close, every resident group is emitted, followed by a punctuation
announcing the bucket is complete.

:class:`FinalAggregate` is the HFTA side: it merges partial rows by
(bucket, group), closing buckets on the LFTA's punctuations (or flush).

Partial rows carry the serialized aggregate *states* in the reserved
attribute ``_states``, so algebraic aggregates (avg) merge exactly.
"""

from __future__ import annotations

import copy
from typing import Callable, Sequence

from repro.aggregates.functions import AggregateFunction
from repro.core.tuples import Punctuation, Record
from repro.errors import ColumnUnavailable, WindowError
from repro.operators.aggregate import (
    AggSpec,
    AttrGetter,
    _GroupState,
    _normalize_group_by,
    _spec_columns,
)
from repro.operators.base import Element, UnaryOperator
from repro.windows.spec import TumblingWindow

__all__ = [
    "PartialAggregate",
    "FinalAggregate",
    "GroupPartial",
    "BucketOf",
    "STATES_ATTR",
]

#: Reserved attribute carrying aggregate states in partial rows.
STATES_ATTR = "_states"


class BucketOf:
    """Extractor mapping a record to its tumbling-window bucket id.

    Used as a grouping key so a :class:`GroupPartial` can keep windowed
    partial states keyed by (bucket, group) — the shard-side shape of a
    tumbling aggregate in the partition-parallel engine.  A class (not a
    closure) so shard plans stay picklable and inspectable.
    """

    __slots__ = ("window",)

    def __init__(self, window: TumblingWindow) -> None:
        self.window = window

    def __call__(self, record: Record) -> int:
        return self.window.bucket_of(record.ts)

    def __repr__(self) -> str:
        return f"BucketOf({self.window.describe()})"


def _partial_capable(group_by, aggregates) -> bool:
    """Columnar capability for the shard-side partial operators.

    Same rules as the blocking aggregate, plus :class:`BucketOf`, whose
    column derives from the batch timestamps.
    """
    for _name, fn in group_by:
        if not (
            isinstance(fn, (AttrGetter, BucketOf)) or hasattr(fn, "values")
        ):
            return False
    for spec in aggregates:
        inp = spec.input
        if inp is not None and not isinstance(inp, str) \
                and not hasattr(inp, "values"):
            return False
    return True


def _partial_group_columns(group_by, batch) -> list[list]:
    """Grouping columns, resolving BucketOf via ts."""
    from repro.columnar.expr import column_of

    cols = []
    for _name, fn in group_by:
        if isinstance(fn, AttrGetter):
            cols.append(batch.column(fn.attr))
        elif isinstance(fn, BucketOf):
            bucket_of = fn.window.bucket_of
            cols.append([bucket_of(ts) for ts in batch.ts_list()])
        else:
            cols.append(column_of(fn.values(batch), batch))
    return cols


class GroupPartial(UnaryOperator):
    """Shard-side partial state for *unwindowed* grouped aggregation.

    The unwindowed sibling of :class:`PartialAggregate`, used by the
    partition-parallel engine (:mod:`repro.parallel`): each shard folds
    its slice of the stream into per-group aggregate states and ships
    the serialized states — in ``_states`` rows, exactly like the LFTA —
    for a coordinator-side merge.  Mirroring
    :class:`~repro.operators.aggregate.Aggregate`'s punctuation
    semantics, groups fully covered by an arriving punctuation are
    closed early (their states shipped, since no future record can
    extend them); everything else ships at flush.

    ``max_ts`` tracks the largest record timestamp seen, so the
    coordinator can reconstruct the flush timestamp the single-engine
    blocking aggregate would have stamped (the global max, which no
    single shard observes).
    """

    def __init__(
        self,
        group_by: Sequence,
        aggregates: Sequence[AggSpec],
        name: str = "group_partial",
        cost_per_tuple: float = 1.0,
    ) -> None:
        super().__init__(name, cost_per_tuple, selectivity=1.0)
        self.group_by = _normalize_group_by(group_by)
        self.aggregates = list(aggregates)
        self._groups: dict[tuple, _GroupState] = {}
        self.max_ts = 0.0

    def _state_row(self, state: _GroupState, ts: float) -> Record:
        values = dict(state.key_values)
        values[STATES_ATTR] = list(state.states)
        return Record(values, ts=ts)

    def on_record(self, record: Record, port: int) -> list[Element]:
        if record.ts > self.max_ts:
            self.max_ts = record.ts
        key = tuple(fn(record) for _name, fn in self.group_by)
        state = self._groups.get(key)
        if state is None:
            values = {name: fn(record) for name, fn in self.group_by}
            state = _GroupState(values, self.aggregates)
            self._groups[key] = state
        for spec, fn_state in zip(self.aggregates, state.states):
            fn_state.add(spec.extract(record))
        state.count += 1
        return []

    def process_batch(
        self, elements: Sequence[Element], port: int = 0
    ) -> list[Element]:
        # Shard-local hot loop: fold the whole batch into the group
        # table without per-element dispatch.
        self._validate_port(port)
        group_by = self.group_by
        specs = self.aggregates
        groups = self._groups
        out: list[Element] = []
        max_ts = self.max_ts
        for el in elements:
            if isinstance(el, Punctuation):
                self.max_ts = max_ts
                out.extend(self.on_punctuation(el, port))
                continue
            if el.ts > max_ts:
                max_ts = el.ts
            key = tuple(fn(el) for _name, fn in group_by)
            state = groups.get(key)
            if state is None:
                values = {name: fn(el) for name, fn in group_by}
                state = _GroupState(values, specs)
                groups[key] = state
            for spec, fn_state in zip(specs, state.states):
                fn_state.add(spec.extract(el))
            state.count += 1
        self.max_ts = max_ts
        return out

    def supports_columns(self) -> bool:
        return _partial_capable(self.group_by, self.aggregates)

    def process_columns(self, batch, port: int = 0) -> list[Element]:
        self._validate_port(port)
        if batch.length == 0:
            return []
        try:
            key_cols = _partial_group_columns(self.group_by, batch)
            spec_cols = _spec_columns(self.aggregates, batch)
        except ColumnUnavailable:
            return self.process_batch(batch.to_rows(), port)
        mx = max(batch.ts_list())
        if mx > self.max_ts:
            self.max_ts = mx
        groups = self._groups
        specs = self.aggregates
        names = [name for name, _ in self.group_by]
        inputs = list(zip(specs, spec_cols))
        keys = zip(*key_cols) if key_cols else iter([()] * batch.length)
        for i, key in enumerate(keys):
            state = groups.get(key)
            if state is None:
                state = _GroupState(dict(zip(names, key)), specs)
                groups[key] = state
            for (_spec, col), fn_state in zip(inputs, state.states):
                fn_state.add(1 if col is None else col[i])
            state.count += 1
        return []

    def on_punctuation(self, punct: Punctuation, port: int) -> list[Element]:
        pattern_attrs = {name for name, _ in punct.pattern}
        group_attrs = {name for name, _ in self.group_by}
        out: list[Element] = []
        if group_attrs <= pattern_attrs:
            closed = [
                key
                for key, state in self._groups.items()
                if punct.matches(Record(state.key_values, ts=punct.ts))
            ]
            for key in sorted(closed, key=repr):
                out.append(self._state_row(self._groups.pop(key), punct.ts))
        out.append(punct)
        return out

    def flush(self) -> list[Element]:
        out = [
            self._state_row(self._groups[key], self.max_ts)
            for key in sorted(self._groups, key=repr)
        ]
        self._groups.clear()
        return out

    def reset(self) -> None:
        self._groups.clear()
        self.max_ts = 0.0

    def snapshot(self) -> object:
        return {
            "groups": copy.deepcopy(self._groups),
            "max_ts": self.max_ts,
        }

    def restore(self, state: object) -> None:
        self._groups = copy.deepcopy(state["groups"])
        self.max_ts = state["max_ts"]

    def memory(self) -> float:
        return float(len(self._groups))


class PartialAggregate(UnaryOperator):
    """LFTA-side tumbling aggregation with a bounded group table."""

    def __init__(
        self,
        window: TumblingWindow,
        group_by: Sequence,
        aggregates: Sequence[AggSpec],
        max_groups: int,
        name: str = "lfta",
        bucket_attr: str = "tb",
        ts_attr: str = "ts",
        cost_per_tuple: float = 1.0,
    ) -> None:
        super().__init__(name, cost_per_tuple, selectivity=1.0)
        if not isinstance(window, TumblingWindow):
            raise WindowError("partial aggregation requires a tumbling window")
        if max_groups < 1:
            raise WindowError(f"max_groups must be >= 1; got {max_groups}")
        self.window = window
        self.group_by = _normalize_group_by(group_by)
        self.aggregates = list(aggregates)
        self.max_groups = max_groups
        self.bucket_attr = bucket_attr
        self.ts_attr = ts_attr
        self._bucket: int | None = None
        self._groups: dict[tuple, _GroupState] = {}
        #: early evictions forced by the bounded table (experiment E6)
        self.evictions = 0

    def _partial_row(self, state: _GroupState, bucket: int, ts: float) -> Record:
        values = dict(state.key_values)
        values[self.bucket_attr] = bucket
        values[STATES_ATTR] = list(state.states)
        return Record(values, ts=ts)

    def _close_bucket(self, ts: float) -> list[Element]:
        assert self._bucket is not None
        out: list[Element] = []
        for key in sorted(self._groups, key=repr):
            out.append(
                self._partial_row(self._groups[key], self._bucket, ts)
            )
        self._groups.clear()
        out.append(
            Punctuation.of(
                {self.bucket_attr: (None, self._bucket)}, ts=ts
            )
        )
        return out

    def on_record(self, record: Record, port: int) -> list[Element]:
        bucket = self.window.bucket_of(record.ts)
        out: list[Element] = []
        if self._bucket is None:
            self._bucket = bucket
        elif bucket != self._bucket:
            out.extend(self._close_bucket(record.ts))
            self._bucket = bucket

        key = tuple(fn(record) for _name, fn in self.group_by)
        state = self._groups.get(key)
        if state is None:
            if len(self._groups) >= self.max_groups:
                # Bounded table: evict the heaviest group early.
                victim_key = max(
                    self._groups, key=lambda k: (self._groups[k].count, repr(k))
                )
                victim = self._groups.pop(victim_key)
                out.append(self._partial_row(victim, bucket, record.ts))
                self.evictions += 1
            values = {name: fn(record) for name, fn in self.group_by}
            state = _GroupState(values, self.aggregates)
            self._groups[key] = state
        for spec, fn_state in zip(self.aggregates, state.states):
            fn_state.add(spec.extract(record))
        state.count += 1
        return out

    def process_batch(
        self, elements: Sequence[Element], port: int = 0
    ) -> list[Element]:
        # The LFTA loop is the hottest spot of the two-level pipeline:
        # fold the whole batch into the bounded group table, paying the
        # bucket-close / eviction machinery only when it fires.
        self._validate_port(port)
        group_by = self.group_by
        specs = self.aggregates
        max_groups = self.max_groups
        window = self.window
        out: list[Element] = []
        for el in elements:
            if isinstance(el, Punctuation):
                out.extend(self.on_punctuation(el, port))
                continue
            bucket = window.bucket_of(el.ts)
            if self._bucket is None:
                self._bucket = bucket
            elif bucket != self._bucket:
                out.extend(self._close_bucket(el.ts))
                self._bucket = bucket
            groups = self._groups
            key = tuple(fn(el) for _name, fn in group_by)
            state = groups.get(key)
            if state is None:
                if len(groups) >= max_groups:
                    victim_key = max(
                        groups, key=lambda k: (groups[k].count, repr(k))
                    )
                    victim = groups.pop(victim_key)
                    out.append(self._partial_row(victim, bucket, el.ts))
                    self.evictions += 1
                values = {name: fn(el) for name, fn in group_by}
                state = _GroupState(values, specs)
                groups[key] = state
            for spec, fn_state in zip(specs, state.states):
                fn_state.add(spec.extract(el))
            state.count += 1
        return out

    def supports_columns(self) -> bool:
        return _partial_capable(self.group_by, self.aggregates)

    def process_columns(self, batch, port: int = 0) -> list[Element]:
        # Index loop (not a bulk fold): bucket closes and bounded-table
        # evictions interleave with arrivals, and their emission order
        # must match the tuple path row for row.
        self._validate_port(port)
        if batch.length == 0:
            return []
        try:
            key_cols = _partial_group_columns(self.group_by, batch)
            spec_cols = _spec_columns(self.aggregates, batch)
        except ColumnUnavailable:
            return self.process_batch(batch.to_rows(), port)
        window = self.window
        specs = self.aggregates
        max_groups = self.max_groups
        names = [name for name, _ in self.group_by]
        inputs = list(zip(specs, spec_cols))
        ts_list = batch.ts_list()
        out: list[Element] = []
        keys = zip(*key_cols) if key_cols else iter([()] * batch.length)
        for i, key in enumerate(keys):
            ts = ts_list[i]
            bucket = window.bucket_of(ts)
            if self._bucket is None:
                self._bucket = bucket
            elif bucket != self._bucket:
                out.extend(self._close_bucket(ts))
                self._bucket = bucket
            groups = self._groups
            state = groups.get(key)
            if state is None:
                if len(groups) >= max_groups:
                    victim_key = max(
                        groups, key=lambda k: (groups[k].count, repr(k))
                    )
                    victim = groups.pop(victim_key)
                    out.append(self._partial_row(victim, bucket, ts))
                    self.evictions += 1
                state = _GroupState(dict(zip(names, key)), specs)
                groups[key] = state
            for (_spec, col), fn_state in zip(inputs, state.states):
                fn_state.add(1 if col is None else col[i])
            state.count += 1
        return out

    def on_punctuation(self, punct: Punctuation, port: int) -> list[Element]:
        bound = punct.bound_for(self.ts_attr)
        if bound is not None and self._bucket is not None:
            if self.window.bucket_start(self._bucket + 1) <= bound:
                out = self._close_bucket(bound)
                self._bucket = None
                return out
        return []

    def flush(self) -> list[Element]:
        if self._bucket is None:
            return []
        out = self._close_bucket(float("inf"))
        self._bucket = None
        return out

    def reset(self) -> None:
        self._bucket = None
        self._groups.clear()
        self.evictions = 0

    def snapshot(self) -> object:
        return {
            "bucket": self._bucket,
            "groups": copy.deepcopy(self._groups),
            "evictions": self.evictions,
        }

    def restore(self, state: object) -> None:
        self._bucket = state["bucket"]
        self._groups = copy.deepcopy(state["groups"])
        self.evictions = state["evictions"]

    def memory(self) -> float:
        return float(len(self._groups))


class FinalAggregate(UnaryOperator):
    """HFTA-side merge of partial rows into final per-bucket results."""

    def __init__(
        self,
        group_attrs: Sequence[str],
        aggregates: Sequence[AggSpec],
        having: Callable[[Record], bool] | None = None,
        name: str = "hfta",
        bucket_attr: str = "tb",
        cost_per_tuple: float = 1.0,
    ) -> None:
        super().__init__(name, cost_per_tuple, selectivity=1.0)
        self.group_attrs = list(group_attrs)
        self.aggregates = list(aggregates)
        self.having = having
        self.bucket_attr = bucket_attr
        # (bucket, group key) -> merged states
        self._merged: dict[tuple, tuple[dict, list[AggregateFunction]]] = {}

    def on_record(self, record: Record, port: int) -> list[Element]:
        bucket = record[self.bucket_attr]
        group_key = record.key(self.group_attrs)
        incoming: list[AggregateFunction] = record[STATES_ATTR]
        key = (bucket, group_key)
        entry = self._merged.get(key)
        if entry is None:
            key_values = {a: record[a] for a in self.group_attrs}
            key_values[self.bucket_attr] = bucket
            states = [spec.new_state() for spec in self.aggregates]
            entry = (key_values, states)
            self._merged[key] = entry
        for mine, theirs in zip(entry[1], incoming):
            mine.merge(theirs)
        return []

    def process_batch(
        self, elements: Sequence[Element], port: int = 0
    ) -> list[Element]:
        # Partial rows only merge state; punctuations (bucket-complete
        # markers) are the only emitters, so batch output stays small.
        self._validate_port(port)
        out: list[Element] = []
        on_record = self.on_record
        for el in elements:
            if isinstance(el, Punctuation):
                out.extend(self.on_punctuation(el, port))
            else:
                on_record(el, port)
        return out

    def _emit_bucket(self, bucket, ts: float) -> list[Element]:
        out: list[Element] = []
        keys = sorted(
            (k for k in self._merged if k[0] == bucket), key=repr
        )
        for key in keys:
            key_values, states = self._merged.pop(key)
            values = dict(key_values)
            for spec, st in zip(self.aggregates, states):
                values[spec.name] = st.result()
            row = Record(values, ts=ts)
            if self.having is None or self.having(row):
                out.append(row)
        return out

    def on_punctuation(self, punct: Punctuation, port: int) -> list[Element]:
        bound = punct.bound_for(self.bucket_attr)
        if bound is None:
            return [punct]
        out: list[Element] = []
        buckets = sorted({k[0] for k in self._merged if k[0] <= bound})
        for bucket in buckets:
            out.extend(self._emit_bucket(bucket, punct.ts))
        out.append(punct)
        return out

    def flush(self) -> list[Element]:
        out: list[Element] = []
        for bucket in sorted({k[0] for k in self._merged}):
            out.extend(self._emit_bucket(bucket, float("inf")))
        return out

    def reset(self) -> None:
        self._merged.clear()

    def snapshot(self) -> object:
        return {"merged": copy.deepcopy(self._merged)}

    def restore(self, state: object) -> None:
        self._merged = copy.deepcopy(state["merged"])

    def memory(self) -> float:
        return float(len(self._merged))

    @property
    def group_count(self) -> int:
        return len(self._merged)
