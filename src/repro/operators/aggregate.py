"""Grouped aggregation over streams (slides 34-37).

Two operators:

* :class:`Aggregate` — the classical blocking form: stream-in,
  relation-out.  Group states accumulate until end of stream (or until a
  punctuation closes a group early, which is what makes the operator
  non-blocking on punctuated streams — TMSF03).
* :class:`WindowedAggregate` — aggregation scoped by a window
  specification, the standard way to make aggregation non-blocking on
  unbounded streams (slide 26).  Tumbling windows emit a result row per
  (bucket, group) when the bucket closes; sliding/row/landmark windows
  emit the refreshed result as each tuple arrives.

The bounded-memory caveats of slide 35-36 (unbounded grouping attributes
or holistic aggregates ⇒ unbounded state) are observable through
:meth:`Operator.memory`; the static analysis lives in
:mod:`repro.aggregates.bounded`.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Mapping, Sequence

from repro.aggregates.functions import AggregateFunction
from repro.aggregates.spec import AggSpec
from repro.core.tuples import (
    FeedbackPunctuation,
    Punctuation,
    Record,
    Resume,
    WidenSlide,
)
from repro.errors import ColumnUnavailable, WindowError
from repro.operators.base import Element, UnaryOperator
from repro.windows.buffers import WindowBuffer, make_buffer
from repro.windows.spec import (
    LandmarkWindow,
    PartitionedWindow,
    PunctuationWindow,
    RowWindow,
    TimeWindow,
    TumblingWindow,
    WindowSpec,
)

__all__ = ["AggSpec", "Aggregate", "AttrGetter", "WindowedAggregate"]

Extractor = Callable[[Record], Any]
GroupItem = str | tuple[str, Extractor]


class AttrGetter:
    """Extractor for a plain grouping attribute.

    A distinguishable (and picklable) stand-in for the
    ``lambda r: r[attr]`` closure: the partition-parallel planner
    inspects ``group_by`` extractors to decide whether a grouping column
    is a raw attribute (so hash-partitioning on it colocates groups) or
    a derived expression (which it cannot see through).
    """

    __slots__ = ("attr",)

    def __init__(self, attr: str) -> None:
        self.attr = attr

    def __call__(self, record: Record) -> Any:
        return record[self.attr]

    def __repr__(self) -> str:
        return f"AttrGetter({self.attr!r})"


def _normalize_group_by(
    group_by: Sequence[GroupItem],
) -> list[tuple[str, Extractor]]:
    normalized: list[tuple[str, Extractor]] = []
    for item in group_by:
        if isinstance(item, str):
            normalized.append((item, AttrGetter(item)))
        else:
            normalized.append(item)
    return normalized


class _GroupState:
    __slots__ = ("key_values", "states", "count")

    def __init__(self, key_values: dict, specs: Sequence[AggSpec]) -> None:
        self.key_values = key_values
        self.states = [spec.new_state() for spec in specs]
        self.count = 0


def _columnar_capable(group_by, aggregates) -> bool:
    """Whether group extractors and agg inputs vectorize over a batch.

    Plain attributes (:class:`AttrGetter` / str inputs) and columnar
    expressions qualify; opaque callables (lambdas) do not — they can
    only be evaluated record-at-a-time.
    """
    for _name, fn in group_by:
        if not (isinstance(fn, AttrGetter) or hasattr(fn, "values")):
            return False
    for spec in aggregates:
        inp = spec.input
        if inp is not None and not isinstance(inp, str) \
                and not hasattr(inp, "values"):
            return False
    return True


def _group_columns(group_by, batch) -> list[list]:
    """One column per grouping key (may raise
    :class:`~repro.errors.ColumnUnavailable`)."""
    from repro.columnar.expr import column_of

    cols = []
    for _name, fn in group_by:
        if isinstance(fn, AttrGetter):
            cols.append(batch.column(fn.attr))
        else:
            cols.append(column_of(fn.values(batch), batch))
    return cols


def _spec_columns(aggregates, batch) -> list[list | None]:
    """One input column per agg spec (``None`` ≙ count)."""
    from repro.columnar.expr import column_of

    cols: list[list | None] = []
    for spec in aggregates:
        inp = spec.input
        if inp is None:
            cols.append(None)
        elif isinstance(inp, str):
            cols.append(batch.column(inp))
        else:
            cols.append(column_of(inp.values(batch), batch))
    return cols


class Aggregate(UnaryOperator):
    """Blocking grouped aggregation: stream-in, relation-out.

    Results are emitted at :meth:`flush` (end of stream), or earlier for
    any group fully covered by an arriving punctuation.
    """

    def __init__(
        self,
        group_by: Sequence[GroupItem],
        aggregates: Sequence[AggSpec],
        having: Callable[[Record], bool] | None = None,
        name: str = "aggregate",
        cost_per_tuple: float = 1.0,
    ) -> None:
        super().__init__(name, cost_per_tuple, selectivity=1.0)
        self.group_by = _normalize_group_by(group_by)
        self.aggregates = list(aggregates)
        self.having = having
        self._groups: dict[tuple, _GroupState] = {}
        self._max_ts = 0.0

    def _group_key(self, record: Record) -> tuple[tuple, dict]:
        values = {name: fn(record) for name, fn in self.group_by}
        return tuple(values[name] for name, _ in self.group_by), values

    def on_record(self, record: Record, port: int) -> list[Element]:
        self._max_ts = max(self._max_ts, record.ts)
        key, values = self._group_key(record)
        state = self._groups.get(key)
        if state is None:
            state = _GroupState(values, self.aggregates)
            self._groups[key] = state
        for spec, fn_state in zip(self.aggregates, state.states):
            fn_state.add(spec.extract(record))
        state.count += 1
        return []

    def process_batch(
        self, elements: Sequence[Element], port: int = 0
    ) -> list[Element]:
        # Records only accumulate state, so the whole batch folds into
        # the group table without any per-element list allocation.
        self._validate_port(port)
        groups = self._groups
        specs = self.aggregates
        out: list[Element] = []
        for el in elements:
            if isinstance(el, Punctuation):
                out.extend(self.on_punctuation(el, port))
                continue
            if el.ts > self._max_ts:
                self._max_ts = el.ts
            key, values = self._group_key(el)
            state = groups.get(key)
            if state is None:
                state = _GroupState(values, specs)
                groups[key] = state
            for spec, fn_state in zip(specs, state.states):
                fn_state.add(spec.extract(el))
            state.count += 1
        return out

    def supports_columns(self) -> bool:
        return _columnar_capable(self.group_by, self.aggregates)

    def process_columns(self, batch, port: int = 0) -> list[Element]:
        self._validate_port(port)
        if batch.length == 0:
            return []
        try:
            key_cols = _group_columns(self.group_by, batch)
            spec_cols = _spec_columns(self.aggregates, batch)
        except ColumnUnavailable:
            return self.process_batch(batch.to_rows(), port)
        mx = max(batch.ts_list())
        if mx > self._max_ts:
            self._max_ts = mx
        groups = self._groups
        specs = self.aggregates
        names = [name for name, _ in self.group_by]
        keys = zip(*key_cols) if key_cols else iter(
            [()] * batch.length  # global aggregation: one empty key
        )
        # Bucket row indices per key first, then fold group by group
        # with each state's add() bound once per batch instead of once
        # per row.  Every group still sees its own rows in stream order
        # (buckets are insertion-ordered, indices ascending), so
        # exact-sum states stay bit-identical to the tuple path.
        buckets: dict[tuple, list[int]] = {}
        buckets_get = buckets.get
        for i, key in enumerate(keys):
            b = buckets_get(key)
            if b is None:
                buckets[key] = [i]
            else:
                b.append(i)
        groups_get = groups.get
        for key, idxs in buckets.items():
            state = groups_get(key)
            if state is None:
                state = _GroupState(dict(zip(names, key)), specs)
                groups[key] = state
            state.count += len(idxs)
            for fn_state, col in zip(state.states, spec_cols):
                add = fn_state.add
                if col is None:
                    for _ in idxs:
                        add(1)
                else:
                    for i in idxs:
                        add(col[i])
        return []

    def _emit(self, state: _GroupState, ts: float) -> Record | None:
        values = dict(state.key_values)
        for spec, fn_state in zip(self.aggregates, state.states):
            values[spec.name] = fn_state.result()
        out = Record(values, ts=ts)
        if self.having is not None and not self.having(out):
            return None
        return out

    def on_punctuation(self, punct: Punctuation, port: int) -> list[Element]:
        """Close and emit groups no future record can extend."""
        pattern_attrs = {name for name, _ in punct.pattern}
        group_attrs = {name for name, _ in self.group_by}
        out: list[Element] = []
        if group_attrs <= pattern_attrs:
            closed = []
            for key, state in self._groups.items():
                probe = Record(state.key_values, ts=punct.ts)
                if punct.matches(probe):
                    closed.append(key)
            for key in sorted(closed, key=repr):
                emitted = self._emit(self._groups.pop(key), punct.ts)
                if emitted is not None:
                    out.append(emitted)
        out.append(punct)
        return out

    def flush(self) -> list[Element]:
        out: list[Element] = []
        for key in sorted(self._groups, key=repr):
            # Results summarize everything up to the last seen instant.
            emitted = self._emit(self._groups[key], ts=self._max_ts)
            if emitted is not None:
                out.append(emitted)
        self._groups.clear()
        return out

    def reset(self) -> None:
        self._groups.clear()
        self._max_ts = 0.0

    def snapshot(self) -> object:
        return {
            "groups": copy.deepcopy(self._groups),
            "max_ts": self._max_ts,
        }

    def restore(self, state: object) -> None:
        self._groups = copy.deepcopy(state["groups"])
        self._max_ts = state["max_ts"]

    def memory(self) -> float:
        return float(
            sum(
                sum(s.state_size() for s in g.states) or 1
                for g in self._groups.values()
            )
        )

    def feedback_mapping(self) -> dict[str, str]:
        """Output group attr → input attr, for plain-attribute groups."""
        return {
            name: fn.attr
            for name, fn in self.group_by
            if isinstance(fn, AttrGetter)
        }

    def on_feedback(
        self, fb: FeedbackPunctuation
    ) -> list[FeedbackPunctuation]:
        # Feedback over the aggregate's *output* (group columns) names
        # the same attributes the input carries when the grouping is a
        # plain AttrGetter; aggregate-result columns don't exist
        # upstream, so advice naming them is forwarded untranslated.
        from repro.feedback.translate import translate_feedback

        translated = translate_feedback(fb, self.feedback_mapping())
        return [fb if translated is None else translated]

    @property
    def group_count(self) -> int:
        return len(self._groups)


class WindowedAggregate(UnaryOperator):
    """Aggregation scoped by a window specification.

    * ``TumblingWindow`` — one output row per (closed bucket, group),
      carrying the bucket id in attribute ``bucket_attr`` (default
      ``"tb"``, matching the GSQL idiom ``time/60 as tb``).  Buckets
      close when the watermark (max seen ts, or a punctuation bound)
      passes their end; remaining buckets close at flush.
    * ``TimeWindow`` / ``RowWindow`` / ``PartitionedWindow`` /
      ``LandmarkWindow`` — per-arrival emission of the refreshed
      aggregate for the arriving record's group.
    """

    def __init__(
        self,
        window: WindowSpec,
        group_by: Sequence[GroupItem],
        aggregates: Sequence[AggSpec],
        having: Callable[[Record], bool] | None = None,
        name: str = "window_aggregate",
        bucket_attr: str = "tb",
        ts_attr: str = "ts",
        cost_per_tuple: float = 1.0,
    ) -> None:
        super().__init__(name, cost_per_tuple, selectivity=1.0)
        self.window = window
        self.group_by = _normalize_group_by(group_by)
        self.aggregates = list(aggregates)
        self.having = having
        self.bucket_attr = bucket_attr
        self.ts_attr = ts_attr
        self._tumbling = isinstance(window, TumblingWindow)
        self._punctuated = isinstance(window, PunctuationWindow)
        if self._tumbling:
            self._buckets: dict[int, dict[tuple, _GroupState]] = {}
            self._watermark = float("-inf")
        elif self._punctuated:
            # Punctuation-based windows (slide 28): the window of a
            # group is delimited by the application's markers, so the
            # blocking Aggregate with punctuation-close semantics is
            # exactly the right machinery.
            if set(window.attrs) - {name for name, _f in self.group_by}:
                raise WindowError(
                    "punctuation window attributes must be grouped: "
                    f"{window.describe()}"
                )
            self._delegate = Aggregate(
                group_by, aggregates, having=having, name=f"{name}.groups"
            )
        else:
            if not isinstance(
                window,
                (TimeWindow, RowWindow, PartitionedWindow, LandmarkWindow),
            ):
                raise WindowError(
                    f"WindowedAggregate does not support {window.describe()}"
                )
            self._buffer: WindowBuffer = make_buffer(window)
        # WIDEN_SLIDE feedback thins the buffered (per-arrival) refresh
        # stream: emit every _emit_stride-th refresh only.
        self._emit_stride = 1
        self._emit_counter = 0

    # -- shared helpers ----------------------------------------------------

    def _group_values(self, record: Record) -> tuple[tuple, dict]:
        values = {name: fn(record) for name, fn in self.group_by}
        return tuple(values[name] for name, _ in self.group_by), values

    def _row(self, key_values: dict, states: Sequence[AggregateFunction],
             ts: float, extra: Mapping[str, Any] | None = None) -> Record | None:
        values = dict(key_values)
        if extra:
            values.update(extra)
        for spec, fn_state in zip(self.aggregates, states):
            values[spec.name] = fn_state.result()
        out = Record(values, ts=ts)
        if self.having is not None and not self.having(out):
            return None
        return out

    # -- tumbling path -------------------------------------------------------

    def _close_buckets(self, upto_ts: float) -> list[Element]:
        """Emit every bucket whose end <= upto_ts."""
        assert isinstance(self.window, TumblingWindow)
        out: list[Element] = []
        closeable = sorted(
            b
            for b in self._buckets
            if self.window.bucket_start(b + 1) <= upto_ts
        )
        for bucket in closeable:
            groups = self._buckets.pop(bucket)
            end_ts = self.window.bucket_start(bucket + 1)
            for key in sorted(groups, key=repr):
                state = groups[key]
                row = self._row(
                    state.key_values,
                    state.states,
                    ts=end_ts,
                    extra={self.bucket_attr: bucket},
                )
                if row is not None:
                    out.append(row)
        return out

    def on_record(self, record: Record, port: int) -> list[Element]:
        if self._tumbling:
            return self._on_record_tumbling(record)
        if self._punctuated:
            return self._delegate.on_record(record, port)
        return self._on_record_buffered(record)

    def _on_record_tumbling(self, record: Record) -> list[Element]:
        assert isinstance(self.window, TumblingWindow)
        self._watermark = max(self._watermark, record.ts)
        out = self._close_buckets(self._watermark)
        bucket = self.window.bucket_of(record.ts)
        groups = self._buckets.setdefault(bucket, {})
        key, values = self._group_values(record)
        state = groups.get(key)
        if state is None:
            state = _GroupState(values, self.aggregates)
            groups[key] = state
        for spec, fn_state in zip(self.aggregates, state.states):
            fn_state.add(spec.extract(record))
        state.count += 1
        return out

    def process_batch(
        self, elements: Sequence[Element], port: int = 0
    ) -> list[Element]:
        """Amortized tumbling-window path.

        The per-element path scans the open-bucket table on every record
        to find closeable buckets.  Here we track the earliest open
        bucket end and only scan when the watermark actually crosses it,
        which is exactly when the per-element scan would have found work.
        Non-tumbling windows emit per arrival and fall back to the
        element loop.
        """
        self._validate_port(port)
        if not self._tumbling:
            return super().process_batch(elements, port)
        window = self.window
        buckets = self._buckets
        specs = self.aggregates
        min_end = min(
            (window.bucket_start(b + 1) for b in buckets),
            default=float("inf"),
        )
        out: list[Element] = []
        for el in elements:
            if isinstance(el, Punctuation):
                out.extend(self.on_punctuation(el, port))
                min_end = min(
                    (window.bucket_start(b + 1) for b in buckets),
                    default=float("inf"),
                )
                continue
            ts = el.ts
            if ts > self._watermark:
                self._watermark = ts
            if self._watermark >= min_end:
                out.extend(self._close_buckets(self._watermark))
                min_end = min(
                    (window.bucket_start(b + 1) for b in buckets),
                    default=float("inf"),
                )
            bucket = window.bucket_of(ts)
            groups = buckets.get(bucket)
            if groups is None:
                groups = {}
                buckets[bucket] = groups
                end = window.bucket_start(bucket + 1)
                if end < min_end:
                    min_end = end
            key, values = self._group_values(el)
            state = groups.get(key)
            if state is None:
                state = _GroupState(values, specs)
                groups[key] = state
            for spec, fn_state in zip(specs, state.states):
                fn_state.add(spec.extract(el))
            state.count += 1
        return out

    def supports_columns(self) -> bool:
        # Only the tumbling path folds without per-record emission; the
        # buffered windows emit one refreshed row per arrival and the
        # punctuated form delegates to the blocking Aggregate.
        return self._tumbling and _columnar_capable(
            self.group_by, self.aggregates
        )

    def process_columns(self, batch, port: int = 0) -> list[Element]:
        self._validate_port(port)
        if batch.length == 0:
            return []
        try:
            key_cols = _group_columns(self.group_by, batch)
            spec_cols = _spec_columns(self.aggregates, batch)
        except ColumnUnavailable:
            return self.process_batch(batch.to_rows(), port)
        window = self.window
        buckets = self._buckets
        specs = self.aggregates
        names = [name for name, _ in self.group_by]
        inputs = list(zip(specs, spec_cols))
        ts_list = batch.ts_list()
        min_end = min(
            (window.bucket_start(b + 1) for b in buckets),
            default=float("inf"),
        )
        out: list[Element] = []
        keys = zip(*key_cols) if key_cols else iter([()] * batch.length)
        for i, key in enumerate(keys):
            ts = ts_list[i]
            if ts > self._watermark:
                self._watermark = ts
            if self._watermark >= min_end:
                out.extend(self._close_buckets(self._watermark))
                min_end = min(
                    (window.bucket_start(b + 1) for b in buckets),
                    default=float("inf"),
                )
            bucket = window.bucket_of(ts)
            groups = buckets.get(bucket)
            if groups is None:
                groups = {}
                buckets[bucket] = groups
                end = window.bucket_start(bucket + 1)
                if end < min_end:
                    min_end = end
            state = groups.get(key)
            if state is None:
                state = _GroupState(dict(zip(names, key)), specs)
                groups[key] = state
            for (_spec, col), fn_state in zip(inputs, state.states):
                fn_state.add(1 if col is None else col[i])
            state.count += 1
        return out

    # -- buffered (sliding/row/landmark) path -------------------------------

    def _on_record_buffered(self, record: Record) -> list[Element]:
        self._buffer.insert(record)
        self._buffer.expire(record.ts)
        key, key_values = self._group_values(record)
        states = [spec.new_state() for spec in self.aggregates]
        for r in self._buffer.contents():
            rk, _ = self._group_values(r)
            if rk != key:
                continue
            for spec, fn_state in zip(self.aggregates, states):
                fn_state.add(spec.extract(r))
        row = self._row(key_values, states, ts=record.ts)
        if row is not None and self._emit_stride > 1:
            self._emit_counter += 1
            if self._emit_counter % self._emit_stride:
                return []
        return [row] if row is not None else []

    # -- punctuation & lifecycle ---------------------------------------------

    def on_punctuation(self, punct: Punctuation, port: int) -> list[Element]:
        if self._punctuated:
            return self._delegate.on_punctuation(punct, port)
        out: list[Element] = []
        if self._tumbling:
            bound = punct.bound_for(self.ts_attr)
            if bound is not None:
                self._watermark = max(self._watermark, bound)
                out.extend(self._close_buckets(self._watermark))
        out.append(punct)
        return out

    def flush(self) -> list[Element]:
        if self._punctuated:
            return self._delegate.flush()
        if not self._tumbling:
            return []
        return self._close_buckets(float("inf"))

    def reset(self) -> None:
        if self._tumbling:
            self._buckets.clear()
            self._watermark = float("-inf")
        elif self._punctuated:
            self._delegate.reset()
        else:
            self._buffer.clear()
        self._emit_stride = 1
        self._emit_counter = 0

    def snapshot(self) -> object:
        if self._tumbling:
            state: dict = {
                "buckets": copy.deepcopy(self._buckets),
                "watermark": self._watermark,
            }
        elif self._punctuated:
            state = {"delegate": self._delegate.snapshot()}
        else:
            # Sliding/row/landmark windows: the buffer holds the whole
            # window contents; a deep copy is the exact state.
            state = {"buffer": copy.deepcopy(self._buffer)}
        if self._emit_stride != 1 or self._emit_counter:
            state["feedback"] = (self._emit_stride, self._emit_counter)
        return state

    def restore(self, state: object) -> None:
        if self._tumbling:
            self._buckets = copy.deepcopy(state["buckets"])
            self._watermark = state["watermark"]
        elif self._punctuated:
            self._delegate.restore(state["delegate"])
        else:
            self._buffer = copy.deepcopy(state["buffer"])
        self._emit_stride, self._emit_counter = state.get("feedback", (1, 0))

    def feedback_mapping(self) -> dict[str, str]:
        """Output group attr → input attr, for plain-attribute groups."""
        return {
            name: fn.attr
            for name, fn in self.group_by
            if isinstance(fn, AttrGetter)
        }

    def on_feedback(
        self, fb: FeedbackPunctuation
    ) -> list[FeedbackPunctuation]:
        from repro.feedback.translate import translate_feedback

        advice = fb.advice
        if isinstance(advice, WidenSlide):
            if not self._tumbling and not self._punctuated:
                # Act: coarsen the per-arrival refresh stream.  The
                # advice is addressed to the window, so it is consumed —
                # nothing upstream knows what a slide is.
                self._emit_stride = advice.factor
                return []
            return [fb]
        if isinstance(advice, Resume) and self._emit_stride != 1:
            self._emit_stride = 1
            self._emit_counter = 0
            # Fall through: RESUME also cancels advice installed above.
        translated = translate_feedback(fb, self.feedback_mapping())
        return [fb if translated is None else translated]

    def memory(self) -> float:
        if self._tumbling:
            return float(
                sum(len(groups) for groups in self._buckets.values())
            )
        if self._punctuated:
            return self._delegate.memory()
        return self._buffer.memory()

    @property
    def open_buckets(self) -> int:
        if not self._tumbling:
            return 0
        return len(self._buckets)
