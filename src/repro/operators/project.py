"""Projection operators (slide 29).

Duplicate-*preserving* projection is a local, per-element operator.  The
tutorial notes two stream-specific wrinkles:

* a projection on an ordering-attribute stream must retain the ordering
  attribute for the output to remain a stream in that order ([JMS95]);
  :class:`Project` enforces this when ``ordering`` is supplied;
* duplicate-*eliminating* projection is like grouping — it needs state.
  :class:`DistinctProject` keeps the set of seen keys, and can bound that
  state with a window or purge it on punctuation.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from repro.core.tuples import FeedbackPunctuation, Punctuation, Record
from repro.errors import ColumnUnavailable, SchemaError
from repro.operators.base import Element, UnaryOperator

__all__ = ["Project", "DistinctProject"]

Extractor = Callable[[Record], Any]


class Project(UnaryOperator):
    """Duplicate-preserving projection / expression evaluation.

    ``columns`` maps output attribute names to either an input attribute
    name (plain rename/keep) or a callable computing the value from the
    record.  When ``ordering`` is given it must be among the outputs —
    projecting away the ordering attribute would destroy streamability.
    """

    def __init__(
        self,
        columns: Sequence[str] | Mapping[str, str | Extractor],
        name: str = "project",
        ordering: str | None = None,
        cost_per_tuple: float = 1.0,
    ) -> None:
        super().__init__(name, cost_per_tuple, selectivity=1.0)
        if not isinstance(columns, Mapping):
            columns = {c: c for c in columns}
        if ordering is not None and ordering not in columns:
            raise SchemaError(
                f"projection must retain ordering attribute {ordering!r} "
                f"to produce an ordered stream (JMS95)"
            )
        self.columns: dict[str, str | Extractor] = dict(columns)
        self.ordering = ordering

    def on_record(self, record: Record, port: int) -> list[Element]:
        out: dict[str, Any] = {}
        for out_name, spec in self.columns.items():
            out[out_name] = spec(record) if callable(spec) else record[spec]
        return [record.with_values(out)]

    def process_batch(
        self, elements: Sequence[Element], port: int = 0
    ) -> list[Element]:
        self._validate_port(port)
        columns = list(self.columns.items())
        out: list[Element] = []
        append = out.append
        for el in elements:
            if isinstance(el, Punctuation):
                out.extend(self.on_punctuation(el, port))
                continue
            values = {
                name: (spec(el) if callable(spec) else el[spec])
                for name, spec in columns
            }
            append(el.with_values(values))
        return out

    def supports_columns(self) -> bool:
        # Every spec must be a plain attribute keep/rename or an
        # expression with batch evaluation (repro.columnar.Expr).
        return all(
            isinstance(spec, str) or hasattr(spec, "values")
            for spec in self.columns.values()
        )

    def process_columns(self, batch, port: int = 0):
        from repro.columnar.expr import column_of

        self._validate_port(port)
        try:
            out = {}
            for name, spec in self.columns.items():
                if isinstance(spec, str):
                    out[name] = batch.column(spec)
                else:
                    out[name] = column_of(spec.values(batch), batch)
            return batch.with_columns(out)
        except ColumnUnavailable:
            return self.process_batch(batch.to_rows(), port)

    def feedback_mapping(self) -> dict[str, str]:
        """Output attr → input attr, for the translatable (plain) specs.

        Callable specs compute values the input stream does not carry;
        feedback naming them cannot be translated and is forwarded.
        """
        return {
            out: spec
            for out, spec in self.columns.items()
            if isinstance(spec, str)
        }

    def on_feedback(
        self, fb: FeedbackPunctuation
    ) -> list[FeedbackPunctuation]:
        from repro.feedback.translate import translate_feedback

        translated = translate_feedback(fb, self.feedback_mapping())
        return [fb if translated is None else translated]


class DistinctProject(UnaryOperator):
    """Duplicate-eliminating projection.

    Emits the projected record the first time its key is seen.  State is
    the set of seen keys — unbounded on an unbounded stream unless either
    ``window`` (maximum key age in ordering-attribute units) bounds it or
    punctuations purge it (keys entirely covered by a punctuation can
    never repeat, so they are dropped).
    """

    def __init__(
        self,
        columns: Sequence[str],
        name: str = "distinct",
        window: float | None = None,
        cost_per_tuple: float = 1.0,
        selectivity: float = 0.5,
    ) -> None:
        super().__init__(name, cost_per_tuple, selectivity)
        self.columns = list(columns)
        self.window = window
        self._seen: dict[tuple, float] = {}

    def on_record(self, record: Record, port: int) -> list[Element]:
        key = record.key(self.columns)
        if self.window is not None:
            horizon = record.ts - self.window
            self._seen = {
                k: t for k, t in self._seen.items() if t >= horizon
            }
            if key in self._seen:
                self._seen[key] = record.ts
                return []
            self._seen[key] = record.ts
        else:
            if key in self._seen:
                return []
            self._seen[key] = record.ts
        values = {c: record[c] for c in self.columns}
        return [record.with_values(values)]

    def on_punctuation(self, punct: Punctuation, port: int) -> list[Element]:
        bound_attrs = {name for name, _ in punct.pattern}
        if set(self.columns) <= bound_attrs:
            # Keys fully described by the punctuation cannot recur.
            self._seen = {
                k: t
                for k, t in self._seen.items()
                if not punct.matches(
                    Record(dict(zip(self.columns, k)), ts=t)
                )
            }
        return [punct]

    def reset(self) -> None:
        self._seen.clear()

    def snapshot(self) -> object:
        return {"seen": dict(self._seen)}

    def restore(self, state: object) -> None:
        self._seen = dict(state["seen"])

    def memory(self) -> float:
        return float(len(self._seen))
