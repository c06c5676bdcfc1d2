"""Per-element transformation operators."""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from repro.core.tuples import (
    DropKeys,
    FeedbackPunctuation,
    Punctuation,
    Record,
)
from repro.errors import ColumnUnavailable
from repro.feedback.translate import canonical_pattern
from repro.operators.base import Element, UnaryOperator

__all__ = ["MapOp", "Rename", "Extend"]


class MapOp(UnaryOperator):
    """Apply ``fn(record) -> dict`` and emit the transformed record.

    ``fn`` returning ``None`` drops the record (filter-map).
    """

    def __init__(
        self,
        fn: Callable[[Record], Mapping[str, Any] | None],
        name: str = "map",
        cost_per_tuple: float = 1.0,
        selectivity: float = 1.0,
    ) -> None:
        super().__init__(name, cost_per_tuple, selectivity)
        self.fn = fn

    def on_record(self, record: Record, port: int) -> list[Element]:
        values = self.fn(record)
        if values is None:
            return []
        return [record.with_values(values)]

    def process_batch(
        self, elements: Sequence[Element], port: int = 0
    ) -> list[Element]:
        self._validate_port(port)
        fn = self.fn
        out: list[Element] = []
        append = out.append
        for el in elements:
            if isinstance(el, Punctuation):
                out.extend(self.on_punctuation(el, port))
                continue
            values = fn(el)
            if values is not None:
                append(el.with_values(values))
        return out

    def supports_columns(self) -> bool:
        # Vectorizable only for batch-aware functions such as
        # repro.columnar.ColumnMapFn (which never drop records).
        return hasattr(self.fn, "apply_columns")

    def process_columns(self, batch, port: int = 0):
        self._validate_port(port)
        try:
            return self.fn.apply_columns(batch)
        except ColumnUnavailable:
            return self.process_batch(batch.to_rows(), port)


class Rename(UnaryOperator):
    """Rename attributes (used to qualify join inputs)."""

    def __init__(self, mapping: Mapping[str, str], name: str = "rename") -> None:
        super().__init__(name, cost_per_tuple=0.0, selectivity=1.0)
        self.mapping = dict(mapping)

    def on_record(self, record: Record, port: int) -> list[Element]:
        values = {
            self.mapping.get(k, k): v for k, v in record.values.items()
        }
        return [record.with_values(values)]

    def process_batch(
        self, elements: Sequence[Element], port: int = 0
    ) -> list[Element]:
        self._validate_port(port)
        mapping_get = self.mapping.get
        out: list[Element] = []
        append = out.append
        for el in elements:
            if isinstance(el, Punctuation):
                out.extend(self.on_punctuation(el, port))
                continue
            values = {mapping_get(k, k): v for k, v in el.values.items()}
            append(el.with_values(values))
        return out

    def supports_columns(self) -> bool:
        return True

    def process_columns(self, batch, port: int = 0):
        self._validate_port(port)
        full = batch.materialize()
        mapping_get = self.mapping.get
        names = full.fields()
        renamed = [mapping_get(n, n) for n in names]
        if len(set(renamed)) != len(renamed):
            # Colliding targets resolve per-record in the tuple path
            # (that record's key order wins); don't vectorize those.
            return self.process_batch(batch.to_rows(), port)
        columns = {}
        masks = {}
        for old, new in zip(names, renamed):
            values, mask = full.raw_column(old)
            columns[new] = values
            if mask is not None:
                masks[new] = mask
        return full.with_columns(columns, masks)

    def feedback_mapping(self) -> dict[str, str]:
        """Output attr → input attr (the inverse of ``mapping``).

        When several input attributes collapse onto one output name the
        output attr is ambiguous and left out — feedback naming it is
        forwarded untranslated rather than guessing.
        """
        inverse: dict[str, str] = {}
        ambiguous: set[str] = set()
        for old, new in self.mapping.items():
            if new in inverse:
                ambiguous.add(new)
            inverse[new] = old
        for name in ambiguous:
            del inverse[name]
        return inverse

    def on_feedback(
        self, fb: FeedbackPunctuation
    ) -> list[FeedbackPunctuation]:
        mapping = self.feedback_mapping()
        renamed: list[tuple[str, object]] = []
        for name, pat in fb.pattern:
            # Identity for untouched attrs: only names this rename
            # produces or consumes need mapping.
            if name in mapping:
                renamed.append((mapping[name], pat))
            elif name in self.mapping:
                return [fb]  # source name: gone downstream, ambiguous here
            else:
                renamed.append((name, pat))
        advice = fb.advice
        if isinstance(advice, DropKeys):
            if advice.attr in mapping:
                advice = DropKeys(mapping[advice.attr], advice.keys)
            elif advice.attr in self.mapping:
                return [fb]
        return [fb.with_pattern(canonical_pattern(renamed), advice)]


class Extend(UnaryOperator):
    """Add computed attributes, keeping the existing ones.

    This is the GSQL idiom ``time/60 as tb`` (slide 37): derive a window
    bucket or peer id without losing the rest of the tuple.
    """

    def __init__(
        self,
        additions: Mapping[str, Callable[[Record], Any]],
        name: str = "extend",
        cost_per_tuple: float = 1.0,
    ) -> None:
        super().__init__(name, cost_per_tuple, selectivity=1.0)
        self.additions = dict(additions)

    def on_record(self, record: Record, port: int) -> list[Element]:
        values = dict(record.values)
        for out_name, fn in self.additions.items():
            values[out_name] = fn(record)
        return [record.with_values(values)]

    def process_batch(
        self, elements: Sequence[Element], port: int = 0
    ) -> list[Element]:
        self._validate_port(port)
        additions = list(self.additions.items())
        out: list[Element] = []
        append = out.append
        for el in elements:
            if isinstance(el, Punctuation):
                out.extend(self.on_punctuation(el, port))
                continue
            values = dict(el.values)
            for out_name, fn in additions:
                values[out_name] = fn(el)
            append(el.with_values(values))
        return out

    def supports_columns(self) -> bool:
        return all(
            hasattr(fn, "values") and not isinstance(fn, dict)
            for fn in self.additions.values()
        )

    def process_columns(self, batch, port: int = 0):
        from repro.columnar.expr import column_of

        self._validate_port(port)
        full = batch.materialize()
        columns = {}
        masks = {}
        for name in full.fields():
            values, mask = full.raw_column(name)
            columns[name] = values
            if mask is not None:
                masks[name] = mask
        try:
            for out_name, fn in self.additions.items():
                # Each addition reads the *input* record, same as the
                # tuple path, so evaluating over the original batch is
                # exact.
                columns[out_name] = column_of(fn.values(batch), batch)
                masks.pop(out_name, None)
        except ColumnUnavailable:
            return self.process_batch(batch.to_rows(), port)
        return full.with_columns(columns, masks)
