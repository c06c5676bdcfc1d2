"""Selection: per-element filtering (slide 29).

Selections are local, per-element operators — the easy case for streams.
Punctuations pass through unchanged: a predicate only removes records,
so any assertion about future records still holds on the output.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.tuples import FeedbackPunctuation, Punctuation, Record
from repro.errors import ColumnUnavailable, PlanError
from repro.operators.base import Element, UnaryOperator

__all__ = ["Select"]


class Select(UnaryOperator):
    """Emit exactly the records satisfying ``predicate``.

    Parameters
    ----------
    predicate:
        ``predicate(record) -> bool``.
    selectivity:
        Estimated pass fraction, used by the optimizer and by the
        simulator's abstract mode; the operator's actual behaviour
        depends only on ``predicate``.
    """

    def __init__(
        self,
        predicate: Callable[[Record], bool],
        name: str = "select",
        cost_per_tuple: float = 1.0,
        selectivity: float = 0.5,
    ) -> None:
        super().__init__(name, cost_per_tuple, selectivity)
        self.predicate = predicate
        self._advice = None  # lazily-built repro.feedback AdviceTable

    def on_record(self, record: Record, port: int) -> list[Element]:
        if self._advice is not None and not self._advice.admit(record):
            return []
        if self.predicate(record):
            return [record]
        return []

    def process_batch(
        self, elements: Sequence[Element], port: int = 0
    ) -> list[Element]:
        # One output list and one predicate lookup for the whole batch
        # instead of a list allocation per element.
        self._validate_port(port)
        predicate = self.predicate
        advice = self._advice
        out: list[Element] = []
        append = out.append
        for el in elements:
            if isinstance(el, Punctuation):
                out.extend(self.on_punctuation(el, port))
            elif advice is not None and not advice.admit(el):
                pass
            elif predicate(el):
                append(el)
        return out

    def supports_columns(self) -> bool:
        # Vectorizable only when the predicate is an expression that can
        # evaluate over a whole batch (e.g. repro.columnar.Col trees) —
        # and no feedback advice is installed (advice filters per record).
        if self._advice is not None and len(self._advice):
            return False
        return hasattr(self.predicate, "mask")

    # -- feedback ----------------------------------------------------------

    def on_feedback(
        self, fb: FeedbackPunctuation
    ) -> list[FeedbackPunctuation]:
        # A selection *acts* by pre-dropping the advised slice before
        # paying the predicate cost, and still forwards upstream so
        # producers closer to the source can stop doing wasted work too.
        if self._advice is None:
            from repro.feedback.table import AdviceTable

            self._advice = AdviceTable()
        self._advice.apply(fb)
        return [fb]

    def snapshot(self) -> object:
        if self._advice is None:
            return None
        return self._advice.snapshot()

    def restore(self, state: object) -> None:
        if state is None:
            if self._advice is not None:
                self._advice.reset()
            return
        if not isinstance(state, list):
            raise PlanError(
                f"operator {self.name!r} (Select) is stateless apart from "
                f"feedback advice; cannot restore a "
                f"{type(state).__name__} snapshot"
            )
        if self._advice is None:
            from repro.feedback.table import AdviceTable

            self._advice = AdviceTable()
        self._advice.restore(state)

    def reset(self) -> None:
        if self._advice is not None:
            self._advice.reset()

    def process_columns(self, batch, port: int = 0):
        self._validate_port(port)
        try:
            mask = self.predicate.mask(batch)
        except ColumnUnavailable:
            return self.process_batch(batch.to_rows(), port)
        if type(mask) is not list:
            # A constant predicate folds to a scalar, not a mask.
            from repro.columnar.expr import column_of

            mask = column_of(mask, batch)
        return batch.compress(mask)
