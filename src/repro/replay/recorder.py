"""Recording: attach a journal to a live engine run.

A :class:`Recorder` is the write side of the time machine.  The engine
calls into it at four points (see the hooks in
:mod:`repro.core.engine`):

* ``on_element`` — every raw ingress element, *before* guard admission
  and advice shedding, so the journal holds the traffic as offered and
  a replay re-sheds through the restored advice state rather than
  replaying the shedding's outcome;
* ``on_boundary`` — a punctuation finished processing: the pending
  elements become an :class:`~repro.replay.log.EpochRecord` with the
  per-output positions at the boundary;
* ``on_feedback`` — advice reached an ingress (journaled for
  diagnosis and for the supervisor's log-backed recovery);
* ``on_finish`` — trailing partial epoch, final checkpoint, and final
  advice-table state.

Checkpoint capture is *deferred*: when a checkpoint is due for epoch
``e`` it is taken at the first ingress element of epoch ``e`` (or at
finish), not at the boundary itself.  Anything that happens between the
boundary and the next element — in particular the adaptive layer
applying revisions — is thereby folded into the checkpoint, so
checkpoint ``e`` is exactly the state a replay must start epoch ``e``
from.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.engine import Engine, RunResult
from repro.core.stream import Source
from repro.core.tuples import FeedbackPunctuation, Punctuation, Record
from repro.errors import ReplayError
from repro.replay.log import EpochRecord, RecordLog, RetentionPolicy

__all__ = ["Recorder", "record_run", "record_adaptive"]

Element = Record | Punctuation


class Recorder:
    """Journals one engine run into a :class:`RecordLog`.

    Parameters
    ----------
    checkpoint_every:
        Epoch interval between engine checkpoints (1 = every epoch:
        shortest replay, most snapshot work).
    segment_every:
        Epochs per log segment.  Must be a multiple of
        ``checkpoint_every`` so every segment starts on a checkpoint
        (the invariant retention relies on).
    retention:
        Optional :class:`~repro.replay.log.RetentionPolicy`.
    """

    def __init__(
        self,
        checkpoint_every: int = 1,
        segment_every: int | None = None,
        retention: RetentionPolicy | None = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ReplayError(
                f"checkpoint_every must be >= 1; got {checkpoint_every}"
            )
        if segment_every is not None and segment_every % checkpoint_every:
            raise ReplayError(
                f"segment_every ({segment_every}) must be a multiple of "
                f"checkpoint_every ({checkpoint_every}) so every segment "
                f"starts on a checkpoint"
            )
        self.checkpoint_every = checkpoint_every
        self.log = RecordLog(
            segment_every=segment_every, retention=retention
        )
        self._pending: list[tuple[str, Element]] = []
        self._feedback: list[tuple[str, FeedbackPunctuation]] = []
        self._epoch = 0
        self._cp_due = True
        self._finished = False

    # -- engine hooks ------------------------------------------------------

    def on_start(self, engine: Engine) -> None:
        self.log.meta.update(
            {
                "batch_size": engine.batch_size,
                "representation": engine.representation,
                "inputs": list(engine.plan.inputs),
                "outputs": list(engine.plan.outputs),
            }
        )
        self._pending = []
        self._feedback = []
        self._epoch = 0
        self._cp_due = True
        self._finished = False

    def on_element(
        self, engine: Engine, input_name: str, element: Element
    ) -> None:
        if self._cp_due:
            self.log.add_checkpoint(self._epoch, engine.checkpoint())
            self._cp_due = False
        self._pending.append((input_name, element))

    def on_feedback(self, input_name: str, fb: FeedbackPunctuation) -> None:
        self._feedback.append((input_name, fb))

    def on_boundary(self, engine: Engine) -> None:
        self.log.append(
            EpochRecord(
                index=self._epoch,
                elements=self._pending,
                output_positions={
                    name: len(els)
                    for name, els in engine.peek_outputs().items()
                },
                feedback=self._feedback,
            )
        )
        self._pending = []
        self._feedback = []
        self._epoch += 1
        if self._epoch % self.checkpoint_every == 0:
            self._cp_due = True
        every = self.log.segment_every
        if every is not None and self._epoch % every == 0:
            self._cp_due = True

    def on_revisions(self, revisions: Sequence) -> None:
        """The adaptive layer applied ``revisions`` at the last boundary."""
        if revisions:
            self.log.attach_revisions(revisions)

    def on_finish(self, engine: Engine) -> None:
        if self._finished:
            return
        self._finished = True
        if self._pending:
            if self._cp_due:
                self.log.add_checkpoint(self._epoch, engine.checkpoint())
                self._cp_due = False
            self.log.append(
                EpochRecord(
                    index=self._epoch,
                    elements=self._pending,
                    output_positions={
                        name: len(els)
                        for name, els in engine.peek_outputs().items()
                    },
                    feedback=self._feedback,
                    final=True,
                )
            )
            self._pending = []
            self._feedback = []
            self._epoch += 1
        # Pre-flush end state: what a full-range replay must reproduce.
        self.log.meta["final_checkpoint"] = engine.checkpoint()
        advice = engine._advice
        self.log.meta["final_advice"] = (
            advice.snapshot() if advice is not None else None
        )


def record_run(
    plan,
    sources: Sequence[Source] | Mapping[str, Source],
    batch_size: int | str | None = None,
    observe=None,
    representation: str = "tuple",
    guard=None,
    checkpoint_every: int = 1,
    segment_every: int | None = None,
    retention: RetentionPolicy | None = None,
) -> tuple[RunResult, RecordLog]:
    """Run ``plan`` over ``sources`` while journaling; return both.

    The recorded run is a normal :meth:`~repro.core.engine.Engine.run`
    — same outputs, same metrics — plus the journal.  The M11 bench
    measures the overhead of the "plus".
    """
    recorder = Recorder(
        checkpoint_every=checkpoint_every,
        segment_every=segment_every,
        retention=retention,
    )
    engine = Engine(
        plan,
        batch_size=batch_size,
        guard=guard,
        observe=observe,
        representation=representation,
        recorder=recorder,
    )
    result = engine.run(sources)
    return result, recorder.log


def record_adaptive(
    plan,
    sources: Sequence[Source] | Mapping[str, Source],
    config=None,
    batch_size: int | str | None = "auto",
    observe=True,
    guard=None,
    representation: str = "tuple",
    checkpoint_every: int = 1,
    segment_every: int | None = None,
    retention: RetentionPolicy | None = None,
) -> tuple[RunResult, RecordLog, list]:
    """Adaptively run ``plan`` while journaling; return
    ``(result, log, migrations)``.

    Revisions the controller applies are journaled at their boundaries
    and re-fired verbatim by :class:`~repro.replay.TimeMachine`, so a
    replay reproduces the migrated run without a controller.
    """
    from repro.adaptive.runner import AdaptiveEngine

    recorder = Recorder(
        checkpoint_every=checkpoint_every,
        segment_every=segment_every,
        retention=retention,
    )
    adaptive = AdaptiveEngine(
        plan,
        config=config,
        batch_size=batch_size,
        guard=guard,
        observe=observe,
        representation=representation,
        recorder=recorder,
    )
    result = adaptive.run(sources)
    return result, recorder.log, adaptive.migrations
