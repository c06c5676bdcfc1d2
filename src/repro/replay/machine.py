"""The time machine: reconstruct and re-run recorded engine history.

A :class:`TimeMachine` binds a plan *factory* to a
:class:`~repro.replay.log.RecordLog` and answers two questions:

* ``state_at(epoch)`` — what did the engine look like at the start of a
  recorded epoch?  Reconstructed from the nearest checkpoint at or
  before the epoch: a fresh engine is built, the structural revisions
  recorded *before* that checkpoint are re-applied (so the plan has the
  shape the checkpoint expects), the checkpoint is restored, and the
  intervening epochs are rolled forward — re-firing their recorded
  revisions at the original boundaries.
* ``replay(start, stop)`` — re-feed the recorded traffic of an epoch
  range through the same execution discipline the original run used
  (identical chunk cuts, punctuation-closed, feedback drained at the
  same points), producing byte-identical outputs.

Why a plan *factory* and not a plan: plans hold live operator instances
(state, closures), so every reconstruction needs its own fresh copies —
exactly like the supervisor's shard rebuilds.

Replay fidelity contract
------------------------

Replays are bit-identical for runs recorded without an overload guard
(including runs that shed through ingress *advice* — the advice state
travels in the checkpoints and replays re-shed through it).  Runs
recorded with a guard replay through a guard built by ``guard_factory``;
outputs match when the guard is deterministic in the element sequence,
but chunk-sensitive metrics (``batches_in``) may differ because the
original run cut chunks *after* guard admission while replay re-admits
inside recorded chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.engine import (
    Engine,
    EngineCheckpoint,
    RunResult,
    feed_interleaved,
)
from repro.core.graph import Plan
from repro.core.metrics import MetricsRegistry
from repro.core.stream import ListSource
from repro.core.tuples import Punctuation, Record
from repro.errors import ReplayError
from repro.parallel.runtime import ExecConfig
from repro.parallel.sharded import ShardedEngine
from repro.replay.log import RecordLog

__all__ = ["TimeMachine", "ReplayResult"]

Element = Record | Punctuation


@dataclass
class ReplayResult:
    """What one :meth:`TimeMachine.replay` call produced.

    ``outputs`` holds only the elements emitted *by the replayed range*
    (the reconstruction prefix is excluded) — directly comparable to
    :meth:`~repro.replay.log.RecordLog.output_range` of the original
    run.  ``checkpoint`` is the engine state at ``stop`` *before* any
    end-of-stream flush, comparable to the log's ``final_checkpoint``
    for full-range replays.
    """

    outputs: dict[str, list[Element]]
    metrics: MetricsRegistry
    checkpoint: EngineCheckpoint
    #: Ingress advice-table snapshot at ``stop`` (pre-flush); ``None``
    #: when no advice was installed.
    advice: object | None
    #: The replay engine. ``None`` after a finished (flushed) replay;
    #: still started (mid-run) for sub-range replays, so callers can
    #: keep feeding or crash it (the chaos suite does).
    engine: Engine | None = None


class TimeMachine:
    """Deterministic record-replay over one :class:`RecordLog`.

    Parameters
    ----------
    build_plan:
        Zero-argument callable returning a fresh :class:`Plan`
        equivalent to the recorded one (same operator names and
        semantics — typically the same registry entry the recording
        used).
    log:
        The journal produced by :class:`~repro.replay.Recorder`.
    observe:
        Observation setting for replay engines (default off — replay
        certifies *logical* state, and wall-clock metrics are not
        replayable).
    guard_factory:
        Zero-argument callable building an overload guard equivalent to
        the recorded run's, for logs recorded through a guard.
    """

    def __init__(
        self,
        build_plan: Callable[[], Plan],
        log: RecordLog,
        observe=None,
        guard_factory: Callable[[], object] | None = None,
    ) -> None:
        if "inputs" not in log.meta:
            raise ReplayError(
                "log carries no recording metadata (was it produced by "
                "a Recorder-attached run?)"
            )
        self.build_plan = build_plan
        self.log = log
        self.observe = observe
        self.guard_factory = guard_factory

    # -- reconstruction ----------------------------------------------------

    def _config(self):
        """The recorded run's execution keywords (plus this machine's
        ``observe``) as the runtime's one config value."""
        meta = self.log.meta
        return ExecConfig(
            batch_size=meta.get("batch_size"),
            observe=self.observe,
            representation=meta.get("representation", "tuple"),
        )

    def _fresh_engine(self) -> Engine:
        guard = (
            self.guard_factory() if self.guard_factory is not None else None
        )
        engine = self._config().engine(self.build_plan(), guard=guard)
        engine.start()
        return engine

    def _chain_io(self, engine: Engine):
        from repro.adaptive.revision import chain_of

        chain = chain_of(engine.plan)
        input_name = next(iter(engine.plan.inputs))
        output_name = next(iter(engine.plan.outputs))
        return chain, input_name, output_name

    def _apply(self, engine: Engine, revisions, chain_io):
        from repro.adaptive.revision import apply_revisions

        chain, input_name, output_name = chain_io
        if chain is None:
            raise ReplayError(
                "log records plan revisions but the plan is not a "
                "linear chain; cannot re-fire them"
            )
        chain = apply_revisions(
            engine, list(revisions), input_name, output_name, chain
        )
        return chain, input_name, output_name

    def _engine_at(self, epoch: int):
        """A started engine positioned at the start of ``epoch``."""
        log = self.log
        if not log.base_epoch <= epoch <= log.end_epoch:
            raise ReplayError(
                f"epoch {epoch} outside the retained range "
                f"[{log.base_epoch}, {log.end_epoch}]"
            )
        cp_index, cp = log.checkpoint_at_or_before(epoch)
        engine = self._fresh_engine()
        chain_io = None
        # Plan-shape prefix: revisions dropped by retention plus those
        # of retained epochs before the checkpoint fired *before* the
        # checkpoint was captured, so the restore target must match.
        prefix = list(log.dropped_revisions)
        for entry in log.entries(log.base_epoch, cp_index):
            prefix.extend(entry.revisions)
        if prefix:
            chain_io = self._chain_io(engine)
            chain_io = self._apply(engine, prefix, chain_io)
        if cp is not None:
            engine.restore_checkpoint(cp)
        elif cp_index > 0 or log.base_epoch > 0:
            raise ReplayError(
                f"no checkpoint at or before epoch {epoch} "
                f"(retained range starts at {log.base_epoch})"
            )
        for entry in log.entries(cp_index, epoch):
            feed_interleaved(engine, entry.elements)
            if entry.revisions:
                if chain_io is None:
                    chain_io = self._chain_io(engine)
                chain_io = self._apply(engine, entry.revisions, chain_io)
        return engine, chain_io

    def state_at(self, epoch: int) -> Engine:
        """The engine as it stood at the *start* of ``epoch``.

        Started and live: callers may feed it, checkpoint it, or hand
        it to :meth:`replay` via its epoch range.
        """
        engine, _chain_io = self._engine_at(epoch)
        return engine

    # -- replay ------------------------------------------------------------

    def replay(
        self, start: int | None = None, stop: int | None = None
    ) -> ReplayResult:
        """Re-run recorded epochs ``[start, stop)`` bit-identically.

        ``start=None`` begins at the oldest retained epoch; ``stop=None``
        (or the log's end) replays through end-of-stream, *including*
        the final operator flush — matching what the original run's
        outputs contain after its last recorded epoch.
        """
        log = self.log
        lo = log.base_epoch if start is None else start
        hi = log.end_epoch if stop is None else stop
        if hi < lo:
            raise ReplayError(f"replay range [{lo}, {hi}) is inverted")
        if hi > log.end_epoch:
            raise ReplayError(
                f"replay stop {hi} beyond recorded end {log.end_epoch}"
            )
        engine, chain_io = self._engine_at(lo)
        pos0 = {
            name: len(els) for name, els in engine.peek_outputs().items()
        }
        for entry in log.entries(lo, hi):
            feed_interleaved(engine, entry.elements)
            if entry.revisions:
                if chain_io is None:
                    chain_io = self._chain_io(engine)
                chain_io = self._apply(engine, entry.revisions, chain_io)
        checkpoint = engine.checkpoint()
        advice = (
            engine._advice.snapshot() if engine._advice is not None else None
        )
        if hi >= log.end_epoch:
            result = engine.finish()
            outputs = {
                name: els[pos0.get(name, 0):]
                for name, els in result.outputs.items()
            }
            return ReplayResult(
                outputs=outputs,
                metrics=result.metrics,
                checkpoint=checkpoint,
                advice=advice,
                engine=None,
            )
        outputs = {
            name: list(els[pos0.get(name, 0):])
            for name, els in engine.peek_outputs().items()
        }
        return ReplayResult(
            outputs=outputs,
            metrics=engine.metrics,
            checkpoint=checkpoint,
            advice=advice,
            engine=engine,
        )

    # -- derived replays ---------------------------------------------------

    def sources(
        self, start: int | None = None, stop: int | None = None
    ) -> dict[str, ListSource]:
        """Per-input :class:`ListSource`\\ s rebuilt from the journal."""
        by_input: dict[str, list[Element]] = {
            name: [] for name in self.log.meta.get("inputs", ())
        }
        for input_name, element in self.log.all_elements(start, stop):
            by_input.setdefault(input_name, []).append(element)
        return {
            name: ListSource(name, elements)
            for name, elements in by_input.items()
        }

    def _check_whole_stream(self, stop: int | None, what: str) -> None:
        log = self.log
        if log.base_epoch != 0:
            raise ReplayError(
                f"{what} needs the whole recorded stream; epochs before "
                f"{log.base_epoch} were dropped by retention"
            )
        if log.dropped_revisions or any(
            entry.revisions for entry in log.entries()
        ):
            raise ReplayError(
                f"{what} cannot re-fire recorded plan revisions; replay "
                f"revision-bearing logs on a single Engine instead"
            )
        if stop is not None and not 0 <= stop <= log.end_epoch:
            raise ReplayError(
                f"replay stop {stop} outside [0, {log.end_epoch}]"
            )

    def _sharded(self, partition, backend: str, stop: int | None, what: str):
        """A :class:`ShardedEngine` configured like the recorded run."""
        self._check_whole_stream(stop, what)
        return ShardedEngine(
            self.build_plan(),
            partition,
            backend=backend,
            **self._config().kwargs(),
        )

    def replay_sharded(
        self,
        partition,
        backend: str = "inline",
        stop: int | None = None,
    ) -> RunResult:
        """Re-run the recorded traffic on a :class:`ShardedEngine`.

        Shards have no recorded per-shard checkpoints, so only whole-
        stream (or prefix ``[0, stop)``) replays are supported — the
        partitioner re-splits the journaled stream from position zero,
        which keeps position-stateful routing (round-robin) identical.
        """
        engine = self._sharded(partition, backend, stop, "sharded replay")
        return engine.run(self.sources(0, stop))

    def replay_supervised(
        self,
        partition,
        backend: str = "inline",
        stop: int | None = None,
        **supervisor_kwargs,
    ):
        """Re-run the recorded traffic under a :class:`Supervisor`.

        Returns ``(result, report)``.  ``supervisor_kwargs`` (e.g.
        ``injector=``, ``checkpoint_every=``) pass through, so the
        chaos suite can crash a replay mid-flight and watch the
        log-backed recovery.
        """
        from repro.resilience.supervisor import Supervisor

        engine = self._sharded(partition, backend, stop, "supervised replay")
        supervisor = Supervisor(engine, **supervisor_kwargs)
        result = supervisor.run(self.sources(0, stop))
        return result, supervisor.report

    # -- the migration index -----------------------------------------------

    def migration_epochs(self) -> list[int]:
        """Epochs whose closing boundary fired recorded revisions."""
        return self.log.migration_epochs()

    def replay_migration(self, which: int = 0) -> ReplayResult:
        """Replay the epoch leading into recorded migration ``which``.

        Time-travel debugging of adaptive decisions: re-runs exactly
        the traffic that triggered the ``which``-th recorded revision
        boundary (and re-fires the revision at its original position).
        """
        migrations = self.migration_epochs()
        if not migrations:
            raise ReplayError("log records no plan revisions to replay")
        if not 0 <= which < len(migrations):
            raise ReplayError(
                f"migration index {which} out of range "
                f"(log records {len(migrations)} migration boundaries)"
            )
        epoch = migrations[which]
        return self.replay(epoch, epoch + 1)
