"""Shard supervision: epoch checkpointing, retry, and degradation.

:class:`Supervisor` wraps a :class:`~repro.parallel.sharded.ShardedEngine`
and turns its one-shot shard execution into an *epoch-lockstep* protocol
with crash recovery:

1. The coordinator splits the input into punctuation-delimited epochs
   (exactly as the sharded engine does) and drives every shard worker
   one epoch at a time.
2. Every ``checkpoint_every`` epochs it collects an
   :class:`~repro.core.engine.EngineCheckpoint` from each worker — the
   epoch-aligned snapshot discipline of the stream fault-tolerance
   literature (checkpoint at watermark boundaries, never mid-window).
3. When a worker crashes (process exit, worker exception) or hangs
   (no result within ``epoch_timeout``), the supervisor rebuilds that
   shard from fresh operator copies, restores the last checkpoint,
   **replays** the epochs since it — discarding the replayed output,
   which is the coordinator-side dedup that keeps results exactly-once —
   and retries the failed epoch after an exponential backoff.
4. A shard that keeps failing past ``max_retries`` triggers graceful
   degradation: the run is restarted on half as many shards (narrowed
   partition), down to a plain single :class:`~repro.core.engine.Engine`
   as the last rung.

Because replayed output is discarded and the failed epoch is re-executed
from a consistent snapshot, the supervised result is bit-identical to a
fault-free single-engine run — the invariant the chaos suite asserts for
every example plan.

Faults from a :class:`~repro.resilience.chaos.FaultInjector` are decided
*here*, in the coordinator, and shipped to workers with the epoch data;
see :mod:`repro.resilience.chaos` for why.

Workers, transports and the lockstep loop itself live in
:mod:`repro.parallel.runtime`; this module is the policy that plugs into
its hooks (``fault_for``, ``on_failure``, ``after_epoch``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.engine import EngineCheckpoint, RunResult, resolve_sources
from repro.core.metrics import MetricsRegistry
from repro.core.stream import Source
from repro.core.tuples import Punctuation, Record
from repro.errors import PlanError, ShardError
from repro.observe.trace import Span, Tracer
from repro.parallel.partition import Epoch, split_epochs
from repro.parallel.runtime import Worker, run_lockstep
from repro.parallel.sharded import ShardedEngine
from repro.resilience.chaos import Fault, FaultInjector

__all__ = ["Supervisor", "SupervisorReport"]

Element = Record | Punctuation


@dataclass
class SupervisorReport:
    """What the supervisor had to do during one run."""

    retries: int = 0
    replayed_epochs: int = 0
    checkpoints: int = 0
    #: ``None`` while no degradation happened; otherwise the final rung
    #: (``"shards=k"`` or ``"single"``).
    degraded_to: str | None = None
    #: human-readable recovery log, in order
    events: list[str] = field(default_factory=list)


class _DegradeSignal(Exception):
    """Internal: a shard exhausted its retries; drop to fewer shards."""

    def __init__(self, cause: ShardError) -> None:
        super().__init__(str(cause))
        self.cause = cause


# ---------------------------------------------------------------------------
# The supervisor
# ---------------------------------------------------------------------------


class Supervisor:
    """Fault-tolerant driver for a :class:`ShardedEngine`.

    Parameters
    ----------
    engine:
        The sharded engine to supervise.  Its plan, partition, batch
        size, and backend are honoured; only its execution is replaced
        by the epoch-lockstep protocol.
    max_retries:
        Retries per (shard, epoch) before degrading to fewer shards.
    backoff_base, backoff_factor:
        Retry ``i`` (1-based) sleeps ``backoff_base * backoff_factor**(i-1)``
        seconds before rebuilding the shard.
    epoch_timeout:
        Seconds to wait for any shard's epoch result before treating the
        worker as hung.  ``None`` disables hang detection (crashes are
        still caught).
    checkpoint_every:
        Epoch interval between checkpoints.  ``1`` checkpoints every
        epoch (shortest replay, most snapshot traffic); larger values
        trade replay work for snapshot overhead.
    injector:
        Optional :class:`~repro.resilience.chaos.FaultInjector` whose
        shard-fault schedule is applied during the run.
    record_log:
        Optional :class:`~repro.replay.RecordLog`.  When attached, the
        coordinator journals every completed epoch (merged-order
        elements plus the broadcast feedback union) into it, and
        recovery replays a rebuilt shard from the *journal* — re-split
        through the partitioner from position zero, so position-stateful
        routing stays identical — instead of the in-memory epoch list.
        The log is cleared if graceful degradation restarts the run; a
        degraded-to-single run is not journaled.
    """

    def __init__(
        self,
        engine: ShardedEngine,
        max_retries: int = 3,
        backoff_base: float = 0.01,
        backoff_factor: float = 2.0,
        epoch_timeout: float | None = None,
        checkpoint_every: int = 1,
        injector: FaultInjector | None = None,
        record_log=None,
    ) -> None:
        if max_retries < 0:
            raise PlanError(f"max_retries must be >= 0; got {max_retries}")
        if checkpoint_every < 1:
            raise PlanError(
                f"checkpoint_every must be >= 1; got {checkpoint_every}"
            )
        self.engine = engine
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.epoch_timeout = epoch_timeout
        self.checkpoint_every = checkpoint_every
        self.injector = injector
        self.record_log = record_log
        self.report = SupervisorReport()
        self._attempts: dict[tuple[int, int], int] = {}
        self._tracer: Tracer | None = None
        self._run_started = 0.0

    # -- public entry ------------------------------------------------------

    def run(
        self, sources: Sequence[Source] | Mapping[str, Source]
    ) -> RunResult:
        """Execute under supervision; output matches a fault-free run."""
        self.report = SupervisorReport()
        self._attempts = {}
        engine = self.engine
        cfg = engine.observe_config
        self._run_started = time.perf_counter()
        # Coordinator-side trace: epoch rounds, checkpoints, recoveries
        # and replays nest under the "run" span, beside the per-shard
        # worker spans the engines record (same context discipline).
        self._tracer = (
            Tracer(cfg.context + ("run",), max_spans=cfg.max_spans)
            if cfg is not None and cfg.trace
            else None
        )
        st = engine._strategy
        if st.name == "single":
            return self._run_plain(sources)
        by_name = resolve_sources(engine.plan, sources)
        elements = list(by_name[st.input_name].events())
        while True:
            try:
                return self._supervise(engine, elements)
            except _DegradeSignal as sig:
                n = engine._strategy.routing.n_shards
                if n <= 1:
                    self.report.degraded_to = "single"
                    self.report.events.append(
                        f"degraded to single engine after: {sig.cause}"
                    )
                    return self._run_plain(sources)
                narrowed = max(1, n // 2)
                self.report.degraded_to = f"shards={narrowed}"
                self.report.events.append(
                    f"degraded {n} -> {narrowed} shards after: {sig.cause}"
                )
                engine = ShardedEngine(
                    self.engine.plan,
                    self.engine.partition.narrowed(narrowed),
                    backend=self.engine.backend,
                    **self.engine.config.kwargs(),
                )
                if engine._strategy.name == "single":
                    self.report.degraded_to = "single"
                    return self._run_plain(sources)

    # -- supervised sharded run -------------------------------------------

    def _supervise(
        self, engine: ShardedEngine, elements: list[Element]
    ) -> RunResult:
        """The lockstep protocol with this supervisor's hooks: chaos
        faults going in, recovery on failure, and journal / trace /
        checkpoint at every epoch boundary."""
        st = engine._strategy
        epochs = split_epochs(elements, st.routing)
        n = st.routing.n_shards
        log = self.record_log
        if log is not None:
            if log.n_epochs or log.dropped_revisions:
                # A degradation restarted the protocol: the journal must
                # describe the run that produces the output, not the
                # abandoned attempt.
                log.clear()
            cfg = engine.config
            log.meta.update(
                batch_size=cfg.batch_size,
                representation=cfg.representation,
                inputs=[st.input_name],
                outputs=[st.output_name],
                supervised=True,
            )
        log_cursor = 0
        log_out = 0
        cp_epoch = 0
        checkpoints: list[EngineCheckpoint] = []
        # Per-epoch log of the broadcast feedback union.  Recovery
        # replays re-apply it after each replayed epoch so a rebuilt
        # shard re-sheds exactly what the original run shed — recovery
        # must not un-shed.
        feedback_log: list[list] = []
        tracer = self._tracer

        def checkpoint(boundary: int) -> None:
            nonlocal cp_epoch, checkpoints
            checkpoints = [w.call("snapshot") for w in workers]
            cp_epoch = boundary
            self.report.checkpoints += 1

        def on_failure(shard: int, e: int, exc: ShardError) -> Worker:
            return self._recover(
                engine, workers, shard, e, epochs, cp_epoch,
                checkpoints[shard], exc, feedback_log,
            )

        def after_epoch(e: int, produced: list, exchanged: list) -> None:
            nonlocal log_cursor, log_out, epoch_started
            epoch = epochs[e]
            feedback_log.append(exchanged)
            if log is not None:
                # Journal the epoch only once every shard completed
                # it, so the log never describes an epoch a recovery
                # might still be replaying.  Output positions count
                # coordinator-accepted elements (exact for the
                # "local" strategy; partial-aggregate combines merge
                # further, so treat them as diagnostics there).
                from repro.replay.log import EpochRecord

                closing = 1 if epoch.punct is not None else 0
                count = sum(len(b) for b in epoch.batches) + closing
                log_out += sum(len(rows) for rows in produced) + closing
                log.append(
                    EpochRecord(
                        index=e,
                        elements=[
                            (st.input_name, el)
                            for el in elements[log_cursor : log_cursor + count]
                        ],
                        output_positions={st.output_name: log_out},
                        feedback=list(exchanged),
                        final=epoch.punct is None,
                    )
                )
                log_cursor += count
            if tracer is not None:
                tracer.record(
                    f"epoch:{e}",
                    epoch_started,
                    time.perf_counter(),
                    epoch=e,
                    shards=n,
                )
            if (e + 1) % self.checkpoint_every == 0 and e + 1 < len(epochs):
                if tracer is None:
                    checkpoint(e + 1)
                else:
                    with tracer.span(f"checkpoint:{e + 1}", epoch=e + 1):
                        checkpoint(e + 1)
            epoch_started = time.perf_counter()

        with engine.workers() as workers:
            checkpoint(0)
            epoch_started = time.perf_counter()
            runs = run_lockstep(
                workers,
                epochs,
                timeout=self.epoch_timeout,
                fault_for=self._next_fault,
                on_failure=on_failure,
                after_epoch=after_epoch,
            )
        result = engine.assemble(epochs, runs)
        self._publish(result.metrics)
        return result

    def _next_fault(self, shard: int, epoch: int) -> Fault | None:
        attempt = self._attempts.get((shard, epoch), 0)
        self._attempts[(shard, epoch)] = attempt + 1
        if self.injector is None:
            return None
        return self.injector.fault_for(shard, epoch, attempt)

    def _recover(
        self,
        engine: ShardedEngine,
        workers: list[Worker],
        shard: int,
        epoch_index: int,
        epochs: list[Epoch],
        cp_epoch: int,
        checkpoint: EngineCheckpoint,
        exc: ShardError,
        feedback_log: list[list],
    ) -> Worker:
        """Rebuild ``shard`` from its last checkpoint and replay forward."""
        st = engine._strategy
        attempt = self._attempts.get((shard, epoch_index), 1)
        cause = ShardError(
            f"shard {shard} failed during epoch {epoch_index} "
            f"(attempt {attempt}): {type(exc).__name__}: {exc}",
            shard=shard,
            strategy=st.name,
            worker_traceback=exc.worker_traceback,
        )
        workers[shard].close(abandon=True)
        if attempt > self.max_retries:
            raise _DegradeSignal(cause) from exc
        self.report.retries += 1
        self.report.events.append(str(cause))
        time.sleep(self.backoff_base * self.backoff_factor ** (attempt - 1))
        # Into the live list first: whatever the restore and replay
        # below raise, the run's ``with`` block closes the new worker.
        worker = workers[shard] = engine.make_worker(shard)
        worker.call("restore", checkpoint)
        # Replay the epochs since the checkpoint.  Their output is
        # discarded — the coordinator already accepted it — which is
        # exactly the dedup that keeps replays invisible downstream.
        # Each replay is traced with ``replay=True`` so a recovery run's
        # trace distinguishes re-executed epochs from first-run epochs.
        replay_epochs: Sequence[Epoch] = epochs
        feedback_source: Sequence[list] = feedback_log
        log = self.record_log
        if (
            log is not None
            and log.base_epoch == 0
            and log.n_epochs >= epoch_index
        ):
            # Log-backed recovery: rebuild the replay batches from the
            # durable journal instead of coordinator memory.  The whole
            # journaled stream is re-split through the partitioner from
            # position zero, so position-stateful routing (round-robin)
            # re-derives the original per-shard batches exactly.
            trace = [el for _name, el in log.all_elements(0, epoch_index)]
            replay_epochs = split_epochs(trace, st.routing)
            feedback_source = [
                entry.feedback for entry in log.entries(0, epoch_index)
            ]
        tracer = self._tracer
        for replay_index in range(cp_epoch, epoch_index):
            epoch = replay_epochs[replay_index]
            replay_started = time.perf_counter()
            worker.call("replay_epoch", epoch.batches[shard], epoch.punct)
            if replay_index < len(feedback_source):
                items = feedback_source[replay_index]
                if items:
                    # Re-install the feedback union exactly where the
                    # original run did, so the replayed epochs shed the
                    # same slice (idempotent against advice the restored
                    # checkpoint already carried).
                    worker.call("apply_feedback", items)
            self.report.replayed_epochs += 1
            if tracer is not None:
                tracer.record(
                    f"replay:{replay_index}",
                    replay_started,
                    time.perf_counter(),
                    shard=shard,
                    epoch=replay_index,
                    replay=True,
                    attempt=attempt,
                )
        # Replay re-emits only advice the original run already
        # broadcast (replay is deterministic), so drain and discard it
        # rather than re-broadcasting duplicates at the next boundary.
        worker.call("take_feedback")
        return worker

    # -- single-engine path ------------------------------------------------

    def _run_plain(
        self, sources: Sequence[Source] | Mapping[str, Source]
    ) -> RunResult:
        """Run (or re-run, after degradation) on one plain engine.

        Sources are restartable by contract, so a retry is a clean
        re-execution; faults here are whole-run failures (e.g. injected
        operator exceptions), retried up to ``max_retries`` times.
        """
        attempt = 0
        while True:
            try:
                result = (
                    self.engine.config.engine(self.engine.plan).run(sources)
                )
                self._publish(result.metrics)
                return result
            except Exception as exc:
                attempt += 1
                if attempt > self.max_retries:
                    raise
                self.report.retries += 1
                self.report.events.append(
                    f"single-engine run failed (attempt {attempt}): "
                    f"{type(exc).__name__}: {exc}"
                )
                time.sleep(
                    self.backoff_base
                    * self.backoff_factor ** (attempt - 1)
                )

    def _publish(self, metrics: MetricsRegistry) -> None:
        metrics.incr("supervisor.retries", self.report.retries)
        metrics.incr("supervisor.replayed_epochs", self.report.replayed_epochs)
        metrics.incr("supervisor.checkpoints", self.report.checkpoints)
        if self.report.degraded_to is not None:
            metrics.incr("supervisor.degradations", 1)
        tracer = self._tracer
        if tracer is None:
            return
        tracer.publish(metrics)
        cfg = self.engine.observe_config
        metrics.spans.append(
            Span(
                cfg.context + ("run",),
                self._run_started,
                time.perf_counter(),
                {
                    "supervised": True,
                    "retries": self.report.retries,
                    "replayed_epochs": self.report.replayed_epochs,
                    "checkpoints": self.report.checkpoints,
                    "degraded_to": self.report.degraded_to,
                },
            )
        )
        metrics.spans.sort(key=lambda span: span.start)
