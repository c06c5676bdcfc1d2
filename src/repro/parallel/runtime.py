"""The epoch runtime: one shard core, one worker transport, one lockstep loop.

Every partition-parallel engine in this repo runs the same protocol —
split the input into punctuation-delimited epochs, run each epoch on a
shard worker, collect outputs / progress / feedback, maybe checkpoint,
maybe revise.  This module is that protocol, once, in three layers:

**Core** — :class:`ShardCore` is one shard's started
:class:`~repro.core.engine.Engine` plus epoch bookkeeping: records are
fed in ``batch_size`` slices, the punctuation is fed alone, emitted
elements are counted so :meth:`ShardCore.finish` can slice the flush
tail.  Its public methods *are* the worker protocol (``run_epoch``,
``replay_epoch``, ``run_all``, ``snapshot``, ``restore``, ``stats``,
``revise``, ``take_feedback``, ``apply_feedback``, ``finish``).

**Transport** — :class:`Worker` puts a core behind one of three
transports and exposes a single ``call(name, *args)`` (plus the split
``start``/``join`` the lockstep needs to overlap shards).  ``inline``
calls the core directly; ``thread`` runs every command on the worker's
own single-thread pool; ``process`` forks a child that builds the core
from fork-inherited arguments (plans hold closures, which never survive
pickling) and serves one command per send/recv over two one-way pipes.
On every transport a command runs under one ``try/except``: any failure
surfaces as :class:`~repro.errors.ShardError` carrying the message and
the worker's traceback, a missed deadline as :class:`WorkerHung`.

**Loop** — :func:`run_lockstep` drives all workers one epoch at a time
and exchanges feedback at every boundary.  What differs between engines
is supplied as hooks:

* :class:`~repro.parallel.sharded.ShardedEngine` needs no boundary at
  all: workers are built with their epochs pre-loaded and driven by one
  ``run_all`` command; ``worker_timeout`` is the ``join`` deadline.
* :class:`~repro.resilience.supervisor.Supervisor` supplies
  ``fault_for`` (chaos directives), ``on_failure`` (rebuild from the
  last checkpoint and replay) and ``after_epoch`` (journal, trace,
  checkpoint); ``epoch_timeout`` is the ``join`` deadline.
* :class:`~repro.adaptive.runner.AdaptiveShardedEngine` supplies
  ``after_epoch`` only: gather ``stats``, decide centrally, broadcast
  ``revise``.

:class:`ExecConfig` carries the three execution keywords
(``batch_size`` / ``observe`` / ``representation``) as one value and
owns the single ``Engine(...)`` construction site for shard and plain
engines.  It is internal: no public constructor takes one.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.core.engine import Engine, EngineCheckpoint
from repro.core.graph import Plan, linear_plan
from repro.core.metrics import MetricsRegistry
from repro.core.tuples import Punctuation, Record
from repro.errors import ShardError
from repro.observe.feedback import collect_stats
from repro.observe.observer import ObserveConfig
from repro.operators.aggregate import Aggregate, WindowedAggregate
from repro.operators.partial_aggregate import GroupPartial
from repro.parallel.partition import Epoch
from repro.windows.spec import PunctuationWindow, TumblingWindow

# ExecConfig is deliberately not exported: it is an internal carrier,
# not a parameter of any public constructor.
__all__ = [
    "ShardCore",
    "ShardRun",
    "Worker",
    "WorkerHung",
    "run_lockstep",
]

Element = Record | Punctuation


@dataclass(frozen=True)
class ExecConfig:
    """How shard and plain engines execute — the three keywords every
    engine constructor accepts, under the names they accept them."""

    batch_size: int | str | None = "auto"
    observe: ObserveConfig | None = None
    representation: str = "tuple"

    def kwargs(self) -> dict:
        """The fields as constructor keywords (``Engine``,
        ``ShardedEngine`` and ``AdaptiveEngine`` share the names)."""
        return dict(vars(self))

    def engine(self, plan: Plan, **extra) -> Engine:
        return Engine(plan, **self.kwargs(), **extra)

    def for_shard(self, shard: int) -> "ExecConfig":
        """Worker config: shard spans nest under the run span."""
        if self.observe is None:
            return self
        return replace(
            self, observe=self.observe.with_context("run", f"shard:{shard}")
        )


# ---------------------------------------------------------------------------
# Core
# ---------------------------------------------------------------------------


@dataclass
class ShardRun:
    """One shard's outputs: per-epoch elements, flush tail, progress."""

    epochs: list
    flush: list
    progress: list
    metrics: MetricsRegistry


def terminal_progress(op) -> float:
    """The terminal operator's notion of stream progress, per epoch."""
    if isinstance(op, GroupPartial):
        return op.max_ts
    if isinstance(op, Aggregate):
        return op._max_ts
    if isinstance(op, WindowedAggregate):
        if isinstance(op.window, PunctuationWindow):
            return op._delegate._max_ts
        if isinstance(op.window, TumblingWindow):
            return op._watermark
    return 0.0


class ShardCore:
    """One shard's engine plus epoch bookkeeping (runs behind any
    transport).  ``epochs`` pre-loads the ``(batch, punct)`` pairs a
    one-shot :meth:`run_all` consumes."""

    def __init__(
        self,
        ops: list,
        input_name: str,
        output_name: str,
        config: ExecConfig,
        epochs: Sequence[tuple] | None = None,
    ) -> None:
        self.ops = ops
        self.input_name = input_name
        self.output_name = output_name
        self.epochs = epochs
        self.engine = config.engine(linear_plan(input_name, ops, output_name))
        self.engine.start()
        self.emitted = 0
        #: Set by the process transport's child: a staged fault is then
        #: a real process death instead of an exception.
        self.forked = False

    # -- feeding -----------------------------------------------------------

    def feed(
        self, batch: Sequence[Record], punct: Punctuation | None = None
    ) -> list[Element]:
        """Records in ``batch_size`` slices, then the punctuation alone."""
        engine, name = self.engine, self.input_name
        produced: list[Element] = []
        size = engine.batch_size
        if size is None:
            for el in batch:
                produced.extend(engine.feed(name, el))
        else:
            for i in range(0, len(batch), size):
                produced.extend(engine.feed_batch(name, batch[i : i + size]))
        if punct is not None:
            produced.extend(engine.feed(name, punct))
        self.emitted += len(produced)
        return produced

    def feed_elements(self, elements) -> list[Element]:
        """Mixed records and punctuations (a cluster stage's input):
        every record run is fed exactly as an epoch's batch is."""
        produced: list[Element] = []
        run: list[Record] = []
        for el in elements:
            if isinstance(el, Record):
                run.append(el)
            else:
                produced.extend(self.feed(run, el))
                run = []
        produced.extend(self.feed(run))
        return produced

    def _fail(self, batch: Sequence[Record], fault) -> None:
        """Stage a shard fault mid-epoch: feed half the batch, then fail.

        In a forked child a crash is a real process death
        (``os._exit``), not an exception — the parent observes it as EOF
        on the result pipe, exactly like a segfaulted or OOM-killed
        worker.
        """
        self.feed(batch[: len(batch) // 2])
        if fault.kind == "hang":
            time.sleep(fault.seconds)
        if self.forked:
            os._exit(17)
        # Lazy: repro.resilience imports this module.
        from repro.resilience.chaos import InjectedFault

        raise InjectedFault(
            f"injected {fault.kind} on shard {fault.shard} "
            f"(epoch {fault.epoch})"
        )

    # -- the worker protocol -----------------------------------------------

    def run_epoch(
        self, batch: Sequence[Record], punct: Punctuation | None, fault=None
    ) -> tuple[list[Element], float]:
        if fault is not None:
            self._fail(batch, fault)
        return self.feed(batch, punct), terminal_progress(self.ops[-1])

    def replay_epoch(
        self, batch: Sequence[Record], punct: Punctuation | None
    ) -> None:
        """Re-run an accepted epoch; its output is discarded."""
        self.feed(batch, punct)

    def run_all(self) -> ShardRun:
        """Run every pre-loaded epoch, then flush (one-shot execution)."""
        epochs_out: list[list[Element]] = []
        progress: list[float] = []
        for batch, punct in self.epochs:
            produced, prog = self.run_epoch(batch, punct)
            epochs_out.append(produced)
            progress.append(prog)
        flush, metrics = self.finish()
        return ShardRun(epochs_out, flush, progress, metrics)

    def snapshot(self) -> EngineCheckpoint:
        return self.engine.checkpoint()

    def restore(self, cp: EngineCheckpoint) -> None:
        self.engine.restore_checkpoint(cp)
        # A fresh (rebuilt) worker restores onto an *empty* output list,
        # so count what is actually buffered, not the checkpoint's
        # original position — flush slicing only needs everything fed
        # after the restore to be accounted for.
        self.emitted = len(self.engine.peek_output(self.output_name))

    def stats(self):
        """Picklable per-operator counter snapshot (adaptive feedback)."""
        return collect_stats(self.engine.metrics)

    def revise(self, revisions) -> None:
        """Apply plan revisions at the current epoch boundary.

        Revisions are picklable by design (names + scalars only); the
        core resolves them against its own operator instances.  Lazy
        import: :mod:`repro.adaptive` drives these workers, so a
        top-level import here would be a cycle.
        """
        from repro.adaptive.revision import apply_revisions

        self.ops = apply_revisions(
            self.engine,
            revisions,
            self.input_name,
            self.output_name,
            self.ops,
        )

    def take_feedback(self) -> list:
        """Drain feedback this shard's operators pushed to ingress.

        Picklable ``(input_name, FeedbackPunctuation)`` pairs — the
        coordinator broadcasts the union so every shard sheds the same
        slice (a hot key is hot wherever the partitioner routed it).
        """
        return self.engine.take_ingress_feedback()

    def apply_feedback(self, items) -> None:
        """Install coordinator-broadcast feedback at this shard's ingress."""
        self.engine.apply_feedback(items)

    def finish(self) -> tuple[list[Element], MetricsRegistry]:
        """Flush; return the tail emitted since the last epoch."""
        result = self.engine.finish()
        return result.outputs[self.output_name][self.emitted :], result.metrics


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------


class WorkerHung(ShardError):
    """No reply from a worker within the deadline."""


#: Commands after which a forked child exits.
_FINAL = ("run_all", "finish")


def _dispatch(core: ShardCore, name: str, args: tuple) -> tuple:
    """Run one protocol command on ``core``.

    The command table is the core's methods.  Every failure becomes an
    ``("error", message, traceback)`` reply, so a command that raises is
    reported the same way on every transport instead of killing its
    worker silently.
    """
    try:
        return ("ok", getattr(core, name)(*args))
    except Exception as exc:
        message = f"{type(exc).__name__}: {exc}"
        return ("error", message, traceback.format_exc())


class _Inline:
    """Direct calls, deferred to ``recv``.  Hangs degrade to crashes:
    there is no second thread of control to time them out from."""

    def __init__(self, core: ShardCore) -> None:
        self.core = core
        self._pending = None

    def send(self, name: str, args: tuple) -> None:
        self._pending = (name, args)

    def recv(self, timeout: float | None) -> tuple:
        name, args = self._pending
        self._pending = None
        return _dispatch(self.core, name, args)

    def close(self, abandon: bool) -> None:
        self._pending = None


class _Threaded:
    """Every command on the worker's dedicated single-thread pool.

    A hung command cannot be killed (Python threads are
    uninterruptible), but it *can* be abandoned: the caller stops
    waiting, leaves the thread to finish, and rebuilds the shard on a
    fresh worker.
    """

    def __init__(self, core: ShardCore) -> None:
        self.core = core
        self.pool = ThreadPoolExecutor(max_workers=1)
        self._future = None

    def send(self, name: str, args: tuple) -> None:
        self._future = self.pool.submit(_dispatch, self.core, name, args)

    def recv(self, timeout: float | None) -> tuple:
        try:
            return self._future.result(timeout=timeout)
        except FutureTimeoutError:
            raise WorkerHung(
                f"worker hung: no result within {timeout}s"
            ) from None

    def close(self, abandon: bool) -> None:
        self.pool.shutdown(wait=not abandon)


def _serve(cmd_recv, res_send, core_args: tuple) -> None:
    """Forked child: build the core, then answer one command per recv
    until a final command, an error, or the parent going away."""
    try:
        core = ShardCore(*core_args)
        core.forked = True
        while True:
            name, *args = cmd_recv.recv()
            reply = _dispatch(core, name, args)
            res_send.send(reply)
            if reply[0] == "error" or name in _FINAL:
                break
    except EOFError:  # pragma: no cover - parent died
        pass
    finally:
        cmd_recv.close()
        res_send.close()


class _Forked:
    """A long-lived forked child, driven over two one-way pipes.

    The core's arguments — operator chain, pre-loaded epochs — cross via
    fork inheritance; commands, batches, checkpoints and results, all
    picklable, cross the pipes.
    """

    core = None  # lives in the child

    def __init__(self, core_args: tuple) -> None:
        ctx = multiprocessing.get_context("fork")
        # The child holds the *only* write end of the result pipe, so a
        # child death is an immediate EOF in the parent even while
        # sibling workers (forked later, inheriting parent fds) are
        # alive.
        cmd_recv, self._cmd_send = ctx.Pipe(duplex=False)
        self._res_recv, res_send = ctx.Pipe(duplex=False)
        self.proc = ctx.Process(
            target=_serve, args=(cmd_recv, res_send, core_args)
        )
        self.proc.start()
        cmd_recv.close()
        res_send.close()
        self._last = None

    def send(self, name: str, args: tuple) -> None:
        self._last = name
        self._cmd_send.send((name, *args))

    def recv(self, timeout: float | None) -> tuple:
        if timeout is not None and not self._res_recv.poll(timeout):
            raise WorkerHung(f"worker hung: no result within {timeout}s")
        try:
            reply = self._res_recv.recv()
        except EOFError:
            raise ShardError(
                "worker process died without a result "
                f"(exitcode={self.proc.exitcode})"
            ) from None
        if self._last in _FINAL:
            self.proc.join()
        return reply

    def close(self, abandon: bool) -> None:
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join()
        self._cmd_send.close()
        self._res_recv.close()


class Worker:
    """One shard core behind the ``backend`` transport.

    ``core_args`` are :class:`ShardCore`'s constructor arguments; the
    process transport builds the core in its child, so :attr:`core` is
    ``None`` there.
    """

    def __init__(self, backend: str, *core_args) -> None:
        if backend == "process":
            self._transport = _Forked(core_args)
        else:
            transport = _Threaded if backend == "thread" else _Inline
            self._transport = transport(ShardCore(*core_args))

    @property
    def core(self) -> ShardCore | None:
        return self._transport.core

    def start(self, name: str, *args) -> None:
        """Issue a command without waiting (one outstanding at a time)."""
        self._transport.send(name, args)

    def join(self, timeout: float | None = None):
        """The outstanding command's result; raises
        :class:`~repro.errors.ShardError` if the command failed or the
        worker died, :class:`WorkerHung` past ``timeout``."""
        reply = self._transport.recv(timeout)
        if reply[0] == "error":
            _tag, message, worker_tb = reply
            raise ShardError(message, worker_traceback=worker_tb)
        return reply[1]

    def call(self, name: str, *args):
        self.start(name, *args)
        return self.join()

    def close(self, abandon: bool = False) -> None:
        self._transport.close(abandon)


# ---------------------------------------------------------------------------
# Loop
# ---------------------------------------------------------------------------


def run_lockstep(
    workers: list[Worker],
    epochs: Sequence[Epoch],
    timeout: float | None = None,
    fault_for: Callable[[int, int], object] | None = None,
    on_failure: Callable[[int, int, ShardError], Worker] | None = None,
    after_epoch: Callable[[int, list, list], None] | None = None,
) -> list[ShardRun]:
    """Drive ``workers`` (one per shard) through ``epochs`` in lockstep.

    Per epoch: start every shard, join every shard, exchange feedback,
    call ``after_epoch(index, produced, exchanged)`` — ``produced`` is
    the per-shard output of this epoch, ``exchanged`` the broadcast
    feedback union.  ``fault_for(shard, epoch)`` may attach a chaos
    directive to an epoch's command.  When a join fails,
    ``on_failure(shard, epoch, error)`` must return a replacement worker
    positioned at the start of the epoch (``workers`` is updated in
    place, so hooks always see the live set) and the epoch is retried;
    without the hook the error propagates.  Closing workers is the
    caller's job.
    """
    n = len(workers)

    def start(shard: int, e: int) -> None:
        epoch = epochs[e]
        fault = fault_for(shard, e) if fault_for is not None else None
        workers[shard].start(
            "run_epoch", epoch.batches[shard], epoch.punct, fault
        )

    rounds: list[list[tuple]] = []
    for e in range(len(epochs)):
        for shard in range(n):
            start(shard, e)
        results: list[tuple] = []
        for shard in range(n):
            while True:
                try:
                    results.append(workers[shard].join(timeout))
                    break
                except ShardError as exc:
                    if on_failure is None:
                        raise
                    workers[shard] = on_failure(shard, e, exc)
                    start(shard, e)
        rounds.append(results)
        # Every worker is quiescent: exchange feedback.  Any advice a
        # shard's operators emitted this epoch is broadcast to all
        # shards — a hot key is hot wherever the partitioner routed it.
        # apply_feedback is idempotent, so the originating shard
        # re-installing its own advice is a no-op.
        exchanged: list = []
        for worker in workers:
            exchanged.extend(worker.call("take_feedback"))
        if exchanged:
            for worker in workers:
                worker.call("apply_feedback", exchanged)
        if after_epoch is not None:
            produced = [rows for rows, _progress in results]
            after_epoch(e, produced, exchanged)
    runs: list[ShardRun] = []
    for shard, worker in enumerate(workers):
        flush, metrics = worker.call("finish")
        runs.append(
            ShardRun(
                [results[shard][0] for results in rounds],
                flush,
                [results[shard][1] for results in rounds],
                metrics,
            )
        )
    return runs
