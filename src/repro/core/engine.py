"""Push-mode execution engine.

The push engine evaluates a :class:`~repro.core.graph.Plan` exactly:
every arriving element is propagated through the DAG to completion, in
global timestamp order across all inputs, and operators are flushed at
end of stream.  This is the mode used to obtain *correct answers* —
queries, joins, aggregates — while :mod:`repro.core.simulation` is used
when resource limits and timing are the object of study.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.columnar.batch import BACKENDS, ColumnBatch
from repro.core.graph import Plan
from repro.core.metrics import MetricsRegistry
from repro.core.stream import Source, merge_sources
from repro.core.tuples import (
    FeedbackPunctuation,
    Punctuation,
    Record,
    Resume,
    WidenSlide,
)
from repro.errors import PlanError
from repro.feedback.channel import FeedbackChannel
from repro.feedback.table import AdviceTable
from repro.observe.observer import ObserveConfig, Observer

__all__ = [
    "RunResult",
    "Engine",
    "EngineCheckpoint",
    "run_plan",
    "resolve_sources",
    "feed_interleaved",
]

Element = Record | Punctuation


@dataclass
class RunResult:
    """Outputs and metrics of one engine run."""

    outputs: dict[str, list[Element]]
    metrics: MetricsRegistry
    #: Records dropped at ingress by an overload guard (0 without one).
    dropped: int = 0

    def records(self, output: str = "out") -> list[Record]:
        """Data tuples (punctuations filtered out) of one output."""
        return [el for el in self.outputs[output] if isinstance(el, Record)]

    def values(self, output: str = "out") -> list[dict]:
        """Attribute dicts of one output's records."""
        return [r.values for r in self.records(output)]

    def punctuations(self, output: str = "out") -> list[Punctuation]:
        return [
            el for el in self.outputs[output] if isinstance(el, Punctuation)
        ]


@dataclass
class EngineCheckpoint:
    """Consistent engine state captured at an epoch boundary.

    A checkpoint pairs every operator's :meth:`~repro.operators.base.
    Operator.snapshot` (in topological order) with the per-output
    positions and punctuation watermarks at capture time.  Restoring it
    rewinds the engine — operator state *and* already-emitted output —
    to exactly that point, so re-feeding the same elements reproduces
    the same results (the replay discipline the
    :class:`repro.resilience.Supervisor` relies on).
    """

    operator_names: list[str]
    operator_states: list[object]
    output_lengths: dict[str, int]
    #: per-output ``ts`` of the last punctuation emitted before the
    #: checkpoint (``None`` when the output has seen no punctuation).
    watermarks: dict[str, float | None]
    #: ingress feedback state (engine advice table + guard feedback
    #: snapshot); ``None`` for checkpoints taken before M9 or when no
    #: feedback was active — recovery must not un-shed (see
    #: :mod:`repro.feedback`).
    feedback: object | None = None


class Engine:
    """Exact, in-order, push-based plan executor.

    Two usage styles:

    * batch — :meth:`run` over finite sources;
    * incremental — :meth:`start`, repeated :meth:`feed`, then
      :meth:`finish`; this is how a standing query inside a DSMS facade
      consumes an open-ended stream.

    ``batch_size`` selects the execution path.  ``None`` (the default)
    is tuple-at-a-time: every element takes one full trip through the
    DAG.  An integer ``k >= 1`` enables micro-batching: the engine
    drains sources in timestamp-ordered chunks of up to ``k``
    consecutive same-input elements and dispatches each chunk with a
    single :meth:`~repro.operators.base.Operator.process_batch` call
    per operator, amortizing dispatch overhead.  A punctuation always
    closes the current chunk, so state flushes triggered by
    punctuations happen at exactly the same stream positions as in
    tuple-at-a-time mode; outputs are element-for-element identical
    for every batch size.  The string ``"auto"`` selects
    :data:`DEFAULT_BATCH_SIZE`.
    """

    #: Batch size selected by ``batch_size="auto"``.  Chosen from the M2
    #: scaling table (``BENCH_m1_m2.json``): throughput rises steeply up
    #: to ~256 and then flattens (CDR: 1.197M -> 1.213M t/s at 4096) or
    #: regresses (netflow: 312k t/s at 256 vs 212k at 4096 — huge chunks
    #: mostly buy larger intermediate element lists, worse locality, and
    #: bigger open-state tables between punctuation-driven flushes, not
    #: further dispatch savings).  256 is the knee on both workloads.
    DEFAULT_BATCH_SIZE = 256

    def __init__(
        self,
        plan: Plan,
        batch_size: int | str | None = None,
        guard=None,
        observe=None,
        representation: str = "tuple",
        column_backend: str | None = None,
        recorder=None,
    ) -> None:
        plan.validate()
        if batch_size == "auto":
            batch_size = self.DEFAULT_BATCH_SIZE
        if batch_size is not None:
            if not isinstance(batch_size, int):
                raise PlanError(
                    f"batch_size must be an int, None, or 'auto'; "
                    f"got {batch_size!r}"
                )
            if batch_size < 1:
                raise PlanError(f"batch_size must be >= 1; got {batch_size}")
        # There is one column storage; the keyword only names it.
        if column_backend is not None and column_backend not in BACKENDS:
            raise PlanError(
                f"column_backend must be one of {BACKENDS} or None; "
                f"got {column_backend!r}"
            )
        self.plan = plan
        self.batch_size = batch_size
        self._columnar = False
        #: Batch representation on the micro-batched path: ``"tuple"``
        #: dispatches record lists through ``process_batch``;
        #: ``"columnar"`` converts record runs to
        #: :class:`~repro.columnar.ColumnBatch` and routes
        #: columnar-capable operators through ``process_columns``
        #: (tuple-only operators transparently get rows back).
        self.representation = representation
        #: Optional ingress admission control (duck-typed to
        #: :class:`repro.resilience.OverloadGuard`): consulted for every
        #: arriving element; elements it refuses are counted as shed
        #: load instead of entering the plan.
        self.guard = guard
        #: Wall-clock observation: ``None`` (off), ``True``, an ``int``
        #: sampling stride, or an :class:`~repro.observe.ObserveConfig`.
        #: When set, operator dispatches are ``perf_counter``-timed
        #: (1-in-N sampled) into ``wall_time``/latency histograms, and
        #: queue-depth / watermark gauges are sampled at batch
        #: boundaries — see :mod:`repro.observe`.
        self.observe_config = ObserveConfig.coerce(observe)
        self._observer: Observer | None = None
        self.metrics = MetricsRegistry()
        self._outputs: dict[str, list[Element]] | None = None
        #: Backward control channel (see :mod:`repro.feedback`): built at
        #: :meth:`start`, drained between forward dispatches.
        self._feedback: FeedbackChannel | None = None
        #: Ingress advice for guardless engines (with a guard, advice
        #: installs into the guard instead).
        self._advice: AdviceTable | None = None
        self._ingress_dropped = 0
        self._ops_by_name: dict[str, object] = {}
        self._preds: dict[int, list] = {}
        #: Optional :class:`repro.replay.Recorder` (duck-typed).  When
        #: set, the engine journals raw ingress (pre-guard, pre-advice),
        #: closes a journal epoch after each punctuation is fully
        #: processed, and reports ingress feedback — the record side of
        #: the time machine (see :mod:`repro.replay`).
        self.recorder = recorder

    @property
    def representation(self) -> str:
        return "columnar" if self._columnar else "tuple"

    @representation.setter
    def representation(self, value: str) -> None:
        if value not in ("tuple", "columnar"):
            raise PlanError(
                f"representation must be 'tuple' or 'columnar'; got {value!r}"
            )
        if value == "columnar" and self.batch_size is None:
            raise PlanError(
                "columnar execution requires micro-batching; "
                "set batch_size (e.g. 'auto')"
            )
        self._columnar = value == "columnar"

    def run(self, sources: Sequence[Source] | Mapping[str, Source]) -> RunResult:
        """Execute the plan over ``sources`` and return all outputs.

        ``sources`` must cover exactly the plan's declared inputs.  The
        engine interleaves multi-source input by ``(ts, seq)`` so runs
        are deterministic.
        """
        by_name = self._resolve_sources(sources)
        self.start()
        assert self._outputs is not None
        if (
            self._columnar
            and self.guard is None
            and self.recorder is None
            and len(by_name) == 1
        ):
            only = next(iter(by_name.values()))
            elements = getattr(only, "_elements", None)
            punct_positions = getattr(only, "_punct_positions", None)
            if elements is not None and punct_positions is not None:
                self._run_sliced(
                    only.name, elements, punct_positions, self._outputs
                )
                return self.finish()
        if len(by_name) == 1:
            # A single source is already in order; skip the merge heap.
            only = next(iter(by_name.values()))
            merged = ((only.name, el) for el in only.events())
        else:
            merged = merge_sources(*by_name.values())
        if self.recorder is not None:
            # Journal *before* the guard so the log holds the traffic as
            # offered; replay re-sheds through restored guard/advice
            # state instead of replaying the shedding's outcome.
            merged = self._recorded(merged)
        if self.guard is not None:
            merged = self._guarded(merged)
        if self.batch_size is None:
            channel = self._feedback
            inputs = self.plan.inputs
            for input_name, element in merged:
                if self._advice is not None and not self._admit_ingress(
                    element
                ):
                    continue
                for consumer, port in inputs[input_name]:
                    self._dispatch(consumer, element, port, self._outputs)
                if channel is not None and channel.pending:
                    self._process_feedback()
        else:
            self._run_batched(merged, self._outputs)
        return self.finish()

    def _run_batched(self, merged, outputs: dict[str, list[Element]]) -> None:
        """Drain ``merged`` in chunks of consecutive same-input elements."""
        batch_size = self.batch_size
        assert batch_size is not None
        pending: list[Element] = []
        pending_input: str | None = None
        for input_name, element in merged:
            if pending and (
                input_name != pending_input or len(pending) >= batch_size
            ):
                self._close_chunk(pending_input, pending, outputs)
                pending = []
            pending_input = input_name
            pending.append(element)
            if isinstance(element, Punctuation):
                # Close the chunk at the punctuation so downstream
                # flushes keep their tuple-at-a-time positions.
                self._close_chunk(pending_input, pending, outputs)
                pending = []
        if pending:
            self._close_chunk(pending_input, pending, outputs)

    def _close_chunk(
        self,
        input_name: str,
        elements: Sequence[Element],
        outputs: dict[str, list[Element]],
    ) -> None:
        """Shed, dispatch, observe and drain feedback for one ingress
        chunk (already past any guard)."""
        chunk = self._shed_chunk(elements)
        for consumer, port in self.plan.inputs[input_name]:
            self._dispatch_batch(consumer, chunk, port, outputs)
        if self._observer is not None and chunk:
            self._observe_chunk(chunk[-1])
        if self._feedback is not None and self._feedback.pending:
            self._process_feedback()

    def _run_sliced(
        self,
        input_name: str,
        elements: Sequence[Element],
        punct_positions: Sequence[int],
        outputs: dict[str, list[Element]],
    ) -> None:
        """Columnar ingress over a pre-materialized source list.

        Chunk boundaries are identical to :meth:`_run_batched` —
        ``batch_size`` records or a punctuation, whichever comes first —
        but chunks are cut by *slicing* instead of a per-element append
        loop, and each chunk is known by construction to be all records
        except possibly a trailing punctuation, so capable consumers get
        their :class:`ColumnBatch` without re-scanning the chunk.
        """
        batch_size = self.batch_size
        assert batch_size is not None
        consumers = self.plan.inputs[input_name]
        observing = self._observer is not None
        n = len(elements)
        puncts = iter(punct_positions)
        next_p = next(puncts, n)
        start = 0
        while start < n:
            end = start + batch_size
            punct_last = False
            if next_p < end:
                end = next_p + 1
                punct_last = True
                next_p = next(puncts, n)
            chunk = self._shed_chunk(elements[start:end])
            start = end
            if not chunk:
                continue
            for consumer, port in consumers:
                if consumer.supports_columns():
                    run = chunk[:-1] if punct_last else chunk
                    if run:
                        self._dispatch_batch(
                            consumer, ColumnBatch.from_rows(run), port, outputs
                        )
                    if punct_last:
                        self._dispatch(consumer, chunk[-1], port, outputs)
                else:
                    self._dispatch_batch(consumer, chunk, port, outputs)
            if observing:
                self._observe_chunk(chunk[-1])
            if self._feedback is not None and self._feedback.pending:
                self._process_feedback()

    def _observe_chunk(self, last_element: Element) -> None:
        """Batch-boundary observation: stream-progress gauges plus, when
        an overload guard is attached, its ingress queue depths."""
        obs = self._observer
        obs.on_chunk(last_element)
        if self.guard is not None:
            queues = getattr(self.guard, "ingress_queues", None)
            if queues is not None:
                obs.sample_queues(queues())

    def _guarded(self, merged):
        """Filter a merged element stream through the overload guard."""
        guard = self.guard
        for input_name, element in merged:
            if guard.admit(input_name, element):
                yield input_name, element

    def _recorded(self, merged):
        """Journal a merged element stream as it is consumed.

        The boundary hook fires when the *next* element is pulled —
        i.e. after the loop body has fully dispatched the punctuation
        and drained feedback — so the journal's epoch boundaries see a
        quiescent engine (generators resume on the following ``next()``
        call, which is exactly that moment)."""
        rec = self.recorder
        for input_name, element in merged:
            rec.on_element(self, input_name, element)
            yield input_name, element
            if isinstance(element, Punctuation):
                rec.on_boundary(self)

    # -- incremental interface ------------------------------------------------

    def start(self) -> None:
        """Reset state and begin accepting :meth:`feed` calls.

        Metrics are reset along with operator state: each run reports
        its own counters, so back-to-back :meth:`run` calls on one
        engine instance do not double-count.
        """
        self.plan.reset()
        self.metrics = MetricsRegistry()
        for op in self.plan.topological_order():
            self.metrics.operator_kinds[op.name] = getattr(
                op, "kind", type(op).__name__.lower()
            )
        if self.observe_config is not None:
            self._observer = Observer(self.observe_config, self.metrics)
            self._observer.start_run()
        else:
            self._observer = None
        self._outputs = {name: [] for name in self.plan.outputs}
        self._feedback = FeedbackChannel()
        self._advice = None
        self._ingress_dropped = 0
        self._bind_feedback()
        if self.guard is not None:
            self.guard.attach(self.plan)
            bind = getattr(self.guard, "bind_observer", None)
            if bind is not None:
                bind(self._observer)
            bind_channel = getattr(self.guard, "bind_channel", None)
            if bind_channel is not None:
                bind_channel(self._feedback)
        if self.recorder is not None:
            self.recorder.on_start(self)

    # -- backward control channel ------------------------------------------

    def _bind_feedback(self) -> None:
        """Attach the channel to every operator and cache the reverse
        adjacency the upstream walk follows."""
        self._ops_by_name = {}
        self._preds = {}
        for op in self.plan.topological_order():
            op.bind_feedback(self._feedback)
            self._ops_by_name[op.name] = op
            self._preds[id(op)] = self.plan.predecessors(op)

    def _process_feedback(self) -> None:
        """Drain the channel, walking each emission upstream."""
        channel = self._feedback
        assert channel is not None
        while channel.pending:
            for fb in channel.drain():
                origin = self._ops_by_name.get(fb.origin)
                if origin is None:
                    # Emitted from outside the plan (or by a renamed
                    # operator): deliver straight to every ingress.
                    for input_name in self.plan.inputs:
                        self._deliver_ingress(input_name, fb)
                    continue
                self._propagate_feedback(origin, fb)

    def _propagate_feedback(self, operator, fb: FeedbackPunctuation) -> None:
        stack = [(operator, fb)]
        while stack:
            op, item = stack.pop()
            for producer, _port in self._preds.get(id(op), ()):
                if isinstance(producer, str):
                    self._deliver_ingress(producer, item)
                else:
                    # The producer acts (returns []), translates, or
                    # forwards; whatever survives keeps climbing.
                    for passed in producer.on_feedback(item):
                        stack.append((producer, passed))

    def _deliver_ingress(self, input_name: str, fb: FeedbackPunctuation) -> None:
        """Advice reached a plan input: install it at the ingress."""
        apply_fb = getattr(self.guard, "apply_feedback", None)
        if apply_fb is not None:
            apply_fb(input_name, fb)
        else:
            if self._advice is None:
                self._advice = AdviceTable()
            self._advice.apply(fb)
            self._forward_window_advice(fb)
        assert self._feedback is not None
        self._feedback.record_ingress(input_name, fb)
        if self.recorder is not None:
            self.recorder.on_feedback(input_name, fb)

    def _forward_window_advice(self, fb: FeedbackPunctuation) -> None:
        """Re-deliver window-addressed verbs to the plan's operators.

        ``WIDEN_SLIDE`` acts at a windowed aggregate, never at ingress
        (the advice table has nothing to install for it), and a
        ``RESUME`` must re-tighten any slide a prior ``WIDEN_SLIDE``
        coarsened — advice broadcast from a sharding coordinator or
        replayed from a supervisor's feedback log otherwise leaves the
        aggregate coarse forever.  Acting is idempotent, so double
        delivery is harmless; returns are ignored (delivery, not
        propagation).
        """
        if not isinstance(fb.advice, (WidenSlide, Resume)):
            return
        for op in self.plan.operators:
            op.on_feedback(fb)

    def apply_feedback(
        self, items: Iterable[tuple[str, FeedbackPunctuation]]
    ) -> None:
        """Install ingress feedback pushed from outside (the sharding
        coordinator's cross-shard broadcast).

        Unlike locally-propagated feedback this is *not* recorded in the
        channel's ingress log — re-broadcasting what a coordinator just
        broadcast would loop.  Installation is idempotent, so the shard
        that originated the advice re-applies harmlessly.
        """
        for input_name, fb in items:
            apply_fb = getattr(self.guard, "apply_feedback", None)
            if apply_fb is not None:
                # The guard forwards window-addressed verbs itself.
                apply_fb(input_name, fb)
            else:
                if self._advice is None:
                    self._advice = AdviceTable()
                self._advice.apply(fb)
                self._forward_window_advice(fb)

    def take_ingress_feedback(self) -> list[tuple[str, FeedbackPunctuation]]:
        """Drain feedback that reached this engine's ingresses (picklable)."""
        if self._feedback is None:
            return []
        return self._feedback.take_ingress()

    def _admit_ingress(self, element: Element) -> bool:
        """Guardless ingress advice filter (guarded engines shed inside
        the guard instead)."""
        advice = self._advice
        if advice is None or not isinstance(element, Record):
            return True
        if advice.admit(element):
            return True
        self._ingress_dropped += 1
        return False

    def _shed_chunk(self, elements: Sequence[Element]) -> Sequence[Element]:
        advice = self._advice
        if advice is None or not len(advice):
            return elements
        admit = self._admit_ingress
        return [
            el
            for el in elements
            if not isinstance(el, Record) or admit(el)
        ]

    def feed(self, input_name: str, element: Element) -> list[Element]:
        """Push one element into ``input_name``; return new 'out' output.

        Returns the elements newly appended to the plan's first output,
        which is what interactive callers usually want; all outputs
        remain available via :meth:`finish`.
        """
        if self._outputs is None:
            raise PlanError("Engine.feed() called before start()")
        if input_name not in self.plan.inputs:
            raise PlanError(f"unknown input {input_name!r}")
        primary = next(iter(self.plan.outputs), None)
        before = len(self._outputs[primary]) if primary else 0
        rec = self.recorder
        if rec is not None:
            rec.on_element(self, input_name, element)
        if (
            self.guard is None or self.guard.admit(input_name, element)
        ) and self._admit_ingress(element):
            for consumer, port in self.plan.inputs[input_name]:
                self._dispatch(consumer, element, port, self._outputs)
        if self._feedback is not None and self._feedback.pending:
            self._process_feedback()
        if rec is not None and isinstance(element, Punctuation):
            rec.on_boundary(self)
        if primary is None:
            return []
        return self._outputs[primary][before:]

    def feed_batch(
        self, input_name: str, elements: Sequence[Element]
    ) -> list[Element]:
        """Push a micro-batch into ``input_name``; return new 'out' output.

        The batched analogue of :meth:`feed` for standing queries whose
        driver already has elements in hand (e.g. a network read that
        returned several tuples).
        """
        if self._outputs is None:
            raise PlanError("Engine.feed_batch() called before start()")
        if input_name not in self.plan.inputs:
            raise PlanError(f"unknown input {input_name!r}")
        primary = next(iter(self.plan.outputs), None)
        before = len(self._outputs[primary]) if primary else 0
        elements = list(elements)
        rec = self.recorder
        if rec is None:
            self._feed_chunk(input_name, elements)
        else:
            # Journal epoch boundaries at their exact stream positions:
            # dispatch punctuation-terminated sub-chunks so the boundary
            # hook sees the outputs as they stood at each punctuation.
            start = 0
            for i, el in enumerate(elements):
                if isinstance(el, Punctuation):
                    chunk = elements[start: i + 1]
                    for item in chunk:
                        rec.on_element(self, input_name, item)
                    self._feed_chunk(input_name, chunk)
                    rec.on_boundary(self)
                    start = i + 1
            if start < len(elements):
                chunk = elements[start:]
                for item in chunk:
                    rec.on_element(self, input_name, item)
                self._feed_chunk(input_name, chunk)
        if primary is None:
            return []
        return self._outputs[primary][before:]

    def _feed_chunk(
        self, input_name: str, elements: Sequence[Element]
    ) -> None:
        """Admit one ingress chunk through the guard, then close it."""
        if self.guard is not None:
            elements = [
                el for el in elements if self.guard.admit(input_name, el)
            ]
        self._close_chunk(input_name, elements, self._outputs)

    def peek_output(self, name: str) -> list[Element]:
        """The elements accumulated so far on output ``name``.

        Valid between :meth:`start` and :meth:`finish`.  Returns the
        live list — callers must treat it as read-only.  The standing-
        query service uses this to drain per-query outputs and to
        preserve a query's results across a deregistering migration.
        """
        if self._outputs is None:
            raise PlanError("Engine.peek_output() called before start()")
        if name not in self._outputs:
            raise PlanError(f"unknown output {name!r}")
        return self._outputs[name]

    def peek_outputs(self) -> dict[str, list[Element]]:
        """All outputs accumulated so far (live dict — read-only)."""
        if self._outputs is None:
            raise PlanError("Engine.peek_outputs() called before start()")
        return self._outputs

    def finish(self) -> RunResult:
        """Flush all operators and return the accumulated result."""
        if self._outputs is None:
            raise PlanError("Engine.finish() called before start()")
        if self.recorder is not None:
            # Close the trailing partial epoch and capture the pre-flush
            # end state the time machine certifies full replays against.
            self.recorder.on_finish(self)
        outputs = self._outputs
        self._flush_all(outputs)
        self._outputs = None
        dropped = self._ingress_dropped
        if self.guard is not None:
            dropped += self.guard.dropped()
            self.guard.publish(self.metrics)
        if self._feedback is not None:
            if self._feedback.emitted:
                self.metrics.incr("feedback.emitted", self._feedback.emitted)
                self.metrics.incr(
                    "feedback.delivered", self._feedback.delivered
                )
            if self._ingress_dropped:
                self.metrics.incr(
                    "feedback.ingress_dropped", self._ingress_dropped
                )
        if self._observer is not None:
            self._observer.finish_run()
            self._observer = None
        return RunResult(
            outputs=outputs, metrics=self.metrics, dropped=dropped
        )

    # -- live plan migration -----------------------------------------------

    def migrate_plan(
        self, new_plan: Plan, allow_io_changes: bool = False
    ) -> None:
        """Swap the running engine onto ``new_plan`` without losing state.

        The adaptive layer (:mod:`repro.adaptive`) calls this at a
        punctuation boundary — never mid-:meth:`feed` — to apply a plan
        revision (a re-ordered filter chain, a
        ``FixedFilterChain``/``Eddy`` swap) to a standing query.  The
        migration reuses the PR 3 snapshot protocol: every old operator
        is snapshotted by name, and every new-plan operator with a
        matching name is ``reset()`` then ``restore()``-d from that
        snapshot, so stateful operators (aggregates, windows) carry
        their open groups across the swap and no tuple is lost or
        duplicated.  New-plan operators without a predecessor start
        fresh; old operators absent from the new plan are dropped.

        By default the new plan must keep the same input and output
        names.  ``allow_io_changes=True`` lifts that restriction for
        multi-query DAGs whose input/output sets change as standing
        queries register and deregister: surviving outputs keep their
        accumulated elements, new outputs start empty, and removed
        outputs are discarded (capture them with :meth:`peek_output`
        first if they must survive).  Because name-keyed state transfer
        is only safe when names are unambiguous, the relaxed path also
        requires unique operator names on both sides.

        Accumulated outputs, metrics, the observer, and the overload
        guard all survive — metrics stay keyed by operator name, so a
        migrated operator keeps accruing into the same counters.
        """
        if self._outputs is None:
            raise PlanError("Engine.migrate_plan() called before start()")
        new_plan.validate()
        if not allow_io_changes:
            if set(new_plan.inputs) != set(self.plan.inputs):
                raise PlanError(
                    f"migration cannot change plan inputs: "
                    f"{sorted(self.plan.inputs)} -> {sorted(new_plan.inputs)}"
                )
            if set(new_plan.outputs) != set(self.plan.outputs):
                raise PlanError(
                    f"migration cannot change plan outputs: "
                    f"{sorted(self.plan.outputs)} -> "
                    f"{sorted(new_plan.outputs)}"
                )
        else:
            self.plan.ensure_unique_names()
            new_plan.ensure_unique_names()
        states = {
            op.name: op.snapshot() for op in self.plan.topological_order()
        }
        for op in new_plan.topological_order():
            op.reset()
            if op.name in states:
                op.restore(states[op.name])
            self.metrics.operator_kinds[op.name] = getattr(
                op, "kind", type(op).__name__.lower()
            )
        self.plan = new_plan
        if allow_io_changes:
            old_outputs = self._outputs
            self._outputs = {
                name: old_outputs.get(name, [])
                for name in new_plan.outputs
            }
        if self.guard is not None:
            rebind = getattr(self.guard, "rebind", None)
            if rebind is not None:
                rebind(new_plan)
        if self._feedback is not None:
            self._bind_feedback()

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self) -> EngineCheckpoint:
        """Capture a consistent snapshot of the running engine.

        Must be called between :meth:`start` and :meth:`finish`, at an
        epoch boundary (i.e. not mid-:meth:`feed`).  The snapshot is
        detached: later processing does not mutate it, and one
        checkpoint can seed multiple :meth:`restore_checkpoint` calls.
        """
        if self._outputs is None:
            raise PlanError("Engine.checkpoint() called before start()")
        names: list[str] = []
        states: list[object] = []
        for op in self.plan.topological_order():
            names.append(op.name)
            states.append(op.snapshot())
        watermarks: dict[str, float | None] = {}
        for out_name, elements in self._outputs.items():
            mark: float | None = None
            for el in reversed(elements):
                if isinstance(el, Punctuation):
                    mark = el.ts
                    break
            watermarks[out_name] = mark
        advice_state = (
            self._advice.snapshot() if self._advice is not None else None
        )
        guard_fb = getattr(self.guard, "feedback_snapshot", None)
        guard_state = guard_fb() if guard_fb is not None else None
        feedback = (
            {"advice": advice_state, "guard": guard_state}
            if advice_state is not None or guard_state is not None
            else None
        )
        return EngineCheckpoint(
            operator_names=names,
            operator_states=states,
            output_lengths={
                name: len(els) for name, els in self._outputs.items()
            },
            watermarks=watermarks,
            feedback=feedback,
        )

    def restore_checkpoint(self, cp: EngineCheckpoint) -> None:
        """Rewind the engine to a previously captured checkpoint.

        Operator state is restored in topological order and each
        output is truncated to its checkpointed length, so re-feeding
        the elements that originally followed the checkpoint replays
        byte-identical results.
        """
        if self._outputs is None:
            raise PlanError(
                "Engine.restore_checkpoint() called before start()"
            )
        ops = list(self.plan.topological_order())
        names = [op.name for op in ops]
        if names != cp.operator_names:
            raise PlanError(
                f"checkpoint does not match plan: expected operators "
                f"{cp.operator_names}, plan has {names}"
            )
        for op, state in zip(ops, cp.operator_states):
            op.reset()
            op.restore(state)
        for out_name, length in cp.output_lengths.items():
            if out_name not in self._outputs:
                raise PlanError(
                    f"checkpoint references unknown output {out_name!r}"
                )
            del self._outputs[out_name][length:]
        feedback = getattr(cp, "feedback", None)
        advice_state = feedback.get("advice") if feedback else None
        if advice_state is not None:
            if self._advice is None:
                self._advice = AdviceTable()
            self._advice.restore(advice_state)
        elif self._advice is not None:
            self._advice.reset()
        guard_restore = getattr(self.guard, "feedback_restore", None)
        if guard_restore is not None:
            guard_restore(feedback.get("guard") if feedback else None)
        # Per-epoch observation (queue-depth / watermark gauges and the
        # observer's stream-progress markers) describes positions that
        # were just rolled back; left alone, a replayed trace would keep
        # sampling the pre-restore watermark into the gauges.  Reset so
        # replay produces exactly the samples of a fresh run from here.
        if self._observer is not None:
            self._observer.rewind()
        else:
            self.metrics.gauges.clear()

    # -- internals --------------------------------------------------------

    def _resolve_sources(
        self, sources: Sequence[Source] | Mapping[str, Source]
    ) -> dict[str, Source]:
        return resolve_sources(self.plan, sources)

    def _dispatch(
        self,
        operator,
        element: Element,
        port: int,
        outputs: dict[str, list[Element]],
    ) -> None:
        m = self.metrics.for_operator(operator.name)
        if isinstance(element, Record):
            m.records_in += 1
        else:
            m.punctuations_in += 1
        m.invocations += 1
        m.busy_time += operator.cost_per_tuple
        obs = self._observer
        if obs is None:
            produced = operator.process(element, port)
        else:
            # Inline per-operator sampling: untimed path = one decrement.
            m.sample_tick -= 1
            if m.sample_tick <= 0:
                produced = obs.timed_process(operator, element, port, m)
            else:
                produced = operator.process(element, port)
        for out in produced:
            if isinstance(out, Record):
                m.records_out += 1
            else:
                m.punctuations_out += 1
        self._propagate(operator, produced, outputs)

    def _dispatch_batch(
        self,
        operator,
        batch: Sequence[Element] | ColumnBatch,
        port: int,
        outputs: dict[str, list[Element]],
    ) -> None:
        """Dispatch one batch — a row list or a :class:`ColumnBatch` —
        to ``operator`` and propagate what it produces."""
        if not batch:
            return
        columns = isinstance(batch, ColumnBatch)
        if not columns and self._columnar and operator.supports_columns():
            # Columnar tier: convert maximal record runs to column
            # batches; punctuations dispatch individually in between,
            # preserving exact stream positions.
            run: list[Element] = []
            for el in batch:
                if isinstance(el, Punctuation):
                    if run:
                        self._dispatch_batch(
                            operator, ColumnBatch.from_rows(run), port, outputs
                        )
                        run = []
                    self._dispatch(operator, el, port, outputs)
                else:
                    run.append(el)
            if run:
                self._dispatch_batch(
                    operator, ColumnBatch.from_rows(run), port, outputs
                )
            return
        m = self.metrics.for_operator(operator.name)
        n_punct = 0
        if columns:
            process = operator.process_columns
        else:
            process = operator.process_batch
            for el in batch:
                if isinstance(el, Punctuation):
                    n_punct += 1
        m.records_in += len(batch) - n_punct
        m.punctuations_in += n_punct
        m.invocations += 1
        m.batches_in += 1
        m.busy_time += operator.cost_per_tuple * len(batch)
        obs = self._observer
        if obs is None:
            produced = process(batch, port)
        else:
            m.sample_tick -= 1
            if m.sample_tick <= 0:
                produced = obs.timed_batch(process, operator, batch, port, m)
            else:
                produced = process(batch, port)
        if isinstance(produced, ColumnBatch):
            m.records_out += produced.length
        else:
            for out in produced:
                if isinstance(out, Record):
                    m.records_out += 1
                else:
                    m.punctuations_out += 1
        self._propagate_batch(operator, produced, outputs)

    def _propagate(
        self, operator, produced: list[Element], outputs: dict[str, list[Element]]
    ) -> None:
        if not produced:
            return
        sink_names = self.plan.output_names_for(operator)
        for name in sink_names:
            outputs[name].extend(produced)
        for consumer, port in self.plan.successors(operator):
            for out in produced:
                self._dispatch(consumer, out, port, outputs)

    def _propagate_batch(
        self,
        operator,
        produced: list[Element] | ColumnBatch,
        outputs: dict[str, list[Element]],
    ) -> None:
        # Whole-batch propagation preserves tuple-at-a-time output order:
        # each consumer already received every produced element (in
        # order) before the next consumer in the per-element path too.
        # A column batch flows onward in columnar form to capable
        # consumers; rows are rebuilt once at the first boundary that
        # needs them (plan outputs or tuple-only consumers).
        if not produced:
            return
        columns = isinstance(produced, ColumnBatch)
        rows = None if columns else produced
        for name in self.plan.output_names_for(operator):
            if rows is None:
                rows = produced.to_rows()
            outputs[name].extend(rows)
        for consumer, port in self.plan.successors(operator):
            if columns and consumer.supports_columns():
                self._dispatch_batch(consumer, produced, port, outputs)
            else:
                if rows is None:
                    rows = produced.to_rows()
                self._dispatch_batch(consumer, rows, port, outputs)

    def _flush_all(self, outputs: dict[str, list[Element]]) -> None:
        batched = self.batch_size is not None
        for operator in self.plan.topological_order():
            produced = operator.flush()
            if produced:
                m = self.metrics.for_operator(operator.name)
                for out in produced:
                    if isinstance(out, Record):
                        m.records_out += 1
                    else:
                        m.punctuations_out += 1
                if batched:
                    self._propagate_batch(operator, produced, outputs)
                else:
                    self._propagate(operator, produced, outputs)


def resolve_sources(
    plan: Plan, sources: Sequence[Source] | Mapping[str, Source]
) -> dict[str, Source]:
    """Match ``sources`` to ``plan``'s declared inputs, by name."""
    if isinstance(sources, Mapping):
        by_name = dict(sources)
    else:
        by_name = {src.name: src for src in sources}
    missing = set(plan.inputs) - set(by_name)
    if missing:
        raise PlanError(f"no source provided for inputs {sorted(missing)}")
    extra = set(by_name) - set(plan.inputs)
    if extra:
        raise PlanError(f"sources {sorted(extra)} match no plan input")
    return by_name


def feed_interleaved(engine: "Engine", merged, on_boundary=None) -> None:
    """Feed an interleaved ``(input_name, element)`` stream into a
    started ``engine`` with :meth:`Engine.run`'s chunk discipline.

    Chunks are cut exactly as ``Engine._run_batched`` cuts them —
    ``batch_size`` consecutive same-input elements or a punctuation,
    whichever comes first, so flushes keep their tuple-at-a-time
    positions.  ``batch_size`` is read live: ``on_boundary()`` (called
    after each punctuation is fully processed, i.e. *between* chunks) or
    the caller between calls may retune it.
    """
    pending: list[Element] = []
    pending_input: str | None = None
    for input_name, element in merged:
        size = engine.batch_size
        if size is None:
            engine.feed(input_name, element)
        else:
            if pending and (
                input_name != pending_input or len(pending) >= size
            ):
                engine.feed_batch(pending_input, pending)
                pending = []
            pending_input = input_name
            pending.append(element)
            if not isinstance(element, Punctuation):
                continue
            engine.feed_batch(pending_input, pending)
            pending = []
        if on_boundary is not None and isinstance(element, Punctuation):
            on_boundary()
    if pending:
        engine.feed_batch(pending_input, pending)


def run_plan(
    plan: Plan,
    sources: Sequence[Source] | Mapping[str, Source],
    batch_size: int | str | None = None,
    observe=None,
    representation: str = "tuple",
    column_backend: str | None = None,
) -> RunResult:
    """One-shot convenience: build an :class:`Engine` and run it.

    ``batch_size=None`` executes tuple-at-a-time; an integer enables the
    micro-batched path (identical outputs, amortized dispatch);
    ``"auto"`` selects :data:`Engine.DEFAULT_BATCH_SIZE`.  ``observe``
    enables wall-clock measurement (see :mod:`repro.observe`).
    ``representation="columnar"`` (requires a batch size) runs
    columnar-capable operators on struct-of-arrays batches — same
    outputs again, vectorized kernels (see :mod:`repro.columnar`).
    """
    return Engine(
        plan,
        batch_size=batch_size,
        observe=observe,
        representation=representation,
        column_backend=column_backend,
    ).run(sources)
