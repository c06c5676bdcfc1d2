"""Shared-nothing partition-parallel execution.

:class:`ShardedEngine` splits one input stream across N shards, runs an
independent micro-batched :class:`~repro.core.engine.Engine` per shard,
and merges shard outputs into the *exact* element sequence — records and
punctuation positions — a single engine would have produced.

The planner picks one of four strategies (stored in
:attr:`ShardedEngine.strategy`):

``local``
    Every stateful operator's key is colocated under the partition
    (e.g. hash-partitioning by ``origin`` with ``GROUP BY origin``, the
    Gigascope condition "group key ⊇ partition key"), or the chain has
    no cross-record state at all.  Each shard runs the *full* plan and
    the coordinator only re-interleaves outputs deterministically.

``partial``
    The terminal aggregate is decomposable: each shard runs the
    stateless prefix plus a shard-local partial aggregate
    (:class:`~repro.operators.partial_aggregate.GroupPartial` — the
    LFTA role), shipping serialized aggregate states; the coordinator
    merges them with :class:`~repro.parallel.combine.GroupMerger` /
    :class:`~repro.parallel.combine.BucketMerger` (the HFTA role).
    This is the slide-37 two-level split applied across CPU cores
    instead of across the NIC/host boundary.

``exchange``
    The terminal aggregate is *not* decomposable (order-sensitive
    ``first``/``last`` states cannot be merged across shards), but the
    coordinator can re-partition the input by the aggregate's group key
    so each group's records land on one shard in arrival order — then
    runs the full plan per shard as in ``local``.

``single``
    Fallback for plans the planner cannot prove exact under sharding
    (joins, unions, multi-output plans, sliding-window aggregation,
    mid-chain aggregates): one ordinary engine runs the plan.

Epochs and exactness
--------------------

Punctuations are broadcast to every shard and delimit *epochs*: the
coordinator emits, per epoch, the merged shard records followed by
exactly one copy of the punctuation.  Exactness of the merge relies on
sources honouring punctuation semantics (a punctuation's bound covers
everything before it — the watermark discipline the test suites use);
a source that emits records *behind* an already-announced bound is
outside the contract for single engines too.

Workers report per-epoch progress (the terminal operator's watermark or
max timestamp) because some emission decisions depend on *global*
progress no shard observes locally: a tumbling bucket closes when the
global watermark passes its end, and blocking-aggregate flush rows are
stamped with the global max timestamp.

Backends
--------

``backend="thread"`` (default) runs shard workers on a thread pool —
in-process, zero setup cost, but GIL-serialized for pure-Python
operator work.  ``backend="process"`` forks one worker per shard
(``fork`` start method: plans hold lambdas, which survive inheritance
but not pickling) and ships only shard *outputs* back through a pipe —
with the ``partial`` strategy those are a handful of aggregate-state
rows, which is what makes process sharding profitable.
``backend="inline"`` runs shards sequentially for debugging.
"""

from __future__ import annotations

import copy
import multiprocessing
import warnings
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator, Mapping, Sequence

from repro.aggregates.functions import First, Last
from repro.core.engine import RunResult, resolve_sources
from repro.core.graph import Plan
from repro.core.stream import Source
from repro.core.tuples import Punctuation, Record
from repro.errors import PlanError, ShardError
from repro.feedback.probe import BackpressureProbe
from repro.gigascope.decompose import (
    AggregateSplit,
    linearize_plan,
    split_chain_aggregate,
)
from repro.observe.observer import ObserveConfig
from repro.observe.trace import Tracer
from repro.operators.aggregate import Aggregate, AttrGetter, WindowedAggregate
from repro.operators.eddy import Eddy, FixedFilterChain
from repro.operators.map import Extend, MapOp, Rename
from repro.operators.project import DistinctProject, Project
from repro.operators.select import Select
from repro.parallel.combine import (
    BucketMerger,
    DistinctCombiner,
    GroupMerger,
    bucket_sort_key,
    group_sort_key,
    merge_arrival,
    merge_metrics,
)
from repro.parallel.partition import (
    Epoch,
    HashPartition,
    PartitionSpec,
    _ExtractorPartition,
    split_epochs,
)
from repro.parallel.runtime import ExecConfig, ShardRun, Worker
from repro.windows.spec import PunctuationWindow, TumblingWindow

__all__ = ["ShardedEngine", "run_sharded"]

Element = Record | Punctuation

#: Stateless per-record operators: one record in, at most one out, with
#: the output carrying the input's (ts, seq) stamp.  A shard's slice of
#: the chain output through these equals the chain output of its slice.
#: ``FixedFilterChain``/``Eddy`` qualify — their routing statistics are
#: internal work bookkeeping, not cross-record *output* state: whether a
#: record passes depends only on the record itself.
#: ``BackpressureProbe`` is pass-through on the data path (identity on
#: records, stamps untouched); its synopsis is monitoring state, not
#: output state, so it shards like a filter.
_STATELESS_OPS = (
    Select, Project, MapOp, Rename, Extend, FixedFilterChain, Eddy,
    BackpressureProbe,
)

_BACKENDS = ("inline", "thread", "process")


# ---------------------------------------------------------------------------
# Strategy analysis
# ---------------------------------------------------------------------------


@dataclass
class _Strategy:
    """Resolved execution strategy for one (plan, partition) pair."""

    name: str  # "single" | "local" | "partial" | "exchange"
    kind: str = "arrival"  # merge discipline, see _combine()
    reason: str = ""
    chain: list = field(default_factory=list)
    input_name: str | None = None
    output_name: str | None = None
    routing: PartitionSpec | None = None
    split: AggregateSplit | None = None
    group_names: list = field(default_factory=list)
    having: object = None
    window: TumblingWindow | None = None
    bucket_attr: str = "tb"
    ts_attr: str = "ts"
    dedupe_columns: list | None = None


def _order_sensitive(aggregates) -> bool:
    """True when any aggregate state merge depends on arrival order."""
    return any(
        isinstance(spec.new_state(), (First, Last)) for spec in aggregates
    )


def _preserved_after(op, preserved: set) -> set:
    """Attributes of ``preserved`` still carrying the source value under
    the source name after passing through ``op``."""
    if isinstance(op, (Select, FixedFilterChain, Eddy, BackpressureProbe)):
        # Pure filters / pass-throughs: surviving records pass through
        # byte-identical.
        return preserved
    if isinstance(op, Project):
        identity = {
            out
            for out, spec in op.columns.items()
            if isinstance(spec, str) and spec == out
        }
        return preserved & identity
    if isinstance(op, Rename):
        return preserved - set(op.mapping) - set(op.mapping.values())
    if isinstance(op, Extend):
        return preserved - set(op.additions)
    if isinstance(op, DistinctProject):
        return preserved & set(op.columns)
    return set()


def _plain_group_attrs(op) -> set:
    """Grouping columns that are raw attribute lookups (AttrGetter)."""
    return {
        fn.attr for _name, fn in op.group_by if isinstance(fn, AttrGetter)
    }


def _hash_colocated(chain, key_attrs) -> bool:
    """True when hash-partitioning by ``key_attrs`` colocates every
    stateful operator's key: all records agreeing on the operator's key
    necessarily agree on the partition key, so they share a shard."""
    required = set(key_attrs)
    preserved = set(key_attrs)
    for op in chain:
        if isinstance(op, DistinctProject):
            if not required <= (preserved & set(op.columns)):
                return False
        elif isinstance(op, (Aggregate, WindowedAggregate)):
            if not required <= (preserved & _plain_group_attrs(op)):
                return False
        preserved = _preserved_after(op, preserved)
    return True


def _analyze(plan: Plan, partition: PartitionSpec) -> _Strategy:
    chain = linearize_plan(plan)
    if chain is None:
        return _Strategy(
            "single",
            reason="plan is not a single-input linear chain "
            "(join/union/multi-output plans run on one engine)",
        )
    input_name = next(iter(plan.inputs))
    output_name = next(iter(plan.outputs))
    terminal = chain[-1]

    for op in chain:
        if isinstance(op, _STATELESS_OPS) or isinstance(op, DistinctProject):
            continue
        if isinstance(op, (Aggregate, WindowedAggregate)) and op is terminal:
            continue
        return _Strategy(
            "single",
            reason=f"operator {op.name!r} has no exact sharded execution",
        )

    t_kind = None
    if isinstance(terminal, Aggregate):
        t_kind = "blocking"
    elif isinstance(terminal, WindowedAggregate):
        if isinstance(terminal.window, TumblingWindow):
            t_kind = "tumbling"
        elif isinstance(terminal.window, PunctuationWindow):
            # Punctuation-scoped groups close on broadcast punctuations,
            # which reach every shard — blocking-aggregate discipline.
            t_kind = "punctuated"
        else:
            t_kind = "buffered"

    base = dict(chain=chain, input_name=input_name, output_name=output_name)
    if t_kind in ("blocking", "tumbling", "punctuated"):
        base.update(
            group_names=[name for name, _fn in terminal.group_by],
            having=terminal.having,
        )
    if t_kind == "tumbling":
        base.update(
            window=terminal.window,
            bucket_attr=terminal.bucket_attr,
            ts_attr=terminal.ts_attr,
        )

    # 1. local: all cross-record state colocated under the partition.
    if isinstance(partition, HashPartition) and _hash_colocated(
        chain, partition.key_attrs
    ):
        kind = {
            None: "arrival",
            "blocking": "blocking",
            "punctuated": "blocking",
            "tumbling": "tumbling",
        }.get(t_kind)
        if kind is not None:
            return _Strategy(
                "local",
                kind=kind,
                reason=f"state colocated under {partition.describe()}",
                routing=partition,
                **base,
            )

    # ... or no cross-record state at all (any partition works).
    if t_kind is None and not any(
        isinstance(op, DistinctProject) for op in chain
    ):
        return _Strategy(
            "local",
            kind="arrival",
            reason="stateless chain: outputs re-interleave by (ts, seq)",
            routing=partition,
            **base,
        )

    # 2. partial: decomposable terminal aggregate over a stateless prefix.
    if t_kind in ("blocking", "tumbling") and all(
        isinstance(op, _STATELESS_OPS) for op in chain[:-1]
    ):
        split = split_chain_aggregate(chain)
        if split is not None and not _order_sensitive(split.aggregates):
            return _Strategy(
                "partial",
                kind=f"partial_{t_kind}",
                reason="terminal aggregate is mergeable: shard-local "
                "partials + coordinator final merge",
                routing=partition,
                split=split,
                **base,
            )

    # 3. exchange: re-partition by group key so each group is colocated.
    if t_kind in ("blocking", "tumbling", "punctuated") and all(
        isinstance(op, Select) for op in chain[:-1]
    ):
        routing = _ExtractorPartition(
            [fn for _name, fn in terminal.group_by], partition.n_shards
        )
        return _Strategy(
            "exchange",
            kind="tumbling" if t_kind == "tumbling" else "blocking",
            reason="non-mergeable aggregate: repartitioned by group key",
            routing=routing,
            **base,
        )

    # 4. terminal duplicate elimination: global first-seen replay.
    if (
        t_kind is None
        and isinstance(terminal, DistinctProject)
        and terminal.window is None
        and sum(isinstance(op, DistinctProject) for op in chain) == 1
    ):
        return _Strategy(
            "local",
            kind="arrival",
            reason="terminal distinct deduplicated at the coordinator",
            routing=partition,
            dedupe_columns=list(terminal.columns),
            **base,
        )

    return _Strategy(
        "single",
        reason="no exact sharded strategy for this chain/partition pair",
    )


# ---------------------------------------------------------------------------
# The sharded engine
# ---------------------------------------------------------------------------


class ShardedEngine:
    """Partition-parallel plan executor with exact single-engine semantics.

    Parameters
    ----------
    plan:
        The plan to execute, unchanged — shard plans are derived copies.
    partition:
        A :class:`~repro.parallel.partition.PartitionSpec` — how records
        spread across shards.  The planner may override it (the
        ``exchange`` strategy re-partitions by group key), and ignores
        it entirely for the ``single`` fallback.
    batch_size:
        Per-shard engine batch size; ``"auto"`` (default) selects
        :data:`Engine.DEFAULT_BATCH_SIZE`.
    backend:
        ``"thread"`` (default), ``"process"``, or ``"inline"``.
    worker_timeout:
        Seconds to wait for any single shard worker before declaring it
        hung and raising :class:`~repro.errors.ShardError`.  ``None``
        (default) waits forever.  For the process backend a timed-out
        worker is killed; for the thread backend the thread cannot be
        killed, but the engine stops waiting on it.
    observe:
        Wall-clock observation (see :mod:`repro.observe`): ``None``,
        ``True``, an ``int`` sampling stride, or an
        :class:`~repro.observe.ObserveConfig`.  Each shard worker runs
        an observed engine whose spans nest under
        ``("run", "shard:<i>")`` — across the thread *and* process
        backends — and the merged run metrics carry the union of shard
        histograms, gauges, and spans plus a coordinator ``run`` span.
    representation:
        Per-shard engine execution representation (``"tuple"`` or
        ``"columnar"``) — see :class:`~repro.core.engine.Engine`.  The
        columnar tier is certified element-identical per shard, so the
        merge discipline is unchanged.
    """

    def __init__(
        self,
        plan: Plan,
        partition: PartitionSpec,
        batch_size: int | str | None = "auto",
        backend: str = "thread",
        worker_timeout: float | None = None,
        observe=None,
        representation: str = "tuple",
    ) -> None:
        if not isinstance(partition, PartitionSpec):
            raise PlanError(
                f"partition must be a PartitionSpec; got {partition!r}"
            )
        if backend not in _BACKENDS:
            raise PlanError(
                f"unknown backend {backend!r}; expected one of {_BACKENDS}"
            )
        plan.validate()
        if backend == "process" and (
            "fork" not in multiprocessing.get_all_start_methods()
        ):  # pragma: no cover - platform dependent
            warnings.warn(
                "fork start method unavailable; ShardedEngine falls back "
                "to the thread backend (plans hold closures, which do "
                "not survive spawn pickling)",
                RuntimeWarning,
                stacklevel=2,
            )
            backend = "thread"
        if worker_timeout is not None and worker_timeout <= 0:
            raise PlanError(
                f"worker_timeout must be > 0 or None; got {worker_timeout}"
            )
        self.plan = plan
        self.partition = partition
        self.batch_size = batch_size
        self.backend = backend
        self.worker_timeout = worker_timeout
        self.observe_config = ObserveConfig.coerce(observe)
        self.representation = representation
        #: The execution keywords as one value: what every shard worker
        #: and the ``single`` fallback engine are built from.
        self.config = ExecConfig(
            batch_size, self.observe_config, representation
        )
        self._strategy = _analyze(plan, partition)
        # Validate batch_size/representation/backend eagerly (Engine
        # performs the same checks per shard).
        self.config.engine(plan)

    # -- introspection ---------------------------------------------------

    @property
    def strategy(self) -> str:
        """Resolved strategy: single | local | partial | exchange."""
        return self._strategy.name

    def describe(self) -> dict:
        """Planner verdict, for logs and tests."""
        return {
            "strategy": self._strategy.name,
            "merge": self._strategy.kind,
            "reason": self._strategy.reason,
            "partition": self.partition.describe(),
            "routing": (
                self._strategy.routing.describe()
                if self._strategy.routing is not None
                else None
            ),
            "shards": self.partition.n_shards,
            "backend": self.backend,
        }

    # -- execution -------------------------------------------------------

    def run(
        self, sources: Sequence[Source] | Mapping[str, Source]
    ) -> RunResult:
        """Execute the plan over ``sources`` and return merged outputs."""
        st = self._strategy
        cfg = self.observe_config
        if st.name == "single":
            return self.config.engine(self.plan).run(sources)
        run_start = perf_counter() if cfg is not None else 0.0
        by_name = resolve_sources(self.plan, sources)
        source = by_name[st.input_name]
        epochs = split_epochs(source.events(), st.routing)
        # One-shot: every worker is built with its epochs pre-loaded (so
        # under the process backend they cross by fork inheritance, never
        # by pickle) and runs them all on one command.
        with self.workers(epochs) as workers:
            for worker in workers:
                worker.start("run_all")
            runs: list[ShardRun] = []
            for shard, worker in enumerate(workers):
                try:
                    runs.append(worker.join(self.worker_timeout))
                except ShardError as exc:
                    raise self._shard_error(
                        shard, str(exc), exc.worker_traceback
                    ) from exc
        result = self.assemble(epochs, runs)
        metrics = result.metrics
        if cfg is not None and cfg.trace:
            tracer = Tracer(cfg.context, max_spans=cfg.max_spans)
            tracer.record(
                "run",
                run_start,
                perf_counter(),
                strategy=st.name,
                backend=self.backend,
                shards=st.routing.n_shards,
                epochs=len(epochs),
            )
            tracer.publish(metrics)
            # Keep the merged trace chronological: the coordinator span
            # starts before every worker span it encloses.
            metrics.spans.sort(key=lambda span: span.start)
        return result

    def shard_ops(self) -> list:
        """One shard's operator chain, freshly copied.

        Chains are deep-copied per shard so no state is shared between
        workers; deepcopy treats the closures inside operators as atoms,
        so shards share (stateless) predicate functions but nothing
        mutable.  The plan's ``Plan`` object itself is never copied —
        its adjacency is keyed by operator identity — each shard gets a
        fresh ``linear_plan`` over its chain copy.
        """
        st = self._strategy
        if st.split is not None:
            ops = [copy.deepcopy(op) for op in st.split.prefix]
            ops.append(st.split.make_partial())
            return ops
        return [copy.deepcopy(op) for op in st.chain]

    def make_worker(
        self, shard: int, epochs: Sequence[Epoch] | None = None
    ) -> Worker:
        """A fresh worker for ``shard`` on this engine's backend.

        With ``epochs`` the worker is pre-loaded for a one-shot
        ``run_all``; a lone pre-loaded shard runs inline (nothing to
        overlap with, so a pool or a fork would be pure overhead).
        """
        st = self._strategy
        backend, preload = self.backend, None
        if epochs is not None:
            preload = [(epoch.batches[shard], epoch.punct) for epoch in epochs]
            if st.routing.n_shards == 1:
                backend = "inline"
        return Worker(
            backend,
            self.shard_ops(),
            st.input_name,
            st.output_name,
            self.config.for_shard(shard),
            preload,
        )

    @contextmanager
    def workers(
        self, epochs: Sequence[Epoch] | None = None
    ) -> Iterator[list[Worker]]:
        """One worker per shard, closed (abandoning anything still
        running) on the way out.  The list is live: a driver that
        replaces a failed worker in place gets the replacement closed."""
        workers: list[Worker] = []
        try:
            for shard in range(self._strategy.routing.n_shards):
                workers.append(self.make_worker(shard, epochs))
            yield workers
        finally:
            for worker in workers:
                worker.close(abandon=True)

    def assemble(self, epochs: list[Epoch], runs: list[ShardRun]) -> RunResult:
        """Shard runs into the single engine's output and merged metrics."""
        return RunResult(
            outputs={self._strategy.output_name: self._combine(epochs, runs)},
            metrics=merge_metrics(run.metrics for run in runs),
        )

    def _shard_error(
        self,
        shard: int,
        message: str,
        worker_traceback: str | None = None,
    ) -> ShardError:
        strategy = self._strategy.name
        return ShardError(
            f"shard {shard} ({strategy} strategy) failed: {message}",
            shard=shard,
            strategy=strategy,
            worker_traceback=worker_traceback,
        )

    # -- combining -------------------------------------------------------

    def _combine(
        self, epochs: list[Epoch], runs: list[ShardRun]
    ) -> list[Element]:
        kind = self._strategy.kind
        if kind == "arrival":
            return self._combine_arrival(epochs, runs)
        if kind == "blocking":
            return self._combine_blocking(epochs, runs)
        if kind == "tumbling":
            return self._combine_tumbling(epochs, runs)
        if kind == "partial_blocking":
            return self._combine_partial_blocking(epochs, runs)
        assert kind == "partial_tumbling", kind
        return self._combine_partial_tumbling(epochs, runs)

    def _combine_arrival(self, epochs, runs) -> list[Element]:
        st = self._strategy
        dedupe = (
            DistinctCombiner(st.dedupe_columns)
            if st.dedupe_columns is not None
            else None
        )
        out: list[Element] = []
        for index, epoch in enumerate(epochs):
            rows = merge_arrival(run.epochs[index] for run in runs)
            if dedupe is not None:
                rows = dedupe.filter(rows)
            out.extend(rows)
            if epoch.punct is not None:
                if dedupe is not None:
                    dedupe.purge(epoch.punct)
                out.append(epoch.punct)
        tail = merge_arrival(run.flush for run in runs)
        if dedupe is not None:
            tail = dedupe.filter(tail)
        out.extend(tail)
        return out

    def _combine_blocking(self, epochs, runs) -> list[Element]:
        """Colocated blocking aggregate: group closes are punctuation-
        synchronized across shards, so each epoch's shard rows union to
        the single engine's close set — re-sorted by group key.  Flush
        rows are re-stamped with the global max timestamp."""
        st = self._strategy
        sort_key = group_sort_key(st.group_names)
        out: list[Element] = []
        for index, epoch in enumerate(epochs):
            rows = [
                el
                for run in runs
                for el in run.epochs[index]
                if isinstance(el, Record)
            ]
            rows.sort(key=sort_key)
            out.extend(rows)
            if epoch.punct is not None:
                out.append(epoch.punct)
        global_max = max(
            (run.progress[-1] for run in runs if run.progress), default=0.0
        )
        tail = [
            el for run in runs for el in run.flush if isinstance(el, Record)
        ]
        tail.sort(key=sort_key)
        out.extend(
            Record(row.values, ts=global_max, seq=row.seq, size=row.size)
            for row in tail
        )
        return out

    def _epoch_watermarks(self, epochs, runs) -> list[float]:
        """Global stream progress after each epoch: the max over shard
        progress reports, folded with punctuation time bounds."""
        st = self._strategy
        marks: list[float] = []
        current = float("-inf")
        for index, epoch in enumerate(epochs):
            for run in runs:
                if run.progress[index] > current:
                    current = run.progress[index]
            if epoch.punct is not None:
                bound = epoch.punct.bound_for(st.ts_attr)
                if bound is not None and bound > current:
                    current = bound
            marks.append(current)
        return marks

    def _combine_tumbling(self, epochs, runs) -> list[Element]:
        """Colocated tumbling aggregate: a shard's watermark lags the
        global one, so shard emission epochs are unreliable — each
        (bucket, group) row is re-assigned to the epoch in which the
        *global* watermark crossed its bucket end, which is exactly when
        the single engine emitted it."""
        st = self._strategy
        marks = self._epoch_watermarks(epochs, runs)
        slots: list[list[Record]] = [[] for _ in epochs]
        tail: list[Record] = []
        window = st.window
        bucket_attr = st.bucket_attr
        for run in runs:
            for rows in (*run.epochs, run.flush):
                for el in rows:
                    if not isinstance(el, Record):
                        continue
                    end = window.bucket_start(el.values[bucket_attr] + 1)
                    index = bisect_left(marks, end)
                    if index < len(slots):
                        slots[index].append(el)
                    else:
                        tail.append(el)
        sort_key = bucket_sort_key(st.group_names, bucket_attr)
        out: list[Element] = []
        for index, epoch in enumerate(epochs):
            slots[index].sort(key=sort_key)
            out.extend(slots[index])
            if epoch.punct is not None:
                out.append(epoch.punct)
        tail.sort(key=sort_key)
        out.extend(tail)
        return out

    def _combine_partial_blocking(self, epochs, runs) -> list[Element]:
        """Gigascope split, unwindowed: shards ship partial states for
        punctuation-covered groups as the stream runs; the coordinator
        merges and finalizes them at each punctuation."""
        st = self._strategy
        merger = GroupMerger(st.group_names, st.split.aggregates, st.having)
        out: list[Element] = []
        for index, epoch in enumerate(epochs):
            for run in runs:
                for el in run.epochs[index]:
                    if isinstance(el, Record):
                        merger.absorb(el)
            if epoch.punct is not None:
                out.extend(merger.close_matching(epoch.punct))
                out.append(epoch.punct)
        for run in runs:
            for el in run.flush:
                if isinstance(el, Record):
                    merger.absorb(el)
        global_max = max(
            (run.progress[-1] for run in runs if run.progress), default=0.0
        )
        out.extend(merger.close_all(global_max))
        return out

    def _combine_partial_tumbling(self, epochs, runs) -> list[Element]:
        """Gigascope split, tumbling: shards ship (bucket, group) states
        at flush; the coordinator replays the epochs, closing each
        bucket in the epoch where the global watermark passed its end."""
        st = self._strategy
        split = st.split
        merger = BucketMerger(
            split.window,
            st.group_names,
            split.aggregates,
            split.having,
            bucket_attr=split.bucket_attr,
        )
        for run in runs:
            for rows in (*run.epochs, run.flush):
                for el in rows:
                    if isinstance(el, Record):
                        merger.absorb(el)
        marks = self._epoch_watermarks(epochs, runs)
        out: list[Element] = []
        for index, epoch in enumerate(epochs):
            out.extend(merger.close_upto(marks[index]))
            if epoch.punct is not None:
                out.append(epoch.punct)
        out.extend(merger.close_all())
        return out


def run_sharded(
    plan: Plan,
    sources: Sequence[Source] | Mapping[str, Source],
    partition: PartitionSpec,
    batch_size: int | str | None = "auto",
    backend: str = "thread",
    worker_timeout: float | None = None,
    observe=None,
    representation: str = "tuple",
) -> RunResult:
    """One-shot convenience: build a :class:`ShardedEngine` and run it."""
    engine = ShardedEngine(
        plan,
        partition,
        batch_size=batch_size,
        backend=backend,
        worker_timeout=worker_timeout,
        observe=observe,
        representation=representation,
    )
    return engine.run(sources)
