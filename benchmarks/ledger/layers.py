"""The traced run: per-layer numbers, every layer measured from outside.

Nothing under ``src/`` is instrumented.  A layer's time comes from a
bench-owned span around a public call, from ``OperatorMetrics`` under the
public ``ObserveConfig(sampling=1)`` option, from the public reports
(``SupervisorReport``, ``service.stats()``), or from a standalone call
of the layer's public function over the workload's own input.  A metric
of a layer the workload never enters is reported as 0.
"""

from __future__ import annotations

import pickle
import resource
from time import perf_counter

import measure
import workloads as wl
from measure import median

from repro.adaptive import AdaptiveConfig, AdaptiveEngine
from repro.cluster import ClusterEngine, homogeneous
from repro.columnar import ColumnBatch
from repro.core import Engine, Punctuation, merge_sources
from repro.cql import Catalog, compile_query
from repro.observe import ObserveConfig
from repro.parallel import HashPartition, ShardedEngine, split_epochs
from repro.replay import Recorder
from repro.resilience import FaultInjector
from repro.service import ServiceConfig, StandingQueryService
from repro.workloads import cdr_schema

MAX_ROUNDS = 10
MIN_ROUNDS = 2
PROBE_REPEATS = 3
CRASH_EPOCH = 11
OPERATOR_CLASSES = ("select", "project", "aggregate", "join")
#: Interleaved in every round; s1 feeds the per-layer numbers, and the
#: ratios to untraced are the tracing overhead.
VARIANTS = {
    "untraced": None,
    "s1": ObserveConfig(sampling=1),
    "s64": ObserveConfig(sampling=64),
}


class Budget:
    """Rounds of interleaved passes: at least ``MIN_ROUNDS``, at most
    ``MAX_ROUNDS``, stopping once ``seconds`` are spent — or exactly
    ``passes`` when given."""

    def __init__(self, seconds, passes=None):
        self.deadline = perf_counter() + seconds
        self.passes = passes
        self.rounds = 0

    def more(self):
        if self.passes:
            go = self.rounds < self.passes
        else:
            go = self.rounds < MIN_ROUNDS or (
                self.rounds < MAX_ROUNDS and perf_counter() < self.deadline
            )
        self.rounds += go
        return go


class Tally:
    """Passes attempted / failed against the oracle, over the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def timed(self, call, expected):
        seconds, ok, metrics = measure.timed_pass(call, expected)
        self.attempted += 1
        self.failed += not ok
        return seconds, metrics


def timed_median(fn, repeats=PROBE_REPEATS):
    """Median seconds of a standalone probe, and its last result."""
    times = []
    result = None
    for _ in range(repeats):
        t0 = perf_counter()
        result = fn()
        times.append(perf_counter() - t0)
    return median(times), result


# -- core.stream -----------------------------------------------------------


def drain_probe(workload, state):
    """Standalone drain of the input the way the timed call ingests it."""
    sources = state.sources

    def events():
        only = sources[0]
        return sum(1 for _ in ((only.name, el) for el in only.events()))

    def merged():
        return sum(1 for _ in merge_sources(*sources))

    if workload.ingress == "merge":
        return timed_median(merged)
    if workload.ingress == "sliced":
        # Columnar over one ListSource cuts chunks by slicing and never
        # iterates events().
        elements = sources[0].collect()
        size = workload.batch_size

        def sliced():
            return sum(
                len(elements[i : i + size])
                for i in range(0, len(elements), size)
            )

        return timed_median(sliced)
    if workload.ingress == "feed":
        return timed_median(lambda: sum(len(list(mb)) for mb in state.batches))
    return timed_median(events)


# -- columnar ----------------------------------------------------------------


def columnar_probe(workload, state, tally, expected):
    """Conversions a pass performs, counted at the public constructor,
    then ``from_rows`` / ``to_rows`` timed standalone over the same
    slices.  Both are lazy wrappers in this codebase: column extraction
    is charged to the operator that first asks for a column."""
    calls = []
    original = ColumnBatch.__dict__["from_rows"]

    def counting(cls, rows, backend="python"):
        calls.append(len(rows))
        return original.__func__(cls, rows, backend)

    ColumnBatch.from_rows = classmethod(counting)
    try:
        if measure.is_paced(workload):
            measure.feed_unpaced(workload, state, state.batches)
        else:
            tally.timed(lambda: workload.call(state), expected)
    finally:
        ColumnBatch.from_rows = original
    out = {
        "columnar.batches": len(calls),
        "columnar.rows_per_batch": sum(calls) / len(calls) if calls else 0,
        "columnar.from_rows_s": 0.0,
        "columnar.to_rows_s": 0.0,
    }
    if calls:
        records = [
            el
            for el in state.sources[0].collect()
            if not isinstance(el, Punctuation)
        ]
        size = workload.batch_size
        slices = [
            records[i : i + size] for i in range(0, len(records), size)
        ]
        out["columnar.from_rows_s"], batches = timed_median(
            lambda: [ColumnBatch.from_rows(s, "python") for s in slices]
        )
        out["columnar.to_rows_s"], _ = timed_median(
            lambda: [b.to_rows() for b in batches]
        )
    return out


# -- operators + core.engine -------------------------------------------------


def operator_numbers(metrics):
    """Per-class busy time and counters of one ``sampling=1`` pass."""
    ops = metrics.operators
    kinds = metrics.operator_kinds
    busy = sum(m.wall_time for m in ops.values())
    out = {
        "operators.busy_s": busy,
        "operators.records_in": sum(m.records_in for m in ops.values()),
        "operators.records_out": sum(m.records_out for m in ops.values()),
        "operators.invocations": sum(
            m.timed_invocations for m in ops.values()
        ),
        "core.engine.dispatches": sum(m.invocations for m in ops.values()),
        "operators.bottleneck_share": (
            max(m.wall_time for m in ops.values()) / busy if busy else 0.0
        ),
    }
    elements = sum(m.records_in + m.punctuations_in for m in ops.values())
    out["operators.avg_batch_size"] = (
        elements / out["core.engine.dispatches"]
        if out["core.engine.dispatches"]
        else 0.0
    )
    for cls in OPERATOR_CLASSES:
        out[f"operators.{cls}.busy_s"] = sum(
            m.wall_time
            for name, m in ops.items()
            if cls in kinds.get(name, "")
        )
    # Rename, limit, ...: every operator second belongs to a class.
    out["operators.other.busy_s"] = sum(
        m.wall_time
        for name, m in ops.items()
        if not any(cls in kinds.get(name, "") for cls in OPERATOR_CLASSES)
    )
    return out


def observed_rounds(workload, state, expected, spans, tally, budget):
    """Interleaved untraced / sampling=1 / sampling=64 passes.

    Returns pass seconds per variant and the per-pass operator numbers
    of the ``sampling=1`` passes (whose spans go to the trace)."""
    seconds = {name: [] for name in VARIANTS}
    numbers = []
    traced_rows = []
    with measure.quiesced() as gen2:
        while budget.more():
            for name, observe in VARIANTS.items():
                spans.pass_id = f"{name}:{budget.rounds}"
                with spans.span("pass", variant=name) as row:
                    elapsed, metrics = tally.timed(
                        lambda: workload.call(state, observe), expected
                    )
                seconds[name].append(elapsed)
                if name == "s1" and metrics is not None:
                    numbers.append(operator_numbers(metrics))
                    # What observing cost this pass: the untraced pass of
                    # the same round ran just before it.
                    row["observe_s"] = max(
                        0.0, elapsed - seconds["untraced"][-1]
                    )
                    traced_rows.append(row)
        collections = gen2()
    spans.pass_id = None
    return seconds, numbers, traced_rows, collections


def paced_rounds(workload, state, expected, spans, tally, schedule_s):
    """The paced equivalent: one schedule per variant, whose one sample
    is its engine time: every ``feed_batch`` call plus ``finish()``,
    warm-up included, as the operator counters cover it too."""
    seconds, numbers, extra = {}, [], {}
    with measure.quiesced() as gen2:
        for name, observe in VARIANTS.items():
            spans.pass_id = f"{name}:1"
            with spans.span("pass", variant=name) as row:
                run = measure.paced_schedule(
                    workload.engine(state, observe), state.batches
                )
            stats = measure.paced_stats(run, expected, schedule_s)
            tally.attempted += stats.attempted
            tally.failed += stats.failed
            seconds[name] = [
                run.finish_s
                + sum(t1 - t0 for t0, t1 in zip(run.started, run.returned))
            ]
            if name == "untraced":
                extra.update(stats.validity)
                extra["core.engine.finish_s"] = run.finish_s
            if name == "s1":
                numbers.append(operator_numbers(run.result.metrics))
                # Bench-owned spans of the incremental calls, made from
                # the timestamps the loop kept (no work inside the loop).
                for j, (t0, t1) in enumerate(zip(run.started, run.returned)):
                    spans.add(
                        "core.engine.feed_batch", row, t0, t1, f"s1:1:{j}"
                    )
        collections = gen2()
    spans.pass_id = None
    return seconds, numbers, collections, extra


def incremental_probe(workload, state, expected, tally):
    """Feed the whole input incrementally, then time ``checkpoint()``,
    ``restore_checkpoint()`` and ``finish()``; the state is pickled for
    its size.  Restoring at the capture point must not change the output."""
    if workload.name == "service_mixed64":
        svc, handles = workload.service(state)
        svc.start()
        for el in state.sources[0].events():
            svc.feed("pkts", el)
        t0 = perf_counter()
        result = svc.finish()
        finish_s = perf_counter() - t0
        tally.attempted += 1
        tally.failed += [result.query(h).outputs for h in handles] != expected
        return {"core.engine.finish_s": finish_s}
    engine = Engine(
        state.plan,
        batch_size=workload.batch_size,
        representation=workload.representation,
        column_backend="python"
        if workload.representation == "columnar"
        else None,
    )
    engine.start()
    if workload.ingress == "merge":
        for name, el in merge_sources(*state.sources):
            engine.feed(name, el)
    else:
        only = state.sources[0]
        elements = only.collect()
        size = workload.batch_size
        for i in range(0, len(elements), size):
            engine.feed_batch(only.name, elements[i : i + size])
    t0 = perf_counter()
    cp = engine.checkpoint()
    t1 = perf_counter()
    engine.restore_checkpoint(cp)
    t2 = perf_counter()
    result = engine.finish()
    t3 = perf_counter()
    tally.attempted += 1
    tally.failed += result.outputs != expected
    return {
        "core.engine.checkpoint_s": t1 - t0,
        "core.engine.restore_s": t2 - t1,
        "core.engine.finish_s": t3 - t2,
        "core.engine.state_bytes": len(pickle.dumps(cp)),
    }


# -- parallel / resilience / the wrapper ladder ------------------------------


def parallel_probe(state):
    """Coordinator-side costs of one run: split into per-shard epochs,
    then what the process backend must pickle to ship them."""
    source = state.sources[0]
    split_s, epochs = timed_median(
        lambda: split_epochs(source.events(), state.partition)
    )
    per_shard = [
        sum(len(epoch.batches[s]) for epoch in epochs)
        for s in range(state.partition.n_shards)
    ]

    def pickled():
        return sum(
            len(pickle.dumps(batch))
            for epoch in epochs
            for batch in epoch.batches
        )

    pickle_s, total_bytes = timed_median(pickled)
    return {
        "parallel.split_s": split_s,
        "parallel.skew": max(per_shard) / (sum(per_shard) / len(per_shard)),
        "parallel.pickle_s": pickle_s,
        "parallel.bytes_per_epoch": total_bytes / len(epochs),
    }


CDR_CQL = (
    "select origin, count(*) as n, sum(duration) as talk from calls"
    " where is_intl = true group by origin"
)


def wrapper_ladder(workload, state, expected, tally, budget):
    """Every engine wrapper over the ``cdr_supervised_process`` input and
    plan, interleaved; ratios of medians to the bare ``Engine(256)``."""
    plan, sources = state.plan, state.sources
    logs = []

    def sharded(n, backend):
        return ShardedEngine(
            plan, HashPartition(["origin"], n), backend=backend
        ).run(sources)

    def supervised(backend):
        return workload.supervisor(state, backend=backend).run(sources)

    def adaptive():
        engine = AdaptiveEngine(
            plan, config=AdaptiveConfig(max_migrations=0), batch_size=256
        )
        result = engine.run(sources)
        if engine.migrations:
            raise AssertionError("adaptive.idle pass migrated")
        return result

    def recorded():
        recorder = Recorder()
        result = Engine(plan, batch_size=256, recorder=recorder).run(sources)
        logs.append(recorder.log)
        return result

    catalog = Catalog()
    catalog.register_stream("calls", cdr_schema())
    cql_plan = compile_query(CDR_CQL, catalog)
    cql_expected = Engine(cql_plan).run(sources).outputs["out"]
    svc = StandingQueryService(catalog, ServiceConfig(batch_size=256))
    handle = svc.register(CDR_CQL)

    rungs = {
        "bare": lambda: Engine(plan, batch_size=256).run(sources),
        "sharded_inline1": lambda: sharded(1, "inline"),
        "sharded_thread2": lambda: sharded(wl.N_SHARDS, "thread"),
        "sharded_process2": lambda: sharded(wl.N_SHARDS, "process"),
        "supervised_thread2": lambda: supervised("thread"),
        "supervised_process2": lambda: supervised("process"),
        "adaptive_idle": adaptive,
        "cluster_single_node": lambda: ClusterEngine(
            plan, homogeneous(1), batch_size=256
        ).run(sources),
        "recorded": recorded,
    }
    cql_rungs = {
        "cql_bare": lambda: Engine(cql_plan, batch_size=256)
        .run(sources)
        .outputs["out"],
        "service_single": lambda: svc.run(sources).query(handle).outputs,
    }
    seconds = {name: [] for name in (*rungs, *cql_rungs)}
    while budget.more():
        for name, fn in rungs.items():
            elapsed, _ = tally.timed(
                lambda: (fn().outputs, None), expected
            )
            seconds[name].append(elapsed)
        for name, fn in cql_rungs.items():
            elapsed, _ = tally.timed(lambda: (fn(), None), cql_expected)
            seconds[name].append(elapsed)
    med = {name: median(values) for name, values in seconds.items()}
    return {
        "parallel.sharded_inline1_ratio": med["sharded_inline1"] / med["bare"],
        "parallel.sharded_process2_ratio": med["sharded_process2"]
        / med["bare"],
        "resilience.supervised_thread_ratio": med["supervised_thread2"]
        / med["sharded_thread2"],
        "resilience.supervised_process_ratio": med["supervised_process2"]
        / med["sharded_process2"],
        "adaptive.idle_ratio": med["adaptive_idle"] / med["bare"],
        "cluster.single_node_ratio": med["cluster_single_node"] / med["bare"],
        "replay.recorded_ratio": med["recorded"] / med["bare"],
        "replay.log_bytes": len(logs[-1].to_bytes()),
        "service.single_query_ratio": med["service_single"] / med["cql_bare"],
    }


def recovery_probe(workload, state, expected, tally, seed):
    """A worker crash mid-epoch, recovered: extra seconds over a clean
    supervised pass (median of adjacent clean/crash pairs), and what the
    supervisor had to do."""
    extra = []
    report = None
    for _ in range(PROBE_REPEATS):
        seconds = []
        for crash in (False, True):
            injector = FaultInjector(seed)
            if crash:
                injector.crash_shard(1, CRASH_EPOCH)
            sup = workload.supervisor(state, injector=injector)
            elapsed, _ = tally.timed(
                lambda: (sup.run(state.sources).outputs, None), expected
            )
            seconds.append(elapsed)
        extra.append(seconds[1] - seconds[0])
        report = sup.report
    return {
        "resilience.recovery_s": median(extra),
        "resilience.retries": report.retries,
        "resilience.replayed_epochs": report.replayed_epochs,
    }


# -- the traced run ----------------------------------------------------------


def traced_run(workload, seed, seconds, scale, passes, names, out_dir):
    """One workload, traced.  Returns ``(tally, values)`` with a number
    for every name in ``names`` (the ``per_layer`` list)."""
    paced = measure.is_paced(workload)
    # Three paced schedules (untraced, s1, s64) share the time budget.
    schedule_s = seconds / 4 if paced else seconds
    state, warm, spans, _ = measure.repeated_set_up(
        workload, seed, scale, schedule_s, repeats=1
    )
    tally = Tally()
    with spans.span("driver.oracle"):
        expected = workload.reference(state)
    if not paced:
        tally.attempted += 1
        tally.failed += warm != expected

    values = dict.fromkeys(names, 0.0)
    for name in (
        "workloads.generate",
        "core.stream.source_build",
        "cql.compile",
        "service.register",
        "driver.oracle",
    ):
        values[f"{name}_s"] = sum(spans.seconds(name))
    values["cql.queries"] = getattr(state, "cql_queries", 0)

    drain_s, n_elements = drain_probe(workload, state)
    values["core.stream.drain_s"] = drain_s
    values["core.stream.elements"] = n_elements

    if paced:
        pass_s, numbers, gen2, paced_extra = paced_rounds(
            workload, state, expected, spans, tally, schedule_s
        )
        rows = []
    else:
        pass_s, numbers, rows, gen2 = observed_rounds(
            workload, state, expected, spans, tally,
            Budget(seconds / 2, passes),
        )
        paced_extra = {}
    values["driver.gc_gen2_collections"] = gen2
    # The pass that is split into layers is the untraced one: what observing
    # adds is the observe layer's time, not the engine's.
    run_s = median(pass_s["untraced"])
    values["observe.overhead_s"] = median(pass_s["s1"]) - run_s
    values["observe.overhead_ratio_s1"] = median(pass_s["s1"]) / run_s
    values["observe.overhead_ratio_s64"] = median(pass_s["s64"]) / run_s
    for key in numbers[0]:
        values[key] = median([n[key] for n in numbers])

    values.update(columnar_probe(workload, state, tally, expected))
    values.update(incremental_probe(workload, state, expected, tally))
    values.update(paced_extra)  # the schedule's own finish() wins

    # Every second of a pass goes to a named layer; the engine's self time
    # is what remains after operators, source drain and conversion.
    conversion = values["columnar.from_rows_s"] + values["columnar.to_rows_s"]
    busy = values["operators.busy_s"]
    values["core.engine.run_s"] = run_s
    values["core.engine.self_s"] = run_s - busy - drain_s - conversion
    values["core.engine.self_share"] = values["core.engine.self_s"] / run_s
    values["operators.busy_share"] = busy / run_s
    # The same split inside each traced pass, as child spans (the paced
    # schedule's children are its feed_batch calls instead).
    for row, own in zip(rows, numbers):
        for cls in (*OPERATOR_CLASSES, "other"):
            spans.child(
                row, f"operators.{cls}", own[f"operators.{cls}.busy_s"]
            )
        spans.child(row, "core.stream.drain", drain_s)
        spans.child(row, "columnar.convert", conversion)
        # Observing cannot have cost more than the rest of its own pass.
        rest = (
            row["end"] - row["start"]
            - own["operators.busy_s"] - drain_s - conversion
        )
        spans.child(row, "observe", min(row["observe_s"], max(0.0, rest)))

    if workload.name == "service_mixed64":
        svc, handles = workload.service(state)
        stats = svc.stats()
        values["service.run_s"] = run_s
        values["service.plan_operators"] = stats["plan_operators"]
        values["service.isolated_operators"] = stats["isolated_operators"]
        values["service.routes"] = stats["routes"]
        values["service.sharing_ratio"] = (
            stats["isolated_operators"] / stats["plan_operators"]
        )
        values["service.records_out"] = sum(len(out) for out in expected)

    if workload.name == "cdr_supervised_process":
        values.update(parallel_probe(state))
        sup = workload.supervisor(state)
        tally.timed(lambda: (sup.run(state.sources).outputs, None), expected)
        values["resilience.checkpoints"] = sup.report.checkpoints
        values.update(
            wrapper_ladder(
                workload, state, expected, tally, Budget(seconds / 2, passes)
            )
        )
        values.update(recovery_probe(workload, state, expected, tally, seed))
        values["resilience.worker_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        )

    overfull = spans.finalize()
    values["driver.span_count"] = len(spans.rows)
    spans.write(out_dir / f"trace-{workload.name}.json")
    if overfull:
        raise SystemExit(
            f"{workload.name}: children exceed their span: ids {overfull}"
        )
    return tally, values
