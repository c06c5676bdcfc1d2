"""Timing primitives of the ledger: spans, set-up, and the two load shapes.

The driver is one process and one thread.  Closed-loop workloads start
the next pass when the previous one returns (that is how ``run()`` is
used); ``netflow_paced`` is an open loop on a fixed schedule whose
latencies are taken from each micro-batch's *due* time, so generator
lateness is charged to the system.
"""

from __future__ import annotations

import gc
import json
import math
import traceback
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

import workloads as wl

SETUP_REPEATS = 3
MIN_PASSES = 3
#: A micro-batch is late when it is fed more than one schedule period
#: after it was due: the generator has fallen a whole batch behind.
LATE_MS = 1e3 * wl.PACED_MICRO_BATCH / wl.PACED_RATE


def percentile(values, q):
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    ordered = sorted(values)
    k = (len(ordered) - 1) * q
    lo = math.floor(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def median(values):
    return percentile(values, 0.5)


class Spans:
    """Bench-owned in-memory span recorder (name, start, end, parent id,
    ``(workload, pass)`` id); written out when the workload ends."""

    def __init__(self, workload):
        self.workload = workload
        self.rows = []
        self.pass_id = None
        self._open = []

    @contextmanager
    def span(self, name, **attrs):
        row = {
            "id": len(self.rows),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "pass": self.pass_id,
            **attrs,
        }
        self.rows.append(row)
        self._open.append(row["id"])
        row["start"] = perf_counter()
        try:
            yield row
        finally:
            row["end"] = perf_counter()
            self._open.pop()

    def add(self, name, parent, start, end, pass_id, **attrs):
        """A span whose interval is already known."""
        self.rows.append(
            {
                "id": len(self.rows),
                "name": name,
                "parent": parent["id"],
                "workload": self.workload,
                "pass": pass_id,
                **attrs,
                "start": start,
                "end": end,
            }
        )

    def child(self, parent, name, seconds):
        """A synthetic child: time known only as a total (an operator's
        ``wall_time``, a standalone probe), laid end to end from the
        parent's start so siblings never overlap."""
        start = parent["start"] + sum(
            r["end"] - r["start"]
            for r in self.rows
            if r["parent"] == parent["id"]
        )
        self.add(
            name, parent, start, start + seconds, parent["pass"],
            synthetic=True,
        )

    def seconds(self, name):
        return [r["end"] - r["start"] for r in self.rows if r["name"] == name]

    def finalize(self):
        """Fill ``self_s`` = span − children; return the ids of spans whose
        children exceed them (must be empty)."""
        children = {}
        for r in self.rows:
            if r["parent"] is not None:
                children[r["parent"]] = (
                    children.get(r["parent"], 0.0) + r["end"] - r["start"]
                )
        overfull = []
        for r in self.rows:
            r["self_s"] = r["end"] - r["start"] - children.get(r["id"], 0.0)
            if r["self_s"] < 0:
                overfull.append(r["id"])
        return overfull

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.rows, allow_nan=False) + "\n")


def is_paced(workload):
    return workload.name == "netflow_paced"


def paced_warmup_s(schedule_s):
    """2 s of a full schedule; a fifth of a shortened one."""
    return min(wl.PACED_WARMUP_S, 0.2 * schedule_s)


def feed_unpaced(workload, state, batches):
    """The paced plan fed as fast as the engine takes it."""
    engine = workload.engine(state)
    engine.start()
    for mb in batches:
        engine.feed_batch("Traffic", mb)
    return engine.finish()


def set_up(workload, seed, scale, spans, schedule_s):
    """Generate input, build sources, compile/register, one warm-up pass.

    Returns ``(state, warm_outputs)``; the enclosing ``setup`` span is
    ``setup_s``.  The oracle is *not* in here: it is bench work, not
    work of the system under test, and is timed as ``driver.oracle``.
    """
    with spans.span("setup"):
        with spans.span("workloads.generate"):
            if is_paced(workload):
                raw = workload.generate(seed, scale, schedule_s)
            else:
                raw = workload.generate(seed, scale)
        state = workload.build(raw, spans)
        with spans.span("warmup"):
            if is_paced(workload):
                # Unpaced feed of the batches the schedule discards.
                n = int(paced_warmup_s(schedule_s) * wl.PACED_RATE)
                feed_unpaced(
                    workload, state, state.batches[: n // wl.PACED_MICRO_BATCH]
                )
                warm = None
            else:
                warm, _ = workload.call(state)
    return state, warm


def repeated_set_up(workload, seed, scale, schedule_s, repeats=SETUP_REPEATS):
    """Set up ``repeats`` times; the last state is the one measured.

    Returns ``(state, warm, spans, setup_seconds)``; ``spans`` holds the
    last repeat only."""
    seconds = []
    state = warm = spans = None
    for _ in range(repeats):
        state = warm = None  # drop the previous copy before building anew
        gc.collect()
        spans = Spans(workload.name)
        state, warm = set_up(workload, seed, scale, spans, schedule_s)
        seconds.extend(spans.seconds("setup"))
    return state, warm, spans, seconds


def gen2_collections():
    return gc.get_stats()[2]["collections"]


@contextmanager
def quiesced():
    """Collect, then park what survives (the bench's own inputs and
    references) in the permanent generation: the collector stays on, as
    users run it, but does not rescan the load generator's data during a
    timed loop.  Yields a callable giving gen-2 collections so far."""
    gc.collect()
    gc.freeze()
    start = gen2_collections()
    try:
        yield lambda: gen2_collections() - start
    finally:
        gc.unfreeze()


def timed_pass(call, expected):
    """One pass: ``(seconds, ok, metrics)``.  The comparison with the
    oracle happens after the timer stops; an exception is a failed pass."""
    t0 = perf_counter()
    try:
        outputs, metrics = call()
    except Exception:  # a pass boundary: record, count, keep measuring
        elapsed = perf_counter() - t0
        traceback.print_exc()
        return elapsed, False, None
    elapsed = perf_counter() - t0
    return elapsed, outputs == expected, metrics


def closed_loop(workload, state, expected, seconds, passes=None):
    """Pass after pass for ``seconds`` (or exactly ``passes``)."""
    times = []
    failed = 0
    with quiesced() as gen2:
        deadline = perf_counter() + seconds

        def more():
            if passes:
                return len(times) < passes
            return perf_counter() < deadline or len(times) < MIN_PASSES

        while more():
            elapsed, ok, _ = timed_pass(
                lambda: workload.call(state), expected
            )
            times.append(elapsed)
            failed += not ok
        collections = gen2()
    ms = [t * 1e3 for t in times]
    return SimpleNamespace(
        attempted=len(times),
        failed=failed,
        gen2=collections,
        samples={"pass_ms": ms},
        metrics={
            "tuples_per_s": state.n_records / median(times),
            "pass_ms_p75": percentile(ms, 0.75),
            # All results of a closed-loop pass become available when it
            # returns: answer latency is pass time.
            "result_latency_ms_p50": median(ms),
            "result_latency_ms_p95": percentile(ms, 0.95),
        },
        # Samples behind each metric above.
        n=dict.fromkeys(
            (
                "tuples_per_s",
                "pass_ms_p75",
                "result_latency_ms_p50",
                "result_latency_ms_p95",
            ),
            len(times),
        ),
    )


def paced_schedule(engine, batches):
    """Feed ``batches`` on the fixed schedule; spin until due, never skip."""
    period = wl.PACED_MICRO_BATCH / wl.PACED_RATE
    n = len(batches)
    started = [0.0] * n
    returned = [0.0] * n
    emissions = []
    engine.start()
    t0 = perf_counter()
    for j, mb in enumerate(batches):
        due = t0 + (j + 1) * period
        while perf_counter() < due:
            pass
        started[j] = perf_counter()
        out = engine.feed_batch("Traffic", mb)
        returned[j] = perf_counter()
        if out:
            emissions.append((j, out))
    t_finish = perf_counter()
    result = engine.finish()
    return SimpleNamespace(
        t0=t0,
        period=period,
        started=started,
        returned=returned,
        emissions=emissions,
        result=result,
        finish_s=perf_counter() - t_finish,
    )


def paced_stats(run, expected, schedule_s):
    """Latency, lag and correctness of one schedule, warm-up discarded."""
    period, t0 = run.period, run.t0
    first = math.ceil(paced_warmup_s(schedule_s) / period)
    n = len(run.started)
    due = [t0 + (j + 1) * period for j in range(n)]
    lag_ms = [(run.started[j] - due[j]) * 1e3 for j in range(first, n)]
    service_ms = [
        (run.returned[j] - run.started[j]) * 1e3 for j in range(first, n)
    ]
    latency_ms = [
        (run.returned[j] - due[j]) * 1e3
        for j, _ in run.emissions
        if j >= first
    ]
    # Every emission is checked against the oracle's slice at the same
    # offset; what finish() flushes is one more.
    want = expected["out"]
    offset = failed = 0
    for _, out in run.emissions:
        failed += out != want[offset : offset + len(out)]
        offset += len(out)
    failed += run.result.outputs["out"][offset:] != want[offset:]
    fed = (n - first) * wl.PACED_MICRO_BATCH
    wall = run.returned[-1] - (t0 + first * period)
    return SimpleNamespace(
        attempted=len(run.emissions) + 1,
        failed=failed,
        samples={
            "result_latency_ms": latency_ms,
            "feed_batch_ms": service_ms,
            "generator_lag_ms": lag_ms,
        },
        metrics={
            # Equals the offered rate unless a backlog grew.
            "tuples_per_s": fed / wall,
            # A pass of the incremental path is one feed_batch call.
            "pass_ms_p75": percentile(service_ms, 0.75),
            "result_latency_ms_p50": median(latency_ms),
            "result_latency_ms_p95": percentile(latency_ms, 0.95),
        },
        validity={
            "driver.generator_lag_ms_p99": percentile(lag_ms, 0.99),
            "driver.generator_lag_ms_max": max(lag_ms),
            "driver.late_batch_frac": sum(x > LATE_MS for x in lag_ms)
            / len(lag_ms),
            "driver.result_latency_ms_p99": percentile(latency_ms, 0.99),
        },
        n={
            "tuples_per_s": 1,  # one schedule
            "pass_ms_p75": len(service_ms),
            "result_latency_ms_p50": len(latency_ms),
            "result_latency_ms_p95": len(latency_ms),
        },
    )


def open_loop(workload, state, expected, schedule_s):
    with quiesced() as gen2:
        run = paced_schedule(workload.engine(state), state.batches)
        collections = gen2()
    stats = paced_stats(run, expected, schedule_s)
    stats.gen2 = collections
    stats.sustainable = (
        stats.metrics["result_latency_ms_p95"] <= wl.PACED_LATENCY_LIMIT_MS
    )
    return stats
