"""Chaos certification for the feedback channel (milestone M9).

Two contracts:

1. **Crash-mid-feedback determinism.**  In supervised sharded execution
   a :class:`BackpressureProbe` emits advice, the coordinator broadcasts
   it across shards, and checkpoints carry the installed advice.
   Killing a shard *after* feedback is live must change nothing: the
   rebuilt worker restores the advice table (stride counters included)
   and the replayed feedback log, so recovery neither un-sheds nor
   double-sheds.  Certified by element-for-element output comparison
   against the fault-free supervised run, on the thread AND process
   backends.
2. **Quality domination under seeded overload** is certified in
   ``test_guard_feedback.py`` (single engine) and gated in CI by
   ``benchmarks/bench_m9_feedback.py``; here we additionally pin the
   sharded feedback exchange: every shard ends up shedding the union of
   all shards' advice.
"""

from __future__ import annotations

import pytest

# Forked workers, seeded crashes, and backoff sleeps: slow CI job.
pytestmark = pytest.mark.slow

from repro.core import ListSource, Punctuation, Record
from repro.core.graph import linear_plan
from repro.feedback import BackpressureProbe
from repro.operators import Select
from repro.parallel import HashPartition, ShardedEngine
from repro.resilience import FaultInjector, Supervisor
from repro.workloads import PhaseShiftZipf

BACKENDS = ["thread", "process"]
N_SHARDS = 3


def _zipf_stream(n=1200, keys=12, punct_every=100):
    """Seeded phase-shifting Zipf overload: hot keys rotate mid-run, so
    the probe's advice from phase 0 keeps shedding while phase 1 heats
    a different key."""
    gen = PhaseShiftZipf(keys, s=1.3, phase_length=500, seed=23)
    out = []
    for i in range(n):
        out.append(
            Record(
                {"ts": float(i), "k": gen.sample(), "v": i},
                ts=float(i),
                seq=i,
            )
        )
        if i % punct_every == punct_every - 1:
            out.append(Punctuation.time_bound("ts", float(i), ts=float(i)))
    return out


def _probe_plan():
    return linear_plan(
        "s",
        [
            Select(lambda r: r.values["v"] >= 0, name="sel"),
            BackpressureProbe(
                "k",
                capacity=15,
                hot_keys=2,
                trigger_after=1,
                resume_after=10_000,
                name="probe",
            ),
        ],
        "out",
    )


def _supervised(engine, injector=None, **kw):
    kw.setdefault("backoff_base", 0.001)
    kw.setdefault("epoch_timeout", 30.0)
    return Supervisor(engine, injector=injector, **kw)


def _engine(backend):
    return ShardedEngine(
        _probe_plan(), HashPartition("k", N_SHARDS), backend=backend
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_crash_mid_feedback_is_deterministic(backend):
    """Kill shard 0 two epochs after advice went live; the recovered
    run must be element-for-element identical to the fault-free one."""
    elements = _zipf_stream()
    baseline_sup = _supervised(_engine(backend))
    baseline = baseline_sup.run({"s": ListSource("s", elements)})
    base_out = baseline.outputs["out"]
    # Feedback must actually have fired, or this certifies nothing.
    assert baseline.metrics.counters.get("feedback.emitted", 0) >= 1
    assert baseline.metrics.counters.get("feedback.ingress_dropped", 0) > 0

    injector = FaultInjector(seed=31)
    injector.crash_shard(0, epoch=4)
    supervisor = _supervised(_engine(backend), injector)
    recovered = supervisor.run({"s": ListSource("s", elements)})
    assert supervisor.report.retries >= 1
    assert recovered.outputs["out"] == base_out


@pytest.mark.parametrize("backend", BACKENDS)
def test_crash_with_sparse_checkpoints_replays_feedback_log(backend):
    """checkpoint_every=3 forces multi-epoch replay across boundaries
    where feedback was exchanged: the supervisor must re-apply the
    logged advice after each replayed epoch."""
    elements = _zipf_stream()
    baseline = _supervised(_engine(backend)).run({"s": ListSource("s", elements)})
    injector = FaultInjector(seed=7)
    injector.crash_shard(1, epoch=7)
    supervisor = _supervised(
        _engine(backend), injector, checkpoint_every=3
    )
    recovered = supervisor.run({"s": ListSource("s", elements)})
    assert supervisor.report.retries >= 1
    assert supervisor.report.replayed_epochs >= 1
    assert recovered.outputs["out"] == baseline.outputs["out"]


def test_cross_shard_broadcast_sheds_everywhere():
    """With a round-robin-free hash partition the hot key lands on one
    shard, but after the exchange *every* shard holds the advice — a
    record of the hot key is shed no matter where it is routed."""
    elements = _zipf_stream()
    supervisor = _supervised(_engine("inline"))
    supervisor.run({"s": ListSource("s", elements)})
    # Reach into the inline workers: each core's engine must hold the
    # same installed advice patterns.
    # (Workers are closed after run; rebuild and drive manually.)
    from repro.parallel.partition import split_epochs

    engine = _engine("inline")
    st = engine._strategy
    epochs = split_epochs(elements, st.routing)
    workers = [engine.make_worker(shard) for shard in range(N_SHARDS)]
    for epoch in epochs:
        for shard, worker in enumerate(workers):
            worker.call("run_epoch", epoch.batches[shard], epoch.punct)
        exchanged = []
        for worker in workers:
            exchanged.extend(worker.call("take_feedback"))
        if exchanged:
            for worker in workers:
                worker.call("apply_feedback", exchanged)
    tables = [w.core.engine._advice for w in workers]
    assert any(t is not None and len(t) for t in tables)
    patterns = [
        sorted(p for p, _ in t.entries) if t is not None else []
        for t in tables
    ]
    assert patterns[0] == patterns[1] == patterns[2]
    assert patterns[0], "no advice was exchanged"
