"""Transport contract of the epoch runtime (``repro.parallel.runtime``).

One scripted command sequence — epochs, snapshot, two more epochs,
restore, replay, feedback exchange, stats, revise, finish — must return
identical values on the inline, thread and process transports, and the
accepted output must equal a single :class:`Engine` over the same
input.  The one-shot ``run_all`` path (epochs pre-loaded into the
worker) is held to the same standard, and a hung worker must surface
as a ``ShardError`` saying so on both the one-shot and lockstep paths.
"""

from __future__ import annotations

import time

import pytest

from repro.adaptive import ReorderChain
from repro.core import Engine, ListSource, Punctuation, Record
from repro.core.graph import linear_plan
from repro.errors import ShardError
from repro.feedback import BackpressureProbe
from repro.operators import AggSpec, Aggregate, Select
from repro.parallel import HashPartition, split_epochs
from repro.parallel.runtime import (
    ExecConfig,
    ShardRun,
    Worker,
    WorkerHung,
    run_lockstep,
)
from repro.resilience import Fault

TRANSPORTS = ["inline", "thread", "process"]
CONFIG = ExecConfig(batch_size=7)


def _elements(n=400, punct_every=40):
    out = []
    for i in range(n):
        out.append(
            Record({"ts": float(i), "k": i % 5 if i % 3 else 0, "v": i},
                   ts=float(i), seq=i)
        )
        if i % punct_every == punct_every - 1:
            out.append(Punctuation.time_bound("ts", float(i), ts=float(i)))
    return out


def _chain():
    """A feedback-emitting probe, two commutable filters (the revise
    target) and a stateful terminal (so snapshot/restore carry state).
    The probe sits upstream of the filters so its advice installs at
    the ingress only: a ``Select`` that receives advice keeps its own
    stride counters, which would make the reorder order-sensitive."""
    return [
        BackpressureProbe(
            "k", capacity=10, hot_keys=1, trigger_after=1,
            resume_after=10_000, name="probe",
        ),
        Select(lambda r: r.values["v"] % 11 != 0, name="sel_a"),
        Select(lambda r: r.values["v"] % 7 != 0, name="sel_b"),
        Aggregate(
            ["k"],
            [AggSpec("n", "count"), AggSpec("total", "sum", "v")],
            name="agg",
        ),
    ]


def _epochs(elements):
    """One shard's ``(batch, punct)`` pairs."""
    return [
        (epoch.batches[0], epoch.punct)
        for epoch in split_epochs(elements, HashPartition("k", 1))
    ]


def _worker(backend, epochs=None, chain=_chain):
    return Worker(backend, chain(), "s", "out", CONFIG, epochs)


def _reference(elements):
    plan = linear_plan("s", _chain(), "out")
    result = Engine(plan, batch_size=CONFIG.batch_size).run(
        [ListSource("s", elements)]
    )
    return result.outputs["out"]


def _script(worker, epochs):
    """The scripted sequence; returns (accepted output, transcript)."""
    out, transcript = [], []

    def call(name, *args):
        value = worker.call(name, *args)
        shown = value
        if name == "snapshot":
            # Operator states hold objects without __eq__; what the
            # snapshot restores to is checked by the epochs that follow.
            shown = (value.operator_names, value.output_lengths,
                     value.watermarks)
        transcript.append((name, shown))
        return value

    def run(index):
        produced, _progress = call("run_epoch", *epochs[index])
        out.extend(produced)

    run(0)
    run(1)
    checkpoint = call("snapshot")
    run(2)
    run(3)
    call("restore", checkpoint)
    # Replayed output is discarded: epochs 2 and 3 were accepted above.
    call("replay_epoch", *epochs[2])
    call("replay_epoch", *epochs[3])
    call("apply_feedback", call("take_feedback"))
    call("stats")
    call("revise", [ReorderChain(("sel_b", "sel_a"))])
    for index in range(4, len(epochs)):
        run(index)
    flush, metrics = worker.call("finish")
    transcript.append(("finish", flush, dict(metrics.counters)))
    out.extend(flush)
    return out, transcript


@pytest.fixture(scope="module")
def scripted():
    elements = _elements()
    epochs = _epochs(elements)
    results = {}
    for backend in TRANSPORTS:
        worker = _worker(backend)
        try:
            results[backend] = _script(worker, epochs)
        finally:
            worker.close(abandon=True)
    return elements, results


@pytest.mark.parametrize("backend", TRANSPORTS)
def test_scripted_sequence_equals_single_engine(scripted, backend):
    elements, results = scripted
    out, transcript = results[backend]
    assert out == _reference(elements)
    # The script must have exercised what it claims to.
    by_name = dict((entry[0], entry[1]) for entry in transcript)
    assert by_name["take_feedback"], "the probe never emitted advice"
    assert by_name["stats"]["sel_a"].records_in > 0


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_scripted_sequence_identical_across_transports(scripted, backend):
    _, results = scripted
    assert results[backend][1] == results["inline"][1]


@pytest.mark.parametrize("backend", TRANSPORTS)
def test_run_all_on_preloaded_epochs(backend):
    elements = _elements()
    epochs = _epochs(elements)
    worker = _worker(backend, epochs)
    try:
        run = worker.call("run_all")
    finally:
        worker.close(abandon=True)
    assert isinstance(run, ShardRun)
    assert len(run.epochs) == len(run.progress) == len(epochs)
    flat = [el for rows in run.epochs for el in rows] + run.flush
    assert flat == _reference(elements)


def _stalling_chain():
    return [Select(lambda r: time.sleep(1.0) or True, name="stall")]


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_hung_run_all_surfaces_as_hung(backend):
    epochs = _epochs(_elements(n=4, punct_every=2))
    worker = _worker(backend, epochs, chain=_stalling_chain)
    try:
        worker.start("run_all")
        with pytest.raises(ShardError, match="hung") as excinfo:
            worker.join(0.2)
    finally:
        worker.close(abandon=True)
    assert isinstance(excinfo.value, WorkerHung)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_hung_lockstep_epoch_surfaces_as_hung(backend):
    epochs = split_epochs(_elements(), HashPartition("k", 2))
    workers = [_worker(backend) for _shard in range(2)]

    def fault_for(shard, epoch):
        if (shard, epoch) == (1, 2):
            return Fault("hang", shard, epoch, seconds=0.5)
        return None

    try:
        with pytest.raises(ShardError, match="hung"):
            run_lockstep(workers, epochs, timeout=0.1, fault_for=fault_for)
    finally:
        for worker in workers:
            worker.close(abandon=True)


@pytest.mark.parametrize("backend", TRANSPORTS)
def test_failed_command_carries_the_worker_traceback(backend):
    """Any command — not only an epoch — reports its failure as a
    ShardError with the worker-side traceback, on every transport."""
    worker = _worker(backend)
    try:
        with pytest.raises(ShardError, match="AttributeError") as excinfo:
            worker.call("restore", object())
    finally:
        worker.close(abandon=True)
    assert "restore_checkpoint" in excinfo.value.worker_traceback
