"""Worker failures outside an epoch keep their traceback.

Before the epoch runtime, only the ``epoch`` branch of the process
worker's command loop caught exceptions: an operator raising inside
``restore`` (or ``replay``, ``revise``, ``snapshot``, ``finish``) killed
the child, and the parent could only report ``worker process died
without a result (exitcode=1)``.  Every command now runs under one
``try/except`` on every transport.
"""

from __future__ import annotations

import pytest

from repro.core import ListSource, Punctuation
from repro.core.graph import linear_plan
from repro.errors import ShardError
from repro.operators import Select
from repro.parallel import RoundRobinPartition, ShardedEngine
from repro.resilience import FaultInjector, Supervisor


class _BrittleRestore(Select):
    """A filter whose state cannot be restored."""

    def restore(self, state: object) -> None:
        raise RuntimeError("brittle restore")


@pytest.mark.parametrize("backend", ["inline", "thread", "process"])
def test_restore_failure_surfaces_with_worker_traceback(backend):
    plan = linear_plan(
        "s", [_BrittleRestore(lambda r: True, name="brittle")], "out"
    )
    elements: list = []
    for i in range(40):
        elements.append({"ts": float(i), "v": i})
        if i % 10 == 9:
            ts = float(i)
            elements.append(Punctuation.time_bound("ts", ts, ts=ts))
    source = ListSource("s", elements, ts_attr="ts")
    engine = ShardedEngine(plan, RoundRobinPartition(2), backend=backend)
    injector = FaultInjector(seed=3)
    injector.crash_shard(0, epoch=1)
    supervisor = Supervisor(engine, injector=injector, backoff_base=0.001)
    # Recovery rebuilds shard 0 and restores its checkpoint — which
    # raises inside the worker.
    with pytest.raises(ShardError, match="brittle restore") as excinfo:
        supervisor.run([source])
    assert "RuntimeError: brittle restore" in excinfo.value.worker_traceback
