"""Per-engine wall-clock observation.

An :class:`Observer` is attached to one
:class:`~repro.core.engine.Engine` run and measures what the modeled
counters cannot: real ``perf_counter`` time per operator dispatch
(feeding ``wall_time`` estimates and fixed-bucket latency histograms),
batch-size distributions, and queue-depth / watermark-lag gauges
sampled at batch boundaries.

Overhead discipline
-------------------

The hot path must stay cheap enough that observation can be always-on:

* :class:`ObserveConfig.sampling` times one in N dispatches *per
  operator* (a shared countdown would alias with the dispatch pattern:
  in a two-operator chain an even stride lands on the same operator
  every time).  The engine keeps the untimed path to a single inlined
  counter decrement (no function call); only every N-th dispatch pays
  two ``perf_counter`` calls and one histogram insert.  Measured spans
  are charged with weight N, so ``wall_time`` and histogram counts
  remain estimates of the *total*.
* Gauges are sampled at chunk (micro-batch) boundaries, never per
  element.
* Span buffers are bounded (:class:`~repro.observe.trace.Tracer`).

M5 (``benchmarks/bench_m5_observer_overhead.py``) gates the overhead of
``sampling=64`` at <5% on the M2 CDR workload.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from time import perf_counter

from repro.core.metrics import (
    BATCH_BUCKETS,
    LATENCY_BUCKETS,
    MetricsRegistry,
    OperatorMetrics,
)
from repro.core.tuples import Punctuation
from repro.errors import PlanError
from repro.observe.trace import Tracer

__all__ = ["ObserveConfig", "Observer"]


@dataclass(frozen=True)
class ObserveConfig:
    """Picklable observation settings (crosses the fork boundary).

    Parameters
    ----------
    sampling:
        Time 1 in ``sampling`` dispatches (1 = time everything).  The
        cheap knob: overhead falls roughly linearly in it while
        ``wall_time`` stays an unbiased estimate under steady load.
    trace:
        Record engine/epoch/shard spans.
    trace_operators:
        Also record a span per *sampled* operator dispatch.  Off by
        default: per-dispatch spans are the one observation whose
        volume grows with the stream, bounded buffer or not.
    max_spans:
        Span buffer bound per tracer.
    latency_buckets / batch_buckets:
        Fixed histogram bounds (seconds / elements).
    context:
        Enclosing span path — set by coordinators
        (:class:`~repro.parallel.sharded.ShardedEngine`,
        :class:`~repro.resilience.supervisor.Supervisor`) so worker
        spans nest under the run/shard that spawned them.
    """

    sampling: int = 1
    trace: bool = True
    trace_operators: bool = False
    max_spans: int = 4096
    latency_buckets: tuple[float, ...] = LATENCY_BUCKETS
    batch_buckets: tuple[float, ...] = BATCH_BUCKETS
    context: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.sampling < 1:
            raise PlanError(
                f"observe sampling must be >= 1; got {self.sampling}"
            )

    def with_context(self, *segments: str) -> "ObserveConfig":
        """A copy whose span context is extended by ``segments``."""
        return dataclasses.replace(
            self, context=self.context + tuple(segments)
        )

    @staticmethod
    def coerce(value) -> "ObserveConfig | None":
        """Normalize an ``observe=`` argument.

        ``None``/``False`` → no observation; ``True`` → defaults; an
        ``int`` → that sampling stride; an :class:`ObserveConfig` →
        itself.
        """
        if value is None or value is False:
            return None
        if value is True:
            return ObserveConfig()
        if isinstance(value, int):
            return ObserveConfig(sampling=value)
        if isinstance(value, ObserveConfig):
            return value
        raise PlanError(
            f"observe must be None, bool, int (sampling stride), or "
            f"ObserveConfig; got {value!r}"
        )


class Observer:
    """Measurement hooks for one engine run.

    The engine decrements each operator's
    :attr:`~repro.core.metrics.OperatorMetrics.sample_tick` inline per
    dispatch and calls :meth:`timed_process` /
    :meth:`timed_batch` only when it hits zero — everything
    else here is off the per-element path.
    """

    def __init__(self, config: ObserveConfig, registry: MetricsRegistry) -> None:
        self.config = config
        self.registry = registry
        self.sampling = config.sampling
        self.tracer = Tracer(config.context, max_spans=config.max_spans)
        self._run_start: float | None = None
        self._max_ts = float("-inf")
        self._watermark = float("-inf")
        # Totals for the measured-pressure estimator (overload control).
        self._timed_records = 0
        self._timed_seconds = 0.0
        registry.counters["observe.sampling"] = float(self.sampling)

    # -- run lifecycle -----------------------------------------------------

    def start_run(self) -> None:
        self._run_start = perf_counter()

    def finish_run(self) -> None:
        """Close the engine span and publish buffered spans/counters."""
        if self._run_start is None:
            return
        end = perf_counter()
        if self.config.trace:
            self.tracer.record("engine", self._run_start, end)
        self.tracer.publish(self.registry)
        self.registry.incr("observe.elapsed_seconds", end - self._run_start)
        self._run_start = None

    @property
    def elapsed(self) -> float:
        """Wall seconds since :meth:`start_run` (0.0 before it)."""
        if self._run_start is None:
            return 0.0
        return perf_counter() - self._run_start

    # -- sampled dispatch timing ------------------------------------------

    def timed_process(
        self, operator, element, port: int, m: OperatorMetrics
    ) -> list:
        """Time one tuple dispatch (the engine hit the sampling tick)."""
        m.sample_tick = self.sampling
        t0 = perf_counter()
        produced = operator.process(element, port)
        dt = perf_counter() - t0
        self._charge(operator, m, dt, 1)
        return produced

    def timed_batch(
        self, process, operator, batch, port: int, m: OperatorMetrics
    ) -> object:
        """Time one batch dispatch through ``process`` — the operator's
        ``process_batch`` (row list) or ``process_columns``
        (``ColumnBatch``).

        The batch-size histogram counts *elements* either way, so
        tuple, row-batch, and columnar tiers stay comparable in the
        exporters.
        """
        m.sample_tick = self.sampling
        t0 = perf_counter()
        produced = process(batch, port)
        dt = perf_counter() - t0
        n = len(batch)
        self._charge(operator, m, dt, n)
        self.registry.histogram(
            f"op.{operator.name}.batch_size", self.config.batch_buckets
        ).observe(n, weight=self.sampling)
        return produced

    def _charge(self, operator, m: OperatorMetrics, dt: float, n: int) -> None:
        stride = self.sampling
        m.wall_time += dt * stride
        m.timed_invocations += 1
        self._timed_records += n
        self._timed_seconds += dt
        self.registry.histogram(
            f"op.{operator.name}.latency", self.config.latency_buckets
        ).observe(dt, weight=stride)
        if self.config.trace_operators and self.config.trace:
            t1 = perf_counter()
            self.tracer.record(
                f"op:{operator.name}", t1 - dt, t1, elements=n
            )

    def rewind(self) -> None:
        """Forget stream progress after a state rewind.

        ``restore_checkpoint`` rolls the engine back to an epoch
        boundary, but the high-watermark markers here and the gauges
        they feed describe the *abandoned* future.  Without this reset
        :meth:`on_chunk` would keep re-publishing the stale watermark
        into every chunk of a replayed trace.
        """
        self._max_ts = float("-inf")
        self._watermark = float("-inf")
        self.registry.gauges.clear()

    # -- batch-boundary gauges --------------------------------------------

    def on_chunk(self, last_element) -> None:
        """Note stream progress at an ingress chunk boundary (O(1))."""
        if isinstance(last_element, Punctuation):
            if last_element.ts > self._watermark:
                self._watermark = last_element.ts
        elif last_element.ts > self._max_ts:
            self._max_ts = last_element.ts
        if self._max_ts > float("-inf"):
            self.registry.gauge("ingress.max_ts").set(self._max_ts)
        if self._watermark > float("-inf"):
            self.registry.gauge("ingress.watermark").set(self._watermark)
            if self._max_ts > float("-inf"):
                self.registry.gauge("ingress.watermark_lag").set(
                    max(0.0, self._max_ts - self._watermark)
                )

    def sample_queues(self, queues) -> None:
        """Sample depth/size gauges for a set of named OpQueues."""
        for queue in queues:
            queue.sample(self.registry)

    # -- measured-pressure estimator --------------------------------------

    def mean_record_cost(self) -> float:
        """Measured wall seconds of operator work per ingress record.

        Total sampled operator self-time over total sampled elements —
        the per-element service cost the overload guard multiplies by
        its backlog to express queue pressure in *seconds of measured
        work* (see :class:`~repro.resilience.overload.OverloadGuard`
        with ``pressure="measured"``).  0.0 until something was timed.
        """
        if self._timed_records == 0:
            return 0.0
        return self._timed_seconds / self._timed_records
