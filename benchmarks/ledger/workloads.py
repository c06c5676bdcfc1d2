"""The six ledger workloads: inputs, plans, and the public call each times.

Everything here goes through public ``repro.*`` names only.  Sizes and
rates are frozen constants (taken on the 2-core reference box, see
README.md); nothing is calibrated at run time.  ``scale`` divides the
input sizes for ``--smoke``.

A closed-loop workload is a class with

* ``generate(seed, scale)``  -> raw rows (layer ``workloads``),
* ``build(raw, spans)``      -> state: sources, plan, registered queries,
* ``reference(state)``       -> expected outputs from the tuple-at-a-time
  single ``Engine`` (the repo's element-identity oracle),
* ``call(state, observe)``   -> ``(outputs, metrics)`` of one *pass*: one
  complete public call over the whole input.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

from repro.columnar import Col
from repro.core import Engine, ListSource, Punctuation, run_plan
from repro.core.graph import linear_plan
from repro.core.stream import records_from_dicts
from repro.core.tuples import Field, Schema
from repro.cql import Catalog, compile_query
from repro.gigascope import TCP, gigascope_catalog, to_stream_schema
from repro.operators import AggSpec, Aggregate, Select, WindowedAggregate
from repro.operators.project import Project
from repro.parallel import HashPartition, ShardedEngine
from repro.resilience import Supervisor
from repro.service import ServiceConfig, StandingQueryService
from repro.windows import TumblingWindow
from repro.workloads import (
    CDRConfig,
    CDRGenerator,
    NetflowConfig,
    PacketGenerator,
)

#: Input records per pass (frozen; README.md says why each was chosen).
SIZES = {
    "cdr_columnar": 400_000,
    "netflow_rowbatch": 100_000,
    "rtt_join_tuple": 100_000,  # packets; ~25 000 SYN/SYN-ACK elements
    "cdr_supervised_process": 40_000,
    "service_mixed64": 30_000,
}
PUNCT_EVERY = 2_000  # cdr_supervised_process epoch length (records)
N_SHARDS = 2
SERVICE_QUERIES = 64
SERVICE_PORTS = 64
#: netflow_paced: fixed offered rate, ~15 % of row-batch capacity.
PACED_RATE = 40_000
PACED_MICRO_BATCH = 100
PACED_WARMUP_S = 2.0
PACED_LATENCY_LIMIT_MS = 5.0


def cdr_plan():
    return linear_plan(
        "calls",
        [
            Select(Col("is_intl"), name="intl"),
            Project(
                {
                    "origin": "origin",
                    "connect_ts": "connect_ts",
                    "duration": "duration",
                },
                name="proj",
            ),
            Aggregate(
                ["origin"],
                [AggSpec("n", "count"), AggSpec("talk", "sum", "duration")],
                name="per_origin",
            ),
        ],
    )


def netflow_plan(window: float):
    return linear_plan(
        "Traffic",
        [
            Select(Col("length") > 512, name="big"),
            Project(
                {"ts": "ts", "src_ip": "src_ip", "length": "length"},
                name="proj",
            ),
            WindowedAggregate(
                TumblingWindow(window),
                ["src_ip"],
                [AggSpec("n", "count"), AggSpec("vol", "sum", "length")],
                name="per_bucket",
            ),
        ],
    )


def _tuple_reference(state):
    """The oracle: tuple representation, ``batch_size=None``, one Engine."""
    return Engine(state.plan).run(state.sources).outputs


class CdrColumnar:
    """Kernel-bound: columnar select/project/aggregate over 400k CDRs;
    operators are ~87% of a pass."""

    name = "cdr_columnar"
    #: how input reaches the engine; the core.stream drain probe mirrors it
    ingress = "sliced"
    batch_size = 4096
    representation = "columnar"

    def generate(self, seed, scale=1):
        n = SIZES[self.name] // scale
        return CDRGenerator(CDRConfig(seed=seed)).generate(n)

    def build(self, raw, spans):
        with spans.span("core.stream.source_build"):
            source = ListSource("calls", raw, ts_attr="connect_ts")
        return SimpleNamespace(
            plan=cdr_plan(), sources=[source], n_records=len(raw)
        )

    reference = staticmethod(_tuple_reference)

    def call(self, state, observe=None):
        result = run_plan(
            state.plan,
            state.sources,
            batch_size=self.batch_size,
            representation="columnar",
            column_backend="python",
            observe=observe,
        )
        return result.outputs, result.metrics


class NetflowRowbatch:
    """Row batches of 256 (the ``batch_size="auto"`` point) through a
    windowed aggregate; ``columnar/`` is never entered."""

    name = "netflow_rowbatch"
    ingress = "events"
    batch_size = 256
    representation = "tuple"
    window = 10.0

    def generate(self, seed, scale=1):
        n = SIZES[self.name] // scale
        return PacketGenerator(NetflowConfig(seed=seed)).generate(n)

    def build(self, raw, spans):
        with spans.span("core.stream.source_build"):
            source = ListSource("Traffic", raw, ts_attr="ts")
        return SimpleNamespace(
            plan=netflow_plan(self.window),
            sources=[source],
            n_records=len(raw),
        )

    reference = staticmethod(_tuple_reference)

    def call(self, state, observe=None):
        result = run_plan(
            state.plan,
            state.sources,
            batch_size=self.batch_size,
            observe=observe,
        )
        return result.outputs, result.metrics


RTT_QUERY = (
    "select S.ts, (A.ts - S.ts) as rtt "
    "from tcp_syn [range 2] S, tcp_syn_ack [range 2] A "
    "where S.src_ip = A.dst_ip and S.dst_ip = A.src_ip "
    "and S.src_port = A.dst_port and S.dst_port = A.src_port"
)


class RttJoinTuple:
    """The tuple-at-a-time reference path and the only multi-input plan:
    CQL-compiled SYN/SYN-ACK window join over a heap-merged source pair."""

    name = "rtt_join_tuple"
    ingress = "merge"
    batch_size = None
    representation = "tuple"

    def generate(self, seed, scale=1):
        n = SIZES[self.name] // scale
        return PacketGenerator(NetflowConfig(seed=seed)).generate(n)

    def build(self, raw, spans):
        syns = [p for p in raw if p["flags"] == "SYN"]
        acks = [p for p in raw if p["flags"] == "SYN-ACK"]
        with spans.span("core.stream.source_build"):
            sources = [
                ListSource("tcp_syn", syns, ts_attr="ts"),
                ListSource("tcp_syn_ack", acks, ts_attr="ts"),
            ]
        with spans.span("cql.compile", queries=1):
            catalog = gigascope_catalog()
            schema = to_stream_schema(TCP)
            catalog.register_stream("tcp_syn", schema)
            catalog.register_stream("tcp_syn_ack", schema)
            plan = compile_query(RTT_QUERY, catalog)
        return SimpleNamespace(
            plan=plan,
            sources=sources,
            n_records=len(syns) + len(acks),
            cql_queries=1,
        )

    reference = staticmethod(_tuple_reference)

    def call(self, state, observe=None):
        result = run_plan(
            state.plan, state.sources, batch_size=None, observe=observe
        )
        return result.outputs, result.metrics


def punctuated(rows, ts_attr, every):
    """Records with a ``time_bound`` punctuation after every ``every``."""
    out = []
    for i, rec in enumerate(records_from_dicts(rows, ts_attr=ts_attr)):
        out.append(rec)
        if i % every == every - 1:
            out.append(Punctuation.time_bound(ts_attr, rec.ts, ts=rec.ts))
    return out


class CdrSupervisedProcess:
    """Epoch-runtime-bound: 2 forked shard workers under a Supervisor (split,
    pickle, pipes, lockstep, checkpoints); kernels are <10% of a pass."""

    name = "cdr_supervised_process"
    ingress = "events"
    batch_size = 256  # ShardedEngine's "auto"
    representation = "tuple"

    def generate(self, seed, scale=1):
        n = SIZES[self.name] // scale
        return CDRGenerator(CDRConfig(seed=seed)).generate(n)

    def build(self, raw, spans):
        # --smoke shrinks the epochs with the input: 20 epochs either way.
        every = max(1, PUNCT_EVERY * len(raw) // SIZES[self.name])
        with spans.span("core.stream.source_build"):
            source = ListSource(
                "calls", punctuated(raw, "connect_ts", every)
            )
        return SimpleNamespace(
            plan=cdr_plan(),
            sources=[source],
            n_records=len(raw),
            partition=HashPartition(["origin"], N_SHARDS),
            raw=raw,
        )

    reference = staticmethod(_tuple_reference)

    def supervisor(self, state, backend="process", observe=None, **kwargs):
        return Supervisor(
            ShardedEngine(
                state.plan, state.partition, backend=backend, observe=observe
            ),
            backoff_base=0.001,
            **kwargs,
        )

    def call(self, state, observe=None):
        # Worker spawn and teardown are inside the pass, as a caller
        # pays them.
        result = self.supervisor(state, observe=observe).run(state.sources)
        return result.outputs, result.metrics


def service_catalog():
    catalog = Catalog()
    catalog.register_stream(
        "pkts",
        Schema(
            [
                Field("ts", float),
                Field("src", str),
                Field("port", int),
                Field("len", int),
            ],
            ordering="ts",
            name="pkts",
        ),
    )
    return catalog


def service_queries(seed):
    """32 windowed aggregates sharing a prefix + 32 ``port = k`` selects."""
    half = SERVICE_QUERIES // 2
    shared = [
        f"select tb, src, count(*) as n, sum(len) as s from pkts"
        f" where len > 3 group by ts/10 as tb, src limit {k}"
        for k in range(1, half + 1)
    ]
    ports = random.Random(seed).sample(range(SERVICE_PORTS), half)
    return shared + [
        f"select src, len from pkts where port = {k}" for k in ports
    ]


class ServiceMixed64:
    """The multi-tenant surface: 64 registered CQL queries in one merged DAG
    (predicate index, shared prefix, per-query drain)."""

    name = "service_mixed64"
    ingress = "events"
    batch_size = 256
    representation = "tuple"

    def generate(self, seed, scale=1):
        n = SIZES[self.name] // scale
        rng = random.Random(seed)
        rows = [
            {
                "ts": float(i),
                "src": rng.choice("abc"),
                "port": rng.randrange(SERVICE_PORTS),
                "len": rng.randrange(23),
            }
            for i in range(n)
        ]
        return SimpleNamespace(rows=rows, queries=service_queries(seed))

    def service(self, state, observe=None):
        """The registered service for one ``observe`` setting (cached:
        observation is fixed at construction by ``ServiceConfig``)."""
        key = getattr(observe, "sampling", None)
        if key not in state.services:
            svc = StandingQueryService(
                state.catalog,
                ServiceConfig(batch_size=self.batch_size, observe=observe),
            )
            handles = [svc.register(q) for q in state.queries]
            state.services[key] = (svc, handles)
        return state.services[key]

    def build(self, raw, spans):
        with spans.span("core.stream.source_build"):
            source = ListSource(
                "pkts", records_from_dicts(raw.rows, ts_attr="ts")
            )
        state = SimpleNamespace(
            catalog=service_catalog(),
            queries=raw.queries,
            sources=[source],
            n_records=len(raw.rows),
            services={},
            cql_queries=len(raw.queries),
        )
        with spans.span("cql.compile", queries=len(raw.queries)):
            state.plans = [
                compile_query(q, state.catalog) for q in raw.queries
            ]
        with spans.span("service.register", queries=len(raw.queries)):
            self.service(state)
        return state

    def reference(self, state):
        """One isolated tuple-at-a-time Engine per query."""
        return [
            Engine(plan).run(state.sources).outputs["out"]
            for plan in state.plans
        ]

    def call(self, state, observe=None):
        svc, handles = self.service(state, observe)
        result = svc.run(state.sources)
        return [result.query(h).outputs for h in handles], result.metrics


class NetflowPaced:
    """Open loop at a fixed 40k records/s through the incremental
    ``feed_batch`` path, the only place answer latency is measured;
    ``measure.paced_schedule`` drives it, not ``call``."""

    name = "netflow_paced"
    ingress = "feed"
    batch_size = 256
    representation = "tuple"
    window = 1.0

    def generate(self, seed, scale=1, seconds=10.0):
        # The schedule length sets the size (--smoke shortens it 20x).
        n = int(PACED_RATE * seconds)
        return PacketGenerator(NetflowConfig(seed=seed)).generate(n)

    def build(self, raw, spans):
        with spans.span("core.stream.source_build"):
            records = records_from_dicts(raw, ts_attr="ts")
            source = ListSource("Traffic", records)
        mb = PACED_MICRO_BATCH
        return SimpleNamespace(
            plan=netflow_plan(self.window),
            sources=[source],
            n_records=len(records),
            batches=[records[i : i + mb] for i in range(0, len(records), mb)],
        )

    reference = staticmethod(_tuple_reference)

    def engine(self, state, observe=None):
        return Engine(state.plan, batch_size=self.batch_size, observe=observe)


WORKLOADS = {
    w.name: w
    for w in (
        CdrColumnar(),
        NetflowRowbatch(),
        RttJoinTuple(),
        CdrSupervisedProcess(),
        ServiceMixed64(),
        NetflowPaced(),
    )
}
