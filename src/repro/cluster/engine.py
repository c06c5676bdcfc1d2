"""Cluster execution with virtual-time network accounting.

A :class:`ClusterEngine` runs one plan over a simulated
:class:`~repro.cluster.spec.ClusterSpec` under a
:class:`~repro.cluster.place.Placement`.  Execution is a *pipeline of
engines*: the linear chain is cut into the placement's stages, each
stage is an ordinary single-node :class:`~repro.core.engine.Engine`
over its slice of the chain, and every element the stream produces is
cascaded stage to stage in order.  Because the composed operator
sequence is exactly the single engine's, outputs are element-identical
to single-node execution by construction — the placement decides only
where virtual time is spent, never what is computed.  The differential
suite (``tests/cluster``) certifies this across the full plan registry
and multiple topologies.

Push-down placements run the Gigascope split instead: the stateless
prefix plus a :class:`~repro.operators.partial_aggregate.GroupPartial`
execute upstream, the (much thinner) partial-state stream crosses the
network, and the egress node replays the shard-merge discipline of
:class:`~repro.parallel.sharded.ShardedEngine` with a single upstream
run — the same ``GroupMerger``/``BucketMerger`` machinery the sharded
differential suite certifies at one shard.

Accounting is *virtual time*, not wall clock, so runs are
deterministic and benchmark gates cannot flake:

* each node is charged its operators' modeled ``busy_time`` divided by
  the node's speed factor;
* each link is charged ``bytes / bandwidth`` plus ``latency`` once per
  epoch in which it carried anything (transfers batch per epoch);
* the run's **virtual makespan** is the maximum charge over all
  resources — the steady-state bottleneck of the pipeline.

Per-link observability lands in the run's metrics registry:
``cluster.link.<src>-><dst>.bytes`` / ``.records`` / ``.transfers`` /
``.latency`` / ``.time`` counters, a ``.epoch_bytes`` gauge sampled
every epoch, and ``cluster.node.<name>.cpu_time`` per node.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.cluster.place import Placement, plan_placement
from repro.cluster.spec import ClusterSpec
from repro.core.engine import Engine, resolve_sources
from repro.core.graph import Plan
from repro.core.metrics import MetricsRegistry
from repro.core.stream import Source
from repro.core.tuples import Punctuation, Record
from repro.errors import PlanError
from repro.gigascope.decompose import linearize_plan
from repro.parallel.combine import (
    BucketMerger,
    GroupMerger,
    merge_metrics,
)
from repro.parallel.partition import RoundRobinPartition, split_epochs
from repro.parallel.runtime import ExecConfig, ShardCore

__all__ = ["ClusterEngine", "ClusterResult", "run_cluster"]

Element = Record | Punctuation


@dataclass
class ClusterResult:
    """Outputs plus the virtual resource accounting of one run."""

    outputs: dict[str, list[Element]]
    metrics: MetricsRegistry
    placement: Placement
    #: per-link usage: "src->dst" -> {bytes, records, transfers,
    #: latency, time}
    network: dict[str, dict]
    #: per-node virtual CPU seconds (speed-scaled busy time)
    cpu: dict[str, float]
    #: bottleneck over all nodes and links
    makespan: float

    def records(self, output: str = "out") -> list[Record]:
        return [el for el in self.outputs[output] if isinstance(el, Record)]

    def values(self, output: str = "out") -> list[dict]:
        return [rec.values for rec in self.records(output)]


# ---------------------------------------------------------------------------
# virtual network accounting
# ---------------------------------------------------------------------------


class _NetAccounting:
    """Bytes/records/transfers per link, with per-epoch gauge samples."""

    def __init__(self, cluster: ClusterSpec) -> None:
        self.cluster = cluster
        self.bytes: dict[tuple[str, str], float] = {}
        self.records: dict[tuple[str, str], int] = {}
        self.transfers: dict[tuple[str, str], int] = {}
        self._epoch_bytes: dict[tuple[str, str], float] = {}

    def ship(self, src: str, dst: str, elements: Sequence[Element]) -> None:
        """Charge ``elements`` crossing ``src -> dst`` (free on-node)."""
        if src == dst or not elements:
            return
        key = (src, dst)
        size = 0.0
        n_records = 0
        for el in elements:
            if isinstance(el, Record):
                size += el.size
                n_records += 1
        self.bytes[key] = self.bytes.get(key, 0.0) + size
        self.records[key] = self.records.get(key, 0) + n_records
        self._epoch_bytes[key] = self._epoch_bytes.get(key, 0.0) + size

    def end_epoch(self, registry: MetricsRegistry | None = None) -> None:
        """Close one transfer round: every link that carried anything
        this epoch pays its latency once and samples its gauge."""
        for key, size in self._epoch_bytes.items():
            self.transfers[key] = self.transfers.get(key, 0) + 1
            if registry is not None:
                registry.gauge(
                    f"cluster.link.{key[0]}->{key[1]}.epoch_bytes"
                ).set(size)
        self._epoch_bytes.clear()

    def finalize(self, registry: MetricsRegistry) -> dict[str, dict]:
        """Counters into ``registry``; return the per-link summary."""
        self.end_epoch(registry)
        network: dict[str, dict] = {}
        for key in sorted(self.bytes):
            src, dst = key
            link = self.cluster.link(src, dst)
            transfers = self.transfers.get(key, 0)
            latency = transfers * link.latency
            time = self.bytes[key] / link.bandwidth + latency
            label = f"cluster.link.{src}->{dst}"
            registry.incr(f"{label}.bytes", self.bytes[key])
            registry.incr(f"{label}.records", self.records[key])
            registry.incr(f"{label}.transfers", transfers)
            registry.incr(f"{label}.latency", latency)
            registry.incr(f"{label}.time", time)
            network[f"{src}->{dst}"] = {
                "bytes": self.bytes[key],
                "records": self.records[key],
                "transfers": transfers,
                "latency": latency,
                "time": time,
            }
        return network


# ---------------------------------------------------------------------------
# the staged pipeline
# ---------------------------------------------------------------------------


class _StagePipeline:
    """The placement's stages as a cascade of started engines.

    ``chains[i]`` is the operator slice stage ``i`` hosts; elements fed
    at the front cascade through every stage (crossing links as they
    go) and the last stage's emissions come back to the caller.
    """

    def __init__(
        self,
        stages,
        chains: list[list],
        input_name: str,
        output_name: str,
        batch_size,
        acct: _NetAccounting,
        cluster: ClusterSpec,
    ) -> None:
        self.stages = stages
        self.chains = chains
        self.acct = acct
        self.cluster = cluster
        config = ExecConfig(batch_size=batch_size)
        self.cores = [
            ShardCore(ops, input_name, output_name, config) for ops in chains
        ]
        self.engines = [core.engine for core in self.cores]

    def _cascade(self, first: int, prev: str, data) -> list:
        """Feed ``data`` (leaving node ``prev``) through stages
        ``first``.. in order, crossing links as it goes."""
        for index in range(first, len(self.stages)):
            node = self.stages[index].node
            self.acct.ship(prev, node, data)
            data = self.cores[index].feed_elements(data)
            prev = node
        return data

    def feed(self, elements) -> list:
        """Cascade ``elements`` from the ingress through every stage."""
        return self._cascade(0, self.cluster.ingress, list(elements))

    def finish(self) -> tuple[list, list[MetricsRegistry]]:
        """Flush stages front to back, cascading each stage's tail.

        Mirrors the single engine's ``_flush_all`` (operators flush in
        topological order, each flush propagating downstream before
        the next operator flushes), so the tail order is identical.
        Returns the elements the *last* stage emits during the flush,
        plus every stage's metrics registry for merging.
        """
        tail: list[Element] = []
        registries: list[MetricsRegistry] = []
        for index, core in enumerate(self.cores):
            flush, metrics = core.finish()
            registries.append(metrics)
            # After cascading, the carry is last-stage output (or the
            # last stage's own flush when index is the last stage).
            tail.extend(
                self._cascade(index + 1, self.stages[index].node, flush)
            )
        return tail, registries

    def last_node(self) -> str:
        return self.stages[-1].node

    def operator_stats(self) -> dict:
        """Live per-operator metrics (for adaptive re-placement)."""
        merged = merge_metrics(engine.metrics for engine in self.engines)
        return merged.operators

    def snapshot_states(self) -> dict:
        return {
            op.name: op.snapshot()
            for chain in self.chains
            for op in chain
        }

    def restore_states(self, states: Mapping) -> None:
        for chain in self.chains:
            for op in chain:
                if op.name in states:
                    op.restore(states[op.name])


# ---------------------------------------------------------------------------
# the cluster engine
# ---------------------------------------------------------------------------


class ClusterEngine:
    """Run a plan on a simulated cluster under a placement.

    Parameters
    ----------
    plan:
        The query plan.  Linear single-input chains run staged across
        nodes; anything else runs whole on the placement's one node.
    cluster:
        The simulated topology.
    placement:
        A :class:`~repro.cluster.place.Placement`; defaults to
        :func:`~repro.cluster.place.plan_placement`'s choice.  The
        stages must cover the plan's chain in order (checked).
    stats:
        Optional prior-run ``metrics.operators`` mapping, forwarded to
        the planner when ``placement`` is not given.
    """

    def __init__(
        self,
        plan: Plan,
        cluster: ClusterSpec,
        placement: Placement | None = None,
        batch_size: int | None = None,
        stats=None,
    ) -> None:
        if not isinstance(cluster, ClusterSpec):
            raise PlanError(f"cluster must be a ClusterSpec; got {cluster!r}")
        plan.validate()
        self.plan = plan
        self.cluster = cluster
        self.batch_size = batch_size
        if placement is None:
            placement = plan_placement(plan, cluster, stats=stats)
        self.placement = placement
        self._chain = linearize_plan(plan)
        self._validate_placement()

    # -- validation ------------------------------------------------------

    def _validate_placement(self) -> None:
        placement = self.placement
        for stage in placement.stages:
            self.cluster.node(stage.node)
        if placement.mode == "single":
            return
        if self._chain is None:
            raise PlanError(
                "chain placement over a non-linear plan; use mode='single'"
            )
        placed = [op for stage in placement.stages for op in stage.ops]
        if placement.mode == "chain":
            expected = [op.name for op in self._chain]
        elif placement.mode == "pushdown":
            if placement.split is None:
                raise PlanError("pushdown placement carries no split")
            expected = [op.name for op in placement.split.prefix]
            expected.append(placed[-1] if placed else "cluster_partial")
        else:
            raise PlanError(f"unknown placement mode {placement.mode!r}")
        if placed != expected:
            raise PlanError(
                f"placement stages {placed} do not cover the chain "
                f"{expected} in order"
            )

    def describe(self) -> dict:
        return {
            "cluster": self.cluster.describe(),
            "placement": self.placement.describe(),
        }

    # -- execution -------------------------------------------------------

    def run(
        self, sources: Sequence[Source] | Mapping[str, Source]
    ) -> ClusterResult:
        if self.placement.mode == "single":
            return self._run_single(sources)
        return self._run_staged(sources)

    def _run_single(self, sources) -> ClusterResult:
        node = self.placement.stages[0].node
        acct = _NetAccounting(self.cluster)
        by_name = resolve_sources(self.plan, sources)
        for name, source in by_name.items():
            acct.ship(self.cluster.ingress, node, list(source.events()))
        # Engine.run interleaves multi-source input by (ts, seq) — the
        # staged path never sees multi-input plans, but this one must.
        result = Engine(self.plan, batch_size=self.batch_size).run(sources)
        for elements in result.outputs.values():
            acct.ship(node, self.cluster.egress, elements)
        return self._assemble(
            result.outputs, [result.metrics], acct, self._stage_cpu(
                [result.metrics], {op: node for op in
                 self.placement.stages[0].ops}
            )
        )

    def _build_chains(self) -> list[list]:
        """Deep-copied operator slices, one per stage (state-free)."""
        placement = self.placement
        if placement.mode == "pushdown":
            split = placement.split
            template = [copy.deepcopy(op) for op in split.prefix]
            partial_name = placement.stages[-1].ops[-1]
            template.append(split.make_partial(name=partial_name))
        else:
            template = [copy.deepcopy(op) for op in self._chain]
        by_name = {op.name: op for op in template}
        return [
            [by_name[name] for name in stage.ops]
            for stage in placement.stages
        ]

    def _run_staged(self, sources) -> ClusterResult:
        placement = self.placement
        input_name = next(iter(self.plan.inputs))
        output_name = next(iter(self.plan.outputs))
        by_name = resolve_sources(self.plan, sources)
        epochs = split_epochs(
            by_name[input_name].events(), RoundRobinPartition(1)
        )
        acct = _NetAccounting(self.cluster)
        registry_holder = MetricsRegistry()
        pipeline = _StagePipeline(
            placement.stages,
            self._build_chains(),
            input_name,
            output_name,
            self.batch_size,
            acct,
            self.cluster,
        )
        partial_op = pipeline.chains[-1][-1]
        epoch_outputs: list[list[Element]] = []
        progress: list[float] = []
        out: list[Element] = []
        for epoch in epochs:
            payload = list(epoch.batches[0])
            if epoch.punct is not None:
                payload.append(epoch.punct)
            produced = pipeline.feed(payload)
            if placement.mode == "chain":
                acct.ship(
                    pipeline.last_node(), self.cluster.egress, produced
                )
                out.extend(produced)
            else:
                acct.ship(
                    pipeline.last_node(), self.cluster.egress, produced
                )
                epoch_outputs.append(produced)
                progress.append(partial_op.max_ts)
            acct.end_epoch(registry_holder)
        tail, registries = pipeline.finish()
        acct.ship(pipeline.last_node(), self.cluster.egress, tail)
        if placement.mode == "chain":
            out.extend(tail)
        else:
            out = self._merge_partials(epochs, epoch_outputs, progress, tail)
        cpu = self._stage_cpu(registries, placement.assignment())
        return self._assemble(
            {output_name: out}, [*registries, registry_holder], acct, cpu
        )

    # -- push-down merge (single-run shard discipline) -------------------

    def _merge_partials(
        self, epochs, epoch_outputs, progress, tail
    ) -> list[Element]:
        """Unlike the sharded coordinator — which only sees *input*
        punctuations via the epoch stream — this single-run merge walks
        the shipped stream element-wise.  The partial operator closes
        matching groups and propagates every punctuation it receives
        (including ones injected inside the stage, e.g. by a
        ``Heartbeat`` in the prefix), so the shipped stream carries the
        exact punctuation schedule the single-engine terminal aggregate
        would have seen."""
        split = self.placement.split
        if split.window is not None:
            return self._merge_tumbling(
                epochs, epoch_outputs, progress, tail
            )
        merger = GroupMerger(
            split.group_names, split.aggregates, split.having
        )
        out: list[Element] = []
        for rows in (*epoch_outputs, tail):
            for el in rows:
                if isinstance(el, Record):
                    merger.absorb(el)
                else:
                    out.extend(merger.close_matching(el))
                    out.append(el)
        global_max = progress[-1] if progress else 0.0
        out.extend(merger.close_all(global_max))
        return out

    def _merge_tumbling(
        self, epochs, epoch_outputs, progress, tail
    ) -> list[Element]:
        split = self.placement.split
        merger = BucketMerger(
            split.window,
            split.group_names,
            split.aggregates,
            split.having,
            bucket_attr=split.bucket_attr,
        )
        # Tumbling partials keep (bucket, group) states until flush, so
        # every state row is in the tail; the per-epoch streams carry
        # only propagated punctuations.
        for rows in (*epoch_outputs, tail):
            for el in rows:
                if isinstance(el, Record):
                    merger.absorb(el)
        out: list[Element] = []
        current = float("-inf")
        for index, epoch in enumerate(epochs):
            produced = epoch_outputs[index]
            puncts = [
                el for el in produced if isinstance(el, Punctuation)
            ]
            for pos, el in enumerate(puncts):
                bound = el.bound_for(split.ts_attr)
                if bound is not None and bound > current:
                    current = bound
                if pos == len(puncts) - 1 and epoch.punct is not None:
                    # The epoch's trailing input punctuation: every
                    # record of the epoch precedes it, so the stream
                    # watermark here is the record progress too — the
                    # single engine closed record-crossed buckets
                    # before emitting this punctuation.
                    if progress[index] > current:
                        current = progress[index]
                out.extend(merger.close_upto(current))
                out.append(el)
        out.extend(merger.close_all())
        return out

    # -- accounting ------------------------------------------------------

    def _stage_cpu(self, registries, assignment) -> dict[str, float]:
        """Virtual CPU seconds per node: busy_time / speed factor."""
        cpu: dict[str, float] = {}
        merged = merge_metrics(registries)
        for op_name, node in assignment.items():
            busy = merged.for_operator(op_name).busy_time
            cpu[node] = cpu.get(node, 0.0) + busy / self.cluster.speed(node)
        return cpu

    def _assemble(self, outputs, registries, acct, cpu) -> ClusterResult:
        metrics = merge_metrics(registries)
        network = acct.finalize(metrics)
        for node, seconds in sorted(cpu.items()):
            metrics.incr(f"cluster.node.{node}.cpu_time", seconds)
        link_times = [usage["time"] for usage in network.values()]
        makespan = max(list(cpu.values()) + link_times, default=0.0)
        return ClusterResult(
            outputs=outputs,
            metrics=metrics,
            placement=self.placement,
            network=network,
            cpu=cpu,
            makespan=makespan,
        )


def run_cluster(
    plan: Plan,
    sources: Sequence[Source] | Mapping[str, Source],
    cluster: ClusterSpec,
    placement: Placement | None = None,
    batch_size: int | None = None,
    stats=None,
) -> ClusterResult:
    """One-shot convenience: build a :class:`ClusterEngine` and run it."""
    engine = ClusterEngine(
        plan,
        cluster,
        placement=placement,
        batch_size=batch_size,
        stats=stats,
    )
    return engine.run(sources)
