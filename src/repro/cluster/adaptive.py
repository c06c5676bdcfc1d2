"""Drift-driven re-placement: the ``RePlace`` revision in action.

The placement planner works from declared selectivities and costs; the
stream is under no obligation to honour them.  When measured rates
drift — a filter that was supposed to drop 90% of the traffic starts
passing it, so the thin link it fronted saturates —
:class:`AdaptiveClusterEngine` notices at an epoch boundary and moves
operators to better nodes mid-run.

The control loop mirrors ``repro.adaptive``'s discipline:

* **measure** — per-operator metrics accumulate in the live stage
  engines (observed selectivity, records, modeled busy time);
* **decide** — every ``replan_every`` epochs the planner re-runs under
  the measured stats, and the incumbent placement is re-scored under
  the *same* stats (comparing a stale model against a fresh one would
  manufacture migrations);
* **hysteresis** — migrate only when the candidate's modeled makespan
  beats the incumbent's by at least ``improvement``× (moves are not
  free; oscillating between two near-equal placements is worse than
  either);
* **migrate** — snapshot every operator's state by name, rebuild the
  stage pipeline on the new assignment, restore state into the
  same-named operators (the PR 3 machinery), and log a
  :class:`~repro.adaptive.revision.RePlace`
  :class:`~repro.adaptive.revision.Migration`.

Migrations happen at epoch (punctuation) boundaries only, and the
operator sequence never changes — so outputs stay element-identical to
the single engine no matter how often the placement moves
(``tests/cluster/test_replace.py`` certifies this under forced drift).

Adaptive runs use plain chain placements (``pushdown=False``): the
push-down variant changes the executed operator set, and migrating
into or out of a partial-aggregate split mid-stream would need a
state *transformation*, not a state copy.  That is future work; the
planner's one-shot mode already exploits push-down.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.adaptive.revision import Migration, RePlace
from repro.cluster.engine import (
    ClusterResult,
    _NetAccounting,
    _StagePipeline,
)
from repro.cluster.place import (
    Placement,
    assignment_makespan,
    plan_placement,
)
from repro.cluster.spec import ClusterSpec
from repro.core.engine import resolve_sources
from repro.core.graph import Plan
from repro.core.metrics import MetricsRegistry
from repro.core.stream import Source
from repro.errors import PlanError
from repro.gigascope.decompose import linearize_plan
from repro.parallel.combine import merge_metrics
from repro.parallel.partition import RoundRobinPartition, split_epochs

__all__ = ["AdaptiveClusterEngine"]


class AdaptiveClusterEngine:
    """A cluster run that re-places operators when measured rates drift.

    Parameters
    ----------
    plan:
        Must be a single-input linear chain (placement migration moves
        chain slices; joins/unions run under the one-shot
        :class:`~repro.cluster.engine.ClusterEngine`).
    replan_every:
        Epochs between planner consultations.
    improvement:
        Minimum incumbent/candidate makespan ratio to migrate (> 1).
    """

    def __init__(
        self,
        plan: Plan,
        cluster: ClusterSpec,
        batch_size: int | None = None,
        replan_every: int = 8,
        improvement: float = 1.2,
        record_size: float = 1.0,
    ) -> None:
        plan.validate()
        if linearize_plan(plan) is None:
            raise PlanError(
                "AdaptiveClusterEngine needs a single-input linear "
                "chain; run non-linear plans under ClusterEngine"
            )
        if replan_every < 1:
            raise PlanError(
                f"replan_every must be >= 1; got {replan_every}"
            )
        if not (improvement > 1.0):
            raise PlanError(
                f"improvement must be > 1.0 (hysteresis); "
                f"got {improvement}"
            )
        self.plan = plan
        self.cluster = cluster
        self.batch_size = batch_size
        self.replan_every = replan_every
        self.improvement = improvement
        self.record_size = record_size
        self.migrations: list[Migration] = []

    # -- internals -------------------------------------------------------

    def _chains_for(self, placement: Placement) -> list[list]:
        """Fresh deep-copied chain slices for ``placement``'s stages."""
        import copy

        chain = linearize_plan(self.plan)
        template = {op.name: copy.deepcopy(op) for op in chain}
        return [
            [template[name] for name in stage.ops]
            for stage in placement.stages
        ]

    def _pipeline(
        self, placement: Placement, acct: _NetAccounting
    ) -> _StagePipeline:
        input_name = next(iter(self.plan.inputs))
        output_name = next(iter(self.plan.outputs))
        return _StagePipeline(
            placement.stages,
            self._chains_for(placement),
            input_name,
            output_name,
            self.batch_size,
            acct,
            self.cluster,
        )

    def _charge_cpu(
        self, cpu: dict, registries, placement: Placement
    ) -> None:
        merged = merge_metrics(registries)
        for op_name, node in placement.assignment().items():
            busy = merged.for_operator(op_name).busy_time
            cpu[node] = cpu.get(node, 0.0) + busy / self.cluster.speed(node)

    # -- execution -------------------------------------------------------

    def run(
        self, sources: Sequence[Source] | Mapping[str, Source]
    ) -> ClusterResult:
        self.migrations = []
        input_name = next(iter(self.plan.inputs))
        output_name = next(iter(self.plan.outputs))
        by_name = resolve_sources(self.plan, sources)
        epochs = split_epochs(
            by_name[input_name].events(), RoundRobinPartition(1)
        )
        placement = plan_placement(
            self.plan,
            self.cluster,
            record_size=self.record_size,
            pushdown=False,
        )
        acct = _NetAccounting(self.cluster)
        registry_holder = MetricsRegistry()
        pipeline = self._pipeline(placement, acct)
        cpu: dict[str, float] = {}
        retired: list[MetricsRegistry] = []
        out = []
        for index, epoch in enumerate(epochs):
            payload = list(epoch.batches[0])
            if epoch.punct is not None:
                payload.append(epoch.punct)
            produced = pipeline.feed(payload)
            acct.ship(pipeline.last_node(), self.cluster.egress, produced)
            out.extend(produced)
            acct.end_epoch(registry_holder)
            if (index + 1) % self.replan_every == 0:
                placement, pipeline = self._maybe_replace(
                    placement, pipeline, acct, cpu, retired, index + 1
                )
        tail, registries = pipeline.finish()
        acct.ship(pipeline.last_node(), self.cluster.egress, tail)
        out.extend(tail)
        self._charge_cpu(cpu, registries, placement)
        metrics = merge_metrics(retired + registries + [registry_holder])
        network = acct.finalize(metrics)
        for node, seconds in sorted(cpu.items()):
            metrics.incr(f"cluster.node.{node}.cpu_time", seconds)
        link_times = [usage["time"] for usage in network.values()]
        makespan = max(list(cpu.values()) + link_times, default=0.0)
        return ClusterResult(
            outputs={output_name: out},
            metrics=metrics,
            placement=placement,
            network=network,
            cpu=cpu,
            makespan=makespan,
        )

    def _maybe_replace(
        self, placement, pipeline, acct, cpu, retired, boundary
    ):
        """Consult the planner under measured stats; migrate if it pays."""
        stats = pipeline.operator_stats()
        candidate = plan_placement(
            self.plan,
            self.cluster,
            stats=stats,
            record_size=self.record_size,
            pushdown=False,
        )
        if candidate.assignment() == placement.assignment():
            return placement, pipeline
        incumbent = assignment_makespan(
            self.plan,
            self.cluster,
            placement,
            stats=stats,
            record_size=self.record_size,
        )
        if not (incumbent >= candidate.makespan * self.improvement):
            return placement, pipeline
        # Migrate: state moves by name, the stream never notices.
        states = pipeline.snapshot_states()
        self._charge_cpu(
            cpu, [engine.metrics for engine in pipeline.engines], placement
        )
        retired.extend(engine.metrics for engine in pipeline.engines)
        new_pipeline = self._pipeline(candidate, acct)
        new_pipeline.restore_states(states)
        self.migrations.append(
            Migration(
                boundary=boundary,
                revision=RePlace(
                    assignment=tuple(
                        sorted(candidate.assignment().items())
                    ),
                    makespan=candidate.makespan,
                    reason=candidate.reason,
                ),
                reason=(
                    f"measured drift: incumbent makespan {incumbent:.6g} "
                    f">= {self.improvement}x candidate "
                    f"{candidate.makespan:.6g}"
                ),
            )
        )
        return candidate, new_pipeline
