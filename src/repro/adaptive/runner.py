"""Adaptive execution drivers: engines that re-plan while running.

Two drivers pair a controller with the existing execution machinery:

* :class:`AdaptiveEngine` wraps one push
  :class:`~repro.core.engine.Engine`.  It feeds the merged input stream
  exactly as ``Engine.run`` would — same chunking, same
  punctuation-closes-chunk discipline — but counts punctuations and, at
  every ``decide_every``-th boundary, hands the controller a cumulative
  stats snapshot and applies whatever revisions come back through
  :func:`~repro.adaptive.revision.apply_revisions` (structural ones via
  :meth:`~repro.core.engine.Engine.migrate_plan`).  Works for *every*
  plan: non-linear plans simply get no structural revisions, only
  tuning knobs.
* :class:`AdaptiveShardedEngine` wraps a
  :class:`~repro.parallel.sharded.ShardedEngine` and drives its workers
  through :func:`~repro.parallel.runtime.run_lockstep` with one hook:
  after each epoch the coordinator sums per-shard stats
  (:func:`~repro.observe.feedback.merge_stats`), decides *centrally*,
  and broadcasts the identical revision list to every worker — so all
  shards migrate at the same epoch boundary and the combine discipline
  (which never involves the revised filter prefix) is untouched.

Both drivers produce outputs bit-identical to their static
counterparts: every revision is output-invariant by construction (see
:mod:`repro.adaptive.revision`), and none is ever applied mid-chunk.
The differential suite in ``tests/adaptive`` certifies this across the
example plan grid and all three backends.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.adaptive.controller import AdaptiveConfig, AdaptiveController
from repro.adaptive.revision import apply_revisions, apply_to_chain, chain_of
from repro.core.engine import (
    Engine,
    RunResult,
    feed_interleaved,
    resolve_sources,
)
from repro.core.graph import Plan
from repro.core.metrics import MetricsRegistry
from repro.core.stream import Source, merge_sources
from repro.errors import PlanError
from repro.observe.feedback import collect_stats, merge_stats
from repro.parallel.partition import PartitionSpec, split_epochs
from repro.parallel.runtime import run_lockstep
from repro.parallel.sharded import ShardedEngine

__all__ = ["AdaptiveEngine", "AdaptiveShardedEngine", "run_adaptive"]


class AdaptiveEngine:
    """One push engine plus a controller re-planning it at punctuations.

    Parameters
    ----------
    plan:
        Any plan.  Structural revisions (filter re-ordering,
        chain/eddy swaps) require a single-input linear chain; other
        plans still get batch-size and shedding retunes.
    controller:
        An :class:`~repro.adaptive.controller.AdaptiveController`;
        built from ``config`` (or defaults) when omitted.
    batch_size, guard:
        Forwarded to the wrapped :class:`~repro.core.engine.Engine`.
    observe:
        Defaults to ``True`` — the controller is blind without measured
        rates.  Pass an int stride or
        :class:`~repro.observe.ObserveConfig` to tune overhead, or
        ``None`` to run blind (no revisions will ever fire).
    """

    def __init__(
        self,
        plan: Plan,
        controller: AdaptiveController | None = None,
        config: AdaptiveConfig | None = None,
        batch_size: int | str | None = "auto",
        guard=None,
        observe=True,
        representation: str = "tuple",
        recorder=None,
    ) -> None:
        if controller is not None and config is not None:
            raise PlanError(
                "pass either a controller or a config, not both"
            )
        self.engine = Engine(
            plan,
            batch_size=batch_size,
            guard=guard,
            observe=observe,
            representation=representation,
            recorder=recorder,
        )
        self._recorder = recorder
        self.controller = controller or AdaptiveController(config)
        self._chain = chain_of(plan)
        if self._chain is not None:
            self._input_name = next(iter(plan.inputs))
            self._output_name = next(iter(plan.outputs))
        else:
            self._input_name = None
            self._output_name = None

    @property
    def migrations(self):
        """The controller's migration log (applied revisions, in order)."""
        return self.controller.migrations

    def run(
        self, sources: Sequence[Source] | Mapping[str, Source]
    ) -> RunResult:
        """Execute over ``sources``, adapting at punctuation boundaries."""
        engine = self.engine
        by_name = resolve_sources(engine.plan, sources)
        engine.start()
        if len(by_name) == 1:
            only = next(iter(by_name.values()))
            merged = ((only.name, el) for el in only.events())
        else:
            merged = merge_sources(*by_name.values())
        # Engine.run's chunk discipline, with the boundary falling
        # *between* chunks, never inside one.
        feed_interleaved(engine, merged, on_boundary=self._boundary)
        return engine.finish()

    def _boundary(self) -> None:
        engine = self.engine
        guard = engine.guard
        overload = (
            guard.feedback_stats()
            if guard is not None and hasattr(guard, "feedback_stats")
            else None
        )
        revisions = self.controller.observe(
            collect_stats(engine.metrics),
            self._chain,
            batch_size=engine.batch_size,
            has_guard=guard is not None,
            representation=engine.representation,
            overload=overload,
        )
        if revisions:
            self._chain = apply_revisions(
                engine,
                revisions,
                self._input_name,
                self._output_name,
                self._chain,
            )
            if self._recorder is not None:
                # The journal's epoch for this boundary was already
                # closed (inside feed/feed_batch); attaching here marks
                # the revisions as applied *at* that boundary, and the
                # deferred checkpoint that follows captures the migrated
                # plan — exactly what a replay must reconstruct.
                self._recorder.on_revisions(revisions)


class AdaptiveShardedEngine:
    """Epoch-lockstep sharded execution with central re-planning.

    The wrapped :class:`~repro.parallel.sharded.ShardedEngine` supplies
    the strategy analysis, partitioning, workers, and combine
    discipline; this driver runs them epoch by epoch so there *is* a
    coordinator moment at every boundary to gather stats and broadcast
    revisions.

    Plans whose strategy resolves to ``single`` delegate to an
    :class:`AdaptiveEngine` (same controller), so the adaptive layer
    never silently drops to static execution.
    """

    def __init__(
        self,
        plan: Plan,
        partition: PartitionSpec,
        controller: AdaptiveController | None = None,
        config: AdaptiveConfig | None = None,
        batch_size: int | str | None = "auto",
        backend: str = "thread",
        observe=True,
        representation: str = "tuple",
    ) -> None:
        if controller is not None and config is not None:
            raise PlanError(
                "pass either a controller or a config, not both"
            )
        self.engine = ShardedEngine(
            plan,
            partition,
            batch_size=batch_size,
            backend=backend,
            observe=observe,
            representation=representation,
        )
        self.controller = controller or AdaptiveController(config)

    @property
    def strategy(self) -> str:
        return self.engine.strategy

    @property
    def migrations(self):
        return self.controller.migrations

    def run(
        self, sources: Sequence[Source] | Mapping[str, Source]
    ) -> RunResult:
        engine = self.engine
        st = engine._strategy
        if st.name == "single":
            return AdaptiveEngine(
                engine.plan,
                controller=self.controller,
                **engine.config.kwargs(),
            ).run(sources)
        by_name = resolve_sources(engine.plan, sources)
        epochs = split_epochs(by_name[st.input_name].events(), st.routing)
        # Structural shadow: one more copy of the shard chain, revised in
        # lockstep with the workers so the controller always sees the
        # current chain shape.  Decisions are name-based, so the shadow
        # standing in for N distinct worker instances is sound.
        shadow = engine.shard_ops()
        batch_size = engine.batch_size
        if batch_size == "auto":
            batch_size = Engine.DEFAULT_BATCH_SIZE
        representation = engine.representation

        def decide(_epoch: int, _produced: list, _exchanged: list) -> None:
            # Epoch boundary: every worker is quiescent.  Decide
            # centrally on the summed stats, broadcast identically.
            nonlocal shadow, batch_size, representation
            totals = merge_stats([w.call("stats") for w in workers])
            revisions = self.controller.observe(
                totals,
                shadow,
                batch_size=batch_size,
                has_guard=False,
                representation=representation,
            )
            if not revisions:
                return
            for worker in workers:
                worker.call("revise", revisions)
            for revision in revisions:
                if revision.structural:
                    shadow = apply_to_chain(shadow, revision)
                if hasattr(revision, "representation"):
                    representation = revision.representation
                elif not revision.structural and hasattr(
                    revision, "batch_size"
                ):
                    batch_size = revision.batch_size

        with engine.workers() as workers:
            runs = run_lockstep(workers, epochs, after_epoch=decide)
        result = engine.assemble(epochs, runs)
        self._publish(result.metrics)
        return result

    def _publish(self, metrics: MetricsRegistry) -> None:
        controller = self.controller
        metrics.incr("adaptive.migrations", len(controller.migrations))
        metrics.incr(
            "adaptive.structural_migrations",
            controller.structural_migrations,
        )


def run_adaptive(
    plan: Plan,
    sources: Sequence[Source] | Mapping[str, Source],
    config: AdaptiveConfig | None = None,
    partition: PartitionSpec | None = None,
    batch_size: int | str | None = "auto",
    backend: str = "thread",
    observe=True,
    guard=None,
    representation: str = "tuple",
) -> tuple[RunResult, list]:
    """One-shot convenience: run ``plan`` adaptively, return
    ``(result, migration log)``.

    With a ``partition`` the sharded driver is used (``guard`` is a
    single-engine feature and must be ``None`` then).
    """
    if partition is not None:
        if guard is not None:
            raise PlanError(
                "overload guards attach to single engines; sharded "
                "adaptive execution does not accept one"
            )
        sharded = AdaptiveShardedEngine(
            plan,
            partition,
            config=config,
            batch_size=batch_size,
            backend=backend,
            observe=observe,
            representation=representation,
        )
        return sharded.run(sources), sharded.migrations
    adaptive = AdaptiveEngine(
        plan,
        config=config,
        batch_size=batch_size,
        guard=guard,
        observe=observe,
        representation=representation,
    )
    return adaptive.run(sources), adaptive.migrations
