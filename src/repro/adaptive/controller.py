"""The adaptive controller: measured rates in, plan revisions out.

This is the feedback loop the tutorial's adaptivity story calls for
(rate-based reoptimization, eddies, load shedding as *runtime*
responses to drifting stream statistics).  The controller consumes the
measurement plane built in PR 4 — per-operator wall-clock rates and
observed selectivities — and emits the revision descriptors of
:mod:`repro.adaptive.revision`; a runner applies them to live engines
at punctuation/epoch boundaries only.

Design points:

* **Windowed statistics.**  The controller differences cumulative
  counters between decision boundaries and reasons about the *last
  window* only.  Lifetime averages would dilute a skew shift — after
  10k records of phase 1, a phase-2 selectivity flip takes another 10k
  records to move the cumulative estimate past any threshold, while the
  windowed estimate sees it at the first boundary.
* **Hysteresis everywhere.**  Re-ordering requires a predicted rate
  gain of at least ``min_gain``; a chain→eddy swap requires observed
  selectivity *churn* above ``churn_threshold``; an eddy→chain freeze
  requires ``stable_windows`` consecutive calm windows.  Measured rates
  are noisy, and a migration per boundary would be thrash, not
  adaptivity.
* **Never-sampled operators stay orderable.**  Windowed metrics are fed
  through :func:`~repro.optimizer.rate_based.rate_operator_from_metrics`
  with a modeled ``fallback_capacity`` (∝ 1/``cost_per_tuple``), so an
  operator the sampling stride skipped — ``timed_invocations == 0`` —
  neither crashes the decision nor ranks as infinitely fast.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.adaptive.revision import (
    Migration,
    ReorderChain,
    RetuneFeedback,
    RetuneShedding,
    Revision,
    SetBatchSize,
    SetRepresentation,
    SwapToChain,
    SwapToEddy,
    reorderable_runs,
)
from repro.core.metrics import OperatorMetrics
from repro.errors import PlanError
from repro.observe.feedback import OperatorStats
from repro.operators.eddy import Eddy, FixedFilterChain
from repro.optimizer.rate_based import (
    best_rate_order,
    chain_output_rate,
    rate_operator_from_metrics,
)

__all__ = ["AdaptiveConfig", "AdaptiveController"]


@dataclass(frozen=True)
class AdaptiveConfig:
    """Tuning knobs for the adaptive controller (picklable).

    Attributes
    ----------
    decide_every:
        Punctuation/epoch boundaries between decision points.
    min_window_records:
        Minimum ingress records in a window before deciding on it —
        below this the window keeps accumulating (estimates from a
        handful of records would be noise).
    min_gain:
        Predicted output-rate improvement factor a re-ordering must
        reach before it is applied (the migration hysteresis).
    input_rate:
        Offered load (tuples/sec) assumed by the rate model when
        ranking permutations.  The default ``inf`` ranks orders by
        *sustainable throughput* (the bottleneck analysis of VN02): a
        standing query drains arbitrarily fast producers, so "which
        order keeps up with the most load" is the right question.  A
        finite value models a fixed arrival rate — under it, orders
        whose every operator keeps up are (correctly) tied, and no
        reorder fires.
    prior_selectivity:
        Selectivity assumed for an operator whose window saw no input.
    fallback_cost_scale:
        Modeled capacity of a never-sampled operator is
        ``fallback_cost_scale / cost_per_tuple`` — only its *relative*
        magnitude across operators matters.
    churn_threshold:
        Max-minus-min windowed selectivity over ``churn_history``
        recent windows above which a ``FixedFilterChain`` is swapped
        for an ``Eddy``.
    churn_history:
        Windows of selectivity history kept per filter operator.
    stable_windows:
        Consecutive calm windows after which an ``Eddy`` is frozen back
        into a ``FixedFilterChain`` (in its learned order).
    eddy_epsilon / eddy_decay / eddy_seed:
        Parameters for eddies created by swaps.
    retune_batch:
        Enable measured-cost batch-size retuning.
    target_chunk_seconds:
        Desired wall-clock work per micro-batch; the batch size is set
        to approximately this over the measured per-record cost.
    min_batch / max_batch:
        Clamp for retuned batch sizes.
    shed_target_seconds:
        ``(low, high)`` latency watermarks, in estimated seconds of
        queued work, converted to the overload controller's pressure
        units using the measured per-record cost.  ``None`` disables
        shedding retune.
    select_representation:
        Enable per-chain representation selection: switch a tuple-mode
        engine to columnar execution when enough of the chain
        vectorizes, and revert (once, then stop trying) if the measured
        per-record cost got *worse* after the switch.
    representation_threshold:
        Minimum fraction of chain operators reporting
        ``supports_columns()`` before a columnar switch is proposed.
    representation_revert_ratio:
        Revert to tuple mode when the measured columnar cost per record
        exceeds this multiple of the pre-switch cost (the measured-rate
        guard against pathological chains).
    max_migrations:
        Cap on *structural* migrations per run (``None`` = unlimited).
    feedback_shedding:
        Enable :class:`RetuneFeedback` decisions: when the attached
        guard reports sustained *untargeted* drops (random coin flips or
        queue overflow) and a measured key skew, install targeted
        downsampling advice on the hottest keys instead — and retract it
        (RESUME) once the untargeted pressure clears.  Requires the
        runner to pass ``overload=guard.feedback_stats()``.
    feedback_trigger_windows / feedback_resume_windows:
        Hysteresis: consecutive pressured decision windows before
        advising, and consecutive calm windows before resuming.
    feedback_keep_rate:
        Keep-rate for the advised hot keys.
    feedback_hot_keys:
        How many of the guard's measured hot keys to target.
    """

    decide_every: int = 1
    min_window_records: int = 64
    min_gain: float = 1.10
    input_rate: float = float("inf")
    prior_selectivity: float = 1.0
    fallback_cost_scale: float = 1e6
    churn_threshold: float = 0.20
    churn_history: int = 4
    stable_windows: int = 3
    eddy_epsilon: float = 0.05
    eddy_decay: float = 0.99
    eddy_seed: int = 17
    retune_batch: bool = False
    target_chunk_seconds: float = 1e-3
    min_batch: int = 16
    max_batch: int = 4096
    shed_target_seconds: tuple[float, float] | None = None
    select_representation: bool = False
    representation_threshold: float = 0.5
    representation_revert_ratio: float = 1.25
    max_migrations: int | None = None
    feedback_shedding: bool = False
    feedback_trigger_windows: int = 2
    feedback_resume_windows: int = 3
    feedback_keep_rate: float = 0.25
    feedback_hot_keys: int = 2

    def __post_init__(self) -> None:
        if self.decide_every < 1:
            raise PlanError(
                f"decide_every must be >= 1; got {self.decide_every}"
            )
        if self.min_gain < 1.0:
            raise PlanError(f"min_gain must be >= 1.0; got {self.min_gain}")
        if self.stable_windows < 1:
            raise PlanError(
                f"stable_windows must be >= 1; got {self.stable_windows}"
            )
        if self.shed_target_seconds is not None:
            low, high = self.shed_target_seconds
            if high <= low or low < 0:
                raise PlanError(
                    f"shed_target_seconds needs 0 <= low < high; "
                    f"got {self.shed_target_seconds}"
                )
        if not 0.0 < self.representation_threshold <= 1.0:
            raise PlanError(
                f"representation_threshold must be in (0, 1]; "
                f"got {self.representation_threshold}"
            )
        if self.representation_revert_ratio < 1.0:
            raise PlanError(
                f"representation_revert_ratio must be >= 1.0; "
                f"got {self.representation_revert_ratio}"
            )
        if self.feedback_trigger_windows < 1 or self.feedback_resume_windows < 1:
            raise PlanError(
                f"feedback trigger/resume windows must be >= 1; got "
                f"({self.feedback_trigger_windows}, "
                f"{self.feedback_resume_windows})"
            )
        if not 0.0 <= self.feedback_keep_rate <= 1.0:
            raise PlanError(
                f"feedback_keep_rate must be in [0, 1]; "
                f"got {self.feedback_keep_rate}"
            )
        if self.feedback_hot_keys < 1:
            raise PlanError(
                f"feedback_hot_keys must be >= 1; "
                f"got {self.feedback_hot_keys}"
            )


_ZERO = OperatorStats()


class AdaptiveController:
    """Decides plan revisions from windowed measured statistics.

    The controller is execution-agnostic: it never touches an engine.
    A runner (:class:`~repro.adaptive.runner.AdaptiveEngine` or
    :class:`~repro.adaptive.runner.AdaptiveShardedEngine`) feeds it
    cumulative per-operator stats at each punctuation/epoch boundary
    plus the current chain structure, and applies whatever revisions
    come back — at that boundary, never mid-stream.
    """

    def __init__(self, config: AdaptiveConfig | None = None) -> None:
        self.config = config or AdaptiveConfig()
        self.migrations: list[Migration] = []
        self._prev: dict[str, OperatorStats] = {}
        self._boundaries = 0
        self._sel_history: dict[str, deque[float]] = {}
        self._eddy_stable: dict[str, int] = {}
        self._last_batch: int | None = None
        self._last_shed: tuple[float, float] | None = None
        # Representation selection: measured cost before the columnar
        # switch, and a one-way block after a revert (no flip-flopping).
        self._repr_cost_before: float | None = None
        self._repr_blocked = False
        # Feedback shedding hysteresis: consecutive pressured / calm
        # decision windows, whether advice is currently installed, and
        # the previous cumulative untargeted-drop counters to difference
        # against.
        self._fb_pressured = 0
        self._fb_calm = 0
        self._fb_active = False
        self._fb_prev_drops: dict | None = None

    # -- bookkeeping -------------------------------------------------------

    @property
    def structural_migrations(self) -> int:
        return sum(1 for m in self.migrations if m.revision.structural)

    def _log(self, boundary: int, revision: Revision, reason: str) -> None:
        self.migrations.append(Migration(boundary, revision, reason))

    def _may_migrate(self) -> bool:
        cap = self.config.max_migrations
        return cap is None or self.structural_migrations < cap

    # -- the decision point ------------------------------------------------

    def observe(
        self,
        totals: dict[str, OperatorStats],
        chain: list | None,
        batch_size: int | None = None,
        has_guard: bool = False,
        representation: str | None = None,
        overload: dict | None = None,
    ) -> list[Revision]:
        """One boundary's worth of feedback; returns revisions to apply.

        ``totals`` are *cumulative* per-operator stats (summed across
        shards when sharded); the controller differences them against
        the previous decision point internally.  ``chain`` is the
        current linear operator chain, or ``None`` for a non-linear
        plan (no structural revisions are possible, tuning knobs still
        work).
        """
        self._boundaries += 1
        if self._boundaries % self.config.decide_every != 0:
            return []
        window = {
            name: stats.delta(self._prev.get(name, _ZERO))
            for name, stats in totals.items()
        }
        ingress = self._ingress_records(window, chain)
        if ingress < self.config.min_window_records:
            # Too little evidence: leave _prev alone so the window keeps
            # accumulating until it is worth deciding on.
            return []
        self._prev = dict(totals)

        revisions: list[Revision] = []
        if chain is not None:
            revisions.extend(self._decide_reorder(window, chain))
            revisions.extend(self._decide_swaps(window, chain))
        if self.config.retune_batch and batch_size is not None:
            revisions.extend(self._decide_batch(window, chain, batch_size))
        if self.config.shed_target_seconds is not None and has_guard:
            revisions.extend(self._decide_shedding(window, chain))
        if self.config.feedback_shedding and overload is not None:
            revisions.extend(self._decide_feedback(overload))
        if (
            self.config.select_representation
            and chain is not None
            and batch_size is not None
            and representation is not None
        ):
            revisions.extend(
                self._decide_representation(window, chain, representation)
            )
        return revisions

    def _ingress_records(self, window, chain) -> int:
        if chain:
            head = window.get(chain[0].name)
            if head is not None:
                return head.records_in
        return max(
            (stats.records_in for stats in window.values()), default=0
        )

    # -- re-ordering via the rate model -----------------------------------

    def _rate_operator(self, op, stats: OperatorStats):
        cost = max(getattr(op, "cost_per_tuple", 1.0), 1e-12)
        metrics = OperatorMetrics(
            records_in=stats.records_in,
            records_out=stats.records_out,
            wall_time=stats.wall_time,
            timed_invocations=stats.timed_invocations,
        )
        return rate_operator_from_metrics(
            op.name,
            metrics,
            prior_selectivity=self.config.prior_selectivity,
            cost=cost,
            fallback_capacity=self.config.fallback_cost_scale / cost,
        )

    def _decide_reorder(self, window, chain) -> list[Revision]:
        revisions: list[Revision] = []
        for run in reorderable_runs(chain):
            if not self._may_migrate():
                break
            rated = [
                self._rate_operator(op, window.get(op.name, _ZERO))
                for op in run
            ]
            current_rate = chain_output_rate(rated, self.config.input_rate)
            best, best_rate = best_rate_order(rated, self.config.input_rate)
            order = tuple(op.name for op in best)
            if order == tuple(op.name for op in run):
                continue
            if (
                math.isfinite(current_rate)
                and current_rate > 0
                and best_rate < self.config.min_gain * current_rate
            ):
                continue
            revision = ReorderChain(order)
            self._log(
                self._boundaries,
                revision,
                f"rate-based reorder: {best_rate:.1f} t/s vs "
                f"{current_rate:.1f} t/s in current order",
            )
            revisions.append(revision)
        return revisions

    # -- chain <-> eddy swaps on selectivity churn -------------------------

    def _decide_swaps(self, window, chain) -> list[Revision]:
        cfg = self.config
        revisions: list[Revision] = []
        for op in chain:
            if not isinstance(op, (FixedFilterChain, Eddy)):
                continue
            stats = window.get(op.name, _ZERO)
            sel = stats.selectivity
            history = self._sel_history.setdefault(
                op.name, deque(maxlen=cfg.churn_history)
            )
            if not math.isnan(sel):
                history.append(sel)
            if len(history) < 2:
                continue
            churn = max(history) - min(history)
            if isinstance(op, FixedFilterChain):
                if churn > cfg.churn_threshold and self._may_migrate():
                    revision = SwapToEddy(
                        op.name,
                        epsilon=cfg.eddy_epsilon,
                        decay=cfg.eddy_decay,
                        seed=cfg.eddy_seed,
                    )
                    self._log(
                        self._boundaries,
                        revision,
                        f"selectivity churn {churn:.3f} > "
                        f"{cfg.churn_threshold}: adaptive routing",
                    )
                    revisions.append(revision)
                    history.clear()
                    self._eddy_stable.pop(op.name, None)
            else:  # Eddy
                if churn <= cfg.churn_threshold:
                    calm = self._eddy_stable.get(op.name, 0) + 1
                    self._eddy_stable[op.name] = calm
                    if calm >= cfg.stable_windows and self._may_migrate():
                        revision = SwapToChain(op.name, order=None)
                        self._log(
                            self._boundaries,
                            revision,
                            f"selectivity stable for {calm} windows: "
                            f"freezing learned order",
                        )
                        revisions.append(revision)
                        history.clear()
                        self._eddy_stable.pop(op.name, None)
                else:
                    self._eddy_stable[op.name] = 0
        return revisions

    # -- tuning knobs ------------------------------------------------------

    def _record_cost(self, window, chain) -> float:
        """Measured operator seconds per ingress record this window."""
        ingress = self._ingress_records(window, chain)
        if ingress == 0:
            return 0.0
        spent = sum(
            stats.wall_time
            for stats in window.values()
            if stats.timed_invocations > 0
        )
        return spent / ingress

    def _decide_batch(self, window, chain, batch_size) -> list[Revision]:
        cfg = self.config
        cost = self._record_cost(window, chain)
        if cost <= 0.0:
            return []
        want = cfg.target_chunk_seconds / cost
        size = cfg.min_batch
        while size * 2 <= min(want, cfg.max_batch):
            size *= 2
        if size == batch_size:
            return []
        revision = SetBatchSize(size)
        self._log(
            self._boundaries,
            revision,
            f"measured {cost * 1e6:.2f}us/record: batch {batch_size} "
            f"-> {size} for ~{cfg.target_chunk_seconds * 1e3:.1f}ms chunks",
        )
        return [revision]

    # -- representation selection ------------------------------------------

    def _decide_representation(
        self, window, chain, representation: str
    ) -> list[Revision]:
        """Pick tuple vs columnar for the chain from measured rates.

        Switch to columnar when enough of the chain vectorizes
        (capability is what bounds the win: incapable operators fall
        back to the row path and only add conversion overhead), then
        watch the measured per-record cost — if the columnar windows
        come out *more* expensive than the tuple window before the
        switch, revert and stop proposing (one-way hysteresis; the
        evidence says this chain does not vectorize profitably).
        """
        cfg = self.config
        if self._repr_blocked:
            return []
        cost = self._record_cost(window, chain)
        if representation == "columnar":
            before = self._repr_cost_before
            if (
                before is not None
                and before > 0.0
                and cost > cfg.representation_revert_ratio * before
            ):
                self._repr_blocked = True
                revision = SetRepresentation("tuple")
                self._log(
                    self._boundaries,
                    revision,
                    f"columnar window cost {cost * 1e6:.2f}us/record > "
                    f"{cfg.representation_revert_ratio:.2f}x tuple cost "
                    f"{before * 1e6:.2f}us/record: reverting to tuple",
                )
                return [revision]
            return []
        capable = sum(1 for op in chain if op.supports_columns())
        fraction = capable / len(chain)
        if fraction < cfg.representation_threshold:
            return []
        if not self._may_migrate():
            return []
        self._repr_cost_before = cost if cost > 0.0 else None
        revision = SetRepresentation("columnar")
        self._log(
            self._boundaries,
            revision,
            f"{capable}/{len(chain)} chain operators vectorize "
            f"(>= {cfg.representation_threshold:.0%}): columnar execution",
        )
        return [revision]

    def _decide_shedding(self, window, chain) -> list[Revision]:
        cfg = self.config
        cost = self._record_cost(window, chain)
        if cost <= 0.0:
            return []
        low_s, high_s = cfg.shed_target_seconds
        marks = (low_s / cost, high_s / cost)
        if self._last_shed is not None:
            prev_low, prev_high = self._last_shed
            if abs(marks[1] - prev_high) <= 0.2 * prev_high:
                return []
        self._last_shed = marks
        revision = RetuneShedding(marks[0], marks[1])
        self._log(
            self._boundaries,
            revision,
            f"measured {cost * 1e6:.2f}us/record: latency targets "
            f"({low_s}s, {high_s}s) = backlog watermarks "
            f"({marks[0]:.0f}, {marks[1]:.0f}) records",
        )
        return [revision]

    # -- targeted feedback shedding ----------------------------------------

    def _decide_feedback(self, overload: dict) -> list[Revision]:
        """Hysteresis over the guard's *untargeted* drop counters.

        ``overload`` is ``guard.feedback_stats()``.  Pressure is defined
        as new random/queue drops this window — drops the guard was
        forced to make blindly.  Sustained pressure plus a measured key
        skew yields a :class:`RetuneFeedback` installing targeted
        downsampling on the hottest keys; once the untargeted drops stop
        (the advice absorbed the load, or the burst passed), sustained
        calm retracts everything with ``resume=True``.  Feedback-advised
        drops deliberately do NOT count as pressure, otherwise active
        advice would keep itself alive forever.
        """
        cfg = self.config
        drops = overload.get("drops", {})
        untargeted = drops.get("random", 0) + drops.get("queue", 0)
        prev = self._fb_prev_drops or {}
        delta = untargeted - (prev.get("random", 0) + prev.get("queue", 0))
        self._fb_prev_drops = dict(drops)
        key_attr = overload.get("key_attr")
        hot = overload.get("hot") or []
        if delta > 0:
            self._fb_pressured += 1
            self._fb_calm = 0
            if (
                self._fb_pressured >= cfg.feedback_trigger_windows
                and not self._fb_active
                and key_attr
                and hot
            ):
                keys = tuple(k for k, _ in hot[: cfg.feedback_hot_keys])
                revision = RetuneFeedback(
                    attr=key_attr,
                    keys=keys,
                    rate=cfg.feedback_keep_rate,
                )
                self._fb_active = True
                self._log(
                    self._boundaries,
                    revision,
                    f"{delta} untargeted drops this window after "
                    f"{self._fb_pressured} pressured windows: downsample "
                    f"{key_attr}∈{keys!r} to keep-rate "
                    f"{cfg.feedback_keep_rate}",
                )
                return [revision]
        else:
            self._fb_pressured = 0
            if self._fb_active:
                self._fb_calm += 1
                if self._fb_calm >= cfg.feedback_resume_windows:
                    self._fb_active = False
                    self._fb_calm = 0
                    revision = RetuneFeedback(resume=True)
                    self._log(
                        self._boundaries,
                        revision,
                        "no untargeted drops for "
                        f"{cfg.feedback_resume_windows} windows: "
                        "retracting feedback advice",
                    )
                    return [revision]
        return []
