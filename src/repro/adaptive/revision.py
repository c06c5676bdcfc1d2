"""Plan revisions: picklable, name-based migration descriptors.

A revision describes one output-invariant change to a running linear
plan.  Revisions deliberately carry **no operator instances and no
callables** — only names and scalars — because in sharded execution
they are decided centrally by the
:class:`~repro.adaptive.controller.AdaptiveController` and shipped over
a pipe to forked shard workers, which hold the actual operator objects
(plans hold lambdas; lambdas cross a fork by inheritance, never by
pickle).  Each worker resolves names against its local chain and
rebuilds its plan through :meth:`~repro.core.engine.Engine.migrate_plan`,
so the PR 3 snapshot/restore machinery carries operator state across
the swap.

Every revision here preserves the output element sequence exactly:

* :class:`ReorderChain` permutes a run of consecutive ``Select``
  operators (or ``FixedFilterChain``/``Eddy`` filter operators).  A
  record survives the run iff it satisfies *all* predicates —
  conjunction is commutative — and each operator emits at most the
  record it was given, with its stamp untouched; punctuations pass
  through every filter unchanged.  Any permutation therefore emits the
  identical element sequence, spending different work.
* :class:`ReorderFilters` permutes predicates *inside* one
  ``FixedFilterChain`` — the same argument, one level down.
* :class:`SwapToEddy` / :class:`SwapToChain` exchange a
  ``FixedFilterChain`` for an :class:`~repro.operators.eddy.Eddy` over
  the same predicates (and back).  Both emit a record iff every filter
  passes; only the evaluation order — and hence the work — differs.
* :class:`SetBatchSize` changes the engine's micro-batch size, which
  PR 1's differential suite certifies output-invariant for every size.
* :class:`SetRepresentation` switches the engine between tuple and
  columnar execution.  The columnar kernels are certified
  element-for-element identical to the tuple path
  (``tests/columnar``), and the flip lands at a boundary — never
  mid-chunk.
* :class:`RetuneShedding` moves the overload controller's watermarks —
  load shedding is outside the exact-answer contract by construction
  (it is only issued when a guard is attached).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.graph import Plan, linear_plan
from repro.errors import PlanError
from repro.operators.eddy import Eddy, FixedFilterChain
from repro.operators.select import Select

__all__ = [
    "Revision",
    "ReorderChain",
    "ReorderFilters",
    "SwapToEddy",
    "SwapToChain",
    "SetBatchSize",
    "SetRepresentation",
    "RetuneShedding",
    "RetuneFeedback",
    "RePlace",
    "Migration",
    "apply_to_chain",
    "apply_revisions",
    "reorderable_runs",
]


@dataclass(frozen=True)
class Revision:
    """Base class for plan revisions (all picklable value objects)."""

    #: True when applying the revision rebuilds the plan (and therefore
    #: goes through ``Engine.migrate_plan``); False for engine/guard
    #: tuning knobs.
    structural = True


@dataclass(frozen=True)
class ReorderChain(Revision):
    """Reorder a run of consecutive commutative filter operators.

    ``order`` lists operator *names*; it must be a permutation of a run
    of adjacent ``Select``/``FixedFilterChain``/``Eddy`` operators in
    the current chain (checked at apply time).
    """

    order: tuple[str, ...]


@dataclass(frozen=True)
class ReorderFilters(Revision):
    """Reorder the predicates inside the ``FixedFilterChain`` ``name``."""

    name: str
    order: tuple[str, ...]


@dataclass(frozen=True)
class SwapToEddy(Revision):
    """Replace the ``FixedFilterChain`` ``name`` with an ``Eddy`` over
    the same filters (selectivity estimates are churning; let per-tuple
    routing re-learn the order continuously)."""

    name: str
    epsilon: float = 0.05
    decay: float = 0.99
    seed: int = 17


@dataclass(frozen=True)
class SwapToChain(Revision):
    """Replace the ``Eddy`` ``name`` with a ``FixedFilterChain``.

    ``order`` fixes the filter order by name; ``None`` freezes the
    eddy's currently learned order (each shard may have learned a
    different one — outputs are order-invariant, only work differs).
    """

    name: str
    order: tuple[str, ...] | None = None


@dataclass(frozen=True)
class SetBatchSize(Revision):
    """Retune the engine's micro-batch size."""

    structural = False
    batch_size: int

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise PlanError(
                f"batch_size must be >= 1; got {self.batch_size}"
            )


@dataclass(frozen=True)
class SetRepresentation(Revision):
    """Switch the engine's execution representation for the chain.

    ``representation`` is ``"tuple"`` or ``"columnar"``.  The chain
    and its operator instances are untouched — the same operators run
    through their other entry point — so no plan migration is needed;
    the revision still counts as structural (it is logged in the
    migration history and capped by ``max_migrations``).
    """

    representation: str

    def __post_init__(self) -> None:
        if self.representation not in ("tuple", "columnar"):
            raise PlanError(
                f"representation must be 'tuple' or 'columnar'; "
                f"got {self.representation!r}"
            )


@dataclass(frozen=True)
class RetuneShedding(Revision):
    """Retune the overload guard's shedding watermarks."""

    structural = False
    low: float
    high: float


@dataclass(frozen=True)
class RetuneFeedback(Revision):
    """Install (or retract) targeted feedback advice at the guard.

    The adaptive controller emits this when the guard reports sustained
    pressure with a measured key skew: ``attr``/``keys``/``rate`` ask
    the guard to downsample the named hot keys to keep-rate ``rate``;
    ``resume=True`` retracts all feedback advice (pressure cleared).
    """

    structural = False
    attr: str = ""
    keys: tuple = ()
    rate: float = 1.0
    resume: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "keys", tuple(self.keys))
        if not self.resume:
            if not self.attr or not self.keys:
                raise PlanError(
                    "RetuneFeedback needs attr and keys unless resume=True"
                )
            if not (0.0 <= self.rate <= 1.0):
                raise PlanError(
                    f"RetuneFeedback rate must be in [0, 1]: {self.rate}"
                )


@dataclass(frozen=True)
class RePlace(Revision):
    """Migrate chain operators between cluster nodes (M10).

    ``assignment`` maps operator names to node names — the complete
    new placement, not a delta.  Like every revision it carries only
    names and scalars; the cluster driver
    (:class:`~repro.cluster.adaptive.AdaptiveClusterEngine`) resolves
    names against its chain and carries operator state across the move
    with the PR 3 snapshot/restore machinery.  ``structural = False``
    because no single engine's plan is rebuilt — whole engines are
    re-staged around unchanged chains.
    """

    structural = False
    assignment: tuple[tuple[str, str], ...]
    makespan: float = 0.0
    reason: str = ""

    def __post_init__(self) -> None:
        pairs = tuple(
            (str(op), str(node)) for op, node in self.assignment
        )
        object.__setattr__(self, "assignment", pairs)
        if not pairs:
            raise PlanError("RePlace needs a non-empty assignment")
        names = [op for op, _node in pairs]
        if len(set(names)) != len(names):
            raise PlanError(
                f"RePlace assignment names an operator twice: {names}"
            )


@dataclass(frozen=True)
class Migration:
    """One applied revision, for the controller's migration log."""

    boundary: int  # punctuation/epoch index at which it was applied
    revision: Revision
    reason: str


def _is_filter(op) -> bool:
    """Operators whose reordering is output-invariant (see module doc).

    ``type(op) is Select`` on purpose: a ``Select`` subclass could
    override ``on_record`` into something order-sensitive.
    """
    return type(op) is Select or isinstance(op, (FixedFilterChain, Eddy))


def reorderable_runs(ops: list) -> list[list]:
    """Maximal runs of >= 2 adjacent commutative filter operators."""
    runs: list[list] = []
    current: list = []
    for op in ops:
        if _is_filter(op):
            current.append(op)
        else:
            if len(current) >= 2:
                runs.append(current)
            current = []
    if len(current) >= 2:
        runs.append(current)
    return runs


def apply_to_chain(ops: list, revision: Revision) -> list:
    """A new operator list with ``revision`` applied (inputs untouched).

    Operator instances are carried over wherever possible so live state
    (and learned filter statistics) survives; swapped operators reuse
    the *same* :class:`~repro.operators.eddy.EddyFilter` instances and
    keep the replaced operator's name, so metrics keyed by name continue
    across the migration.
    """
    if isinstance(revision, ReorderChain):
        names = [op.name for op in ops]
        wanted = list(revision.order)
        if len(wanted) < 2:
            raise PlanError(f"reorder needs >= 2 operators; got {wanted}")
        # Locate the contiguous run holding exactly these operators.
        members = set(wanted)
        if len(members) != len(wanted):
            raise PlanError(f"reorder lists a duplicate name: {wanted}")
        positions = [i for i, n in enumerate(names) if n in members]
        if len(positions) != len(wanted):
            missing = members - set(names)
            raise PlanError(
                f"reorder names {sorted(missing)} not in chain {names}"
            )
        lo, hi = positions[0], positions[-1]
        if hi - lo + 1 != len(wanted):
            raise PlanError(
                f"reorder set {wanted} is not contiguous in {names}"
            )
        segment = {op.name: op for op in ops[lo : hi + 1]}
        for op in segment.values():
            if not _is_filter(op):
                raise PlanError(
                    f"operator {op.name!r} ({type(op).__name__}) is not "
                    f"a commutative filter; refusing to reorder"
                )
        return ops[:lo] + [segment[n] for n in wanted] + ops[hi + 1 :]

    if isinstance(revision, ReorderFilters):
        out = []
        found = False
        for op in ops:
            if op.name == revision.name:
                if not isinstance(op, FixedFilterChain):
                    raise PlanError(
                        f"operator {revision.name!r} is "
                        f"{type(op).__name__}, not a FixedFilterChain"
                    )
                out.append(op.reordered(revision.order))
                found = True
            else:
                out.append(op)
        if not found:
            raise PlanError(f"no operator named {revision.name!r} in chain")
        return out

    if isinstance(revision, SwapToEddy):
        out = []
        found = False
        for op in ops:
            if op.name == revision.name:
                if not isinstance(op, FixedFilterChain):
                    raise PlanError(
                        f"operator {revision.name!r} is "
                        f"{type(op).__name__}, not a FixedFilterChain"
                    )
                out.append(
                    Eddy(
                        op.filters,
                        name=op.name,
                        epsilon=revision.epsilon,
                        decay=revision.decay,
                        seed=revision.seed,
                        cost_per_tuple=op.cost_per_tuple,
                    )
                )
                found = True
            else:
                out.append(op)
        if not found:
            raise PlanError(f"no operator named {revision.name!r} in chain")
        return out

    if isinstance(revision, SwapToChain):
        out = []
        found = False
        for op in ops:
            if op.name == revision.name:
                if not isinstance(op, Eddy):
                    raise PlanError(
                        f"operator {revision.name!r} is "
                        f"{type(op).__name__}, not an Eddy"
                    )
                order = (
                    list(revision.order)
                    if revision.order is not None
                    else op.current_order()
                )
                by_name = {f.name: f for f in op.filters}
                if sorted(by_name) != sorted(order):
                    raise PlanError(
                        f"eddy {op.name!r} holds filters "
                        f"{sorted(by_name)}; cannot freeze order {order}"
                    )
                out.append(
                    FixedFilterChain(
                        [by_name[n] for n in order],
                        name=op.name,
                        cost_per_tuple=op.cost_per_tuple,
                    )
                )
                found = True
            else:
                out.append(op)
        if not found:
            raise PlanError(f"no operator named {revision.name!r} in chain")
        return out

    if isinstance(revision, SetRepresentation):
        # Same operators, other entry point: the chain does not change.
        return ops

    raise PlanError(
        f"apply_to_chain cannot apply {type(revision).__name__} "
        f"(not a structural chain revision)"
    )


def apply_revisions(
    engine,
    revisions: list[Revision],
    input_name: str,
    output_name: str,
    chain: list,
) -> list:
    """Apply ``revisions`` to a *started* engine at a safe boundary.

    Structural revisions rebuild the linear plan over the revised chain
    and migrate the engine onto it
    (:meth:`~repro.core.engine.Engine.migrate_plan`, i.e. PR 3
    snapshot/restore per operator); :class:`SetBatchSize` tunes the
    engine directly; :class:`RetuneShedding` forwards to the attached
    guard.  Returns the revised chain (the caller's structural shadow).
    """
    new_chain = chain
    migrated = False
    for revision in revisions:
        if isinstance(revision, SetBatchSize):
            engine.batch_size = revision.batch_size
        elif isinstance(revision, RetuneShedding):
            if engine.guard is not None:
                engine.guard.retune(revision.low, revision.high)
        elif isinstance(revision, RetuneFeedback):
            if engine.guard is not None:
                engine.guard.apply_retune(revision)
        elif isinstance(revision, SetRepresentation):
            engine.representation = revision.representation
        else:
            new_chain = apply_to_chain(new_chain, revision)
            migrated = True
    if migrated:
        engine.migrate_plan(linear_plan(input_name, new_chain, output_name))
    return new_chain


def chain_of(plan: Plan) -> list | None:
    """The linear unary chain of ``plan``, or ``None`` (lazy import to
    keep :mod:`repro.adaptive` importable from worker modules)."""
    from repro.gigascope.decompose import linearize_plan

    return linearize_plan(plan)
