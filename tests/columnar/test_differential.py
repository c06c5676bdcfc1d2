"""Differential certification of the columnar execution tier.

Columnar execution — vectorized kernels, sliced ingress, sharded
columnar workers, and live representation migrations —
is only allowed to change how fast a plan runs, never what it emits.
This suite reuses the plan registry of the batch differential
(``tests/core/test_batch_equivalence.py``) and holds every columnar
configuration to element-for-element identity with the tuple-at-a-time
baseline: records *and* punctuations, in order, on every declared
output.

Covered axes:

* every registry plan (examples mirrors + generated grid, punctuated
  and unpunctuated) plus the expression-predicate plans below x batch
  sizes {1, 7, 256};
* every plan on every column backend;
* per-operator counters (and the sampled batch-size histogram)
  identical on the tuple, row-batch and columnar tiers;
* sharded columnar execution on the thread and process backends;
* live ``SetRepresentation`` migrations (tuple -> columnar mid-run,
  selected by the adaptive controller from measured rates).
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.adaptive import AdaptiveConfig, AdaptiveEngine
from repro.adaptive.revision import SetRepresentation, chain_of
from repro.columnar import Col, Lit
from repro.core import ListSource, run_plan
from repro.core.graph import linear_plan
from repro.operators import Select
from repro.operators.map import Extend
from repro.parallel.partition import RoundRobinPartition
from repro.parallel.sharded import run_sharded

from tests.core.test_batch_equivalence import (
    ALL_PLANS,
    _assert_identical_outputs,
    _grid_chain,
    _assert_identical_outputs as assert_same,
    _punctuated,
)

BATCH_SIZES = [1, 7, 256]

# Expression-predicate chains: the registry's predicates are lambdas,
# which never reach the vectorized Select kernel.
RATIO_ROWS = [
    {"ts": float(i), "n": i % 7, "d": i % 3} for i in range(600)
]
EXPR_CHAINS = {
    "expr_select_constant": lambda: [Select(Lit(True))],
    "expr_select_folded_constant": lambda: [Select(Lit(1) < Lit(2))],
    "expr_select_and_short_circuit": lambda: [
        Select((Col("d") != 0) & (Col("n") / Col("d") > 1))
    ],
    "expr_select_or_short_circuit": lambda: [
        Select((Col("d") == 0) | (Col("n") / Col("d") > 1))
    ],
    "expr_select_then_extend": lambda: [
        Select(Col("d") != 0),
        Extend({"q": Col("n") / Col("d")}),
    ],
}


def _expr_plan(chain):
    source = ListSource("in", _punctuated(RATIO_ROWS, "ts", every=45))
    return linear_plan("in", chain()), {"in": source}


PLANS = {
    **ALL_PLANS,
    **{name: partial(_expr_plan, chain) for name, chain in EXPR_CHAINS.items()},
}


def _baseline(build):
    plan, sources = build()
    result = run_plan(plan, sources, batch_size=1)
    assert result.outputs, "plan must produce at least one output stream"
    return result


@pytest.mark.parametrize("name", sorted(PLANS), ids=str)
def test_columnar_outputs_identical(name):
    """Columnar tier == tuple tier, every plan x batch size."""
    build = PLANS[name]
    baseline = _baseline(build)
    for batch_size in BATCH_SIZES:
        plan, sources = build()
        result = run_plan(
            plan, sources, batch_size=batch_size, representation="columnar"
        )
        _assert_identical_outputs(
            name, baseline, result, f"columnar@{batch_size}"
        )


@pytest.mark.parametrize("name", sorted(PLANS), ids=str)
def test_columnar_backends_identical(name, backend):
    """Each column backend produces the same stream (batch 256)."""
    build = PLANS[name]
    baseline = _baseline(build)
    plan, sources = build()
    result = run_plan(
        plan,
        sources,
        batch_size=256,
        representation="columnar",
        column_backend=backend,
    )
    _assert_identical_outputs(name, baseline, result, f"columnar-{backend}")


def test_right_operand_error_raises_as_on_tuple_path():
    """A ``&`` whose right operand fails on a record the left operand
    *accepts* raises on every tier — the row fallback reproduces the
    tuple path, it does not swallow the error."""
    chain = lambda: [Select((Col("n") >= 0) & (Col("n") / Col("d") > 1))]
    for kwargs in (
        {},
        {"batch_size": 7},
        {"batch_size": 7, "representation": "columnar"},
    ):
        plan, sources = _expr_plan(chain)
        with pytest.raises(ZeroDivisionError):
            run_plan(plan, sources, **kwargs)


COUNTERS = ("records_in", "records_out", "punctuations_in", "punctuations_out")


@pytest.mark.parametrize("name", sorted(PLANS), ids=str)
def test_operator_counters_identical_across_tiers(name):
    """Every operator counts the same elements in and out on the tuple,
    row-batch and columnar tiers, and — fully sampled — the batch-size
    histogram holds one sample per batch dispatch on both the row and
    the column entry point."""
    build = PLANS[name]
    plan, sources = build()
    reference = run_plan(plan, sources).metrics.operators
    for representation in ("tuple", "columnar"):
        plan, sources = build()
        metrics = run_plan(
            plan,
            sources,
            batch_size=256,
            representation=representation,
            observe=1,
        ).metrics
        assert set(metrics.operators) == set(reference)
        for op_name, m in metrics.operators.items():
            label = f"{name}[{representation}] operator {op_name!r}"
            for counter in COUNTERS:
                assert getattr(m, counter) == getattr(
                    reference[op_name], counter
                ), f"{label} {counter}"
            hist = metrics.histograms.get(f"op.{op_name}.batch_size")
            sampled = hist.count if hist is not None else 0
            assert sampled == m.batches_in, f"{label} batch_size samples"


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize(
    "name",
    [
        "cdr_select_project_aggregate",
        "cdr_select_project_aggregate_punctuated",
        "netflow_select_project_aggregate_punctuated",
    ],
    ids=str,
)
def test_sharded_columnar_identical(name, backend):
    """Sharded columnar workers == the single tuple engine."""
    build = ALL_PLANS[name]
    baseline = _baseline(build)
    plan, sources = build()
    result = run_sharded(
        plan,
        sources,
        RoundRobinPartition(2),
        batch_size=64,
        backend=backend,
        representation="columnar",
    )
    assert_same(name, baseline, result, f"sharded-columnar-{backend}")


# --------------------------------------------------------------------------
# live representation migrations
# --------------------------------------------------------------------------

SELECTOR = AdaptiveConfig(
    select_representation=True,
    decide_every=1,
    min_window_records=1,
    representation_threshold=0.5,
)

# Plans whose chain is >= 50% columnar-capable, so the controller's
# selector actually fires (punctuated variants give it boundaries).
MIGRATING_PLANS = [
    "cdr_select_project_aggregate_punctuated",
    "cdr_select_project_punctuated",
]


@pytest.mark.parametrize("name", MIGRATING_PLANS, ids=str)
def test_live_representation_migration_identical(name):
    """A mid-run tuple -> columnar switch never perturbs the stream."""
    build = ALL_PLANS[name]
    baseline = _baseline(build)
    plan, sources = build()
    adaptive = AdaptiveEngine(plan, config=SELECTOR, batch_size=32)
    result = adaptive.run(sources)
    _assert_identical_outputs(name, baseline, result, "live-migration")
    switches = [
        m.revision
        for m in adaptive.migrations
        if isinstance(m.revision, SetRepresentation)
    ]
    assert switches, "controller never selected columnar; test is vacuous"
    assert switches[0].representation == "columnar"
    # The engine may later revert (measured-rate guard on noisy small
    # windows) — also output-invariant; only the *switch* must happen.
    assert adaptive.engine.representation in ("columnar", "tuple")


def test_representation_revert_blocks_retry():
    """A revert (columnar measured worse) goes back to tuple and stops
    proposing switches for the rest of the run."""
    from repro.adaptive.controller import AdaptiveController
    from repro.observe.feedback import OperatorStats

    controller = AdaptiveController(
        AdaptiveConfig(
            select_representation=True,
            decide_every=1,
            min_window_records=1,
            representation_revert_ratio=1.25,
        )
    )
    plan, _sources = _grid_chain("cdr", False, "select_project")
    chain = chain_of(plan)

    def stats(records, wall, timed):
        # Cumulative counters: timed_invocations must keep growing or
        # the windowed delta treats the wall time as unmeasured.
        per_op = {}
        for op in chain:
            per_op[op.name] = OperatorStats(
                records_in=records,
                records_out=records,
                wall_time=wall,
                timed_invocations=timed,
            )
        return per_op

    first = controller.observe(
        stats(1000, 0.010, 1), chain, batch_size=64, representation="tuple"
    )
    assert [r.representation for r in first] == ["columnar"]
    # columnar window measured 3x worse -> revert ...
    second = controller.observe(
        stats(2000, 0.070, 2), chain, batch_size=64,
        representation="columnar",
    )
    assert [r.representation for r in second] == ["tuple"]
    # ... and the controller never tries again.
    third = controller.observe(
        stats(3000, 0.080, 3), chain, batch_size=64, representation="tuple"
    )
    assert [r for r in third if isinstance(r, SetRepresentation)] == []
