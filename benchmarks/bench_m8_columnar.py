"""M8 — Columnar vectorized execution throughput (wall-clock).

Measures tuples/sec of the three execution tiers on vectorizable
(``Col``-expression) variants of the two standard workloads:

* **tuple** — one element per dispatch (the M1 baseline path);
* **row-batch** — micro-batched row dispatch (the M2 tier), at
  ``batch_size`` in {256, 1024, 4096};
* **columnar** — struct-of-arrays ``ColumnBatch`` dispatch through the
  operators' ``process_columns`` kernels, same batch sizes.

All tiers are checked element-identical before any number is reported
— the wider oracle is ``tests/columnar/test_differential.py``.

Acceptance (the M8 gate, checked at batch_size=4096, the columnar
operating point): columnar >= 2x row-batch and >= 5x tuple-at-a-time on
the CDR plan.

Run as a script to record ``BENCH_m8.json`` (add ``--smoke`` for the
tiny CI variant that checks the gate end-to-end in seconds).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _harness import interleaved_best, write_baseline  # noqa: E402

from repro.columnar import Col
from repro.core import ListSource, run_plan
from repro.core.graph import linear_plan
from repro.operators import AggSpec, Aggregate, Select, WindowedAggregate
from repro.operators.project import Project
from repro.windows import TumblingWindow
from repro.workloads import CDRGenerator, PacketGenerator

BATCH_SIZES = [256, 1024, 4096]
GATE_BATCH = 4096
N = 30000


def cdr_ops():
    """The CDR acceptance chain with a vectorizable ``Col`` predicate."""
    return [
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
    ]


def netflow_ops():
    return [
        Select(Col("length") > 512, name="big"),
        Project(
            {"ts": "ts", "src_ip": "src_ip", "length": "length"},
            name="proj",
        ),
        WindowedAggregate(
            TumblingWindow(10.0),
            ["src_ip"],
            [AggSpec("n", "count"), AggSpec("vol", "sum", "length")],
            name="per_bucket",
        ),
    ]


def _plan(make_ops, input_name: str):
    return linear_plan(input_name, make_ops())


def _cdr_source(n: int = N) -> ListSource:
    return ListSource(
        "calls", CDRGenerator().generate(n), ts_attr="connect_ts"
    )


def _netflow_source(n: int = N) -> ListSource:
    return ListSource(
        "Traffic", PacketGenerator().generate(n), ts_attr="ts"
    )


WORKLOADS = {
    "cdr": (cdr_ops, "calls", _cdr_source),
    "netflow": (netflow_ops, "Traffic", _netflow_source),
}


def _tiers(make_ops, input_name, source, batch_size):
    """The named runs for one (workload, batch_size) cell.

    Returned as closures so :func:`interleaved_best` can round-robin
    them — machine drift then biases every tier equally instead of
    flattering whichever representation runs on the quiet stretch.
    """
    plain = _plan(make_ops, input_name)
    return {
        "row_batch": lambda: run_plan(
            plain, [source], batch_size=batch_size
        ),
        "columnar": lambda: run_plan(
            plain,
            [source],
            batch_size=batch_size,
            representation="columnar",
        ),
    }


def _check_tiers_identical(make_ops, input_name, source) -> None:
    """Every tier must emit byte-for-byte the tuple path's outputs."""
    want = run_plan(_plan(make_ops, input_name), [source], batch_size=1)
    for bs in BATCH_SIZES:
        for name, fn in _tiers(make_ops, input_name, source, bs).items():
            got = fn()
            if got.outputs != want.outputs:
                raise AssertionError(
                    f"{name} @ batch_size={bs} diverged from the "
                    f"tuple-at-a-time output"
                )


def columnar_scaling(n: int = N, repeats: int = 3) -> dict:
    """Tuples/sec per workload per tier per batch size (the M8 table).

    The tuple tier has no batch-size axis; it is measured once per
    workload (interleaved into the first ladder so it shares the same
    noise regime as the batched tiers).
    """
    results: dict = {}
    for wname, (make_ops, input_name, make_source) in WORKLOADS.items():
        source = make_source(n)
        _check_tiers_identical(make_ops, input_name, source)
        per_tier: dict[str, dict[str, float]] = {}
        tuple_tps = None
        for bs in BATCH_SIZES:
            runs = _tiers(make_ops, input_name, source, bs)
            if tuple_tps is None:
                plain = _plan(make_ops, input_name)
                runs = {
                    "tuple": lambda: run_plan(plain, [source], batch_size=1),
                    **runs,
                }
            best = interleaved_best(runs, repeats=repeats, warmup=1)
            if "tuple" in best:
                tuple_tps = round(n / best.pop("tuple"), 1)
            for tier, seconds in best.items():
                per_tier.setdefault(tier, {})[str(bs)] = round(
                    n / seconds, 1
                )
        results[wname] = {"tuple": tuple_tps, **per_tier}
    return results


def _gate_ratios(scaling: dict) -> tuple[float, float]:
    """(columnar/row-batch, columnar/tuple) on CDR at the gate size."""
    cdr = scaling["cdr"]
    col = cdr["columnar"][str(GATE_BATCH)]
    return col / cdr["row_batch"][str(GATE_BATCH)], col / cdr["tuple"]


# -- pytest entry points ---------------------------------------------------


@pytest.fixture(scope="module")
def cdr_source():
    return _cdr_source()


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("tier", ["row_batch", "columnar"])
def test_m8_cdr_tier_throughput(benchmark, cdr_source, tier, batch_size):
    make_ops, input_name, _ = WORKLOADS["cdr"]
    run = _tiers(make_ops, input_name, cdr_source, batch_size)[tier]
    result = benchmark(run)
    assert result.records()


def test_m8_columnar_report(report):
    """The M8 table: tuples/sec per tier, plus the 2x/5x gate."""
    emit, table = report
    scaling = columnar_scaling(n=N, repeats=3)
    tiers = [t for t in scaling["cdr"] if t != "tuple"]
    rows = []
    for wname, by_tier in scaling.items():
        rows.append([wname, "tuple"] + [by_tier["tuple"]] * len(BATCH_SIZES))
        for tier in tiers:
            rows.append(
                [wname, tier]
                + [by_tier[tier][str(bs)] for bs in BATCH_SIZES]
            )
    table(
        ["workload", "tier"] + [f"bs={bs} tup/s" for bs in BATCH_SIZES],
        rows,
        title="M8: columnar execution throughput",
    )
    emit(
        "(differential suite tests/columnar/test_differential.py proves "
        "columnar outputs identical across the plan registry)"
    )
    vs_rb, vs_tuple = _gate_ratios(scaling)
    emit(
        f"gate @ bs={GATE_BATCH}: columnar = {vs_rb:.2f}x row-batch, "
        f"{vs_tuple:.2f}x tuple (need >= 2x / >= 5x)"
    )
    assert vs_rb >= 2.0, (
        f"columnar @ bs={GATE_BATCH} is only {vs_rb:.2f}x row-batch on "
        f"the CDR plan (expected >= 2x)"
    )
    assert vs_tuple >= 5.0, (
        f"columnar @ bs={GATE_BATCH} is only {vs_tuple:.2f}x tuple-at-a-"
        f"time on the CDR plan (expected >= 5x)"
    )


# -- baseline recording ----------------------------------------------------


def record_baseline(path: str | Path | None = None, n: int = N) -> dict:
    """Write the M8 columnar baseline for future PRs to diff against."""
    scaling = columnar_scaling(n=n, repeats=3)
    vs_rb, vs_tuple = _gate_ratios(scaling)
    baseline = {
        "n_tuples": n,
        "batch_sizes": BATCH_SIZES,
        "gate_batch_size": GATE_BATCH,
        "m8_tuples_per_sec": scaling,
        "m8_cdr_columnar_vs_row_batch": round(vs_rb, 2),
        "m8_cdr_columnar_vs_tuple": round(vs_tuple, 2),
    }
    return write_baseline("BENCH_m8.json", baseline, path)


def smoke(n: int = 16384) -> dict:
    """Tiny CI variant: equality across every tier at every batch size,
    then the >= 2x-over-row-batch gate at the operating point."""
    make_ops, input_name, make_source = WORKLOADS["cdr"]
    source = make_source(n)
    _check_tiers_identical(make_ops, input_name, source)
    plain = _plan(make_ops, input_name)
    runs = {
        "tuple": lambda: run_plan(plain, [source], batch_size=1),
        **_tiers(make_ops, input_name, source, GATE_BATCH),
    }
    best = interleaved_best(runs, repeats=3, warmup=1)
    tps = {name: round(n / s, 1) for name, s in best.items()}
    vs_rb = tps["columnar"] / tps["row_batch"]
    if vs_rb < 2.0:
        raise AssertionError(
            f"smoke: columnar @ bs={GATE_BATCH} is only {vs_rb:.2f}x "
            f"row-batch on the CDR plan (expected >= 2x)"
        )
    return {
        "n_tuples": n,
        "batch_size": GATE_BATCH,
        "tuples_per_sec": tps,
        "columnar_vs_row_batch": round(vs_rb, 2),
        "columnar_vs_tuple": round(tps["columnar"] / tps["tuple"], 2),
        "outputs_identical": True,
    }


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        print(json.dumps(smoke(), indent=2))
        print("smoke ok: all tiers identical, columnar >= 2x row-batch")
    else:
        recorded = record_baseline()
        print(json.dumps(recorded, indent=2))
