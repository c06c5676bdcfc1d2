"""The performance ledger: one command, six workloads, every output checked.

    python3 benchmarks/ledger/run.py                      # all six, untraced
    python3 benchmarks/ledger/run.py --trace 1            # per-layer numbers
    python3 benchmarks/ledger/run.py --workload cdr_columnar --seed 7 \\
        --seconds 10 --trace 0                            # one run (driver form)
    python3 benchmarks/ledger/run.py --compare A.json B.json
    python3 benchmarks/ledger/run.py --smoke

Metric names, units, directions and regression bounds are read from
``BENCHMARK.json`` at the repository root and nowhere else.  The last
line of a one-workload run is one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
OUT = LEDGER / "out"
DEFAULT_SEED = 20050405
MAX_LATE_BATCH_FRAC = 0.01
#: Every run must print every end-to-end metric, so closed loops print
#: answer latency too; there it is pass time, which ``tuples_per_s`` and
#: ``pass_ms_p75`` already report, so ``--compare`` has no row for it.
OPEN_LOOP = "netflow_paced"
OPEN_LOOP_ONLY = ("result_latency_ms_p50", "result_latency_ms_p95")
SMOKE_SCALE = 20
SMOKE_PASSES = 3
SMOKE_SECONDS = 0.5


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program():
    """The program under test is built from the checkout's own source."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"ledger: no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))


def environment(seed):
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # a checkout without git metadata
    return {
        "commit": commit,
        "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)),
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
        "seed": seed,
    }


# -- one workload, in this process -------------------------------------------


def untraced(workload, args):
    import measure

    state, warm, _, setup_seconds = measure.repeated_set_up(
        workload, args.seed, args.scale, args.seconds
    )
    t0 = perf_counter()
    expected = workload.reference(state)
    oracle_s = perf_counter() - t0
    if measure.is_paced(workload):
        stats = measure.open_loop(workload, state, expected, args.seconds)
        detail = dict(stats.validity, sustainable=stats.sustainable)
        stats.metrics.update(stats.validity)
    else:
        stats = measure.closed_loop(
            workload, state, expected, args.seconds, args.passes
        )
        # The warm-up pass is discarded from the timings, not from the
        # check.
        stats.attempted += 1
        stats.failed += warm != expected
        detail = {}
    values = dict(
        stats.metrics,
        setup_s=measure.median(setup_seconds),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    detail.update(
        n=dict(stats.n, setup_s=len(setup_seconds), peak_rss_mb=1),
        setup_samples_s=setup_seconds,
        oracle_s=oracle_s,
        gc_gen2_collections=stats.gen2,
        samples=stats.samples,
    )
    return stats, values, detail


def run_one(args, spec):
    import_program()
    import layers
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        sys.exit(f"ledger: unknown workload {args.workload!r}")
    workload = wl.WORKLOADS[args.workload]
    started = perf_counter()
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        tally, values = layers.traced_run(
            workload, args.seed, args.seconds, args.scale, args.passes,
            names, OUT,
        )
        detail = {}
        listed = spec["per_layer"]
    else:
        tally, values, detail = untraced(workload, args)
        listed = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in listed
    }
    late = values.get("driver.late_batch_frac", 0.0)
    correct = tally.failed == 0 and late <= MAX_LATE_BATCH_FRAC
    record = {
        "env": dict(
            environment(args.seed), wall_s=perf_counter() - started
        ),
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "scale": args.scale,
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / tally.attempted,
        "metrics": metrics,
        "detail": detail,
    }
    OUT.mkdir(exist_ok=True)
    name = f"{workload.name}-trace{args.trace}-seed{args.seed}.json"
    (OUT / name).write_text(json.dumps(record, allow_nan=False) + "\n")

    print(
        f"{workload.name}  seed={args.seed}  attempted={tally.attempted}"
        f"  failed={tally.failed}  error_rate={record['error_rate']:.4f}"
    )
    for m in listed:
        gate = (
            f"  n={detail['n'][m['name']]}  bound {m['bound']:.0%}"
            if "bound" in m
            else ""
        )
        print(
            f"  {m['name']:<38} {values[m['name']]:>16.6g} {m['unit']:<10}"
            f"{gate}"
        )
    for key, value in detail.items():
        if key not in ("samples", "n"):
            print(f"  ({key}: {value})")
    # Diagnostics go to stderr, which an all-workload run always forwards.
    if tally.failed:
        print(
            f"{workload.name}: FAILED: {tally.failed} of {tally.attempted}"
            " operations raised or differ from the tuple-engine reference",
            file=sys.stderr,
        )
    if detail.get("sustainable") is False:
        print(
            f"{workload.name}: UNSUSTAINABLE: result_latency_ms_p95 is over"
            f" the {wl.PACED_LATENCY_LIMIT_MS:g} ms limit",
            file=sys.stderr,
        )
    if late > MAX_LATE_BATCH_FRAC:
        print(
            f"{workload.name}: INVALID: {late:.2%} of micro-batches were"
            " fed late",
            file=sys.stderr,
        )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            },
            allow_nan=False,
        )
    )
    return 0 if correct else 1


# -- every workload, each in its own sequential child process ----------------


def child(workload, seed, args, trace):
    """One workload in a fresh process (clean RSS and collector state).
    Returns the parsed result line, or ``None`` if the child failed."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--scale", str(args.scale),
    ]
    if args.passes:
        cmd += ["--passes", str(args.passes)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode:
        print(f"{workload}: exit code {done.returncode}", file=sys.stderr)
    try:
        return json.loads(lines[-1]), done.returncode
    except (IndexError, ValueError):  # died before its result line
        return None, done.returncode or 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_all(args, spec):
    started = perf_counter()
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    ledger = {
        "env": environment(args.seed),
        "trace": args.trace,
        "seconds": args.seconds,
        "runs": args.runs,
        "workloads": {},
    }
    status = 0
    for w in spec["workloads"]:
        entry = {
            "attempted": 0,
            "failed": 0,
            "metrics": {
                m["name"]: {"unit": m["unit"], "values": []} for m in listed
            },
        }
        for r in range(args.runs):
            result, code = child(w["name"], args.seed + r, args, args.trace)
            status = status or code
            if result is None:
                continue
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                entry["metrics"][name]["values"].append(m["value"])
        entry["error_rate"] = (
            entry["failed"] / entry["attempted"] if entry["attempted"] else 1.0
        )
        ledger["workloads"][w["name"]] = entry
        print(
            f"{w['name']}  runs={args.runs}  attempted={entry['attempted']}"
            f"  error_rate={entry['error_rate']:.4f}"
        )
        for m in listed:
            values = entry["metrics"][m["name"]]["values"]
            if not values:
                continue
            q1, q2, q3 = quartiles(values)
            spread = f" q1 {q1:.6g} q3 {q3:.6g}" if len(values) > 1 else ""
            bound = f"  bound {m['bound']:.0%}" if "bound" in m else ""
            print(
                f"  {m['name']:<38} {q2:>16.6g} {m['unit']:<10}"
                f"{spread} n={len(values)}{bound}"
            )
    ledger["env"]["wall_s"] = perf_counter() - started
    out = Path(args.out) if args.out else OUT / f"ledger-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(ledger, indent=1, allow_nan=False) + "\n")
    print(f"wrote {out}  ({ledger['env']['wall_s']:.1f} s)")
    return status


# -- --compare -----------------------------------------------------------------


def compare(path_a, path_b, spec):
    """One row per workload x end-to-end metric; verdicts use only the
    bounds stored in BENCHMARK.json."""
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    regressed = False
    print(
        f"{'workload':<24}{'metric':<24}{'A median [q1, q3]':<44}"
        f"{'B median [q1, q3]':<44}{'B/A':>8}  verdict"
    )
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            if m["name"] in OPEN_LOOP_ONLY and w["name"] != OPEN_LOOP:
                continue
            try:
                va = a[w["name"]]["metrics"][m["name"]]["values"]
                vb = b[w["name"]]["metrics"][m["name"]]["values"]
            except KeyError:
                va = vb = []
            if not va or not vb:
                print(f"{w['name']:<24}{m['name']:<24}missing")
                regressed = True
                continue
            a1, a2, a3 = quartiles(va)
            b1, b2, b3 = quartiles(vb)
            ratio = b2 / a2
            worse = ratio - 1 if m["better"] == "lower" else 1 / ratio - 1
            spread = max((a3 - a1) / a2, (b3 - b1) / b2)
            if spread > m["bound"]:
                verdict = "unresolved"  # spread wider than the bound
            elif worse > m["bound"]:
                verdict = "regressed"
                regressed = True
            elif worse < -m["bound"]:
                verdict = "improved"
            else:
                verdict = "unchanged"
            print(
                f"{w['name']:<24}{m['name']:<24}"
                f"{f'{a2:.6g} [{a1:.6g}, {a3:.6g}]':<44}"
                f"{f'{b2:.6g} [{b1:.6g}, {b3:.6g}]':<44}"
                f"{ratio:>7.3f}x  {verdict} (base A, bound {m['bound']:.0%})"
            )
        for label, side in (("A", a), ("B", b)):
            rate = side.get(w["name"], {}).get("error_rate", 1.0)
            if rate > 0:
                print(f"{w['name']:<24}error_rate {rate:.4f} in {label}")
                regressed = True
    return 1 if regressed else 0


# -- --smoke -------------------------------------------------------------------


def smoke(args, spec):
    """Inputs shrunk 20x, 3 passes, both runs of every workload: the
    oracle, the result line's shape, and every name in BENCHMARK.json."""
    import_program()
    import workloads as wl

    names = [w["name"] for w in spec["workloads"]]
    assert names == list(wl.WORKLOADS), (names, list(wl.WORKLOADS))
    args.scale, args.passes = SMOKE_SCALE, SMOKE_PASSES
    args.seconds = SMOKE_SECONDS
    started = perf_counter()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in names:
            result, code = child(name, args.seed, args, trace)
            assert code == 0 and result is not None, (name, trace, code)
            assert set(result) == {
                "correct", "attempted", "failed", "metrics"
            }, result.keys()
            assert result["correct"] is True and result["failed"] == 0, result
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, set(got) ^ set(want)
            for k, v in result["metrics"].items():
                assert isinstance(v["value"], (int, float)), (k, v)
    print(f"smoke ok ({perf_counter() - started:.1f} s)")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds seed..seed+runs-1")
    parser.add_argument("--out", help="result file of an all-workloads run")
    parser.add_argument("--scale", type=int, default=1,
                        help="divide every input size (--smoke uses 20)")
    parser.add_argument("--passes", type=int, default=None,
                        help="exactly this many passes instead of --seconds")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.compare:
        return compare(*args.compare, spec)
    if args.smoke:
        return smoke(args, spec)
    if args.workload:
        return run_one(args, spec)
    import_program()  # fail early, before six children do
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
