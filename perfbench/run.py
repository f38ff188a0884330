"""Benchmark for blockmol: one workload per process, results as one JSON line.

    python3 perfbench/run.py --workload build|sample|search --seed N \
        --seconds S --trace 0|1

With ``--trace 0`` the run sets up ``SETUP_REPEATS`` times, then runs whole
rounds of the workload's CLI commands until ``--seconds`` have passed (and
at least the workload's ``min_rounds``), and reports the end-to-end metrics:
every time is in reference seconds (``speed.Meter``), and each rate is the
median over the passing commands of the run.  With
``--trace 1`` it sets up once, runs one round untraced and the same round
again with spans around every call into the traced functions, and reports
the per-layer metrics and the tracing overhead.  The last stdout line is the
result object; spans and a copy of the result go to ``.perfbench-out/`` at
the checkout root.  ``correct`` is false, and the exit code 1, as soon as one
operation fails.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402  (the clock starts before any import)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402  (the benchmark's own; it does not import blockmol)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

# Set-up runs this many times and ``setup_s`` is their median, so that one
# slow stretch of the machine does not decide it (see README).
SETUP_REPEATS = 2

# End-to-end metrics: name -> unit.  Each workload fills them from its own
# commands; README.md says which command feeds which metric.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "first_cmd_items_per_s": "items/s",
    "first_cmd_yield_per_s": "items/s",
    "second_cmd_items_per_s": "items/s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("build", "sample", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import blockmol from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "blockmol" / "__init__.py").is_file():
        raise ImportError(f"no blockmol package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import spans
    import workloads
    return workloads, spans


def measure(workloads, workload, seed: int, seconds: float, sizes, out: Path,
            started: float | None = None) -> dict:
    """Untraced run: repeated set-up, then whole rounds for ``seconds``.

    ``started`` is the ``perf_counter`` time the process began, so that
    ``setup_s`` includes the imports before this call.
    """
    entered = time.perf_counter()
    ledger = workloads.Ledger()
    meter = speed.Meter()
    meter.start()
    try:
        with tempfile.TemporaryDirectory(prefix=f"work-{workload}-", dir=out) as work:
            bench = workloads.WORKLOADS[workload](Path(work), seed, sizes, ledger)
            setups = []
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                bench.setup()
                setups.append((start, time.perf_counter()))
            rounds, begin = [], time.perf_counter()
            while len(rounds) < bench.min_rounds or time.perf_counter() - begin < seconds:
                rounds.append(bench.round(len(rounds)))
            bench.finish()
    finally:
        meter.stop()

    def ref(command) -> float:
        return meter.seconds(command.start, command.start + command.seconds)

    # Failed commands are not in the rounds; with none left a rate reads 0.
    first_runs = [t for r in rounds for t in r.first]
    second_runs = [t for r in rounds for t in r.second]
    first = _median([items / ref(c) for c, items, _ in first_runs])
    items = sum(t[1] for t in first_runs)
    yield_share = sum(t[2] for t in first_runs) / items if items else 0.0
    imports = meter.seconds(started, entered) if started is not None else 0.0
    metrics = {
        "setup_s": imports + statistics.median(meter.seconds(*s) for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "first_cmd_items_per_s": first,
        "first_cmd_yield_per_s": first * yield_share,
        "second_cmd_items_per_s": _median([items / ref(c) for c, items in second_runs]),
    }
    # Wall and reference seconds of every set-up and command, for the record.
    setups = [(b - a, meter.seconds(a, b)) for a, b in setups]
    timings = [[(t[0].seconds, ref(t[0])) for t in r.first + r.second] for r in rounds]
    return _result(ledger, {k: (v, END_TO_END[k]) for k, v in metrics.items()},
                   setups=setups, timings=timings)


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def measure_traced(workloads, spans, workload, seed: int, sizes, out: Path) -> dict:
    """Traced run: one round untraced, the same round traced, per-layer metrics."""
    ledger = workloads.Ledger()
    tracer = spans.Tracer()
    with tempfile.TemporaryDirectory(prefix=f"work-{workload}-", dir=out) as work:
        bench = workloads.WORKLOADS[workload](Path(work), seed, sizes, ledger)
        bench.setup()
        plain = bench.round(0)
        with tracer:
            traced = bench.round(0)
        bench.finish()
    plain_s, traced_s = plain.seconds, traced.seconds
    values = tracer.layer_metrics(lambda s: workloads.chem.try_parse(s)[1] is None)
    # The difference of two single rounds carries the machine's noise; the
    # calibrated cost per span times the spans is the steadier estimate.
    cost = spans.span_cost()
    values.update({"trace.untraced_s": plain_s, "trace.traced_s": traced_s,
                   "trace.overhead_s": traced_s - plain_s,
                   "trace.span_cost_us": cost * 1e6,
                   "trace.overhead_est_s": cost * values["trace.spans"]})
    tracer.save(out / f"spans-{workload}.npz")
    units = {m["name"]: m["unit"] for m in spans.per_layer_spec()}
    return _result(ledger, {k: (values[k], units[k]) for k in units})


def _result(ledger, metrics: dict, **extra) -> dict:
    for problem in ledger.problems[:50]:
        print(f"FAILED {problem}", file=sys.stderr)
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
        **extra,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # Single-threaded numpy, set before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    try:
        workloads, spans = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.trace:
        result = measure_traced(workloads, spans, args.workload, args.seed,
                                workloads.FULL, OUT)
    else:
        result = measure(workloads, args.workload, args.seed, args.seconds,
                         workloads.FULL, OUT, START)
    line = json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})
    name = f"result-{args.workload}-trace{args.trace}-seed{args.seed}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
