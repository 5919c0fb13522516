"""Benchmark runner for aiopt: one workload, one seed.

    python3 bench/run.py --workload aio-rastrigin-d1000 --seed 1 --seconds 36 --trace 0

The workload runs in *passes*: a pass is one seeded run (step workloads)
or one ``main`` call over a block of seeds (CLI workload), and every pass
runs in a fresh interpreter, as ``python -m aiopt`` does.  This process
starts the passes one after another and waits for each.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload's traced plan in alternating untraced and
traced passes, and reports the per-layer metrics, the tracing overhead
and an (ungated) kernel microbenchmark.  Both modes check every run and
report the golden-digest status.  A pass starts only while it still ends
within ``--seconds`` of the start, once a fixed minimum is done; the
longest minimum takes about 30 seconds.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
A fuller record (host, samples, golden digests) goes to ``bench/out/``.

See bench/README.md for the workloads, metrics and layer mapping.
"""
from __future__ import annotations

import os

# Pin numpy/BLAS to one thread before numpy is imported, so the numbers
# measure the program rather than the scheduler.  Passes inherit this.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
KERNEL_ROWS = 250
KERNEL_DIMS = (30, 1000)
MIN_TRACE_PAIRS = 2
# Set-ups timed at the end of every measured pass, after its run.
SETUP_REPS = 10
# A pass that takes longer than this is stopped and counted as failed.
PASS_TIMEOUT_S = 120
PHASES = ("membership", "population", "context_eval", "reinforce", "concentrate")


def import_package():
    """Import aiopt from this checkout's ``src``; exit with status 1 if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import aiopt
    except ImportError as exc:
        sys.exit(f"error: cannot import aiopt from {src}: {exc}")
    if not Path(aiopt.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"error: aiopt imported from {aiopt.__file__}, not from {src}")
    return aiopt


def host_info() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fits(deadline: float, last_wall: float) -> bool:
    """Whether another piece of work as long as the last one ends by ``deadline``."""
    return perf_counter() + last_wall <= deadline


# --- one pass, in its own interpreter ---------------------------------------

def pass_main(args) -> int:
    """Run one pass and pickle its result to ``args.child``."""
    import_package()
    from array import array

    import numpy as np
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    outdir = Path(args.child).parent
    tracer = Tracer() if args.trace else None
    step_times = array("d")
    with tracer.installed() if tracer else contextlib.nullcontext():
        start = perf_counter()
        runs, csv, stepping = workload.work(args.first, args.count, outdir, step_times)
        wall = perf_counter() - start
    rss = peak_rss_mb()
    # The run comes first, as in a user's process: allocations made before it
    # change how often its temporaries page-fault.
    setup = [] if args.trace else [workload.setup(args.first + r, outdir) for r in range(SETUP_REPS)]
    result = {
        "runs": runs,
        "csv": csv,
        "steps": np.asarray(step_times),
        "stepping_s": stepping,
        "wall_s": wall,
        "setup_s": setup,
        "peak_rss_mb": rss,
        "spans": tracer.arrays() if tracer else None,
        "summary": tracer.summary() if tracer else None,
    }
    with open(args.child, "wb") as fh:
        pickle.dump(result, fh)
    return 0


def start_pass(args, outdir: Path, index: int, first: int, count: int, traced: bool) -> dict:
    """Run one pass in a fresh interpreter and wait for it; a failed pass fails its runs."""
    import numpy as np
    from workloads import Run

    result_file = outdir / f"pass-{index}.pkl"
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(int(traced)),
        "--child", str(result_file), "--first", str(first), "--count", str(count),
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=PASS_TIMEOUT_S)
        problem = None if proc.returncode == 0 else (
            f"pass exited with {proc.returncode}: {proc.stderr.decode(errors='replace').strip()[-300:]}")
    except subprocess.TimeoutExpired:
        problem = f"pass took more than {PASS_TIMEOUT_S} s"
    if problem is None:
        with open(result_file, "rb") as fh:
            result = pickle.load(fh)
        result_file.unlink()
        return result
    runs = [Run(seed=first + r, best_fitness=np.empty(0), failures=[problem]) for r in range(count)]
    return {"runs": runs, "csv": b"", "steps": np.empty(0), "stepping_s": 0.0, "wall_s": 0.0,
            "setup_s": [], "peak_rss_mb": float("nan"), "spans": None, "summary": None}


def check_repeats(passes: list[dict]) -> None:
    """A seed run twice must give the same trace bytes, and a block the same CSV."""
    traces: dict[int, bytes] = {}
    csvs: dict[tuple, bytes] = {}
    for p in passes:
        runs = p["runs"]
        if runs and p["csv"]:
            key = tuple(r.seed for r in runs)
            if csvs.setdefault(key, p["csv"]) != p["csv"]:
                for run in runs:
                    run.fail("the same seeds gave a different csv")
        for run in runs:
            if len(run.best_fitness) and traces.setdefault(run.seed, run.best_fitness.tobytes()) != run.best_fitness.tobytes():
                run.fail("the same seed gave different best_fitness bytes")


# --- untraced measurement -----------------------------------------------------

def measure(args, workload, deadline: float, outdir: Path) -> tuple[dict, list, dict]:
    """Measured passes: ``min_passes``, then more while one fits before ``deadline``."""
    import numpy as np

    passes: list[dict] = []
    last = 0.0
    while len(passes) < workload.min_passes or fits(deadline, last):
        first, count = workload.pass_seeds(args.seed, len(passes))
        start = perf_counter()
        passes.append(start_pass(args, outdir, len(passes), first, count, traced=False))
        last = perf_counter() - start
    check_repeats(passes)

    ok = [p for p in passes if len(p["steps"])]
    samples = np.concatenate([p["steps"] for p in ok]) if ok else np.full(1, np.nan)
    finals = {r.seed: float(r.best_fitness[-1])
              for p in passes[: workload.min_passes] for r in p["runs"] if len(r.best_fitness)}
    setup = [t for p in passes for t in p["setup_s"]]
    nan = float("nan")
    by_pass = [len(p["steps"]) / p["stepping_s"] for p in ok]
    metrics = {
        "iters_per_s": (statistics.median(by_pass) if by_pass else nan, "1/s"),
        "iter_ms_p50": (float(np.percentile(samples, 50)) * 1e3, "ms"),
        "iter_ms_p90": (float(np.percentile(samples, 90)) * 1e3, "ms"),
        "setup_s": (statistics.median(setup) if setup else nan, "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in ok) if ok else nan, "MB"),
        "final_fitness": (statistics.median(finals.values()) if finals else nan, "fitness"),
    }
    detail = {
        "passes": len(passes),
        "iter_samples": int(len(samples)),
        "iter_ms_quantiles": {f"p{q}": float(np.percentile(samples, q)) * 1e3 for q in (10, 25, 50, 75, 90, 99)},
        "iters_per_s_by_pass": by_pass,
        "setup_samples": len(setup),
        "final_fitness_seeds": len(finals),
    }
    return metrics, [r for p in passes for r in p["runs"]], detail


# --- traced run ---------------------------------------------------------------

def kernel_table(seed: int) -> dict:
    """µs per row of ``spec.evaluate`` on a fixed batch; an ungated microbenchmark."""
    import numpy as np
    from workloads import EVALUATE

    import aiopt.benchmarks as benchmarks

    rng = np.random.default_rng(seed)
    out = {}
    for name in benchmarks.FUNCTIONS:
        for dims in KERNEL_DIMS:
            spec = benchmarks.lookup(name, dims)
            batch = rng.uniform(spec.lower, spec.upper, size=(KERNEL_ROWS, dims))
            reps = max(1, int(2e6 // (KERNEL_ROWS * dims)))
            times = []
            for _ in range(7):
                start = perf_counter()
                for _ in range(reps):
                    EVALUATE(spec, batch)
                times.append((perf_counter() - start) / reps)
            out[f"kernel.{name}.d{dims}.us_per_row"] = (statistics.median(times) / KERNEL_ROWS * 1e6, "us")
    return out


def layer_metrics(summary: dict, counters: dict, passes: int) -> dict:
    """Per-layer metrics per traced pass; shares and ratios are pass-independent."""

    def get(name, key):
        return summary.get(name, {}).get(key, 0) / passes

    def count(key):
        return counters.get(key, 0) / passes

    def ratio(a, b):
        return a / b if b else 0.0

    steps = get("aio.step", "calls") + get("pso.step", "calls")
    step_busy = get("aio.step", "busy_s")
    out = {
        "benchmarks.evaluate.calls": (get("benchmarks.evaluate", "calls"), "count"),
        "benchmarks.evaluate.rows": (count("benchmarks.evaluate.rows"), "count"),
        "benchmarks.evaluate.busy_s": (get("benchmarks.evaluate", "busy_s"), "s"),
        "benchmarks.rows_per_iter": (ratio(count("benchmarks.evaluate.rows"), steps), "rows/iter"),
    }
    for layer in ("select", "reinforce"):
        out[f"automata.{layer}.calls"] = (get(f"automata.{layer}", "calls"), "count")
        out[f"automata.{layer}.busy_s"] = (get(f"automata.{layer}", "busy_s"), "s")
    for phase in PHASES:
        out[f"aio.{phase}.self_s"] = (get(f"aio.{phase}", "self_s"), "s")
        out[f"aio.{phase}.share"] = (ratio(get(f"aio.{phase}", "busy_s"), step_busy), "ratio")
    out["aio.step.busy_s"] = (step_busy, "s")
    out["aio.step.self_s"] = (get("aio.step", "self_s"), "s")
    out["aio.init_state.busy_s"] = (get("aio.init_state", "busy_s"), "s")
    out["aio.improve_ratio"] = (ratio(count("aio.context_eval.improved"), get("aio.context_eval", "calls")), "ratio")
    out["aio.empty_swarms"] = (count("aio.membership.empty_swarms"), "count")
    for name in ("pso.update_velocities", "pso.update_positions", "pso.init_population"):
        out[f"{name}.busy_s"] = (get(name, "busy_s"), "s")
    out["pso.step.self_s"] = (get("pso.step", "self_s"), "s")
    for name in (
        "config.load_config", "harness.run_experiment", "harness.aggregate",
        "harness.write_csv", "cli.main",
    ):
        out[f"{name}.busy_s"] = (get(name, "busy_s"), "s")
    return out


def traced_run(args, workload, deadline: float, outdir: Path, stem: str):
    """Untraced and traced passes of one seeded run, alternating, until ``deadline``.

    Pairs run in the order U T, T U, U T, ... (at least ``MIN_TRACE_PAIRS``,
    then more while one fits) so that drift falls on both sides.  Every
    pass must give the same bytes.  Per-layer values are per traced pass,
    and the overhead is the median over pairs of traced minus untraced
    wall time, so they compare across commits whatever the pass count.
    """
    from tracing import write_spans

    kernels = kernel_table(args.seed)
    first = workload.pass_seeds(args.seed, 0)[0]
    walls: dict[bool, list[float]] = {False: [], True: []}
    passes = []
    pairs = 0
    pair_wall = 0.0
    while pairs < MIN_TRACE_PAIRS or fits(deadline, pair_wall):
        pair_start = perf_counter()
        for traced in (False, True) if pairs % 2 == 0 else (True, False):
            result = start_pass(args, outdir, len(passes), first, 1, traced)
            walls[traced].append(result["wall_s"])
            passes.append(result)
        pairs += 1
        pair_wall = perf_counter() - pair_start
    traced_passes = [p for p in passes if p["spans"] is not None]
    write_spans(OUT_DIR / f"{stem}-spans.npz", [p["spans"] for p in traced_passes])
    check_repeats(passes)

    summary: dict[str, dict[str, float]] = {}
    counters: dict[str, int] = {}
    for p in traced_passes:
        for name, row in p["summary"].items():
            acc = summary.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key, value in row.items():
                acc[key] += value
        for key, value in p["spans"]["counters"].items():
            counters[key] = counters.get(key, 0) + value
    metrics = layer_metrics(summary, counters, pairs)
    # Each pair's two passes run back to back, so their difference cancels
    # slow drift of the host; the median drops pairs caught by a fast spell.
    overhead = statistics.median(t - u for t, u in zip(walls[True], walls[False]))
    untraced_wall = statistics.median(walls[False])
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / untraced_wall if untraced_wall else 0.0, "ratio")
    metrics["trace.spans"] = (sum(len(p["spans"]["start"]) for p in traced_passes) / pairs, "count")
    metrics.update(kernels)

    # Accounting: the part of aio_step no child span covers is its self time.
    accounting = {
        "aio_step_busy_s": metrics["aio.step.busy_s"][0],
        "aio_step_unaccounted_s": metrics["aio.step.self_s"][0],
        "within_overhead": metrics["aio.step.self_s"][0] <= max(overhead, 0.0),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": statistics.median(walls[True]),
        "traced_passes": pairs,
        "walls_s": {"untraced": walls[False], "traced": walls[True]},
    }
    return metrics, [r for p in passes for r in p["runs"]], {"spans": summary, "accounting": accounting}


# --- entry point --------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one pass and write its result to this file.
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--first", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--count", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.child:
        return pass_main(args)

    deadline = perf_counter() + args.seconds
    import_package()
    from array import array

    from workloads import GOLDEN_SEEDS, WORKLOADS, golden_report

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    record: dict = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "host": host_info()}
    try:
        golden_runs, _, _ = workload.work(GOLDEN_SEEDS[0], len(GOLDEN_SEEDS), scratch, array("d"))
        record["golden"] = golden_report(workload.name, {r.seed: r.best_fitness for r in golden_runs})
        if args.trace:
            metrics, runs, detail = traced_run(args, workload, deadline, scratch, stem)
        else:
            metrics, runs, detail = measure(args, workload, deadline, scratch)
        record.update(detail)
        runs = runs + golden_runs
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed_runs = [r for r in runs if r.failures]
    record["failures"] = sorted({f for r in failed_runs for f in r.failures})
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2, default=float))

    host = record["host"]
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"host: {host['cpu']}, nproc={host['nproc']}, python {host['python']}, "
          f"numpy {host['numpy']}, threads pinned to 1 ({', '.join(THREAD_ENV)})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:16.6g} {unit}")
    if not args.trace:
        print(f"  passes: {record['passes']}, iteration samples: {record['iter_samples']}, "
              f"set-up samples: {record['setup_samples']}, final_fitness seeds: {record['final_fitness_seeds']}")
    else:
        acc = record["accounting"]
        print(f"  per traced pass (one run; {acc['traced_passes']} traced and as many untraced passes)")
        if acc["aio_step_busy_s"]:
            print(f"  aio_step time not covered by child spans: {acc['aio_step_unaccounted_s']:.6g} s "
                  f"of {acc['aio_step_busy_s']:.6g} s; within tracing overhead: {acc['within_overhead']}")
        print("  (kernel.* rows are a per-layer microbenchmark on a fixed "
              f"{KERNEL_ROWS}-row batch; not gated)")
    seeds = ", ".join(f"seed {s}: {g['status']}" for s, g in record["golden"]["seeds"].items())
    print(f"golden digests: {record['golden']['status']} ({seeds})")
    print(f"fail_rate: {len(failed_runs)}/{len(runs)}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    result = {
        "correct": not failed_runs,
        "attempted": len(runs),
        "failed": len(failed_runs),
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
