#!/usr/bin/env python3
"""A/B-compare two checkouts on the repository benchmark and write a BENCH file.

Runs ``bench/run.py`` of each checkout in turn, parent first in even pairs
and change first in odd pairs, one benchmark seed per pair, and records the
end-to-end metrics that ``BENCHMARK.json`` gates.  Put both checkouts in
sibling directories whose names have the same length: the D=1000
workloads' speed depends on heap layout, which shifts with path strings.

For step workloads it also counts the minor page faults of each set-up
that follows a run, in a fresh interpreter and in ``bench/run.py``'s
order (one run, then ten set-ups), since glibc's heap trim state after a
run decides whether a set-up faults in fresh pages.

Example (about 14 minutes at the default 36 seconds per run):
    python scripts/bench_ab.py --parent ../base --change ../head \\
        --pairs aio-rastrigin-d1000=5 pso-sphere-d1000=3 cli-aio-rosenbrock-d30=3 \\
        --out BENCH_N.json
"""
import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")

# Run in a checkout, with argv = workload, benchmark seed, scratch directory:
# prints the minor faults of each set-up after one run as a JSON list, or
# null for a workload that is not a step workload.
FAULTS_PROBE = """
import json, resource, sys
from array import array
from pathlib import Path
sys.path[:0] = ["src", "bench"]
from workloads import WORKLOADS, StepWorkload
workload, outdir = WORKLOADS[sys.argv[1]], Path(sys.argv[3])
if not isinstance(workload, StepWorkload):
    print("null")
    sys.exit()
first, count = workload.pass_seeds(int(sys.argv[2]), 0)
workload.work(first, count, outdir, array("d"))
faults = []
for r in range(10):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    workload.setup(first + r, outdir)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--pairs", nargs="+", required=True, metavar="WORKLOAD=N",
                        help="alternating parent/change pairs per workload")
    parser.add_argument("--seconds", type=float, default=36.0, help="--seconds of each run")
    parser.add_argument("--first-seed", type=int, default=101, help="benchmark seed of pair 0")
    parser.add_argument("--out", required=True, help="JSON file to write")
    return parser.parse_args(argv)


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``bench/run.py`` run; its summary line plus host and golden status."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((tree / "bench" / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {
        "seed": seed,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: m["value"] for name, m in summary["metrics"].items()},
        "golden": record["golden"]["status"],
        "host": record["host"],
    }


def setup_faults(tree: Path, workload: str, seed: int):
    """Minor faults of the ten set-ups after one run (``FAULTS_PROBE``), or None."""
    with tempfile.TemporaryDirectory() as scratch:
        cmd = [sys.executable, "-B", "-c", FAULTS_PROBE, workload, str(seed), scratch]
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs: dict, gates: list) -> dict:
    """Per metric: each side's quartiles, change/parent median ratio, pairs won, gate verdict.

    A pair is won when the change's run is strictly better than the parent's;
    the verdict holds when the change's median is no worse than the parent's
    by more than the metric's bound.
    """
    out = {}
    for gate in gates:
        name, higher = gate["name"], gate["better"] == "higher"
        sides = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
        stats = {side: dict(zip(("q1", "median", "q3"), quartiles(v))) for side, v in sides.items()}
        won = sum((c > p) if higher else (c < p) for p, c in zip(sides["parent"], sides["change"]))
        p_med, c_med = stats["parent"]["median"], stats["change"]["median"]
        worse = (p_med - c_med if higher else c_med - p_med) / abs(p_med) if p_med else 0.0
        out[name] = {
            "unit": gate["unit"],
            **stats,
            "parent_iqr": stats["parent"]["q3"] - stats["parent"]["q1"],
            "change_over_parent": c_med / p_med if p_med else None,
            "pairs_won_by_change": f"{won}/{len(sides['parent'])}",
            "bound": gate["bound"],
            "within_bound": worse <= gate["bound"],
        }
    return out


def summarize_faults(runs: dict):
    """Per side, quartiles of the set-up fault counts of all its runs; None
    for a workload whose runs have no counts."""
    if any(r.get("setup_faults") is None for side in SIDES for r in runs[side]):
        return None
    return {side: dict(zip(("q1", "median", "q3"),
                           quartiles([f for r in runs[side] for f in r["setup_faults"]])))
            for side in SIDES}


def main(argv=None):
    args = parse_args(argv)
    trees = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    gates = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    result = {"seconds_per_run": args.seconds, "trees": {s: t.name for s, t in trees.items()},
              "workloads": {}}
    for spec in args.pairs:
        workload, count = spec.split("=")
        runs = {side: [] for side in SIDES}
        for i in range(int(count)):
            seed = args.first_seed + i
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                run = bench_run(trees[side], workload, seed, args.seconds)
                result.setdefault("host", run.pop("host"))
                run["setup_faults"] = setup_faults(trees[side], workload, seed)
                runs[side].append(run)
                print(f"{workload} pair {i} {side}: " + " ".join(
                    f"{k}={v:.4g}" for k, v in run["metrics"].items()), flush=True)
        result["workloads"][workload] = {
            "pairs": int(count),
            "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
            "golden": {side: sorted({r["golden"] for r in runs[side]}) for side in SIDES},
            "summary": summarize(runs, gates),
            "setup_faults": summarize_faults(runs),
            "runs": runs,
        }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
