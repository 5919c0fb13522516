#!/usr/bin/env python3
"""Compare the adaptive optimizer against the baseline swarm.

Runs both algorithms on every bundled benchmark with a shared block of
seeds and prints a table of mean/median final fitness per algorithm.
Optionally writes the per-benchmark mean convergence curves as CSV files.

Example:
    python scripts/compare_optimizers.py --dims 30 --iterations 2000 --runs 5
"""
import argparse
import os
import sys

from aiopt import (
    AioParams,
    ConfigError,
    PsoParams,
    aggregate,
    lookup,
    run_aio,
    run_pso,
    write_csv,
)
from aiopt.aio import swarm_count_rule
from aiopt.benchmarks import lookup_rules
from aiopt.errors import check

BENCHMARKS = ("sphere", "rosenbrock", "ackley", "griewank", "rastrigin")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", type=int, default=30, help="search space dimensions")
    parser.add_argument("--iterations", type=int, default=2000,
                        help="iterations per run")
    parser.add_argument("--runs", type=int, default=5, help="independent runs")
    parser.add_argument("--seed", type=int, default=1, help="first seed of the block")
    parser.add_argument("--population-size", type=int, default=50,
                        help="particles per population")
    parser.add_argument("--csv-dir", default=None,
                        help="directory for mean-curve CSVs (omit to skip)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    seeds = range(args.seed, args.seed + args.runs)
    try:
        pso_params = PsoParams(population_size=args.population_size,
                               max_iterations=args.iterations)
        aio_params = AioParams(pso=pso_params)
        check(*lookup_rules(BENCHMARKS[0], args.dims),
              swarm_count_rule(aio_params.swarm_count, args.dims))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.csv_dir is not None:
        os.makedirs(args.csv_dir, exist_ok=True)

    print(f"dims={args.dims} iterations={args.iterations} "
          f"runs={args.runs} seeds={args.seed}..{args.seed + args.runs - 1}")
    header = f"{'benchmark':11s} {'algorithm':9s} {'mean final':>12s} {'median final':>13s}"
    print(header)
    print("-" * len(header))

    wins = 0
    for name in BENCHMARKS:
        spec = lookup(name, args.dims)
        results = {}
        for algorithm, runner, params in (
            ("pso", run_pso, pso_params),
            ("aio", run_aio, aio_params),
        ):
            traces = [runner(spec, params, seed) for seed in seeds]
            stats = aggregate(traces)
            results[algorithm] = stats
            print(f"{name:11s} {algorithm:9s} {stats.mean_final:12.4e} "
                  f"{stats.median_final:13.4e}")
            if args.csv_dir is not None:
                path = os.path.join(args.csv_dir, f"{algorithm}_{name}.csv")
                write_csv(stats, path)
        if results["aio"].mean_final <= results["pso"].mean_final:
            wins += 1
    print(f"\nadaptive optimizer matched or beat the baseline on "
          f"{wins}/{len(BENCHMARKS)} benchmarks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
