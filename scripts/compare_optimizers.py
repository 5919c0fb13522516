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
    ExperimentConfig,
    PsoParams,
    aggregate,
    run_experiment,
    write_csv,
)
from aiopt.benchmarks import FUNCTIONS


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
    try:
        params = AioParams(pso=PsoParams(population_size=args.population_size,
                                         max_iterations=args.iterations))
        configs = [
            ExperimentConfig(
                algorithm, benchmark=name, dims=args.dims, runs=args.runs,
                base_seed=args.seed, aio_params=params,
                output_path=None if args.csv_dir is None
                else os.path.join(args.csv_dir, f"{algorithm}_{name}.csv"),
            )
            for name in FUNCTIONS
            for algorithm in ("pso", "aio")
        ]
        if args.csv_dir is not None:
            os.makedirs(args.csv_dir, exist_ok=True)

        print(f"dims={args.dims} iterations={args.iterations} "
              f"runs={args.runs} seeds={args.seed}..{args.seed + args.runs - 1}")
        header = f"{'benchmark':11s} {'algorithm':9s} {'mean final':>12s} {'median final':>13s}"
        print(header)
        print("-" * len(header))

        mean_final = {}
        for config in configs:
            stats = aggregate(run_experiment(config))
            mean_final[config.benchmark, config.algorithm] = stats.mean_final
            print(f"{config.benchmark:11s} {config.algorithm:9s} {stats.mean_final:12.4e} "
                  f"{stats.median_final:13.4e}")
            if config.output_path is not None:
                write_csv(stats, config.output_path)
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    wins = sum(mean_final[name, "aio"] <= mean_final[name, "pso"] for name in FUNCTIONS)
    print(f"\nadaptive optimizer matched or beat the baseline on "
          f"{wins}/{len(FUNCTIONS)} benchmarks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
