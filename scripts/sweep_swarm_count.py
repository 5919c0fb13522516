#!/usr/bin/env python3
"""Sweep the swarm count of the adaptive optimizer on one benchmark.

The swarm count controls how finely the dimension-assignment layer can
split the search space. This script runs the optimizer for each requested
count and reports mean/median final fitness, which makes the trade-off
between decomposition granularity and per-swarm budget easy to see.

Example:
    python scripts/sweep_swarm_count.py --benchmark rastrigin --counts 1 2 5 10
"""
import argparse
import sys

from aiopt import AioParams, ExperimentConfig, PsoParams, aggregate, run_experiment
from aiopt.errors import USER_ERRORS


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", default="rastrigin", help="benchmark name")
    parser.add_argument("--dims", type=int, default=30, help="search space dimensions")
    parser.add_argument("--counts", type=int, nargs="+", default=[1, 2, 5, 10, 15],
                        help="swarm counts to try")
    parser.add_argument("--iterations", type=int, default=2000,
                        help="iterations per run")
    parser.add_argument("--runs", type=int, default=5, help="independent runs")
    parser.add_argument("--seed", type=int, default=1, help="first seed of the block")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        configs = [
            ExperimentConfig(
                "aio", benchmark=args.benchmark, dims=args.dims, runs=args.runs,
                base_seed=args.seed,
                aio_params=AioParams(swarm_count=count,
                                     pso=PsoParams(max_iterations=args.iterations)),
            )
            for count in args.counts
        ]

        print(f"benchmark={args.benchmark} dims={args.dims} "
              f"iterations={args.iterations} runs={args.runs}")
        header = f"{'swarms':>6s} {'mean final':>12s} {'median final':>13s} {'min final':>12s}"
        print(header)
        print("-" * len(header))

        for config in configs:
            stats = aggregate(run_experiment(config))
            print(f"{config.aio_params.swarm_count:6d} {stats.mean_final:12.4e} "
                  f"{stats.median_final:13.4e} {stats.min_final:12.4e}")
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
