"""Command line entry point: run one experiment from an XML config."""
from __future__ import annotations

import argparse
import sys

from .config import load_config
from .errors import USER_ERRORS
from .harness import ALGORITHMS, aggregate, run_experiment, write_csv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aiopt",
        description="Run a PSO or AIO benchmark experiment and write the "
        "mean convergence curve as CSV.",
    )
    parser.add_argument("--config", required=True, help="XML experiment file")
    parser.add_argument("--algorithm", choices=ALGORITHMS, help="override the root-tag algorithm")
    parser.add_argument("--benchmark", help="override the benchmark function")
    parser.add_argument("--dims", type=int, help="override the dimension count")
    parser.add_argument("--runs", type=int, help="override the number of seeded runs")
    parser.add_argument("--seed", type=int, dest="base_seed", metavar="SEED",
                        help="override the base seed")
    parser.add_argument("--out", dest="output_path", metavar="OUT",
                        help="override the CSV output path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        # Every flag but --config is named after the field it overrides.
        overrides = {name: value for name, value in vars(args).items()
                     if name != "config" and value is not None}
        config = load_config(args.config, **overrides)
        traces = run_experiment(config)
        stats = aggregate(traces)
        out = config.output_path or f"{config.algorithm}_{config.benchmark}.csv"
        write_csv(stats, out)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    iterations = len(stats.mean_curve)
    print(
        f"{config.algorithm} on {config.benchmark}: dims={config.dims} "
        f"runs={config.runs} iterations={iterations}"
    )
    print(
        f"final fitness: mean={stats.mean_final:.6g} median={stats.median_final:.6g} "
        f"min={stats.min_final:.6g} max={stats.max_final:.6g}"
    )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
