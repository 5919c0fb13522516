"""Experiment driver: seeded runs, aggregation, CSV convergence output."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aio import AioParams, run_aio, swarm_count_rule
from .benchmarks import DOMAINS, lookup, lookup_rules
from .errors import check
from .pso import PsoParams, RunTrace, run_pso, velocity_rule

ALGORITHMS = ("pso", "aio")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full parameterization of a multi-seed experiment, checked once when built."""

    algorithm: str
    benchmark: str = "sphere"
    dims: int = 30
    runs: int = 5
    base_seed: int = 1
    aio_params: AioParams = field(default_factory=AioParams)
    output_path: str | None = None

    @property
    def pso_params(self) -> PsoParams:
        """The one PSO parameter set, ``aio_params.pso``; both algorithms run under it."""
        return self.aio_params.pso

    def __post_init__(self):
        rules = [
            (self.algorithm in ALGORITHMS,
             f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"),
            (self.runs >= 1, f"<runs> must be >= 1, got {self.runs}"),
            (self.base_seed >= 0, f"<seed> must be >= 0, got {self.base_seed}"),
            *lookup_rules(self.benchmark, self.dims),
        ]
        if self.benchmark in DOMAINS:
            rules.append(velocity_rule(self.pso_params, *DOMAINS[self.benchmark]))
        if self.algorithm == "aio":
            rules.append(swarm_count_rule(self.aio_params.swarm_count, self.dims))
        check(*rules)


@dataclass
class SummaryStats:
    """Pointwise mean convergence curve plus final-fitness statistics."""

    mean_curve: np.ndarray
    final_fitnesses: np.ndarray
    mean_final: float
    median_final: float
    min_final: float
    max_final: float


def run_experiment(config: ExperimentConfig) -> list[RunTrace]:
    """Execute ``config.runs`` independent runs, run r seeded base_seed + r."""
    spec = lookup(config.benchmark, config.dims)
    runner = run_pso if config.algorithm == "pso" else run_aio
    params = config.pso_params if config.algorithm == "pso" else config.aio_params
    return [runner(spec, params, config.base_seed + r) for r in range(config.runs)]


def aggregate(traces: list[RunTrace]) -> SummaryStats:
    """Pointwise mean over equal-length traces and stats over final values."""
    if not traces:
        raise ValueError("need at least one trace to aggregate")
    lengths = {len(t.best_fitness) for t in traces}
    if len(lengths) > 1:
        raise ValueError(f"trace lengths differ: {sorted(lengths)}")
    curves = np.vstack([t.best_fitness for t in traces])
    finals = np.array([t.final_fitness for t in traces])
    return SummaryStats(
        mean_curve=curves.mean(axis=0),
        final_fitnesses=finals,
        mean_final=float(finals.mean()),
        median_final=float(np.median(finals)),
        min_final=float(finals.min()),
        max_final=float(finals.max()),
    )


def write_csv(stats: SummaryStats, path: str) -> None:
    """Write the mean convergence curve, one row per iteration (1-based).

    Values carry 17 significant digits so reruns of the same seeded
    experiment produce byte-identical files.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("iteration,mean_best_fitness\n")
        for i, value in enumerate(stats.mean_curve, start=1):
            fh.write(f"{i},{value:.17g}\n")
