"""Bi-population particle swarm optimizer steered by learning automata,
with a baseline PSO, classic benchmark functions, and a reproducible
experiment harness."""

from .aio import AioParams, aio_step, init_aio_state, run_aio
from .automata import AutomatonBank, LearningAutomaton
from .benchmarks import (
    BenchmarkSpec,
    ackley,
    griewank,
    lookup,
    rastrigin,
    rosenbrock,
    sphere,
)
from .config import ExperimentConfig, load_config, parse_config
from .errors import ConfigError
from .harness import SummaryStats, aggregate, run_experiment, write_csv
from .pso import Population, PsoParams, RunTrace, SwarmBest, run_pso

__version__ = "0.1.0"

__all__ = [
    "AioParams",
    "AutomatonBank",
    "BenchmarkSpec",
    "ConfigError",
    "ExperimentConfig",
    "LearningAutomaton",
    "Population",
    "PsoParams",
    "RunTrace",
    "SummaryStats",
    "SwarmBest",
    "ackley",
    "aggregate",
    "aio_step",
    "griewank",
    "init_aio_state",
    "load_config",
    "lookup",
    "parse_config",
    "rastrigin",
    "rosenbrock",
    "run_aio",
    "run_experiment",
    "run_pso",
    "sphere",
    "write_csv",
]
