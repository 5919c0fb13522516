"""Global-best particle swarm optimizer and shared inertia schedules.

The population is held as flat arrays (one row per particle) so every
update step is a handful of vectorized operations.  The same velocity
and position helpers drive both the standalone PSO baseline and the
adaptive optimizer built on top of it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .benchmarks import BenchmarkSpec
from .errors import ConfigError

INERTIA_MODES = ("fixed", "slow", "quick")


@dataclass
class PsoParams:
    """Swarm update constants and iteration budget.

    ``v_max`` of None means "full domain width", resolved per benchmark.
    """

    c1: float = 1.49445
    c2: float = 1.49445
    inertia_mode: str = "fixed"
    w_fixed: float = 0.74
    w_max: float = 0.9
    w_min: float = 0.4
    population_size: int = 50
    max_iterations: int = 10_000
    v_max: float | None = None

    def __post_init__(self):
        if self.c1 <= 0 or self.c2 <= 0:
            raise ConfigError(f"acceleration constants must be > 0, got c1={self.c1}, c2={self.c2}")
        if self.inertia_mode not in INERTIA_MODES:
            raise ConfigError(f"inertia mode must be one of {INERTIA_MODES}, got {self.inertia_mode!r}")
        if self.w_fixed < 0:
            raise ConfigError(f"fixed inertia weight must be >= 0, got {self.w_fixed}")
        if self.w_min < 0:
            raise ConfigError(f"w_min must be >= 0, got {self.w_min}")
        if self.w_min >= self.w_max:
            raise ConfigError(f"w_min must be < w_max, got {self.w_min} >= {self.w_max}")
        if self.population_size < 2:
            raise ConfigError(f"population size must be >= 2, got {self.population_size}")
        if self.max_iterations < 0:
            raise ConfigError(f"iteration count must be >= 0, got {self.max_iterations}")


@dataclass
class Population:
    """Positions, velocities and personal-best memory, one row per particle."""

    positions: np.ndarray
    velocities: np.ndarray
    pbest_positions: np.ndarray
    pbest_fitness: np.ndarray

    @property
    def size(self) -> int:
        return len(self.positions)


@dataclass
class SwarmBest:
    position: np.ndarray
    fitness: float


@dataclass
class RunTrace:
    """Best fitness recorded after each iteration of a single seeded run."""

    best_fitness: np.ndarray
    final_fitness: float
    seed: int


def init_population(spec: BenchmarkSpec, size: int, rng: np.random.Generator):
    """Uniform random positions, zero velocities, pbest at the start point.

    Returns the population together with the best initial particle.
    """
    if size < 2:
        raise ConfigError(f"population size must be >= 2, got {size}")
    positions = rng.uniform(spec.lower, spec.upper, size=(size, spec.dims))
    fitness = np.asarray(spec.evaluate(positions), dtype=np.float64)
    population = Population(
        positions=positions,
        velocities=np.zeros_like(positions),
        pbest_positions=positions.copy(),
        pbest_fitness=fitness.copy(),
    )
    best = int(np.argmin(fitness))
    return population, SwarmBest(position=positions[best].copy(), fitness=float(fitness[best]))


def inertia_weight(mode: str, iteration: int, params: PsoParams) -> float:
    """Inertia for the given iteration: constant, slow decay, or quick decay.

    The slow schedule decays at three quarters of the quick schedule's
    rate, so it retains more momentum near the iteration budget.
    """
    if mode == "fixed":
        return params.w_fixed
    span = params.w_max - params.w_min
    if mode == "slow":
        return params.w_max - 0.75 * iteration * span / params.max_iterations
    if mode == "quick":
        return params.w_max - iteration * span / params.max_iterations
    raise ValueError(f"unknown inertia mode {mode!r}")


def update_velocities(
    positions: np.ndarray,
    velocities: np.ndarray,
    pbest_positions: np.ndarray,
    gbest_position: np.ndarray,
    w: float,
    c1: float,
    c2: float,
    v_max: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """New velocities with fresh per-dimension random factors, clamped to v_max."""
    r1 = rng.random(positions.shape)
    r2 = rng.random(positions.shape)
    new_v = (
        w * velocities
        + c1 * r1 * (pbest_positions - positions)
        + c2 * r2 * (gbest_position - positions)
    )
    np.clip(new_v, -v_max, v_max, out=new_v)
    return new_v


def update_positions(
    positions: np.ndarray, velocities: np.ndarray, lower: float, upper: float
) -> np.ndarray:
    """Move by the new velocities; clamp to the box and zero clamped velocity.

    ``velocities`` is modified in place where components hit a bound.
    """
    new_pos = positions + velocities
    out_of_box = (new_pos < lower) | (new_pos > upper)
    if out_of_box.any():
        velocities[out_of_box] = 0.0
        np.clip(new_pos, lower, upper, out=new_pos)
    return new_pos


def pso_step(
    population: Population,
    gbest: SwarmBest,
    spec: BenchmarkSpec,
    params: PsoParams,
    iteration: int,
    rng: np.random.Generator,
) -> SwarmBest:
    """One synchronous iteration: evaluate, update bests, then move.

    Personal and global bests only change on strict improvement, so the
    returned global best never gets worse.
    """
    fitness = np.asarray(spec.evaluate(population.positions), dtype=np.float64)
    improved = fitness < population.pbest_fitness
    if improved.any():
        population.pbest_positions[improved] = population.positions[improved]
        population.pbest_fitness[improved] = fitness[improved]
    best = int(np.argmin(population.pbest_fitness))
    if population.pbest_fitness[best] < gbest.fitness:
        gbest = SwarmBest(
            position=population.pbest_positions[best].copy(),
            fitness=float(population.pbest_fitness[best]),
        )
    w = inertia_weight(params.inertia_mode, iteration, params)
    v_max = params.v_max if params.v_max is not None else spec.upper - spec.lower
    population.velocities = update_velocities(
        population.positions,
        population.velocities,
        population.pbest_positions,
        gbest.position,
        w,
        params.c1,
        params.c2,
        v_max,
        rng,
    )
    population.positions = update_positions(
        population.positions, population.velocities, spec.lower, spec.upper
    )
    return gbest


def run_pso(spec: BenchmarkSpec, params: PsoParams, seed: int) -> RunTrace:
    """Full seeded PSO run; records the global best after every iteration."""
    rng = np.random.default_rng(seed)
    population, gbest = init_population(spec, params.population_size, rng)
    trace = np.empty(params.max_iterations, dtype=np.float64)
    for i in range(params.max_iterations):
        gbest = pso_step(population, gbest, spec, params, i, rng)
        trace[i] = gbest.fitness
    final = float(trace[-1]) if params.max_iterations > 0 else gbest.fitness
    return RunTrace(best_fitness=trace, final_fitness=final, seed=seed)
