"""Global-best particle swarm optimizer and the adaptive inertia schedules.

The population is held as flat arrays (one row per particle) so every
update step is a handful of vectorized operations.  The same velocity
and position helpers drive both the standalone PSO baseline and the
adaptive optimizer built on top of it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .benchmarks import BenchmarkSpec
from .errors import ConfigError, check, count_rule, number_rule


@dataclass(frozen=True)
class PsoParams:
    """Swarm update constants and iteration budget; each message names its field's XML tag.
    The constants are stored as floats once checked: one beyond float64 as ``inf``."""

    c1: float = 1.49445
    c2: float = 1.49445
    w_fixed: float = 0.74
    w_max: float = 0.9
    w_min: float = 0.4
    population_size: int = 50
    max_iterations: int = 10_000

    def __post_init__(self):
        check(
            number_rule("<c1>", self.c1, 0, above=True),
            number_rule("<c2>", self.c2, 0, above=True),
            number_rule("<w>", self.w_fixed, 0),
            number_rule("<w-max>", self.w_max, 0),
            number_rule("<w-min>", self.w_min, 0),
            count_rule("<population-size>", self.population_size, 2),
            count_rule("<iterations>", self.max_iterations, 0),
        )
        for name in ("c1", "c2", "w_fixed", "w_max", "w_min"):
            try:  # each is >= 0 by now
                value = float(getattr(self, name))
            except OverflowError:  # an int or a Fraction beyond float64
                value = math.inf
            object.__setattr__(self, name, value)
        check((self.w_min < self.w_max,
               f"<w-min> must be < <w-max>, got {self.w_min} >= {self.w_max}"),
              (self.c1 > 0 < self.c2,  # a positive Fraction can round to 0.0
               f"<c1> and <c2> must be > 0 as floats, got {self.c1} and {self.c2}"))


def velocity_rule(algorithm: str, params: PsoParams, lower: float, upper: float):
    """``algorithm``'s velocity bound in the box ``[lower, upper]``; a rule for ``check``.

    Each term of the update, ``w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x)``, is at
    most its constant times the box width, so their sum must stay finite in float64.
    ``w`` is ``<w>`` for ``"pso"`` and ``<w-max>``, the largest ``inertia_weight``, for ``"aio"``.
    """
    tag, w = ("<w>", params.w_fixed) if algorithm == "pso" else ("<w-max>", params.w_max)
    bound = (w + params.c1 + params.c2) * (upper - lower)  # floats overflow to inf, not to a warning
    return (math.isfinite(bound),
            f"({tag} + <c1> + <c2>) * (upper - lower) must be finite, got "
            f"({w} + {params.c1} + {params.c2}) * ({upper} - {lower})")


@dataclass
class Population:
    """Positions, velocities and personal-best memory, one row per particle."""

    positions: np.ndarray
    velocities: np.ndarray
    pbest_positions: np.ndarray
    pbest_fitness: np.ndarray


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
    check(count_rule("<population-size>", size, 2))
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
    """Adaptive inertia for the given iteration: slow or quick decay.

    The slow schedule decays at three quarters of the quick schedule's
    rate, so it retains more momentum near the iteration budget.  Raises
    ``ConfigError`` for a budget of 0 iterations, which has no schedule.
    """
    if params.max_iterations < 1:
        raise ConfigError(f"<iterations> must be >= 1 for an inertia schedule, "
                          f"got {params.max_iterations}")
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
    r1: np.ndarray,
    r2: np.ndarray,
    diff: np.ndarray,
) -> np.ndarray:
    """Update ``velocities`` in place with the random factors ``r1`` and ``r2``.

    Computes ``w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x)`` one operation
    at a time in that order, so the result has the expression's bits, then
    clamps it to v_max with the ``maximum`` and ``minimum`` ufuncs, which
    give ``np.clip``'s bits for bounds that are not zero.  ``r1`` and
    ``r2`` are overwritten by the two attraction terms.  ``diff`` is the
    caller's float64 work array shaped like ``positions``; it may be
    ``pbest_positions`` itself, which then ends up holding ``gbest - x``.
    Returns ``velocities``.
    """
    np.multiply(w, velocities, out=velocities)
    for c, r, best in ((c1, r1, pbest_positions), (c2, r2, gbest_position)):
        np.multiply(c, r, out=r)
        np.multiply(r, np.subtract(best, positions, out=diff), out=r)
        np.add(velocities, r, out=velocities)
    np.maximum(velocities, -v_max, out=velocities)
    np.minimum(velocities, v_max, out=velocities)
    return velocities


def update_positions(
    positions: np.ndarray, velocities: np.ndarray, lower: float, upper: float
) -> np.ndarray:
    """Move ``positions`` in place by the new velocities; returns ``positions``.

    Components that leave the box are clamped to it (as ``update_velocities``
    clamps), and their entries of ``velocities`` are set to zero in place.
    """
    np.add(positions, velocities, out=positions)
    out_of_box = (positions < lower) | (positions > upper)
    if out_of_box.any():
        velocities[out_of_box] = 0.0
        np.maximum(positions, lower, out=positions)
        np.minimum(positions, upper, out=positions)
    return positions


def pso_step(
    population: Population,
    gbest: SwarmBest,
    spec: BenchmarkSpec,
    params: PsoParams,
    draws: np.ndarray,
    work: np.ndarray,
) -> SwarmBest:
    """One synchronous iteration: evaluate, update bests, then move in place.

    Personal and global bests only change on strict improvement, so the
    returned global best never gets worse.  The inertia is always ``params.w_fixed``.
    ``draws`` is the step's ``(2, n, D)`` block of uniform factors ``r1`` and
    ``r2``, which the move overwrites; ``work`` is an ``(n, D)`` float64 array
    whose contents the move overwrites and never reads.
    """
    fitness = np.asarray(spec.evaluate(population.positions), dtype=np.float64)
    improved = fitness < population.pbest_fitness
    if improved.any():
        population.pbest_positions[improved] = population.positions[improved]
        population.pbest_fitness[improved] = fitness[improved]
    best = population.pbest_fitness.argmin()
    if population.pbest_fitness[best] < gbest.fitness:
        gbest = SwarmBest(
            position=population.pbest_positions[best].copy(),
            fitness=float(population.pbest_fitness[best]),
        )
    update_velocities(population.positions, population.velocities, population.pbest_positions,
                      gbest.position, params.w_fixed, params.c1, params.c2,
                      spec.upper - spec.lower, *draws, work)
    update_positions(population.positions, population.velocities, spec.lower, spec.upper)
    return gbest


def run_pso(spec: BenchmarkSpec, params: PsoParams, seed: int) -> RunTrace:
    """Full seeded PSO run; records the global best after every iteration.

    One ``(3, n, D)`` buffer holds a step's factors, drawn into its first two rows
    with one ``rng.random`` call per step, and its work row; at D = 1000 glibc serves
    it with mmap, so freeing it raises the heap trim threshold and later set-ups keep
    their pages.  Raises ``ConfigError`` if ``params`` break ``velocity_rule`` in
    ``spec``'s box.
    """
    check(velocity_rule("pso", params, spec.lower, spec.upper))
    rng = np.random.default_rng(seed)
    population, gbest = init_population(spec, params.population_size, rng)
    trace = np.empty(params.max_iterations, dtype=np.float64)
    home = np.empty((3,) + population.positions.shape)
    draws, work = home[:2], home[2]
    for i in range(params.max_iterations):
        gbest = pso_step(population, gbest, spec, params, rng.random(out=draws), work)
        trace[i] = gbest.fitness
    return RunTrace(best_fitness=trace, final_fitness=gbest.fitness, seed=seed)
