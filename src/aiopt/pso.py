"""Global-best particle swarm optimizer and the adaptive inertia schedules.

The population is held as flat arrays (one row per particle) so every
update step is a handful of vectorized operations.  The same velocity
and position helpers drive both the standalone PSO baseline and the
adaptive optimizer built on top of it.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .benchmarks import BenchmarkSpec
from .errors import check


@dataclass(frozen=True)
class PsoParams:
    """Swarm update constants and iteration budget.

    Each range message names the XML tag that sets the field.
    """

    c1: float = 1.49445
    c2: float = 1.49445
    w_fixed: float = 0.74
    w_max: float = 0.9
    w_min: float = 0.4
    population_size: int = 50
    max_iterations: int = 10_000

    def __post_init__(self):
        check(
            (self.c1 > 0, f"<c1> must be > 0, got {self.c1}"),
            (self.c2 > 0, f"<c2> must be > 0, got {self.c2}"),
            (self.w_fixed >= 0, f"<w> must be >= 0, got {self.w_fixed}"),
            (self.w_max >= 0, f"<w-max> must be >= 0, got {self.w_max}"),
            (self.w_min >= 0, f"<w-min> must be >= 0, got {self.w_min}"),
            (self.w_min < self.w_max,
             f"<w-min> must be < <w-max>, got {self.w_min} >= {self.w_max}"),
            population_size_rule(self.population_size),
            (self.max_iterations >= 0, f"<iterations> must be >= 0, got {self.max_iterations}"),
        )


def population_size_rule(size: int) -> tuple[bool, str]:
    """A swarm needs at least two particles; a rule for ``check``."""
    return size >= 2, f"<population-size> must be >= 2, got {size}"


def velocity_rule(algorithm: str, params: PsoParams, lower: float, upper: float):
    """``algorithm``'s velocity bound in the box ``[lower, upper]``; a rule for ``check``.

    Each term of the update, ``w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x)``, is at
    most its constant times the box width, so their sum must stay finite in float64.
    ``w`` is ``<w>`` for ``"pso"`` and ``<w-max>``, the largest ``inertia_weight``, for ``"aio"``.
    """
    tag, w = ("<w>", params.w_fixed) if algorithm == "pso" else ("<w-max>", params.w_max)
    bound = (w + params.c1 + params.c2) * (upper - lower)
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

    @cached_property
    def step_buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """``(draws, diff)`` for ``pso_step``: ``r1`` and ``r2`` as one
        ``(2, size, D)`` array, and a ``(size, D)`` work array.

        Views into one buffer, made on the first step (a ``Prefetch`` run
        never writes ``draws``, so its pages are not faulted in).  At D = 1000 it is
        1.2 MB, which glibc serves with mmap; releasing it at the end of a
        run raises glibc's heap trim threshold to twice that, so set-ups
        that follow a run keep their heap pages instead of faulting in
        fresh ones.
        """
        work = np.empty((3,) + self.positions.shape)
        return work[:2], work[2]


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
    check(population_size_rule(size))
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
    rate, so it retains more momentum near the iteration budget.
    """
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
    rng: np.random.Generator | Prefetch,
) -> SwarmBest:
    """One synchronous iteration: evaluate, update bests, then move in place.

    Personal and global bests only change on strict improvement, so the
    returned global best never gets worse.  The inertia is always ``params.w_fixed``.
    ``rng`` is a Generator, which fills the draw half of ``step_buffers``, or a
    ``Prefetch``, whose block is used as it is, leaving that half untouched.
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
    draws, diff = population.step_buffers
    draws = rng.random(out=draws)
    update_velocities(
        population.positions,
        population.velocities,
        population.pbest_positions,
        gbest.position,
        params.w_fixed,
        params.c1,
        params.c2,
        spec.upper - spec.lower,
        draws[0],
        draws[1],
        diff,
    )
    update_positions(population.positions, population.velocities, spec.lower, spec.upper)
    return gbest


class Prefetch:
    """A worker thread that draws each step's ``(2, n, D)`` factors one step ahead.

    The worker alternates between two blocks, making ``steps`` calls of
    ``rng.random(out=block)``, so the values and their order are those of
    drawing in place.  It is ``rng``'s only user until ``close`` joins it.
    """

    def __init__(self, rng: np.random.Generator, shape: tuple, steps: int):
        self.blocks = (np.empty(shape), np.empty(shape))
        self.free, self.filled = threading.Semaphore(1), threading.Semaphore(0)
        self.stop, self.error, self.taken = False, None, 0
        self.worker = threading.Thread(target=self.fill, args=(rng, steps), daemon=True)
        self.worker.start()

    def fill(self, rng: np.random.Generator, steps: int) -> None:
        try:
            for k in range(steps):
                self.free.acquire()
                if self.stop:
                    return
                rng.random(out=self.blocks[k % 2])
                self.filled.release()
        except BaseException as exc:  # re-raised by ``random``
            self.error = exc
            self.filled.release()

    def random(self, out=None) -> np.ndarray:
        """The next step's block, once drawn; ``out`` is ignored.  Each call
        frees the block the last call returned for the worker to refill."""
        self.free.release()
        self.filled.acquire()
        if self.error is not None:
            raise self.error
        self.taken += 1
        return self.blocks[(self.taken - 1) % 2]

    def close(self) -> None:
        self.stop = True
        self.free.release()
        self.worker.join()


PREFETCH_DRAWS = 1 << 16


def run_pso(spec: BenchmarkSpec, params: PsoParams, seed: int) -> RunTrace:
    """Full seeded PSO run; records the global best after every iteration.

    Steps of ``PREFETCH_DRAWS`` or more draws take them from a ``Prefetch``
    (below it, its hand-offs cost more than the draws they hide), joined
    before this returns or raises; the trace has the same bits.
    Raises ``ConfigError`` if ``params`` break ``velocity_rule`` in ``spec``'s box.
    """
    check(velocity_rule("pso", params, spec.lower, spec.upper))
    rng = np.random.default_rng(seed)
    population, gbest = init_population(spec, params.population_size, rng)
    shape = (2,) + population.positions.shape
    prefetch = math.prod(shape) >= PREFETCH_DRAWS
    source = Prefetch(rng, shape, params.max_iterations) if prefetch else rng
    trace = np.empty(params.max_iterations, dtype=np.float64)
    try:
        for i in range(params.max_iterations):
            gbest = pso_step(population, gbest, spec, params, source)
            trace[i] = gbest.fitness
    finally:
        if prefetch:
            source.close()
    return RunTrace(best_fitness=trace, final_fitness=gbest.fitness, seed=seed)
