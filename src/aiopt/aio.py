"""Adaptive intelligence optimizer: bi-population PSO steered by automata.

Two isolated particle populations optimize the same objective.  Each
iteration, one learning automaton per problem dimension assigns that
dimension to one of ``swarm_count`` swarms, and one automaton per swarm
picks which of the two populations the swarm works on.  A swarm
evaluates its particles through context vectors (the shared global best
with the swarm's dimensions replaced by particle values), so partial
solutions get full-dimensional fitness.  Swarms that improve the global
best reward their automata, the rest penalize theirs.

Movement happens in a concentration phase: every particle of the chosen
population takes a velocity/position step on the swarm's dimensions,
and particles ranked outside the elite fraction also get their swarm
dimensions randomly resampled at a small rate.  The inertia weight
follows the quick decay schedule after an improving iteration and the
slow one after a stagnant iteration.

The two populations never exchange velocities or personal bests; the
global best is the only shared state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .automata import AutomatonBank
from .benchmarks import BenchmarkSpec
from .errors import ConfigError
from .pso import (
    Population,
    PsoParams,
    RunTrace,
    inertia_weight,
    init_population,
    update_positions,
    update_velocities,
)

POP_A = 0
POP_B = 1


@dataclass
class AioParams:
    """Swarm decomposition, elite handling and automata learning rates."""

    swarm_count: int = 5
    elite_factor: float = 2.0 / 3.0
    mutation_rate: float = 0.1
    la_reward: float = 0.1
    la_penalty: float = 0.1
    pso: PsoParams = field(default_factory=PsoParams)

    def __post_init__(self):
        if self.swarm_count < 1:
            raise ConfigError(f"swarm count must be >= 1, got {self.swarm_count}")
        if not 0.0 < self.elite_factor <= 1.0:
            raise ConfigError(f"elite factor must be in (0, 1], got {self.elite_factor}")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ConfigError(f"mutation rate must be in [0, 1], got {self.mutation_rate}")
        if not 0.0 <= self.la_reward <= 1.0:
            raise ConfigError(f"automaton reward rate must be in [0, 1], got {self.la_reward}")
        if not 0.0 <= self.la_penalty <= 1.0:
            raise ConfigError(f"automaton penalty rate must be in [0, 1], got {self.la_penalty}")


@dataclass
class ContextState:
    """Shared global best plus the improvement guard from the last iteration."""

    gbest_position: np.ndarray
    gbest_fitness: float
    improved_last_iteration: bool = False


@dataclass
class SwarmPartition:
    """One iteration's dimension-to-swarm assignment and population choices."""

    assignment: np.ndarray
    members: list[np.ndarray]
    population_choice: np.ndarray | None = None


@dataclass
class AioState:
    pop_a: Population
    pop_b: Population
    dimension_automata: AutomatonBank
    swarm_automata: AutomatonBank
    context: ContextState

    def population(self, choice: int) -> Population:
        return self.pop_a if choice == POP_A else self.pop_b


def elite_count(elite_factor: float, population_size: int) -> int:
    """Number of particles exempt from mutation: ceil(factor * size)."""
    return min(population_size, max(1, math.ceil(elite_factor * population_size)))


def init_aio_state(spec: BenchmarkSpec, params: AioParams, rng: np.random.Generator) -> AioState:
    """Fresh populations, uniform automata, and the initial global best.

    Population A is initialized before population B; the shared global
    best starts from the better of the two initial bests.
    """
    if params.swarm_count > spec.dims:
        raise ConfigError(
            f"swarm count {params.swarm_count} exceeds dimension count {spec.dims}"
        )
    pop_a, best_a = init_population(spec, params.pso.population_size, rng)
    pop_b, best_b = init_population(spec, params.pso.population_size, rng)
    best = best_a if best_a.fitness <= best_b.fitness else best_b
    # A single swarm needs no membership automata (the automaton contract
    # requires at least two actions); the partition is then trivial and
    # the membership bank is empty.
    k = params.swarm_count
    dimension_automata = AutomatonBank(
        spec.dims if k >= 2 else 0, max(k, 2), params.la_reward, params.la_penalty
    )
    swarm_automata = AutomatonBank(k, 2, params.la_reward, params.la_penalty)
    context = ContextState(
        gbest_position=best.position.copy(),
        gbest_fitness=best.fitness,
        improved_last_iteration=False,
    )
    return AioState(pop_a, pop_b, dimension_automata, swarm_automata, context)


def select_memberships(
    dimension_automata: AutomatonBank,
    swarm_count: int,
    dimension_count: int,
    rng: np.random.Generator,
) -> SwarmPartition:
    """Let each dimension's automaton pick a swarm; group dimensions by pick.

    Swarms may come out empty; downstream phases skip them.
    """
    if swarm_count == 1:
        assignment = np.zeros(dimension_count, dtype=np.intp)
    else:
        assignment = dimension_automata.select(rng)
    members = [np.flatnonzero(assignment == j) for j in range(swarm_count)]
    return SwarmPartition(assignment=assignment, members=members)


def select_populations(swarm_automata: AutomatonBank, rng: np.random.Generator) -> np.ndarray:
    """One population choice per swarm (0 = A, 1 = B)."""
    return swarm_automata.select(rng)


def context_vector(
    swarm_dims: np.ndarray, particle_values: np.ndarray, gbest_position: np.ndarray
) -> np.ndarray:
    """Global best with the swarm's dimensions replaced by particle values."""
    swarm_dims = np.asarray(swarm_dims, dtype=np.intp)
    if swarm_dims.size == 0:
        raise ValueError("swarm dimension set must be non-empty")
    if swarm_dims.min() < 0 or swarm_dims.max() >= len(gbest_position):
        raise ValueError("swarm dimension index out of range")
    result = gbest_position.copy()
    result[swarm_dims] = particle_values
    return result


def evaluate_swarm(
    swarm_dims: np.ndarray,
    population: Population,
    context: ContextState,
    spec: BenchmarkSpec,
):
    """Context-evaluate every particle of a swarm's chosen population.

    Personal bests take the swarm-dimension values and the new fitness on
    strict improvement.  After all particles are scored against the same
    global-best snapshot, the single best one is merged into the global
    best if it strictly improves it.  Returns the per-particle context
    fitness and whether the global best improved.
    """
    contexts = np.tile(context.gbest_position, (population.size, 1))
    contexts[:, swarm_dims] = population.positions[:, swarm_dims]
    fitness = np.asarray(spec.evaluate(contexts), dtype=np.float64)

    improved = fitness < population.pbest_fitness
    if improved.any():
        rows = np.flatnonzero(improved)
        # fancy indexing yields copies; assign through np.ix_ to write back
        population.pbest_positions[np.ix_(rows, swarm_dims)] = population.positions[
            np.ix_(rows, swarm_dims)
        ]
        population.pbest_fitness[rows] = fitness[rows]

    best = int(np.argmin(fitness))
    improved_gbest = bool(fitness[best] < context.gbest_fitness)
    if improved_gbest:
        context.gbest_position[swarm_dims] = population.positions[best, swarm_dims]
        context.gbest_fitness = float(fitness[best])
    return fitness, improved_gbest


def reinforce_layers(
    partition: SwarmPartition,
    improvements: np.ndarray,
    dimension_automata: AutomatonBank,
    swarm_automata: AutomatonBank,
) -> None:
    """Reward the automata behind improving swarms, penalize the rest.

    Only automata whose selected action belongs to a non-empty swarm are
    touched: the swarm's population automaton (at its chosen action) and
    every dimension automaton that joined the swarm.
    """
    active = np.flatnonzero([dims.size for dims in partition.members])
    swarm_automata.reinforce(active, partition.population_choice[active], improvements[active])
    if len(dimension_automata):
        # Each dimension belongs to the swarm its automaton picked, so that
        # swarm is non-empty: the whole membership layer is reinforced.
        picked = partition.assignment
        dimension_automata.reinforce(slice(None), picked, improvements[picked])


def rank_and_concentrate(
    swarm_dims: np.ndarray,
    population: Population,
    fitness: np.ndarray,
    gbest_position: np.ndarray,
    spec: BenchmarkSpec,
    params: AioParams,
    w: float,
    rng: np.random.Generator,
) -> None:
    """Move the whole swarm; additionally perturb the non-elite particles.

    Every particle takes the standard velocity/position step restricted
    to the swarm's dimensions.  Particles ranked below the elite cut
    (by context fitness, ascending) then have each swarm dimension
    resampled uniformly at ``mutation_rate``, with the velocity on
    resampled dimensions reset to zero.
    """
    pso_p = params.pso
    positions = population.positions[:, swarm_dims]
    velocities = population.velocities[:, swarm_dims]
    pbest = population.pbest_positions[:, swarm_dims]
    gbest = gbest_position[swarm_dims]
    v_max = pso_p.v_max if pso_p.v_max is not None else spec.upper - spec.lower

    velocities = update_velocities(
        positions, velocities, pbest, gbest, w, pso_p.c1, pso_p.c2, v_max, rng
    )
    positions = update_positions(positions, velocities, spec.lower, spec.upper)

    order = np.argsort(fitness, kind="stable")
    non_elite = order[elite_count(params.elite_factor, population.size):]
    if non_elite.size > 0 and params.mutation_rate > 0.0:
        mutate = rng.random((non_elite.size, swarm_dims.size)) < params.mutation_rate
        fresh = rng.uniform(spec.lower, spec.upper, size=(non_elite.size, swarm_dims.size))
        positions[non_elite] = np.where(mutate, fresh, positions[non_elite])
        velocities[non_elite] = np.where(mutate, 0.0, velocities[non_elite])

    population.positions[:, swarm_dims] = positions
    population.velocities[:, swarm_dims] = velocities


def choose_cycle(context: ContextState) -> str:
    """Quick inertia decay after an improving iteration, slow otherwise."""
    return "quick" if context.improved_last_iteration else "slow"


def aio_step(
    state: AioState,
    spec: BenchmarkSpec,
    params: AioParams,
    iteration: int,
    rng: np.random.Generator,
) -> float:
    """One full iteration over all swarms; returns the global best fitness.

    Phase order: membership selection, population selection, cycle
    choice, per-swarm context evaluation (ascending swarm index, so
    global-best writes are deterministic), automata reinforcement,
    per-swarm concentration, guard update.
    """
    k = params.swarm_count
    partition = select_memberships(state.dimension_automata, k, spec.dims, rng)
    partition.population_choice = select_populations(state.swarm_automata, rng)
    w = inertia_weight(choose_cycle(state.context), iteration, params.pso)

    improvements = np.zeros(k, dtype=bool)
    swarm_fitness: list[np.ndarray | None] = [None] * k
    for j in range(k):
        dims = partition.members[j]
        if dims.size == 0:
            continue
        population = state.population(partition.population_choice[j])
        swarm_fitness[j], improvements[j] = evaluate_swarm(
            dims, population, state.context, spec
        )

    reinforce_layers(partition, improvements, state.dimension_automata, state.swarm_automata)

    for j in range(k):
        dims = partition.members[j]
        if dims.size == 0:
            continue
        population = state.population(partition.population_choice[j])
        rank_and_concentrate(
            dims,
            population,
            swarm_fitness[j],
            state.context.gbest_position,
            spec,
            params,
            w,
            rng,
        )

    state.context.improved_last_iteration = bool(improvements.any())
    return state.context.gbest_fitness


def run_aio(spec: BenchmarkSpec, params: AioParams, seed: int) -> RunTrace:
    """Full seeded run; records the global best after every iteration."""
    rng = np.random.default_rng(seed)
    state = init_aio_state(spec, params, rng)
    trace = np.empty(params.pso.max_iterations, dtype=np.float64)
    for i in range(params.pso.max_iterations):
        trace[i] = aio_step(state, spec, params, i, rng)
    final = float(trace[-1]) if params.pso.max_iterations > 0 else state.context.gbest_fitness
    return RunTrace(best_fitness=trace, final_fitness=final, seed=seed)
