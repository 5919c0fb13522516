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
from functools import cached_property

import numpy as np

from .automata import AutomatonBank
from .benchmarks import BenchmarkSpec
from .errors import check
from .pso import (
    Population,
    PsoParams,
    RunTrace,
    inertia_weight,
    init_population,
    update_positions,
    update_velocities,
    velocity_rule,
)

POP_A = 0
POP_B = 1


@dataclass(frozen=True)
class AioParams:
    """Swarm decomposition, elite handling and automata learning rates."""

    swarm_count: int = 5
    elite_factor: float = 2.0 / 3.0
    mutation_rate: float = 0.1
    la_reward: float = 0.1
    la_penalty: float = 0.1
    pso: PsoParams = field(default_factory=PsoParams)

    def __post_init__(self):
        check(
            (self.swarm_count >= 1, f"<tdr-factor> must be >= 1, got {self.swarm_count}"),
            (0.0 < self.elite_factor <= 1.0,
             f"<elite-factor> must be > 0 and <= 1, got {self.elite_factor}"),
            (0.0 <= self.mutation_rate <= 1.0,
             f"<mutation-rate> must be >= 0 and <= 1, got {self.mutation_rate}"),
            (0.0 <= self.la_reward <= 1.0,
             f"<la-reward> must be >= 0 and <= 1, got {self.la_reward}"),
            (0.0 <= self.la_penalty <= 1.0,
             f"<la-penalty> must be >= 0 and <= 1, got {self.la_penalty}"),
        )


def swarm_count_rule(swarm_count: int, dims: int) -> tuple[bool, str]:
    """Every swarm must be able to own a dimension; a rule for ``check``."""
    return swarm_count <= dims, f"<tdr-factor> must be <= <dimensions>, got {swarm_count} > {dims}"


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
    best starts from the better of the two initial bests.  Raises
    ``ConfigError`` if ``params`` break ``swarm_count_rule`` or ``velocity_rule``.
    """
    check(swarm_count_rule(params.swarm_count, spec.dims),
          velocity_rule(params.pso, spec.lower, spec.upper))
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
    members = [(assignment == j).nonzero()[0] for j in range(swarm_count)]
    return SwarmPartition(assignment=assignment, members=members)


def select_populations(swarm_automata: AutomatonBank, rng: np.random.Generator) -> np.ndarray:
    """One population choice per swarm (0 = A, 1 = B)."""
    return swarm_automata.select(rng)


def _checked_dims(swarm_dims: np.ndarray, dims: int) -> np.ndarray:
    swarm_dims = np.asarray(swarm_dims, dtype=np.intp)
    if swarm_dims.size == 0:
        raise ValueError("swarm dimension set must be non-empty")
    if swarm_dims.min() < 0 or swarm_dims.max() >= dims:
        raise ValueError("swarm dimension index out of range")
    return swarm_dims


def _context_rows(swarm_dims: np.ndarray, values: np.ndarray, base: np.ndarray) -> np.ndarray:
    """``base`` once per row of ``values``, with columns ``swarm_dims`` set to that row."""
    rows = np.empty(values.shape[:-1] + base.shape)
    rows[...] = base
    rows[..., swarm_dims] = values
    return rows


def context_vector(
    swarm_dims: np.ndarray, particle_values: np.ndarray, gbest_position: np.ndarray
) -> np.ndarray:
    """Global best with the swarm's dimensions replaced by particle values.

    ``particle_values`` holds one particle's swarm-dimension values, or a
    2-D batch of them with one row per particle, which gives one context
    row per particle.
    """
    gbest_position = np.asarray(gbest_position, dtype=np.float64)
    swarm_dims = _checked_dims(swarm_dims, len(gbest_position))
    return _context_rows(swarm_dims, np.asarray(particle_values), gbest_position)


@dataclass
class Swarm:
    """One swarm's columns of its chosen population, copied once per step.

    ``positions``, ``velocities`` and ``pbest_positions`` are copies of the
    population's ``dims`` columns, in the order of ``dims``, each made on
    its first use.  ``evaluate_swarm`` reads the positions and updates the
    personal bests on the copies; ``rank_and_concentrate`` moves positions
    and velocities and then calls ``store``, which writes back what
    changed.  Raises ``ValueError`` if ``dims`` is empty or out of range.
    """

    population: Population
    dims: np.ndarray
    pbest_changed: bool = False

    def __post_init__(self):
        self.dims = _checked_dims(self.dims, self.population.positions.shape[1])

    @cached_property
    def positions(self) -> np.ndarray:
        return self.population.positions.take(self.dims, axis=1)

    @cached_property
    def velocities(self) -> np.ndarray:
        return self.population.velocities.take(self.dims, axis=1)

    @cached_property
    def pbest_positions(self) -> np.ndarray:
        return self.population.pbest_positions.take(self.dims, axis=1)

    def store(self) -> None:
        """Write the swarm's positions and velocities, and its personal bests
        if they changed, back into the population."""
        population, dims = self.population, self.dims
        population.positions[:, dims] = self.positions
        population.velocities[:, dims] = self.velocities
        if self.pbest_changed:
            population.pbest_positions[:, dims] = self.pbest_positions


def evaluate_swarm(swarm: Swarm, context: ContextState, spec: BenchmarkSpec):
    """Context-evaluate every particle of a swarm.

    Objectives with per-column terms score the context rows from the
    swarm's columns (``BenchmarkSpec.context_fitness``); rosenbrock, whose
    terms couple neighbouring columns, evaluates the full context rows.
    Either way the fitness has the bits of ``evaluate`` on the full rows.

    Personal bests take the swarm-dimension values (on the swarm's copy,
    which ``Swarm.store`` writes back) and the new fitness on strict
    improvement.  After all particles are scored against the same
    global-best snapshot, the single best one is merged into the global
    best if it strictly improves it.  Returns the per-particle context
    fitness and whether the global best improved.
    """
    dims, values, gbest = swarm.dims, swarm.positions, context.gbest_position
    if spec.has_terms:
        fitness = spec.context_fitness(dims, values, gbest)
    else:
        fitness = spec.evaluate(_context_rows(dims, values, gbest))

    pbest_fitness = swarm.population.pbest_fitness
    improved = fitness < pbest_fitness
    if improved.any():
        swarm.pbest_positions[improved] = values[improved]
        pbest_fitness[improved] = fitness[improved]
        swarm.pbest_changed = True

    best = fitness.argmin()
    if fitness[best] < context.gbest_fitness:
        gbest[dims] = values[best]
        context.gbest_fitness = float(fitness[best])
        return fitness, True
    return fitness, False


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
    swarm: Swarm,
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
    resampled dimensions reset to zero.  Ends by writing the swarm back
    into its population (``Swarm.store``).
    """
    pso_p = params.pso
    positions, velocities = swarm.positions, swarm.velocities
    update_velocities(
        positions, velocities, swarm.pbest_positions, gbest_position[swarm.dims], w,
        pso_p.c1, pso_p.c2, spec.upper - spec.lower, rng,
        swarm.population.step_buffers(swarm.dims.size),
    )
    update_positions(positions, velocities, spec.lower, spec.upper)

    elite = elite_count(params.elite_factor, swarm.population.size)
    non_elite = fitness.argsort(kind="stable")[elite:]
    if non_elite.size > 0 and params.mutation_rate > 0.0:
        mutate = rng.random((non_elite.size, swarm.dims.size)) < params.mutation_rate
        fresh = rng.uniform(spec.lower, spec.upper, size=mutate.shape)
        rows, cols = mutate.nonzero()
        hit = non_elite[rows], cols
        positions[hit] = fresh[rows, cols]
        velocities[hit] = 0.0
    swarm.store()


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
    choice, one pass over the non-empty swarms in ascending index, then
    automata reinforcement and the guard update.  The pass copies each
    swarm's columns once, context-evaluates them and moves them at once.
    That gives the bits of evaluating every swarm before moving any:
    evaluation draws no random numbers, and each swarm owns its columns,
    so scoring a swarm reads nothing that moving an earlier swarm wrote.
    """
    k = params.swarm_count
    partition = select_memberships(state.dimension_automata, k, spec.dims, rng)
    partition.population_choice = select_populations(state.swarm_automata, rng)
    w = inertia_weight(choose_cycle(state.context), iteration, params.pso)

    improvements = np.zeros(k, dtype=bool)
    for j in range(k):
        dims = partition.members[j]
        if dims.size == 0:
            continue
        swarm = Swarm(state.population(partition.population_choice[j]), dims)
        fitness, improvements[j] = evaluate_swarm(swarm, state.context, spec)
        rank_and_concentrate(swarm, fitness, state.context.gbest_position, spec, params, w, rng)

    reinforce_layers(partition, improvements, state.dimension_automata, state.swarm_automata)

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
