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
from .errors import check, count_rule, number_rule
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
            count_rule("<tdr-factor>", self.swarm_count, 1),
            number_rule("<elite-factor>", self.elite_factor, 0, 1, above=True),
            number_rule("<mutation-rate>", self.mutation_rate, 0, 1),
            number_rule("<la-reward>", self.la_reward, 0, 1),
            number_rule("<la-penalty>", self.la_penalty, 0, 1),
            (isinstance(self.pso, PsoParams),
             f"pso must be a PsoParams, got {type(self.pso).__name__}"),
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


@dataclass(frozen=True)
class SwarmPartition:
    """One iteration's dimension-to-swarm assignment and each swarm's dimensions."""

    assignment: np.ndarray
    members: list[np.ndarray]


@dataclass
class AioState:
    """Both populations column-major, the two automaton layers and the shared best.

    ``columns[0]``, ``columns[1]`` and ``columns[2]`` hold positions,
    velocities and personal bests, each ``(2, D, n)``: one row per
    (population, dimension).  ``pbest_fitness`` is ``(2, n)``.  ``pop_a``
    and ``pop_b`` are ``Population`` views of them, so a write through
    either reaches the state.
    """

    columns: np.ndarray
    pbest_fitness: np.ndarray
    dimension_automata: AutomatonBank
    swarm_automata: AutomatonBank
    context: ContextState

    def population(self, choice: int) -> Population:
        positions, velocities, pbest_positions = self.columns[:, choice]
        return Population(positions.T, velocities.T, pbest_positions.T, self.pbest_fitness[choice])

    pop_a = property(lambda self: self.population(POP_A))
    pop_b = property(lambda self: self.population(POP_B))


def elite_count(elite_factor: float, population_size: int) -> int:
    """Particles exempt from mutation: ceil(factor * size - 1e-9), so 0.14 of 50 is 7."""
    return min(population_size, max(1, math.ceil(elite_factor * population_size - 1e-9)))


def init_aio_state(spec: BenchmarkSpec, params: AioParams, rng: np.random.Generator) -> AioState:
    """Fresh populations, uniform automata, and the initial global best.

    Population A is initialized before population B; the shared global
    best starts from the better of the two initial bests.  Raises
    ``ConfigError`` if ``params`` break ``swarm_count_rule`` or ``velocity_rule``.
    """
    check(swarm_count_rule(params.swarm_count, spec.dims),
          velocity_rule("aio", params.pso, spec.lower, spec.upper))
    n = params.pso.population_size
    columns = np.empty((3, 2, spec.dims, n))
    pbest_fitness = np.empty((2, n))
    bests = []
    for choice in (POP_A, POP_B):
        population, best = init_population(spec, n, rng)
        columns[0, choice] = population.positions.T
        pbest_fitness[choice] = population.pbest_fitness
        bests.append(best)
        del population  # a set-up holds one at a time, so it stays on glibc's heap
    columns[1] = 0.0  # init_population starts every velocity at zero
    columns[2] = columns[0]  # and every personal best at the start point
    best = min(bests, key=lambda b: b.fitness)  # population A's on a tie
    # A single swarm needs no membership automata (the automaton contract
    # requires at least two actions); the partition is then trivial and
    # the membership bank is empty.
    k = params.swarm_count
    dimension_automata = AutomatonBank(
        spec.dims if k >= 2 else 0, max(k, 2), params.la_reward, params.la_penalty
    )
    swarm_automata = AutomatonBank(k, 2, params.la_reward, params.la_penalty)
    context = ContextState(best.position.copy(), best.fitness)
    return AioState(columns, pbest_fitness, dimension_automata, swarm_automata, context)


def select_memberships(
    dimension_automata: AutomatonBank,
    swarm_count: int,
    dimension_count: int,
    rng: np.random.Generator,
) -> SwarmPartition:
    """Let each dimension's automaton pick a swarm; group dimensions by pick.

    An empty bank (one swarm, see ``init_aio_state``) puts every dimension
    in swarm 0 without drawing.  Swarms may come out empty; downstream
    phases skip them.
    """
    if len(dimension_automata) == 0:
        assignment = np.zeros(dimension_count, dtype=np.intp)
    else:
        assignment = dimension_automata.select(rng)
    members = [(assignment == j).nonzero()[0] for j in range(swarm_count)]
    return SwarmPartition(assignment=assignment, members=members)


def select_populations(swarm_automata: AutomatonBank, rng: np.random.Generator) -> np.ndarray:
    """One population choice per swarm (0 = A, 1 = B)."""
    return swarm_automata.select(rng)


def evaluate_swarm(dims: np.ndarray, positions: np.ndarray, pbest_positions: np.ndarray,
                   pbest_fitness: np.ndarray, context: ContextState, spec: BenchmarkSpec):
    """Context-evaluate every particle of a swarm.

    ``positions`` and ``pbest_positions`` are the swarm's columns of one
    population, ``(len(dims), n)``; ``pbest_fitness`` is that
    population's.  ``BenchmarkSpec.context_fitness`` scores the context
    rows, with the bits of ``evaluate`` on the full rows.

    Personal bests take the swarm-dimension values and the new fitness on
    strict improvement.  After all particles are scored against the same
    global-best snapshot, the single best one is merged into the global
    best if it strictly improves it.  Returns the per-particle context
    fitness and whether the global best improved.  Raises ``ValueError``
    (from ``context_fitness``) if ``dims`` is empty or out of range.
    """
    gbest = context.gbest_position
    fitness = spec.context_fitness(dims, positions.T, gbest)

    improved = fitness < pbest_fitness
    if improved.any():
        pbest_positions[:, improved] = positions[:, improved]
        pbest_fitness[improved] = fitness[improved]

    best = fitness.argmin()
    if fitness[best] < context.gbest_fitness:
        gbest[dims] = positions[:, best]
        context.gbest_fitness = float(fitness[best])
        return fitness, True
    return fitness, False


def reinforce_layers(
    partition: SwarmPartition,
    choice: np.ndarray,
    improvements: np.ndarray,
    dimension_automata: AutomatonBank,
    swarm_automata: AutomatonBank,
) -> None:
    """Reward the automata behind improving swarms, penalize the rest.

    ``choice`` holds each swarm's population choice.  Only automata whose
    selected action belongs to a non-empty swarm are touched: the swarm's
    population automaton (at its chosen action) and every dimension
    automaton that joined the swarm.
    """
    active = np.flatnonzero([dims.size for dims in partition.members])
    swarm_automata.reinforce(active, choice[active], improvements[active])
    if len(dimension_automata):
        # Each dimension belongs to the swarm its automaton picked, so that
        # swarm is non-empty: the whole membership layer is reinforced.
        picked = partition.assignment
        dimension_automata.reinforce(slice(None), picked, improvements[picked])


def draws_per_column(params: AioParams, population_size: int) -> int:
    """Uniform draws per column of a move: ``r1`` and ``r2`` per particle,
    then, if the mutation rate is not zero, a mask and a fresh value per
    particle outside the elite."""
    mutants = population_size - elite_count(params.elite_factor, population_size)
    return 2 * population_size + (2 * mutants if params.mutation_rate > 0.0 else 0)


def rank_and_concentrate(gathered: np.ndarray, sizes, fitness: np.ndarray, gbest_rows: np.ndarray,
                         spec: BenchmarkSpec, params: AioParams, w: float,
                         rng: np.random.Generator, work: np.ndarray) -> None:
    """Move every gathered column at once; additionally perturb the non-elite.

    ``gathered`` holds positions, velocities and personal bests, ``(D, n)``
    each, swarm after swarm: ``sizes[i]`` rows for the i-th non-empty swarm,
    whose context fitness is ``fitness[i]``; ``gbest_rows`` is the global
    best in row order, ``(D, 1)``.  Every particle takes the velocity and
    position step; those ranked below a swarm's elite cut then have each of
    its columns resampled uniformly at ``mutation_rate``, with the velocity
    there reset to zero.  The personal bests serve as a work array.

    Each swarm draws its block in the order of a move of that swarm alone:
    ``r1`` and ``r2`` (``n`` by its column count), then mask and fresh
    values (non-elite count by column count), in one ``rng.random`` call.
    The block is copied, transposed, into its rows of ``work``, a
    ``(D, draws_per_column)`` array.  Fresh values use ``rng.uniform``'s
    formula.
    """
    positions, velocities, pbest_positions = gathered
    n = positions.shape[1]
    width = draws_per_column(params, n)
    factors = work.reshape(len(positions), width)
    start = 0
    for size in sizes:
        factors[start:start + size] = rng.random(width * size).reshape(width, size).T
        start += size

    update_velocities(positions, velocities, pbest_positions, gbest_rows, w, params.pso.c1,
                      params.pso.c2, spec.upper - spec.lower, factors[:, :n], factors[:, n: 2 * n],
                      pbest_positions)
    update_positions(positions, velocities, spec.lower, spec.upper)

    mutants = (width - 2 * n) // 2
    if mutants:
        non_elite = fitness.argsort(axis=1, kind="stable")[:, n - mutants:]
        rows, ranks = (factors[:, 2 * n: 2 * n + mutants] < params.mutation_rate).nonzero()
        hit = rows, non_elite[np.repeat(np.arange(len(sizes)), sizes)[rows], ranks]
        fresh = factors[rows, 2 * n + mutants + ranks]
        positions[hit] = spec.lower + (spec.upper - spec.lower) * fresh
        velocities[hit] = 0.0


def aio_step(
    state: AioState,
    spec: BenchmarkSpec,
    params: AioParams,
    iteration: int,
    rng: np.random.Generator,
) -> float:
    """One full iteration over all swarms; returns the global best fitness.

    Phase order: membership selection, population selection, the inertia
    weight (quick decay after an improving iteration, slow otherwise),
    then three stages.  *Gather* each dimension's row of the population
    its swarm chose, swarm by swarm in ascending index.  *Score* each
    non-empty swarm on its rows, in that order, and write the personal
    bests back.  *Move* every row in one ``rank_and_concentrate`` and
    write positions and velocities back.  Reinforcement and the guard
    update end the step.

    This has the bits of scoring every swarm before moving any, one swarm
    at a time: scoring draws no random numbers, each swarm owns its
    columns, and a swarm's columns of the global best do not change after
    it is scored, so every move can use the end-of-pass global best.
    """
    k, dims = params.swarm_count, spec.dims
    partition = select_memberships(state.dimension_automata, k, dims, rng)
    choice = select_populations(state.swarm_automata, rng)
    cycle = "quick" if state.context.improved_last_iteration else "slow"
    w = inertia_weight(cycle, iteration, params.pso)

    n = state.pbest_fitness.shape[1]
    # One scratch block per call: the gathered rows, then the move's factors.
    work = np.empty((3 * n + draws_per_column(params, n)) * dims)
    gathered = work[: 3 * n * dims].reshape(3, dims, n)
    order = np.concatenate(partition.members)
    rows = choice[partition.assignment[order]] * dims + order
    columns = state.columns.reshape(3, 2 * dims, n)
    columns.take(rows, axis=1, out=gathered, mode="clip")  # "raise" would buffer the output

    sizes = np.array([members.size for members in partition.members])
    active = sizes.nonzero()[0]
    fitness = np.empty((len(active), n))
    improvements = np.zeros(k, dtype=bool)
    stops = sizes.cumsum()
    for i, j in enumerate(active):
        block = slice(stops[j] - sizes[j], stops[j])
        fitness[i], improvements[j] = evaluate_swarm(
            partition.members[j], gathered[0, block], gathered[2, block],
            state.pbest_fitness[choice[j]], state.context, spec,
        )
    columns[2, rows] = gathered[2]  # before the move uses these rows as work space

    gbest_rows = state.context.gbest_position[order, None]
    rank_and_concentrate(gathered, sizes[active], fitness, gbest_rows, spec, params, w, rng,
                         work[3 * n * dims:])
    columns[:2, rows] = gathered[:2]

    reinforce_layers(partition, choice, improvements, state.dimension_automata,
                     state.swarm_automata)
    state.context.improved_last_iteration = bool(improvements.any())
    return state.context.gbest_fitness


def run_aio(spec: BenchmarkSpec, params: AioParams, seed: int) -> RunTrace:
    """Full seeded run; records the global best after every iteration."""
    rng = np.random.default_rng(seed)
    state = init_aio_state(spec, params, rng)
    trace = np.empty(params.pso.max_iterations, dtype=np.float64)
    for i in range(params.pso.max_iterations):
        trace[i] = aio_step(state, spec, params, i, rng)
    return RunTrace(best_fitness=trace, final_fitness=state.context.gbest_fitness, seed=seed)
