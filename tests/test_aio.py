"""Adaptive optimizer: partitioning, context evaluation, reinforcement wiring,
concentration, and full-run contracts."""
import copy
import math
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aiopt.aio as aio
from aiopt import AioParams, ConfigError, PsoParams, aio_step, init_aio_state, lookup, run_aio
from aiopt.aio import (
    POP_A,
    POP_B,
    ContextState,
    SwarmPartition,
    draws_per_column,
    elite_count,
    evaluate_swarm,
    rank_and_concentrate,
    reinforce_layers,
    select_memberships,
    select_populations,
)
from aiopt.automata import AutomatonBank
from aiopt.benchmarks import FUNCTIONS, TERMS
from aiopt.pso import (
    Population,
    SwarmBest,
    inertia_weight,
    init_population,
    pso_step,
    update_positions,
    update_velocities,
)


def force(automaton, probabilities):
    automaton.probabilities[:] = probabilities
    return automaton


def forced_bank(rows, a=0.1, b=0.1):
    bank = AutomatonBank(len(rows), len(rows[0]), a, b)
    bank.probabilities[:] = rows
    return bank


def make_population(positions, fitness=None):
    positions = np.asarray(positions, dtype=np.float64)
    if fitness is None:
        fitness = np.full(len(positions), np.inf)
    return Population(
        positions=positions.copy(),
        velocities=np.zeros_like(positions),
        pbest_positions=positions.copy(),
        pbest_fitness=np.asarray(fitness, dtype=np.float64),
    )


def context_vector(swarm_dims, particle_values, gbest_position):
    """Reference: the global best with the swarm's dimensions replaced by
    particle values; a 2-D batch of values gives one context row per row."""
    gbest_position = np.asarray(gbest_position, dtype=np.float64)
    swarm_dims = np.asarray(swarm_dims, dtype=np.intp)
    if swarm_dims.size == 0:
        raise ValueError("swarm dimension set must be non-empty")
    if swarm_dims.min() < 0 or swarm_dims.max() >= len(gbest_position):
        raise ValueError("swarm dimension index out of range")
    particle_values = np.asarray(particle_values)
    rows = np.empty(particle_values.shape[:-1] + gbest_position.shape)
    rows[...] = gbest_position
    rows[..., swarm_dims] = particle_values
    return rows


def evaluate(dims, population, context, spec):
    """``evaluate_swarm`` on the columns ``dims`` of ``population``, written back."""
    pbest = population.pbest_positions[:, dims].T
    result = evaluate_swarm(dims, population.positions[:, dims].T, pbest,
                            population.pbest_fitness, context, spec)
    population.pbest_positions[:, dims] = pbest.T
    return result


def concentrate(dims, population, fitness, gbest, spec, params, w, rng):
    """``rank_and_concentrate`` on the columns ``dims`` of ``population``, as one swarm."""
    gathered = np.stack([population.positions[:, dims].T, population.velocities[:, dims].T,
                         population.pbest_positions[:, dims].T])
    work = np.empty(len(dims) * draws_per_column(params, len(population.positions)))
    rank_and_concentrate(gathered, [len(dims)], fitness[None], gbest[dims, None], spec, params,
                         w, rng, work)
    population.positions[:, dims] = gathered[0].T
    population.velocities[:, dims] = gathered[1].T


# ------------------------------------------------------------------- params

def test_default_params():
    p = AioParams()
    assert p.swarm_count == 5
    assert p.elite_factor == pytest.approx(2 / 3)
    assert p.mutation_rate == 0.1
    assert (p.la_reward, p.la_penalty) == (0.1, 0.1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"swarm_count": 0},
        {"elite_factor": 0.0},
        {"elite_factor": 1.2},
        {"mutation_rate": -0.1},
        {"la_reward": 1.5},
        {"la_penalty": -1.0},
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ConfigError):
        AioParams(**kwargs)


def test_elite_count_values():
    assert elite_count(2 / 3, 50) == 34
    assert 50 - elite_count(2 / 3, 50) == 16
    assert elite_count(2 / 3, 24) == 16
    assert elite_count(1.0, 20) == 20
    assert elite_count(0.01, 50) == 1
    # Float products one ulp above an integer: 0.14 * 50 == 7.000000000000001.
    assert elite_count(0.14, 50) == 7
    assert elite_count(0.28, 25) == 7
    assert elite_count(0.56, 75) == 42


def test_elite_count_of_two_decimal_factors_is_exact():
    for k in range(1, 101):
        for n in range(2, 201):
            exact = math.ceil(Fraction(k, 100) * n)
            assert elite_count(k / 100, n) == min(n, max(1, exact)), (k, n)


# ------------------------------------------------------------------ init

def test_init_builds_expected_automata():
    spec = lookup("sphere", 7)
    params = AioParams(swarm_count=3, pso=PsoParams(population_size=10))
    state = init_aio_state(spec, params, np.random.default_rng(0))
    assert len(state.dimension_automata) == 7
    assert all(a.action_count == 3 for a in state.dimension_automata)
    assert len(state.swarm_automata) == 3
    assert all(a.action_count == 2 for a in state.swarm_automata)
    assert state.context.improved_last_iteration is False


def test_init_single_swarm_needs_no_membership_automata():
    spec = lookup("sphere", 5)
    params = AioParams(swarm_count=1, pso=PsoParams(population_size=8))
    state = init_aio_state(spec, params, np.random.default_rng(0))
    assert len(state.dimension_automata) == 0
    assert len(state.swarm_automata) == 1


def test_init_rejects_more_swarms_than_dimensions():
    with pytest.raises(ConfigError):
        init_aio_state(lookup("sphere", 3), AioParams(swarm_count=4),
                       np.random.default_rng(0))


def test_init_gbest_is_better_of_both_populations():
    spec = lookup("rastrigin", 6)
    params = AioParams(pso=PsoParams(population_size=12))
    rng = np.random.default_rng(5)
    state = init_aio_state(spec, params, rng)

    mirror = np.random.default_rng(5)
    _, best_a = init_population(spec, 12, mirror)
    _, best_b = init_population(spec, 12, mirror)
    assert state.context.gbest_fitness == min(best_a.fitness, best_b.fitness)


# ------------------------------------------------------------- partitioning

def test_forced_memberships_group_dimensions():
    automata = forced_bank([[1.0, 0.0] if d % 2 == 0 else [0.0, 1.0] for d in range(6)])
    partition = select_memberships(automata, 2, 6, np.random.default_rng(0))
    np.testing.assert_array_equal(partition.assignment, [0, 1, 0, 1, 0, 1])
    np.testing.assert_array_equal(partition.members[0], [0, 2, 4])
    np.testing.assert_array_equal(partition.members[1], [1, 3, 5])


def test_degenerate_memberships_leave_other_swarms_empty():
    automata = forced_bank([[1.0, 0.0, 0.0]] * 4)
    partition = select_memberships(automata, 3, 4, np.random.default_rng(0))
    np.testing.assert_array_equal(partition.members[0], [0, 1, 2, 3])
    assert partition.members[1].size == 0
    assert partition.members[2].size == 0


def test_one_swarm_per_dimension_when_forced():
    automata = forced_bank(np.eye(4))
    partition = select_memberships(automata, 4, 4, np.random.default_rng(0))
    for d in range(4):
        np.testing.assert_array_equal(partition.members[d], [d])


def test_single_swarm_partition_consumes_no_randomness():
    partition = select_memberships([], 1, 9, rng=None)
    np.testing.assert_array_equal(partition.members[0], np.arange(9))


def test_partition_is_frozen():
    partition = select_memberships(forced_bank(np.eye(2)), 2, 2, np.random.default_rng(0))
    with pytest.raises(FrozenInstanceError):
        partition.assignment = np.zeros(2, dtype=np.intp)
    with pytest.raises(FrozenInstanceError):
        partition.members = []


@pytest.mark.parametrize("seed", range(5))
def test_members_are_a_disjoint_cover(seed):
    rng = np.random.default_rng(seed)
    automata = AutomatonBank(12, 5, 0.1, 0.1)
    partition = select_memberships(automata, 5, 12, rng)
    joined = np.concatenate(partition.members)
    assert len(joined) == 12
    np.testing.assert_array_equal(np.sort(joined), np.arange(12))


def test_population_choices_follow_degenerate_automata():
    automata = forced_bank([[1.0, 0.0], [0.0, 1.0]])
    choices = select_populations(automata, np.random.default_rng(0))
    np.testing.assert_array_equal(choices, [POP_A, POP_B])


def test_population_choice_arity():
    automata = AutomatonBank(5, 2, 0.1, 0.1)
    assert len(select_populations(automata, np.random.default_rng(1))) == 5


# ------------------------------------------------------------ context vector

def test_context_vector_replaces_swarm_entries():
    result = context_vector(np.array([1]), np.array([4.0]), np.array([9.0, 9.0, 9.0]))
    np.testing.assert_array_equal(result, [9.0, 4.0, 9.0])


def test_context_vector_full_cover_is_the_particle():
    particle = np.array([1.0, 2.0, 3.0])
    result = context_vector(np.arange(3), particle, np.array([9.0, 9.0, 9.0]))
    np.testing.assert_array_equal(result, particle)


def test_context_vector_fixed_point():
    gbest = np.array([5.0, 6.0, 7.0])
    result = context_vector(np.array([0, 2]), gbest[[0, 2]], gbest)
    np.testing.assert_array_equal(result, gbest)


def test_context_vector_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        context_vector(np.array([], dtype=int), np.array([]), np.zeros(3))
    with pytest.raises(ValueError):
        context_vector(np.array([3]), np.array([1.0]), np.zeros(3))


# ---------------------------------------------------------- swarm evaluation

def test_evaluate_full_cover_particle_at_optimum():
    spec = lookup("sphere", 3)
    population = make_population([[0.0, 0.0, 0.0]])
    context = ContextState(gbest_position=np.full(3, 5.0), gbest_fitness=75.0)
    fitness, improved = evaluate(np.arange(3), population, context, spec)
    assert fitness[0] == 0.0
    assert improved is True
    assert context.gbest_fitness == 0.0
    np.testing.assert_array_equal(context.gbest_position, [0.0, 0.0, 0.0])


def test_evaluate_no_improvement_when_swarm_matches_gbest():
    spec = lookup("sphere", 3)
    gbest = np.array([1.0, 2.0, 3.0])
    positions = np.tile(gbest, (4, 1))
    population = make_population(positions)
    context = ContextState(gbest_position=gbest.copy(),
                           gbest_fitness=float(spec.evaluate(gbest)))
    _, improved = evaluate(np.array([0, 1]), population, context, spec)
    assert improved is False
    np.testing.assert_array_equal(context.gbest_position, gbest)


def test_evaluate_improvement_flag_implies_strict_decrease():
    spec = lookup("rastrigin", 4)
    rng = np.random.default_rng(8)
    population, _ = init_population(spec, 10, rng)
    context = ContextState(
        gbest_position=rng.uniform(spec.lower, spec.upper, 4), gbest_fitness=np.inf
    )
    context.gbest_fitness = float(spec.evaluate(context.gbest_position))
    for _ in range(20):
        before = context.gbest_fitness
        dims = np.sort(rng.choice(4, size=2, replace=False))
        _, improved = evaluate(dims, population, context, spec)
        if improved:
            assert context.gbest_fitness < before
        else:
            assert context.gbest_fitness == before
        population.positions += rng.normal(scale=0.1, size=population.positions.shape)
        np.clip(population.positions, spec.lower, spec.upper, out=population.positions)


def test_evaluate_updates_pbest_on_swarm_dims_only():
    spec = lookup("sphere", 3)
    positions = np.array([[1.0, 1.0, 1.0]])
    population = make_population(positions, fitness=[np.inf])
    population.pbest_positions[:] = [[7.0, 7.0, 7.0]]
    context = ContextState(gbest_position=np.zeros(3), gbest_fitness=0.0)
    evaluate(np.array([1]), population, context, spec)
    # dim 1 takes the particle value, untouched dims keep the old memory
    np.testing.assert_array_equal(population.pbest_positions, [[7.0, 1.0, 7.0]])
    assert population.pbest_fitness[0] == 1.0


# ------------------------------------------------- context fitness from terms

def full_context_fitness(spec, cols, values, gbest):
    return np.asarray(spec.evaluate(context_vector(cols, values, gbest)), dtype=np.float64)


def assert_context_fitness_exact(name, dims, cols, seed, particles=7):
    """evaluate_swarm and context_fitness bit-equal the full rows."""
    spec = lookup(name, dims)
    rng = np.random.default_rng(seed)
    population = make_population(rng.uniform(spec.lower, spec.upper, (particles, dims)))
    gbest = rng.uniform(spec.lower, spec.upper, dims)
    cols = np.asarray(cols, dtype=np.intp)
    values = population.positions[:, cols]
    expected = full_context_fitness(spec, cols, values, gbest)
    # A -inf global best is never improved, so the snapshot stays fixed.
    context = ContextState(gbest_position=gbest.copy(), gbest_fitness=-np.inf)
    fitness, _ = evaluate(cols, population, context, spec)
    assert fitness.tobytes() == expected.tobytes()
    assert spec.context_fitness(cols, values, gbest).tobytes() == expected.tobytes()


@settings(deadline=None, max_examples=200)
@given(name=st.sampled_from(sorted(FUNCTIONS)), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_context_fitness_is_bitwise_the_full_evaluation(name, data, seed):
    dims = data.draw(st.integers(2, 64), label="dims")
    cols = data.draw(
        st.lists(st.integers(0, dims - 1), min_size=1, max_size=dims, unique=True), label="cols"
    )
    assert_context_fitness_exact(name, dims, cols, seed)


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
@pytest.mark.parametrize("dims", [2, 3, 17, 64])
def test_context_fitness_exact_for_one_column_and_full_cover(name, dims):
    for cols in ([0], [dims - 1], np.arange(dims), np.arange(dims)[::-1]):
        assert_context_fitness_exact(name, dims, cols, seed=dims)


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_context_fitness_exact_at_d1000(name):
    cols = np.flatnonzero(np.random.default_rng(3).integers(0, 5, 1000) == 2)
    assert_context_fitness_exact(name, 1000, cols, seed=4, particles=50)


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_context_fitness_non_finite_parity(name):
    spec = lookup(name, 4)
    cols = np.array([1, 2])
    values = np.ones((3, 2))
    gbest = np.full(4, 0.5)

    def both_raise(values, gbest):
        population = make_population(np.tile(gbest, (len(values), 1)))
        population.positions[:, cols] = values
        context = ContextState(gbest_position=gbest.copy(), gbest_fitness=np.inf)
        with pytest.raises(ValueError, match="non-finite"):
            full_context_fitness(spec, cols, values, gbest)
        with pytest.raises(ValueError, match="non-finite"):
            evaluate(cols, population, context, spec)

    for bad in (np.nan, np.inf, -np.inf):
        in_values = values.copy()
        in_values[1, 0] = bad
        both_raise(in_values, gbest)
        outside = gbest.copy()
        outside[3] = bad
        both_raise(values, outside)
        # a non-finite global-best entry on the swarm's columns is replaced
        inside = gbest.copy()
        inside[2] = bad
        expected = full_context_fitness(spec, cols, values, inside)
        population = make_population(np.tile(np.full(4, 0.5), (3, 1)))
        population.positions[:, cols] = values
        context = ContextState(gbest_position=inside, gbest_fitness=-np.inf)
        fitness, _ = evaluate(cols, population, context, spec)
        assert fitness.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_evaluate_swarm_rejects_bad_dimensions(name):
    spec = lookup(name, 3)
    population = make_population(np.zeros((2, 3)))
    context = ContextState(gbest_position=np.zeros(3), gbest_fitness=np.inf)
    with pytest.raises(ValueError, match="non-empty"):
        evaluate(np.array([], dtype=int), population, context, spec)
    with pytest.raises(ValueError, match="out of range"):
        evaluate(np.array([-1]), population, context, spec)


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_context_fitness_rejects_bad_dimensions(name):
    spec = lookup(name, 4)
    base = np.full(4, 0.5)
    with pytest.raises(ValueError, match="non-empty"):
        spec.context_fitness(np.array([], dtype=np.intp), np.empty((2, 0)), base)
    for bad in (-1, -4, 4, 7):
        with pytest.raises(ValueError, match="out of range"):
            spec.context_fitness(np.array([1, bad]), np.ones((2, 2)), base)


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_context_fitness_rejects_malformed_arguments(name):
    """Term objectives and rosenbrock alike: no truncated column, no mask read as
    indices, and no broadcast of values over the swarm's columns."""
    spec = lookup(name, 5)
    base = np.zeros(5)
    malformed = [
        ([1, 2, 3], np.array([1.0, 2.0, 3.0])),  # 1-D values
        ([1, 2, 3], np.ones((2, 1))),  # one column for three dimensions
        (np.array([1.7]), np.ones((2, 1))),  # a non-integer column
        (np.array([True, True, False, False, False]), np.ones((2, 2))),  # a mask
        (np.array([[1, 2]]), np.ones((2, 2))),  # 2-D columns
    ]
    for swarm_dims, values in malformed:
        with pytest.raises(ValueError, match="integer swarm dimensions"):
            spec.context_fitness(swarm_dims, values, base)
    with pytest.raises(ValueError, match="non-empty"):
        spec.context_fitness([], np.empty((2, 0)), base)
    expected = full_context_fitness(spec, np.array([1, 2]), np.ones((3, 2)), base)
    assert spec.context_fitness([1, 2], np.ones((3, 2)), base).tobytes() == expected.tobytes()


# -------------------------------------------------------------- reinforcement

def test_reinforce_rewards_improving_swarm():
    partition = SwarmPartition(
        assignment=np.array([0, 0]),
        members=[np.array([0, 1])],
    )
    swarm_auto = AutomatonBank(1, 2, 0.1, 0.1)
    dim_auto = AutomatonBank(2, 2, 0.1, 0.1)
    reinforce_layers(partition, np.array([POP_A]), np.array([True]), dim_auto, swarm_auto)
    np.testing.assert_allclose(swarm_auto.probabilities[0], [0.55, 0.45], atol=1e-15)
    for auto in dim_auto:
        np.testing.assert_allclose(auto.probabilities, [0.55, 0.45], atol=1e-15)


def test_reinforce_inaction_under_zero_penalty_rate():
    partition = SwarmPartition(
        assignment=np.array([0, 0]),
        members=[np.array([0, 1])],
    )
    swarm_auto = AutomatonBank(1, 2, 0.1, 0.0)
    dim_auto = AutomatonBank(2, 2, 0.1, 0.0)
    reinforce_layers(partition, np.array([POP_B]), np.array([False]), dim_auto, swarm_auto)
    np.testing.assert_array_equal(swarm_auto.probabilities[0], [0.5, 0.5])
    for auto in dim_auto:
        np.testing.assert_array_equal(auto.probabilities, [0.5, 0.5])


def test_reinforce_skips_empty_swarms():
    partition = SwarmPartition(
        assignment=np.zeros(3, dtype=int),
        members=[np.arange(3), np.array([], dtype=int)],
    )
    swarm_auto = AutomatonBank(2, 2, 0.1, 0.1)
    dim_auto = AutomatonBank(3, 2, 0.1, 0.1)
    reinforce_layers(partition, np.array([POP_A, POP_B]), np.array([False, False]), dim_auto,
                     swarm_auto)
    # swarm 1 was empty: its automaton is untouched
    np.testing.assert_array_equal(swarm_auto.probabilities[1], [0.5, 0.5])
    assert not np.array_equal(swarm_auto.probabilities[0], [0.5, 0.5])


def test_reinforce_penalizes_only_member_dimension_automata():
    partition = SwarmPartition(
        assignment=np.array([0, 1, 0]),
        members=[np.array([0, 2]), np.array([1])],
    )
    swarm_auto = AutomatonBank(2, 2, 0.1, 0.1)
    dim_auto = AutomatonBank(3, 2, 0.1, 0.1)
    reinforce_layers(partition, np.array([POP_A, POP_A]), np.array([True, False]), dim_auto,
                     swarm_auto)
    # dims 0 and 2 rewarded at action 0, dim 1 penalized at action 1
    assert dim_auto.probabilities[0, 0] > 0.5
    assert dim_auto.probabilities[2, 0] > 0.5
    assert dim_auto.probabilities[1, 1] < 0.5


# ------------------------------------------------------------- concentration

def _concentrate_args(seed=17, size=10, dims=4):
    spec = lookup("sphere", dims)
    rng = np.random.default_rng(seed)
    population, _ = init_population(spec, size, rng)
    population.velocities = rng.uniform(-1, 1, population.positions.shape)
    fitness = np.asarray(spec.evaluate(population.positions))
    gbest = rng.uniform(spec.lower, spec.upper, dims)
    return spec, population, fitness, gbest


def test_zero_mutation_rate_is_a_plain_swarm_move():
    spec, population, fitness, gbest = _concentrate_args()
    reference = make_population(population.positions)
    reference.velocities = population.velocities.copy()
    reference.pbest_positions = population.pbest_positions.copy()

    swarm_dims = np.array([1, 3])
    params = AioParams(swarm_count=2, elite_factor=0.5, mutation_rate=0.0)
    concentrate(swarm_dims, population, fitness, gbest, spec, params,
                w=0.7, rng=np.random.default_rng(99))

    mirror = np.random.default_rng(99)
    pos = reference.positions[:, swarm_dims]
    vel = update_velocities(
        pos, reference.velocities[:, swarm_dims],
        reference.pbest_positions[:, swarm_dims], gbest[swarm_dims],
        0.7, params.pso.c1, params.pso.c2, spec.upper - spec.lower,
        *mirror.random((2, len(population.positions), swarm_dims.size)), np.empty(pos.shape),
    )
    pos = update_positions(pos, vel, spec.lower, spec.upper)
    np.testing.assert_array_equal(population.positions[:, swarm_dims], pos)
    np.testing.assert_array_equal(population.velocities[:, swarm_dims], vel)
    # untouched dimensions keep their values
    np.testing.assert_array_equal(
        population.positions[:, [0, 2]], reference.positions[:, [0, 2]]
    )


def test_full_elite_set_never_mutates():
    spec, population, fitness, gbest = _concentrate_args(seed=23)
    twin = make_population(population.positions)
    twin.velocities = population.velocities.copy()
    twin.pbest_positions = population.pbest_positions.copy()

    dims = np.arange(4)
    high = AioParams(swarm_count=2, elite_factor=1.0, mutation_rate=0.9)
    none = AioParams(swarm_count=2, elite_factor=1.0, mutation_rate=0.0)
    concentrate(dims, population, fitness, gbest, spec, high,
                w=0.5, rng=np.random.default_rng(7))
    concentrate(dims, twin, fitness, gbest, spec, none,
                w=0.5, rng=np.random.default_rng(7))
    np.testing.assert_array_equal(population.positions, twin.positions)
    np.testing.assert_array_equal(population.velocities, twin.velocities)


def test_certain_mutation_resamples_non_elite_in_bounds():
    spec, population, fitness, gbest = _concentrate_args(seed=29, size=12)
    dims = np.array([0, 2])
    params = AioParams(swarm_count=2, elite_factor=1 / 12, mutation_rate=1.0)
    concentrate(dims, population, fitness, gbest, spec, params,
                w=0.6, rng=np.random.default_rng(31))

    order = np.argsort(fitness, kind="stable")
    non_elite = order[1:]
    assert np.all(population.positions >= spec.lower)
    assert np.all(population.positions <= spec.upper)
    # every mutated component had its velocity reset
    np.testing.assert_array_equal(
        population.velocities[np.ix_(non_elite, dims)], 0.0
    )
    assert np.any(population.velocities[order[0], dims] != 0.0)


# ------------------------------------------------------------------ stepping

def test_cycle_choice_follows_the_guard(monkeypatch):
    """Each step decays the inertia quickly exactly when the step before it
    improved the global best; the first step decays slowly."""
    modes = []

    def recording_inertia_weight(mode, iteration, params):
        modes.append(mode)
        return inertia_weight(mode, iteration, params)

    monkeypatch.setattr(aio, "inertia_weight", recording_inertia_weight)
    spec = lookup("sphere", 6)
    params = AioParams(swarm_count=2, pso=PsoParams(population_size=8, max_iterations=40))
    rng = np.random.default_rng(5)
    state = init_aio_state(spec, params, rng)
    values = [state.context.gbest_fitness]
    for i in range(40):
        values.append(aio_step(state, spec, params, i, rng))

    improved = [False] + [after < before for before, after in zip(values[:-2], values[1:-1])]
    assert modes == ["quick" if flag else "slow" for flag in improved]
    assert {"quick", "slow"} <= set(modes)


def test_single_swarm_step_equals_full_dimension_pso_step():
    spec = lookup("sphere", 6)
    pso_p = PsoParams(population_size=12, max_iterations=50, w_fixed=0.9)
    params = AioParams(swarm_count=1, elite_factor=1.0, mutation_rate=0.0, pso=pso_p)

    rng = np.random.default_rng(31)
    state = init_aio_state(spec, params, rng)
    state.swarm_automata.probabilities[0] = [1.0, 0.0]  # always population A

    mirror = np.random.default_rng(31)
    reference, best_a = init_population(spec, 12, mirror)
    _, best_b = init_population(spec, 12, mirror)
    gbest = best_a if best_a.fitness <= best_b.fitness else best_b
    mirror.random()  # the population-selection draw
    home = np.empty((3,) + reference.positions.shape)
    gbest = pso_step(reference, gbest, spec, pso_p, mirror.random(out=home[:2]), home[2])

    aio_step(state, spec, params, 0, rng)

    np.testing.assert_array_equal(state.pop_a.positions, reference.positions)
    np.testing.assert_array_equal(state.pop_a.velocities, reference.velocities)
    np.testing.assert_array_equal(state.pop_a.pbest_positions, reference.pbest_positions)
    np.testing.assert_array_equal(state.pop_a.pbest_fitness, reference.pbest_fitness)
    assert state.context.gbest_fitness == gbest.fitness
    np.testing.assert_array_equal(state.context.gbest_position, gbest.position)


def test_unchosen_population_is_never_touched():
    spec = lookup("ackley", 5)
    params = AioParams(swarm_count=2, pso=PsoParams(population_size=8, max_iterations=20))
    rng = np.random.default_rng(13)
    state = init_aio_state(spec, params, rng)
    for auto in state.swarm_automata:
        force(auto, [0.0, 1.0])  # every swarm works on population B

    frozen_positions = state.pop_a.positions.copy()
    frozen_velocities = state.pop_a.velocities.copy()
    frozen_pbest = state.pop_a.pbest_positions.copy()
    for i in range(5):
        # keep the choice pinned: reinforcement drifts the probabilities
        for auto in state.swarm_automata:
            force(auto, [0.0, 1.0])
        aio_step(state, spec, params, i, rng)
    np.testing.assert_array_equal(state.pop_a.positions, frozen_positions)
    np.testing.assert_array_equal(state.pop_a.velocities, frozen_velocities)
    np.testing.assert_array_equal(state.pop_a.pbest_positions, frozen_pbest)


def test_step_monotone_gbest_and_partition_every_iteration():
    spec = lookup("rastrigin", 8)
    params = AioParams(swarm_count=3, pso=PsoParams(population_size=10, max_iterations=60))
    rng = np.random.default_rng(2)
    state = init_aio_state(spec, params, rng)
    previous = state.context.gbest_fitness
    for i in range(60):
        value = aio_step(state, spec, params, i, rng)
        assert value <= previous
        previous = value
        for population in (state.pop_a, state.pop_b):
            assert np.all(population.positions >= spec.lower)
            assert np.all(population.positions <= spec.upper)


def test_automata_simplices_hold_after_many_steps():
    spec = lookup("griewank", 6)
    params = AioParams(swarm_count=3, pso=PsoParams(population_size=8, max_iterations=80))
    rng = np.random.default_rng(6)
    state = init_aio_state(spec, params, rng)
    for i in range(80):
        aio_step(state, spec, params, i, rng)
    for auto in [*state.dimension_automata, *state.swarm_automata]:
        assert abs(auto.probabilities.sum() - 1.0) <= 1e-9
        assert np.all((auto.probabilities >= 0.0) & (auto.probabilities <= 1.0))



# -------------------------------------- reference: the two-pass step it replaced

def reference_evaluate(swarm_dims, population, context, spec):
    """Context evaluation of one swarm straight on the whole population."""
    gbest = context.gbest_position
    values = population.positions[:, swarm_dims]
    if spec.name in TERMS:
        fitness = spec.context_fitness(swarm_dims, values, gbest)
    else:
        fitness = spec.evaluate(context_vector(swarm_dims, values, gbest))
    fitness = np.asarray(fitness, dtype=np.float64)
    improved = fitness < population.pbest_fitness
    if improved.any():
        rows = np.flatnonzero(improved)
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


def reference_concentrate(swarm_dims, population, fitness, gbest_position, spec, params, w, rng):
    """Concentration of one swarm through row gathers and ``np.where``."""
    pso_p = params.pso
    positions = population.positions[:, swarm_dims]
    velocities = population.velocities[:, swarm_dims]
    pbest = population.pbest_positions[:, swarm_dims]
    velocities = update_velocities(
        positions, velocities, pbest, gbest_position[swarm_dims], w, pso_p.c1, pso_p.c2,
        spec.upper - spec.lower, *rng.random((2,) + positions.shape), np.empty(positions.shape),
    )
    positions = update_positions(positions, velocities, spec.lower, spec.upper)
    order = np.argsort(fitness, kind="stable")
    non_elite = order[elite_count(params.elite_factor, len(population.positions)):]
    if non_elite.size > 0 and params.mutation_rate > 0.0:
        mutate = rng.random((non_elite.size, swarm_dims.size)) < params.mutation_rate
        fresh = rng.uniform(spec.lower, spec.upper, size=(non_elite.size, swarm_dims.size))
        positions[non_elite] = np.where(mutate, fresh, positions[non_elite])
        velocities[non_elite] = np.where(mutate, 0.0, velocities[non_elite])
    population.positions[:, swarm_dims] = positions
    population.velocities[:, swarm_dims] = velocities


def reference_step(state, spec, params, iteration, rng):
    """All evaluations, then reinforcement, then all concentrations."""
    k = params.swarm_count
    partition = select_memberships(state.dimension_automata, k, spec.dims, rng)
    choice = select_populations(state.swarm_automata, rng)
    w = inertia_weight("quick" if state.context.improved_last_iteration else "slow", iteration,
                       params.pso)
    improvements = np.zeros(k, dtype=bool)
    swarm_fitness = [None] * k
    for j in range(k):
        dims = partition.members[j]
        if dims.size:
            population = state.population(choice[j])
            swarm_fitness[j], improvements[j] = reference_evaluate(
                dims, population, state.context, spec
            )
    reinforce_layers(partition, choice, improvements, state.dimension_automata,
                     state.swarm_automata)
    for j in range(k):
        dims = partition.members[j]
        if dims.size:
            population = state.population(choice[j])
            reference_concentrate(dims, population, swarm_fitness[j],
                                  state.context.gbest_position, spec, params, w, rng)
    state.context.improved_last_iteration = bool(improvements.any())
    return state.context.gbest_fitness


def state_bytes(state, rng):
    """Every array and scalar of an optimizer state, plus the stream position."""
    arrays = [state.context.gbest_position, state.dimension_automata.probabilities,
              state.swarm_automata.probabilities]
    for population in (state.pop_a, state.pop_b):
        arrays += [population.positions, population.velocities,
                   population.pbest_positions, population.pbest_fitness]
    return ([a.tobytes() for a in arrays], state.context.gbest_fitness,
            state.context.improved_last_iteration, rng.bit_generator.state)


@st.composite
def step_shapes(draw):
    """(dims, swarm count, population size, elite factor) of a step test."""
    dims = draw(st.integers(2, 40))
    swarms = draw(st.integers(1, min(dims, 7)))
    size = draw(st.integers(2, 12))
    return dims, swarms, size, draw(st.sampled_from([1 / size, 0.5, 2 / 3, 1.0]))


@settings(deadline=None, max_examples=60)
@given(
    name=st.sampled_from(sorted(FUNCTIONS)),
    shape=step_shapes(),
    mutation_rate=st.sampled_from([0.0, 0.05, 0.1, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
# The benchmark's step shapes, and seven swarms on eight dimensions, which
# leaves some swarm empty in some step.
@example(name="rastrigin", shape=(100, 5, 50, 2 / 3), mutation_rate=0.1, seed=1)
@example(name="rosenbrock", shape=(30, 5, 50, 2 / 3), mutation_rate=0.1, seed=2)
@example(name="sphere", shape=(8, 7, 6, 0.5), mutation_rate=0.5, seed=3)
def test_single_pass_step_equals_the_two_pass_reference(name, shape, mutation_rate, seed):
    dims, swarms, size, elite_factor = shape
    spec = lookup(name, dims)
    params = AioParams(swarm_count=swarms, elite_factor=elite_factor, mutation_rate=mutation_rate,
                       pso=PsoParams(population_size=size, max_iterations=20))
    rng, mirror = np.random.default_rng(seed), np.random.default_rng(seed)
    state = init_aio_state(spec, params, rng)
    reference = init_aio_state(spec, params, mirror)
    for i in range(6):
        value = aio_step(state, spec, params, i, rng)
        assert value == reference_step(reference, spec, params, i, mirror)
        assert state_bytes(state, rng) == state_bytes(reference, mirror)


def test_step_calls_each_half_once_per_non_empty_swarm(monkeypatch):
    """The step reaches its phases through ``aiopt.aio`` attributes, so
    wrappers put there (as the benchmark's tracer does) see every call.
    Scoring runs once per non-empty swarm; the move runs once per step,
    whatever the swarm count."""
    calls = []
    partitions = []

    def record(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            result = fn(*args, **kwargs)
            if name == "select_memberships":
                partitions.append(result)
            return result
        monkeypatch.setattr(aio, name, wrapper)

    for name in ("select_memberships", "evaluate_swarm", "rank_and_concentrate",
                 "update_velocities", "update_positions"):
        record(name, getattr(aio, name))

    spec = lookup("rastrigin", 6)
    params = AioParams(swarm_count=5, pso=PsoParams(population_size=6, max_iterations=12))
    rng = np.random.default_rng(3)
    state = init_aio_state(spec, params, rng)
    for i in range(12):
        aio_step(state, spec, params, i, rng)

    move = ["rank_and_concentrate", "update_velocities", "update_positions"]
    expected = []
    for partition in partitions:
        active = sum(1 for dims in partition.members if dims.size)
        expected += ["select_memberships"] + ["evaluate_swarm"] * active + move
    assert calls == expected
    # six dimensions over five swarms leave some swarm empty in some step
    assert any(dims.size == 0 for partition in partitions for dims in partition.members)


def test_population_views_write_through():
    """A value written into ``pop_b`` is the one the next step scores and moves."""
    spec = lookup("sphere", 5)
    pso_p = PsoParams(population_size=6, max_iterations=10, w_fixed=0.9)
    params = AioParams(swarm_count=1, elite_factor=1.0, mutation_rate=0.0, pso=pso_p)
    rng = np.random.default_rng(8)
    state = init_aio_state(spec, params, rng)
    state.swarm_automata.probabilities[0] = [0.0, 1.0]  # always population B
    state.pop_b.positions[2] = 0.0  # the optimum
    view = state.pop_b
    reference = Population(view.positions.copy(), view.velocities.copy(),
                           view.pbest_positions.copy(), view.pbest_fitness.copy())
    gbest = SwarmBest(state.context.gbest_position.copy(), state.context.gbest_fitness)
    mirror = copy.deepcopy(rng)

    aio_step(state, spec, params, 0, rng)
    mirror.random()  # the population-selection draw
    home = np.empty((3,) + reference.positions.shape)
    gbest = pso_step(reference, gbest, spec, pso_p, mirror.random(out=home[:2]), home[2])

    assert state.context.gbest_fitness == gbest.fitness == 0.0
    assert state.pop_b.pbest_fitness[2] == 0.0
    np.testing.assert_array_equal(state.pop_b.positions, reference.positions)
    np.testing.assert_array_equal(state.pop_b.velocities, reference.velocities)


def test_states_of_different_shapes_step_apart_in_one_process():
    """Each step makes its own scratch block, so two states stepped in
    alternation end as each does when stepped alone."""
    setups = [
        (lookup("rastrigin", 7), AioParams(swarm_count=3, pso=PsoParams(population_size=6)), 21),
        (lookup("rosenbrock", 30), AioParams(swarm_count=5, pso=PsoParams(population_size=10)), 22),
    ]

    def start(spec, params, seed):
        rng = np.random.default_rng(seed)
        return init_aio_state(spec, params, rng), rng, []

    def step(run, spec, params, i):
        state, rng, trace = run
        trace.append(aio_step(state, spec, params, i, rng))

    def outcome(run):
        state, rng, trace = run
        return np.array(trace).tobytes(), state.columns.tobytes(), rng.bit_generator.state

    alone = []
    for setup in setups:
        run = start(*setup)
        for i in range(40):
            step(run, *setup[:2], i)
        alone.append(outcome(run))

    runs = [start(*setup) for setup in setups]
    for i in range(40):
        for run, setup in zip(runs, setups):
            step(run, *setup[:2], i)
    assert [outcome(run) for run in runs] == alone


# -------------------------------------------------------------------- runs

def test_run_trace_contract():
    spec = lookup("sphere", 6)
    params = AioParams(swarm_count=2, pso=PsoParams(population_size=10, max_iterations=120))
    trace = run_aio(spec, params, seed=4)
    assert len(trace.best_fitness) == 120
    assert trace.final_fitness == trace.best_fitness[-1]
    assert np.all(np.diff(trace.best_fitness) <= 0.0)


def test_run_replay_is_bit_exact():
    spec = lookup("ackley", 6)
    params = AioParams(swarm_count=3, pso=PsoParams(population_size=10, max_iterations=150))
    first = run_aio(spec, params, seed=11)
    second = run_aio(spec, params, seed=11)
    np.testing.assert_array_equal(first.best_fitness, second.best_fitness)


def test_run_with_zero_iterations_reports_initial_best():
    spec = lookup("sphere", 4)
    params = AioParams(swarm_count=2, pso=PsoParams(population_size=8, max_iterations=0))
    trace = run_aio(spec, params, seed=9)
    state = init_aio_state(spec, params, np.random.default_rng(9))
    assert trace.best_fitness.size == 0
    assert trace.final_fitness == state.context.gbest_fitness


def test_step_under_a_zero_budget_names_the_tag():
    spec = lookup("sphere", 4)
    params = AioParams(swarm_count=2, pso=PsoParams(population_size=4, max_iterations=0))
    rng = np.random.default_rng(0)
    state = init_aio_state(spec, params, rng)
    with pytest.raises(ConfigError, match="^<iterations> must be >= 1 for an inertia schedule, got 0$"):
        aio_step(state, spec, params, 0, rng)


@pytest.mark.parametrize("name", ["sphere", "rastrigin"])
def test_run_reads_only_the_adaptive_inertia(name):
    spec = lookup(name, 10)

    def trace(**inertia):
        params = AioParams(pso=PsoParams(population_size=20, max_iterations=30, **inertia))
        return run_aio(spec, params, seed=5).best_fitness.tobytes()

    assert trace(w_fixed=0.74) == trace(w_fixed=0.5)
    assert trace(w_max=0.9, w_min=0.4) != trace(w_max=0.8, w_min=0.3)


def test_desk_scale_run_improves_on_initial_best():
    spec = lookup("sphere", 10)
    params = AioParams(swarm_count=3, pso=PsoParams(population_size=20, max_iterations=1000))
    finals, initials = [], []
    for seed in range(1, 6):
        initials.append(
            init_aio_state(spec, params, np.random.default_rng(seed)).context.gbest_fitness
        )
        finals.append(run_aio(spec, params, seed).final_fitness)
    assert np.median(finals) < np.median(initials)
