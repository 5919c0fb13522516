"""Adaptive optimizer: partitioning, context evaluation, reinforcement wiring,
concentration, and full-run contracts."""
import numpy as np
import pytest

from aiopt import AioParams, ConfigError, PsoParams, aio_step, init_aio_state, lookup, run_aio
from aiopt.aio import (
    POP_A,
    POP_B,
    ContextState,
    SwarmPartition,
    choose_cycle,
    context_vector,
    elite_count,
    evaluate_swarm,
    rank_and_concentrate,
    reinforce_layers,
    select_memberships,
    select_populations,
)
from aiopt.automata import AutomatonBank
from aiopt.pso import Population, init_population, pso_step, update_positions, update_velocities


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
    fitness, improved = evaluate_swarm(np.arange(3), population, context, spec)
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
    _, improved = evaluate_swarm(np.array([0, 1]), population, context, spec)
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
        _, improved = evaluate_swarm(dims, population, context, spec)
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
    evaluate_swarm(np.array([1]), population, context, spec)
    # dim 1 takes the particle value, untouched dims keep the old memory
    np.testing.assert_array_equal(population.pbest_positions, [[7.0, 1.0, 7.0]])
    assert population.pbest_fitness[0] == 1.0


# -------------------------------------------------------------- reinforcement

def test_reinforce_rewards_improving_swarm():
    partition = SwarmPartition(
        assignment=np.array([0, 0]),
        members=[np.array([0, 1])],
        population_choice=np.array([POP_A]),
    )
    swarm_auto = AutomatonBank(1, 2, 0.1, 0.1)
    dim_auto = AutomatonBank(2, 2, 0.1, 0.1)
    reinforce_layers(partition, np.array([True]), dim_auto, swarm_auto)
    np.testing.assert_allclose(swarm_auto[0].probabilities, [0.55, 0.45], atol=1e-15)
    for auto in dim_auto:
        np.testing.assert_allclose(auto.probabilities, [0.55, 0.45], atol=1e-15)


def test_reinforce_inaction_under_zero_penalty_rate():
    partition = SwarmPartition(
        assignment=np.array([0, 0]),
        members=[np.array([0, 1])],
        population_choice=np.array([POP_B]),
    )
    swarm_auto = AutomatonBank(1, 2, 0.1, 0.0)
    dim_auto = AutomatonBank(2, 2, 0.1, 0.0)
    reinforce_layers(partition, np.array([False]), dim_auto, swarm_auto)
    np.testing.assert_array_equal(swarm_auto[0].probabilities, [0.5, 0.5])
    for auto in dim_auto:
        np.testing.assert_array_equal(auto.probabilities, [0.5, 0.5])


def test_reinforce_skips_empty_swarms():
    partition = SwarmPartition(
        assignment=np.zeros(3, dtype=int),
        members=[np.arange(3), np.array([], dtype=int)],
        population_choice=np.array([POP_A, POP_B]),
    )
    swarm_auto = AutomatonBank(2, 2, 0.1, 0.1)
    dim_auto = AutomatonBank(3, 2, 0.1, 0.1)
    reinforce_layers(partition, np.array([False, False]), dim_auto, swarm_auto)
    # swarm 1 was empty: its automaton is untouched
    np.testing.assert_array_equal(swarm_auto[1].probabilities, [0.5, 0.5])
    assert not np.array_equal(swarm_auto[0].probabilities, [0.5, 0.5])


def test_reinforce_penalizes_only_member_dimension_automata():
    partition = SwarmPartition(
        assignment=np.array([0, 1, 0]),
        members=[np.array([0, 2]), np.array([1])],
        population_choice=np.array([POP_A, POP_A]),
    )
    swarm_auto = AutomatonBank(2, 2, 0.1, 0.1)
    dim_auto = AutomatonBank(3, 2, 0.1, 0.1)
    reinforce_layers(partition, np.array([True, False]), dim_auto, swarm_auto)
    # dims 0 and 2 rewarded at action 0, dim 1 penalized at action 1
    assert dim_auto[0].probabilities[0] > 0.5
    assert dim_auto[2].probabilities[0] > 0.5
    assert dim_auto[1].probabilities[1] < 0.5


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
    rank_and_concentrate(swarm_dims, population, fitness, gbest, spec, params,
                         w=0.7, rng=np.random.default_rng(99))

    mirror = np.random.default_rng(99)
    pos = reference.positions[:, swarm_dims]
    vel = update_velocities(
        pos, reference.velocities[:, swarm_dims],
        reference.pbest_positions[:, swarm_dims], gbest[swarm_dims],
        0.7, params.pso.c1, params.pso.c2, spec.upper - spec.lower, mirror,
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
    rank_and_concentrate(dims, population, fitness, gbest, spec, high,
                         w=0.5, rng=np.random.default_rng(7))
    rank_and_concentrate(dims, twin, fitness, gbest, spec, none,
                         w=0.5, rng=np.random.default_rng(7))
    np.testing.assert_array_equal(population.positions, twin.positions)
    np.testing.assert_array_equal(population.velocities, twin.velocities)


def test_certain_mutation_resamples_non_elite_in_bounds():
    spec, population, fitness, gbest = _concentrate_args(seed=29, size=12)
    dims = np.array([0, 2])
    params = AioParams(swarm_count=2, elite_factor=1 / 12, mutation_rate=1.0)
    rank_and_concentrate(dims, population, fitness, gbest, spec, params,
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

def test_cycle_choice_follows_the_guard():
    improved = ContextState(np.zeros(2), 1.0, improved_last_iteration=True)
    stagnant = ContextState(np.zeros(2), 1.0, improved_last_iteration=False)
    assert choose_cycle(improved) == "quick"
    assert choose_cycle(stagnant) == "slow"


def test_single_swarm_step_equals_full_dimension_pso_step():
    spec = lookup("sphere", 6)
    pso_p = PsoParams(population_size=12, max_iterations=50, inertia_mode="slow")
    params = AioParams(swarm_count=1, elite_factor=1.0, mutation_rate=0.0, pso=pso_p)

    rng = np.random.default_rng(31)
    state = init_aio_state(spec, params, rng)
    force(state.swarm_automata[0], [1.0, 0.0])  # always population A

    mirror = np.random.default_rng(31)
    reference, best_a = init_population(spec, 12, mirror)
    _, best_b = init_population(spec, 12, mirror)
    gbest = best_a if best_a.fitness <= best_b.fitness else best_b
    mirror.random()  # the population-selection draw
    gbest = pso_step(reference, gbest, spec, pso_p, 0, mirror)

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
