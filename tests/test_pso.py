"""Baseline swarm optimizer: schedules, update rules, and full runs."""
import numpy as np
import pytest

from aiopt import ConfigError, PsoParams, lookup, run_pso
from aiopt.pso import (
    Population,
    SwarmBest,
    init_population,
    inertia_weight,
    pso_step,
    update_positions,
    update_velocities,
)


class ConstantRng:
    """Stand-in random stream returning a fixed value for every draw."""

    def __init__(self, value):
        self.value = value

    def random(self, shape=None):
        return self.value if shape is None else np.full(shape, self.value)


class PresetRng:
    """Stand-in random stream with a fixed uniform() result."""

    def __init__(self, points):
        self.points = np.asarray(points, dtype=np.float64)

    def uniform(self, low, high, size=None):
        assert size == self.points.shape
        return self.points.copy()


# ------------------------------------------------------------------- params

def test_default_params_match_reference_setup():
    p = PsoParams()
    assert (p.c1, p.c2) == (1.49445, 1.49445)
    assert p.w_fixed == 0.74
    assert (p.w_max, p.w_min) == (0.9, 0.4)
    assert p.population_size == 50
    assert p.max_iterations == 10_000


@pytest.mark.parametrize(
    "kwargs",
    [
        {"c1": 0.0},
        {"c2": -1.0},
        {"inertia_mode": "linear"},
        {"w_min": 0.9, "w_max": 0.4},
        {"population_size": 1},
        {"max_iterations": -1},
        {"w_fixed": -0.1},
        {"w_min": -0.5, "w_max": -0.1},
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ConfigError):
        PsoParams(**kwargs)


# ----------------------------------------------------------------- schedules

def test_fixed_inertia_ignores_iteration():
    p = PsoParams(w_fixed=0.74, max_iterations=100)
    assert inertia_weight("fixed", 0, p) == 0.74
    assert inertia_weight("fixed", 100, p) == 0.74


def test_quick_schedule_endpoints():
    p = PsoParams(w_max=0.9, w_min=0.4, max_iterations=10_000)
    assert inertia_weight("quick", 0, p) == pytest.approx(0.9, abs=1e-12)
    assert inertia_weight("quick", 10_000, p) == pytest.approx(0.4, abs=1e-12)


def test_slow_schedule_endpoints():
    p = PsoParams(w_max=0.9, w_min=0.4, max_iterations=10_000)
    assert inertia_weight("slow", 0, p) == pytest.approx(0.9, abs=1e-12)
    assert inertia_weight("slow", 10_000, p) == pytest.approx(0.525, abs=1e-12)


def test_slow_decays_at_three_quarters_of_quick_rate():
    p = PsoParams(w_max=0.9, w_min=0.4, max_iterations=1000)
    for i in (100, 500, 900):
        quick_drop = p.w_max - inertia_weight("quick", i, p)
        slow_drop = p.w_max - inertia_weight("slow", i, p)
        assert slow_drop == pytest.approx(0.75 * quick_drop, rel=1e-12)


# ------------------------------------------------------------------- updates

def test_velocity_update_forced_draws():
    # w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x) = 0.5 + 0.5*2 + 0.5*4
    v = update_velocities(
        positions=np.array([[0.0]]),
        velocities=np.array([[1.0]]),
        pbest_positions=np.array([[2.0]]),
        gbest_position=np.array([4.0]),
        w=0.5,
        c1=1.0,
        c2=1.0,
        v_max=100.0,
        rng=ConstantRng(0.5),
    )
    assert v[0, 0] == pytest.approx(3.5, abs=1e-12)


def test_velocity_zero_at_consensus_point():
    x = np.array([[1.5, -2.0]])
    v = update_velocities(x, np.zeros_like(x), x.copy(), x[0].copy(),
                          w=0.9, c1=2.0, c2=2.0, v_max=10.0, rng=ConstantRng(0.7))
    np.testing.assert_array_equal(v, np.zeros_like(x))


def test_velocity_clamped_to_v_max():
    x = np.zeros((3, 4))
    pbest = np.full((3, 4), 500.0)
    v = update_velocities(x, np.zeros_like(x), pbest, pbest[0], w=0.5,
                          c1=2.0, c2=2.0, v_max=1.0, rng=ConstantRng(0.9))
    assert np.all(np.abs(v) <= 1.0)


def test_position_update_moves_by_new_velocity():
    pos = update_positions(np.array([[0.0]]), np.array([[3.5]]), -100.0, 100.0)
    assert pos[0, 0] == 3.5


def test_position_clamped_at_bound_and_velocity_zeroed():
    velocities = np.array([[5.0, 1.0]])
    pos = update_positions(np.array([[99.0, 0.0]]), velocities, -100.0, 100.0)
    np.testing.assert_array_equal(pos, [[100.0, 1.0]])
    np.testing.assert_array_equal(velocities, [[0.0, 1.0]])


def test_zero_velocity_is_identity():
    x = np.array([[1.0, 2.0]])
    np.testing.assert_array_equal(update_positions(x, np.zeros_like(x), -5.0, 5.0), x)


def test_velocity_decays_geometrically_without_attraction():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(10, 3))
    v = rng.uniform(-1, 1, size=(10, 3))
    w = 0.5
    peak = np.abs(v).max()
    for _ in range(20):
        v = update_velocities(x, v, x.copy(), x[0].copy(), w, 0.0, 0.0, 10.0, rng)
        peak_next = np.abs(v).max()
        assert peak_next == pytest.approx(w * peak, rel=1e-12)
        peak = peak_next
    assert peak < 1e-6


# ------------------------------------------------------------ initialization

def test_init_population_containment_and_memory():
    spec = lookup("sphere", 2)
    population, gbest = init_population(spec, 30, np.random.default_rng(1))
    assert np.all(population.positions >= spec.lower)
    assert np.all(population.positions <= spec.upper)
    np.testing.assert_array_equal(population.velocities, 0.0)
    np.testing.assert_array_equal(population.pbest_positions, population.positions)
    assert gbest.fitness == population.pbest_fitness.min()


def test_init_population_deterministic():
    spec = lookup("ackley", 4)
    pop1, best1 = init_population(spec, 10, np.random.default_rng(42))
    pop2, best2 = init_population(spec, 10, np.random.default_rng(42))
    np.testing.assert_array_equal(pop1.positions, pop2.positions)
    assert best1.fitness == best2.fitness


def test_init_population_picks_best_particle():
    spec = lookup("sphere", 2)
    rng = PresetRng(np.array([[0.0, 0.0], [3.0, 4.0]]))
    population, gbest = init_population(spec, 2, rng)
    assert gbest.fitness == 0.0
    np.testing.assert_array_equal(gbest.position, [0.0, 0.0])


def test_init_population_rejects_tiny_swarm():
    with pytest.raises(ConfigError):
        init_population(lookup("sphere", 2), 1, np.random.default_rng(0))


# ----------------------------------------------------------------- stepping

def test_step_finds_optimum_when_a_particle_sits_on_it():
    spec = lookup("sphere", 2)
    positions = np.array([[0.0, 0.0], [50.0, -20.0]])
    population = Population(
        positions=positions.copy(),
        velocities=np.zeros_like(positions),
        pbest_positions=positions.copy(),
        pbest_fitness=np.array([np.inf, np.inf]),
    )
    gbest = SwarmBest(position=positions[1].copy(), fitness=np.inf)
    gbest = pso_step(population, gbest, spec, PsoParams(population_size=2),
                     0, np.random.default_rng(0))
    assert population.pbest_fitness[0] == 0.0
    assert gbest.fitness == 0.0


def test_step_never_worsens_gbest():
    spec = lookup("rastrigin", 5)
    params = PsoParams(population_size=20, max_iterations=100)
    rng = np.random.default_rng(9)
    population, gbest = init_population(spec, 20, rng)
    for i in range(100):
        previous = gbest.fitness
        gbest = pso_step(population, gbest, spec, params, i, rng)
        assert gbest.fitness <= previous


def test_step_keeps_positions_in_box():
    spec = lookup("griewank", 3)
    params = PsoParams(population_size=15, max_iterations=50)
    rng = np.random.default_rng(123)
    population, gbest = init_population(spec, 15, rng)
    for i in range(50):
        gbest = pso_step(population, gbest, spec, params, i, rng)
        assert np.all(population.positions >= spec.lower)
        assert np.all(population.positions <= spec.upper)
        assert np.all(np.abs(population.velocities) <= spec.upper - spec.lower)


def test_step_deterministic_from_identical_state():
    spec = lookup("ackley", 3)
    params = PsoParams(population_size=10, max_iterations=10)

    def one_step():
        rng = np.random.default_rng(77)
        population, gbest = init_population(spec, 10, rng)
        gbest = pso_step(population, gbest, spec, params, 0, rng)
        return population.positions, gbest.fitness

    first_positions, first_fitness = one_step()
    second_positions, second_fitness = one_step()
    np.testing.assert_array_equal(first_positions, second_positions)
    assert first_fitness == second_fitness


# -------------------------------------------------------------------- runs

def test_run_trace_contract():
    spec = lookup("sphere", 30)
    params = PsoParams(population_size=50, max_iterations=200)
    trace = run_pso(spec, params, seed=1)
    assert len(trace.best_fitness) == 200
    assert trace.final_fitness == trace.best_fitness[-1]
    assert np.all(np.diff(trace.best_fitness) <= 0.0)
    assert trace.seed == 1


def test_run_with_zero_iterations_reports_initial_best():
    spec = lookup("sphere", 2)
    params = PsoParams(population_size=10, max_iterations=0)
    trace = run_pso(spec, params, seed=3)
    _, gbest = init_population(spec, 10, np.random.default_rng(3))
    assert trace.best_fitness.size == 0
    assert trace.final_fitness == gbest.fitness


def test_run_replay_is_bit_exact():
    spec = lookup("rosenbrock", 5)
    params = PsoParams(population_size=15, max_iterations=150)
    first = run_pso(spec, params, seed=21)
    second = run_pso(spec, params, seed=21)
    np.testing.assert_array_equal(first.best_fitness, second.best_fitness)


def test_easy_unimodal_target_reached():
    spec = lookup("sphere", 2)
    params = PsoParams(population_size=20, max_iterations=500)
    finals = [run_pso(spec, params, seed).final_fitness for seed in range(1, 6)]
    assert np.median(finals) < 1e-6
