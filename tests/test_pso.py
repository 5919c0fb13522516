"""Baseline swarm optimizer: schedules, update rules, and full runs."""
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def constant_factors(value, shape):
    """``r1`` and ``r2`` for ``update_velocities``, every entry ``value``."""
    return {"r1": np.full(shape, value), "r2": np.full(shape, value)}


def drawn(population, rng):
    """``pso_step``'s ``(draws, work)``: the factor block drawn from ``rng`` and the
    work row, in one buffer, as ``run_pso`` lays them out."""
    home = np.empty((3,) + population.positions.shape)
    return rng.random(out=home[:2]), home[2]


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
        {"w_min": 0.4, "w_max": 0.4},
        {"w_min": 0.9, "w_max": 0.4},
        {"population_size": 1},
        {"max_iterations": -1},
        {"w_fixed": -0.1},
        {"w_min": -0.5, "w_max": -0.1},
        {"c2": Fraction(1, 10**400)},  # > 0, but 0.0 as a float
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ConfigError):
        PsoParams(**kwargs)


# ----------------------------------------------------------------- schedules

def test_fixed_inertia_ignores_iteration():
    # Every particle sits on its personal best and on the global best, so
    # both attraction terms are zero and the step only scales velocities.
    spec = lookup("sphere", 3)
    params = PsoParams(w_fixed=0.6, w_max=0.9, w_min=0.4, population_size=4,
                       max_iterations=100)
    velocities = np.random.default_rng(3).uniform(-1.0, 1.0, size=(4, 3))
    positions = np.tile([1.0, 2.0, 3.0], (4, 1))
    population = Population(
        positions=positions.copy(),
        velocities=velocities.copy(),
        pbest_positions=positions.copy(),
        pbest_fitness=spec.evaluate(positions),
    )
    gbest = SwarmBest(position=positions[0].copy(), fitness=14.0)
    pso_step(population, gbest, spec, params, *drawn(population, np.random.default_rng(0)))
    np.testing.assert_array_equal(population.velocities, 0.6 * velocities)


def test_inertia_weight_has_only_the_adaptive_cycles():
    with pytest.raises(ValueError, match="unknown inertia mode"):
        inertia_weight("fixed", 0, PsoParams())


@pytest.mark.parametrize("mode", ["slow", "quick"])
def test_inertia_weight_of_a_zero_budget_names_the_tag(mode):
    with pytest.raises(ConfigError, match="^<iterations> must be >= 1 for an inertia schedule, got 0$"):
        inertia_weight(mode, 0, PsoParams(max_iterations=0))


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
        **constant_factors(0.5, (1, 1)),
        diff=np.empty((1, 1)),
    )
    assert v[0, 0] == pytest.approx(3.5, abs=1e-12)


def test_velocity_zero_at_consensus_point():
    x = np.array([[1.5, -2.0]])
    v = update_velocities(x, np.zeros_like(x), x.copy(), x[0].copy(),
                          w=0.9, c1=2.0, c2=2.0, v_max=10.0,
                          **constant_factors(0.7, x.shape), diff=np.empty(x.shape))
    np.testing.assert_array_equal(v, np.zeros_like(x))


def test_velocity_clamped_to_v_max():
    x = np.zeros((3, 4))
    pbest = np.full((3, 4), 500.0)
    v = update_velocities(x, np.zeros_like(x), pbest, pbest[0], w=0.5,
                          c1=2.0, c2=2.0, v_max=1.0, **constant_factors(0.9, x.shape),
                          diff=np.empty(x.shape))
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
    before = x.copy()
    np.testing.assert_array_equal(update_positions(x, np.zeros_like(x), -5.0, 5.0), before)


def test_velocity_decays_geometrically_without_attraction():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(10, 3))
    v = rng.uniform(-1, 1, size=(10, 3))
    w = 0.5
    peak = np.abs(v).max()
    for _ in range(20):
        v = update_velocities(x, v, x.copy(), x[0].copy(), w, 0.0, 0.0, 10.0,
                              *rng.random((2,) + x.shape), np.empty(x.shape))
        peak_next = np.abs(v).max()
        assert peak_next == pytest.approx(w * peak, rel=1e-12)
        peak = peak_next
    assert peak < 1e-6


def reference_velocities(x, v, pbest, gbest, w, c1, c2, v_max, rng):
    """The velocity update as one array expression, both factors drawn first."""
    r1 = rng.random(x.shape)
    r2 = rng.random(x.shape)
    new_v = w * v + c1 * r1 * (pbest - x) + c2 * r2 * (gbest - x)
    np.clip(new_v, -v_max, v_max, out=new_v)
    return new_v


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    w=st.floats(0.0, 1.2),
    c1=st.floats(0.01, 4.0),
    c2=st.floats(0.01, 4.0),
    v_max=st.floats(0.01, 50.0),
    broadcast_gbest=st.booleans(),
    own_buffers=st.booleans(),
)
def test_in_place_velocities_bit_equal_the_expression(
    seed, shape, w, c1, c2, v_max, broadcast_gbest, own_buffers
):
    data = np.random.default_rng(seed)
    x = data.uniform(-10, 10, shape)
    v = data.uniform(-20, 20, shape)
    pbest = data.uniform(-10, 10, shape)
    gbest = data.uniform(-10, 10, shape[-1:] if broadcast_gbest else shape)
    mirror = np.random.default_rng(seed + 1)
    expected = reference_velocities(x, v.copy(), pbest, gbest, w, c1, c2, v_max, mirror)

    rng = np.random.default_rng(seed + 1)
    diff = np.empty(shape) if own_buffers else pbest  # the adaptive move passes pbest
    r1, r2 = rng.random((2,) + shape)
    result = update_velocities(x, v, pbest, gbest, w, c1, c2, v_max, r1, r2, diff)
    assert result is v
    assert v.tobytes() == expected.tobytes()
    # both factors came from the stream in the same order
    assert rng.random() == mirror.random()


def test_position_update_is_in_place():
    x = np.array([[99.0, 0.0], [-1.0, 2.0]])
    v = np.array([[5.0, 1.0], [0.5, -0.5]])
    expected = np.clip(x + v, -100.0, 100.0)
    result = update_positions(x, v, -100.0, 100.0)
    assert result is x
    np.testing.assert_array_equal(x, expected)


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


def test_init_population_error_names_the_tag():
    with pytest.raises(ConfigError, match="<population-size> must be >= 2, got 1"):
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
                     *drawn(population, np.random.default_rng(0)))
    assert population.pbest_fitness[0] == 0.0
    assert gbest.fitness == 0.0


def test_step_never_worsens_gbest():
    spec = lookup("rastrigin", 5)
    params = PsoParams(population_size=20, max_iterations=100)
    rng = np.random.default_rng(9)
    population, gbest = init_population(spec, 20, rng)
    for _ in range(100):
        previous = gbest.fitness
        gbest = pso_step(population, gbest, spec, params, *drawn(population, rng))
        assert gbest.fitness <= previous


def test_step_keeps_positions_in_box():
    spec = lookup("griewank", 3)
    params = PsoParams(population_size=15, max_iterations=50)
    rng = np.random.default_rng(123)
    population, gbest = init_population(spec, 15, rng)
    for _ in range(50):
        gbest = pso_step(population, gbest, spec, params, *drawn(population, rng))
        assert np.all(population.positions >= spec.lower)
        assert np.all(population.positions <= spec.upper)
        assert np.all(np.abs(population.velocities) <= spec.upper - spec.lower)


def test_step_deterministic_from_identical_state():
    spec = lookup("ackley", 3)
    params = PsoParams(population_size=10, max_iterations=10)

    def one_step():
        rng = np.random.default_rng(77)
        population, gbest = init_population(spec, 10, rng)
        gbest = pso_step(population, gbest, spec, params, *drawn(population, rng))
        return population.positions, gbest.fitness

    first_positions, first_fitness = one_step()
    second_positions, second_fitness = one_step()
    np.testing.assert_array_equal(first_positions, second_positions)
    assert first_fitness == second_fitness


def test_step_moves_the_population_in_place():
    spec = lookup("rastrigin", 6)
    params = PsoParams(population_size=8, max_iterations=5)
    rng = np.random.default_rng(4)
    population, gbest = init_population(spec, 8, rng)
    positions, velocities = population.positions, population.velocities
    for _ in range(5):
        before = positions.copy()
        gbest = pso_step(population, gbest, spec, params, *drawn(population, rng))
        assert population.positions is positions
        assert population.velocities is velocities
        assert not np.array_equal(positions, before)
    draws, work = drawn(population, rng)
    factors, scratch = draws.copy(), work.copy()
    pso_step(population, gbest, spec, params, draws, work)
    # the move overwrites the caller's factors and work row, and allocates neither
    assert not np.array_equal(draws, factors) and not np.array_equal(work, scratch)


def test_step_work_row_is_pure_scratch():
    """A NaN-filled work row gives the step the same bits: it is written before it is read."""
    spec = lookup("rastrigin", 6)
    params = PsoParams(population_size=8, max_iterations=5)
    outcomes = []
    for fill in (0.0, np.nan):
        rng = np.random.default_rng(4)
        population, gbest = init_population(spec, 8, rng)
        for _ in range(5):
            draws, work = drawn(population, rng)
            work.fill(fill)
            gbest = pso_step(population, gbest, spec, params, draws, work)
        outcomes.append([population.positions, population.velocities, population.pbest_positions,
                         population.pbest_fitness, gbest.position, np.float64(gbest.fitness)])
    for zeroed, nan_filled in zip(*outcomes):
        assert zeroed.tobytes() == nan_filled.tobytes()


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


@pytest.mark.parametrize("name", ["sphere", "rastrigin"])
def test_run_reads_only_the_fixed_inertia(name):
    spec = lookup(name, 10)

    def trace(**inertia):
        params = PsoParams(population_size=20, max_iterations=30, **inertia)
        return run_pso(spec, params, seed=5).best_fitness.tobytes()

    assert trace(w_max=0.9, w_min=0.4) == trace(w_max=0.8, w_min=0.3)
    assert trace(w_fixed=0.74) != trace(w_fixed=0.5)


def test_easy_unimodal_target_reached():
    spec = lookup("sphere", 2)
    params = PsoParams(population_size=20, max_iterations=500)
    finals = [run_pso(spec, params, seed).final_fitness for seed in range(1, 6)]
    assert np.median(finals) < 1e-6


# ----------------------------------------------------------- draws in place

@pytest.mark.parametrize("size,dims,wide", [
    (32, 1024, True),    # 65,536 draws a step
    (50, 1000, True),    # pso-sphere-d1000
    (32, 1023, False),   # 65,472 draws a step
])
def test_run_matches_steps_drawn_in_place(size, dims, wide):
    # The sizes straddle 2^16 draws a step, from which run_pso once drew a
    # step ahead on a second thread; each size now draws in place.
    assert (2 * size * dims >= 1 << 16) == wide
    spec = lookup("sphere", dims)
    params = PsoParams(population_size=size, max_iterations=20)
    trace = run_pso(spec, params, seed=8)
    rng = np.random.default_rng(8)
    population, gbest = init_population(spec, size, rng)
    expected = []
    for _ in range(20):
        gbest = pso_step(population, gbest, spec, params, *drawn(population, rng))
        expected.append(gbest.fitness)
    assert trace.best_fitness.tobytes() == np.array(expected).tobytes()


def test_d1000_run_starts_no_thread(monkeypatch):
    step, counts = pso_step, []

    def counted_step(*args):
        counts.append(threading.active_count())
        return step(*args)

    monkeypatch.setattr("aiopt.pso.pso_step", counted_step)
    before = threading.active_count()
    run_pso(lookup("sphere", 1000), PsoParams(population_size=50, max_iterations=5), seed=1)
    assert counts == [before] * 5


def test_run_raises_a_step_failure(monkeypatch):
    step, calls = pso_step, []

    def failing_step(*args):
        calls.append(None)
        if len(calls) == 3:
            raise RuntimeError("third step failed")
        return step(*args)

    monkeypatch.setattr("aiopt.pso.pso_step", failing_step)
    params = PsoParams(population_size=50, max_iterations=20)
    with pytest.raises(RuntimeError, match="^third step failed$"):
        run_pso(lookup("sphere", 1000), params, seed=1)
    assert len(calls) == 3


def test_run_raises_a_draw_failure_on_the_caller(monkeypatch):
    threads = []

    class FailingDraws(np.random.Generator):
        def random(self, *args, **kwargs):
            threads.append(threading.current_thread())
            raise RuntimeError("draw failed")

    monkeypatch.setattr(np.random, "default_rng", lambda seed: FailingDraws(np.random.PCG64(seed)))
    params = PsoParams(population_size=50, max_iterations=20)
    with pytest.raises(RuntimeError, match="^draw failed$"):
        run_pso(lookup("sphere", 1000), params, seed=1)
    assert threads == [threading.current_thread()]


@pytest.mark.parametrize("steps", [0, 1, 2, 3, 20])
def test_run_draws_once_per_step_on_the_caller(monkeypatch, steps):
    threads = []

    class CountedDraws(np.random.Generator):
        def random(self, *args, **kwargs):
            threads.append(threading.current_thread())
            return super().random(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: CountedDraws(np.random.PCG64(seed)))
    params = PsoParams(population_size=50, max_iterations=steps)
    trace = run_pso(lookup("sphere", 1000), params, seed=1)
    assert trace.best_fitness.size == steps
    assert threads == [threading.current_thread()] * steps
