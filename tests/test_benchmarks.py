"""Benchmark function values, domains, and analytic properties."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aiopt import ConfigError, ackley, griewank, lookup, rastrigin, rosenbrock, sphere
from aiopt.benchmarks import DOMAINS, FUNCTIONS

NAMES = sorted(FUNCTIONS)


def in_domain_vectors(name, min_size=1, max_size=8):
    lower, upper = DOMAINS[name]
    return st.lists(
        st.floats(min_value=lower, max_value=upper, allow_nan=False),
        min_size=min_size,
        max_size=max_size,
    )


# ---------------------------------------------------------------- spot values

@pytest.mark.parametrize(
    "fn, x, expected",
    [
        (sphere, [0.0, 0.0, 0.0], 0.0),
        (sphere, [1.0, 2.0, 3.0], 14.0),
        (sphere, [-1.0], 1.0),
        (rosenbrock, [1.0, 1.0, 1.0, 1.0], 0.0),
        (rosenbrock, [0.0, 0.0], 1.0),
        (rosenbrock, [2.0, 4.0], 1.0),
        (ackley, [0.0, 0.0, 0.0], 0.0),
        # 20 - 20*exp(-0.2), the exp(1) terms cancel at cos(2*pi) = 1
        (ackley, [1.0], 3.6253849384403627),
        (griewank, [0.0, 0.0], 0.0),
        # 4/4000 - cos(2) + 1
        (griewank, [2.0], 1.4171468365471424),
        (rastrigin, [0.0, 0.0], 0.0),
        (rastrigin, [0.5], 20.25),
        (rastrigin, [1.0], 1.0),
    ],
)
def test_spot_values(fn, x, expected):
    assert fn(np.array(x)) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("dims", [2, 7, 30])
def test_optimum_evaluates_to_zero(name, dims):
    spec = lookup(name, dims)
    assert abs(spec.evaluate(spec.optimum_position) - spec.optimum_value) <= 1e-12


def test_ackley_origin_value_is_dimension_invariant():
    assert ackley(np.zeros(1)) == ackley(np.zeros(2)) == ackley(np.zeros(30))


# ---------------------------------------------------------------- batch shape

@pytest.mark.parametrize("name", NAMES)
def test_batch_rows_match_single_calls(name):
    rng = np.random.default_rng(7)
    lower, upper = DOMAINS[name]
    batch = rng.uniform(lower, upper, size=(40, 6))
    values = FUNCTIONS[name](batch)
    assert values.shape == (40,)
    singles = np.array([FUNCTIONS[name](row) for row in batch])
    np.testing.assert_allclose(values, singles, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------- error cases

@pytest.mark.parametrize("fn", [sphere, rosenbrock, ackley, griewank, rastrigin])
def test_empty_input_rejected(fn):
    with pytest.raises(ValueError):
        fn(np.array([]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(bad):
    for fn in (sphere, ackley, griewank, rastrigin):
        with pytest.raises(ValueError):
            fn(np.array([1.0, bad]))
    with pytest.raises(ValueError):
        rosenbrock(np.array([1.0, bad]))


def test_rosenbrock_needs_two_dimensions():
    with pytest.raises(ValueError):
        rosenbrock(np.array([1.0]))


def test_three_dimensional_arrays_rejected():
    with pytest.raises(ValueError):
        sphere(np.zeros((2, 2, 2)))


# --------------------------------------------------------------------- lookup

def test_lookup_sphere_domain_and_optimum():
    spec = lookup("sphere", 30)
    assert (spec.lower, spec.upper) == (-100.0, 100.0)
    assert spec.optimum_value == 0.0
    np.testing.assert_array_equal(spec.optimum_position, np.zeros(30))


def test_lookup_rastrigin_domain():
    spec = lookup("rastrigin", 30)
    assert (spec.lower, spec.upper) == (-5.12, 5.12)


def test_lookup_rosenbrock_optimum_at_ones():
    spec = lookup("rosenbrock", 5)
    np.testing.assert_array_equal(spec.optimum_position, np.ones(5))


def test_lookup_unknown_name_lists_valid_ones():
    with pytest.raises(ConfigError) as err:
        lookup("nosuch", 10)
    for name in NAMES:
        assert name in str(err.value)


@pytest.mark.parametrize("name", ["rosenbrock", "sphere"])
def test_lookup_rejects_single_dimension(name):
    with pytest.raises(ConfigError):
        lookup(name, 1)


# Counts that numpy rejects before it tries to allocate anything.
@pytest.mark.parametrize("dims", [2**63 - 1, 2**64, 10**5000], ids=["2^63-1", "2^64", "10^5000"])
@pytest.mark.parametrize("name", ["rosenbrock", "sphere"])
def test_lookup_names_dimensions_when_numpy_cannot_allocate(name, dims):
    with pytest.raises(ConfigError, match="^<dimensions> is too large to allocate"):
        lookup(name, dims)


# ----------------------------------------------------------------- invariants

@pytest.mark.parametrize("name", NAMES)
def test_non_negative_and_optimum_is_least_over_random_samples(name):
    spec = lookup(name, 30)
    rng = np.random.default_rng(11)
    samples = rng.uniform(spec.lower, spec.upper, size=(10_000, 30))
    values = spec.evaluate(samples)
    assert np.all(values >= -1e-12)
    assert spec.evaluate(spec.optimum_position) <= values.min()


@pytest.mark.parametrize("fn", [sphere, rastrigin])
@settings(deadline=None)
@given(
    x=st.lists(st.floats(-5.12, 5.12), min_size=1, max_size=8),
    y=st.lists(st.floats(-5.12, 5.12), min_size=1, max_size=8),
)
def test_separable_functions_add_over_concatenation(fn, x, y):
    x, y = np.array(x), np.array(y)
    whole = fn(np.concatenate([x, y]))
    assert whole == pytest.approx(fn(x) + fn(y), abs=1e-9)


@pytest.mark.parametrize("fn", [sphere, ackley, rastrigin])
@settings(deadline=None)
@given(data=st.data(), x=st.lists(st.floats(-5.12, 5.12), min_size=2, max_size=8))
def test_permutation_invariance(fn, data, x):
    shuffled = data.draw(st.permutations(x))
    assert fn(np.array(x)) == pytest.approx(fn(np.array(shuffled)), abs=1e-12)


def test_griewank_is_not_separable_sanity():
    # the cosine product couples coordinates through its 1-based scaling
    x = np.array([3.0])
    y = np.array([4.0])
    both = griewank(np.array([3.0, 4.0]))
    assert abs(both - (griewank(x) + griewank(y))) > 1e-3


@pytest.mark.parametrize("name", NAMES)
def test_domain_bounds_ordered(name):
    lower, upper = DOMAINS[name]
    assert lower < upper


def test_function_registry_is_complete():
    assert set(FUNCTIONS) == {"sphere", "rosenbrock", "ackley", "griewank", "rastrigin"}
    assert set(DOMAINS) == set(FUNCTIONS)


def test_all_pairs_evaluate_cleanly():
    for name, dims in itertools.product(NAMES, (2, 3, 10)):
        spec = lookup(name, dims)
        value = spec.evaluate(np.full(dims, 0.25))
        assert np.isfinite(value)
