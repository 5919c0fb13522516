"""Fuzzed XML experiment documents.

Documents are drawn from the ``TAGS`` table with valid, out-of-range and
extreme texts, and parsed with drawn overrides of the experiment fields,
as the CLI's flags pass them.  Each one must either raise ``ConfigError``
when parsed or run through ``run_experiment`` with no warning at all,
giving finite traces that never increase, one entry per iteration.  ``run_pso`` and
``run_aio``, given the parameters of a parsed document and a drawn
benchmark, must likewise raise ``ConfigError`` or run clean.  In library
code, a value of any type in one field or argument must either build or
raise ``ConfigError``.
"""
import math
import warnings
from collections import Counter
from xml.sax.saxutils import escape

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aiopt import (
    AioParams,
    AutomatonBank,
    ConfigError,
    ExperimentConfig,
    LearningAutomaton,
    PsoParams,
    lookup,
    parse_config,
    run_aio,
    run_experiment,
    run_pso,
)
from aiopt.benchmarks import FUNCTIONS
from aiopt.config import TAGS

# Texts at or beyond the edge of float64, or no number at all.
EXTREMES = ("1e308", "1.7976931348623157e308", "1e306", "-1e308", "1e-400", "1e-300",
            "1/0", "nan", "inf", "", "-0", "2/3", "many")

# Valid values of these tags set the cost of a run, so they stay small.
# At least four dimensions leave room for any valid <tdr-factor>.
SIZES = {"dimensions": (4, 12), "population-size": (2, 8), "iterations": (1, 6), "runs": (1, 2)}

# Valid range of each number tag; the bounds are exact binary fractions.
# Any <w-min> in its range is below any <w-max> and both defaults.
RANGES = {
    "c1": (1 / 64, 4.0), "c2": (1 / 64, 4.0),
    "w": (0.0, 1.5), "w-max": (0.5, 1.5), "w-min": (0.0, 0.375),
    "elite-factor": (1 / 64, 1.0), "mutation-rate": (0.0, 1.0),
    "la-reward": (0.0, 1.0), "la-penalty": (0.0, 1.0),
}


def numbers(low, high):
    """Texts of numbers in [low, high], as decimals and as fractions."""
    return st.one_of(
        st.floats(low, high).map(repr),
        st.fractions(low, high, max_denominator=64).map(str),
    )


def integers(low, high):
    return st.integers(low, high).map(str)


def texts(tag):
    """(valid texts, invalid or extreme texts) for ``tag``."""
    extreme = st.sampled_from(EXTREMES)
    if tag in SIZES:
        low, high = SIZES[tag]
        return integers(low, high), st.one_of(extreme, integers(-3, low - 1))
    if tag in RANGES:
        low, high = RANGES[tag]
        # Unbounded floats: hypothesis draws the largest and smallest often.
        return numbers(low, high), st.one_of(extreme, st.floats().map(repr))
    if tag == "benchmark":
        return st.sampled_from(sorted(FUNCTIONS)), st.sampled_from(["nope", "", "Sphere"])
    if tag == "seed":
        return integers(0, 2**70), st.one_of(extreme, integers(-(2**70), -1))
    if tag == "tdr-factor":
        return integers(1, 4), st.one_of(extreme, integers(-3, 0), integers(5, 2**70))
    return st.just("curve.csv"), st.sampled_from(EXTREMES)


# Optional overrides of experiment fields, valid or not.  Two or three
# dimensions leave no room for some valid <tdr-factor>.
OVERRIDES = st.fixed_dictionaries({}, optional={
    "algorithm": st.sampled_from(["pso", "aio"]),
    "benchmark": st.sampled_from([*sorted(FUNCTIONS), "nope"]),
    "dims": st.integers(1, 12),
    "runs": st.integers(0, 2),
    "base_seed": st.integers(-1, 2**70),
})


@st.composite
def documents(draw):
    root = draw(st.sampled_from(["pso", "aio"]))
    # None, one or two tags get an invalid or extreme text and the others
    # valid ones: a quarter of the documents draw only valid texts, and
    # half have one bad tag among valid ones.
    count = draw(st.sampled_from([0, 1, 1, 2]))
    bad = draw(st.sets(st.sampled_from(list(TAGS)), min_size=count, max_size=count))
    leaves = []
    for tag in TAGS:
        # The size tags are always set: their defaults make runs too long.
        if tag not in SIZES and tag not in bad and draw(st.booleans()):
            continue
        valid, invalid = texts(tag)
        text = draw(invalid if tag in bad else valid)
        leaves.append(f"<{tag}>{escape(text)}</{tag}>")
    leaves = draw(st.permutations(leaves))
    inner = draw(st.integers(0, len(leaves)))
    return (f'<{root}><super-component type="pso">{"".join(leaves[:inner])}'
            f'</super-component>{"".join(leaves[inner:])}</{root}>')


def test_fuzzed_documents_are_rejected_or_run_clean():
    outcomes = Counter()
    library = Counter()

    @settings(deadline=None, max_examples=200)
    @given(documents(), OVERRIDES, st.sampled_from(sorted(FUNCTIONS)))
    def check(document, overrides, benchmark):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                config = parse_config(document, **overrides)
            except ConfigError:
                outcomes["rejected"] += 1
                return
            # The config was checked when it was built, so it runs.
            traces = run_experiment(config)
            assert len(traces) == config.runs
            spec = lookup(benchmark, config.dims)
            for runner, params in ((run_pso, config.pso_params), (run_aio, config.aio_params)):
                try:
                    traces.append(runner(spec, params, config.base_seed))
                    library["ran"] += 1
                except ConfigError:
                    library["rejected"] += 1
        outcomes["ran"] += 1
        for trace in traces:
            assert len(trace.best_fitness) == config.pso_params.max_iterations
            assert np.all(np.isfinite(trace.best_fitness))
            assert np.all(np.diff(trace.best_fitness) <= 0.0)
            assert np.isfinite(trace.final_fitness)

    check()
    # Both outcomes must be a real share of the draws.
    total = sum(outcomes.values())
    assert outcomes["ran"] >= total / 8, outcomes
    assert outcomes["rejected"] >= total / 8, outcomes
    # Most library calls run; the box rule rejects a few on a wider box.
    assert library["ran"] >= sum(library.values()) / 2, library


# Each callable with valid keyword arguments, and the ones that size an array.
CALLABLES = [
    (PsoParams, dict(c1=1.5, c2=1.5, w_fixed=0.7, w_max=0.9, w_min=0.4, population_size=4,
                     max_iterations=3), ()),
    (AioParams, dict(swarm_count=2, elite_factor=0.5, mutation_rate=0.1, la_reward=0.1,
                     la_penalty=0.1, pso=PsoParams()), ()),
    (ExperimentConfig, dict(algorithm="aio", benchmark="sphere", dims=4, runs=1, base_seed=0,
                            aio_params=AioParams(swarm_count=2), output_path=None), ()),
    (AutomatonBank, dict(count=3, action_count=2, reward_rate=0.1, penalty_rate=0.1),
     ("count", "action_count")),
    (LearningAutomaton, dict(action_count=2, reward_rate=0.1, penalty_rate=0.1),
     ("action_count",)),
    (lookup, dict(name="sphere", dims=4), ("dims",)),
]


def any_value(sizes_array):
    """Values of every kind a caller might pass.  Ints that size an array stay
    small: a count too large to allocate raises MemoryError or ValueError,
    which the CLI reports as a user error, and a large one would allocate."""
    ints = st.integers(-3, 40)
    if not sizes_array:
        ints = st.one_of(ints, st.sampled_from([2**64, -(2**64), 10**400]))
    return st.one_of(
        st.none(), st.booleans(), st.text(max_size=3), st.complex_numbers(), st.decimals(),
        st.lists(st.integers(), max_size=2), st.sampled_from([math.nan, math.inf, -math.inf]),
        ints, st.floats(), st.fractions(), st.sampled_from(["pso", "aio", "sphere"]),
        st.floats().map(np.float64), st.floats(width=32).map(np.float32),
        st.integers(-3, 40).map(np.int64), st.booleans().map(np.bool_),
    )


def test_any_value_in_library_code_builds_or_raises_config_error():
    outcomes = Counter()

    @settings(deadline=None, max_examples=600)
    @given(st.data())
    def check(data):
        build, kwargs, sized = data.draw(st.sampled_from(CALLABLES))
        name = data.draw(st.sampled_from(sorted(kwargs)))
        value = data.draw(any_value(name in sized), label=name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                build(**{**kwargs, name: value})
                outcomes["built"] += 1
            except ConfigError:
                outcomes["rejected"] += 1

    check()
    # Both outcomes must be a real share of the draws; about one in eight builds.
    total = sum(outcomes.values())
    assert outcomes["built"] >= total / 20, outcomes
    assert outcomes["rejected"] >= total / 2, outcomes
