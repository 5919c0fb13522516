"""The benchmark's view of the package.

``bench/`` wraps package functions by module attribute and reads
``ExperimentConfig`` fields.  A rename in the package that breaks it,
or a refactor that routes work around a wrapped function, would
otherwise show only when ``bench/run.py --trace 1`` runs.  These tests
import ``bench/`` without writing anything there.
"""
import importlib
import sys
from pathlib import Path

import pytest

from aiopt import AioParams, PsoParams, lookup, run_aio

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    saved = sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("tracing"), importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(BENCH))


def test_every_span_site_resolves(bench):
    tracing, _ = bench
    unresolved = []
    for module, attribute, span, _ in tracing.SPAN_SITES:
        try:
            owner, name = tracing._resolve(module, attribute)
        except (ImportError, AttributeError) as exc:
            unresolved.append(f"{module}.{attribute} ({span}): {exc}")
            continue
        # The tracer swaps the entry of the owner's own namespace.
        if name not in vars(owner):
            unresolved.append(f"{module}.{attribute} ({span}): not in the owner's __dict__")
    assert unresolved == []


@pytest.mark.parametrize("name, params_type", [("aio-rastrigin-d1000", AioParams),
                                               ("pso-sphere-d1000", PsoParams)])
def test_step_workload_params_build(bench, name, params_type):
    _, workloads = bench
    workload = workloads.WORKLOADS[name]
    params = workload.params
    assert isinstance(params, params_type)
    pso_params = params.pso if isinstance(params, AioParams) else params
    assert pso_params.max_iterations == workload.iterations


def test_every_workload_sets_up(bench, tmp_path):
    _, workloads = bench
    for workload in workloads.WORKLOADS.values():
        assert workload.setup(1, tmp_path) >= 0.0


def traced_counters(tracing, name, dims, swarm_count, size, iterations, seed):
    """The tracer's counters over one ``run_aio``."""
    params = AioParams(swarm_count=swarm_count,
                       pso=PsoParams(population_size=size, max_iterations=iterations))
    tracer = tracing.Tracer()
    with tracer.installed():
        run_aio(lookup(name, dims), params, seed)
    return tracer.counters


def test_rosenbrock_context_rows_pass_through_evaluate(bench):
    """Rosenbrock scores full context rows through ``BenchmarkSpec.evaluate``,
    at least one swarm of n rows per step, after the 2n rows of the set-up."""
    tracing, _ = bench
    counters = traced_counters(tracing, "rosenbrock", 8, 3, 6, 10, seed=1)
    assert counters["benchmarks.evaluate.rows"] >= 2 * 6 + 10 * 6
    assert counters["aio.context_eval.improved"] >= 1
    assert counters["aio.membership.empty_swarms"] >= 0


def test_term_objective_evaluates_only_the_set_up_rows(bench):
    """Rastrigin scores context rows from terms; ``evaluate`` sees only the
    two initial populations.  Six dimensions over five swarms leave some
    swarm empty in some step, and the counter reports it."""
    tracing, _ = bench
    counters = traced_counters(tracing, "rastrigin", 6, 5, 6, 12, seed=3)
    assert counters["benchmarks.evaluate.rows"] == 2 * 6
    assert counters["aio.context_eval.improved"] >= 1
    assert counters["aio.membership.empty_swarms"] >= 1
