"""The benchmark's workloads and the correctness checks run on every run.

Two kinds of workload, both running the package's own code:

* step workloads call ``aio.run_aio``/``pso.run_pso``, one seeded run per
  pass;
* the CLI workload calls ``aiopt.cli.main`` on ``configs/aio.xml``, one
  block of consecutive seeds per pass.

A *pass* is the unit that ``run.py`` runs in a fresh interpreter.  In
both kinds a probe swapped onto ``aio_step``/``pso_step``
(``step_probe``) times every step, so each iteration's wall time is a
sample; in step workloads it also checks the optimizer state after every
step.

Every package function is called through its module attribute, so the
wrappers installed by ``tracing.Tracer`` are the ones that run.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import xml.etree.ElementTree as ET
from array import array
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from time import perf_counter

import numpy as np

import aiopt.aio as aio
import aiopt.benchmarks as benchmarks
import aiopt.cli as cli
import aiopt.config as config
import aiopt.pso as pso

from tracing import swapped

# Captured before any wrapper is installed, so checks never add spans.
EVALUATE = benchmarks.BenchmarkSpec.evaluate

# Fixed seeds whose best_fitness digests are committed in golden.json.
GOLDEN_SEEDS = (1, 2)
ROOT = Path(__file__).resolve().parent.parent
GOLDEN_FILE = Path(__file__).resolve().parent / "golden.json"
SIMPLEX_TOL = 1e-9


def run_seed(seed: int, index: int) -> int:
    """Optimizer seed of the ``index``-th run made for benchmark seed ``seed``."""
    return seed * 1000 + index


def digest(best_fitness: np.ndarray) -> str:
    """SHA-256 of a trace's float64 bytes."""
    return hashlib.sha256(np.ascontiguousarray(best_fitness, dtype=np.float64).tobytes()).hexdigest()


@dataclass
class Run:
    """One seeded optimizer run and the checks it failed (empty when correct)."""

    seed: int
    best_fitness: np.ndarray
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        if message not in self.failures:
            self.failures.append(message)


def trace_failures(best_fitness: np.ndarray, iterations: int) -> list[str]:
    """A trace must have one finite entry per iteration and never increase."""
    out = []
    if len(best_fitness) != iterations:
        out.append(f"trace length {len(best_fitness)} != {iterations} iterations")
    if not np.all(np.isfinite(best_fitness)):
        out.append("trace has non-finite entries")
    if np.any(np.diff(best_fitness) > 0):
        out.append("trace increases")
    return out


def state_failures(spec, fitness, position, populations, automata_layers) -> list[str]:
    """Invariants after a step: exact stored best, box, automaton simplices."""
    out = []
    if fitness != EVALUATE(spec, position):
        out.append("stored global-best fitness != evaluate(gbest_position)")
    for population in populations:
        if population.positions.min() < spec.lower or population.positions.max() > spec.upper:
            out.append("position outside the box")
    for layer in automata_layers:
        if layer:
            p = np.array([a.probabilities for a in layer])
            if p.min() < 0.0 or p.max() > 1.0 or np.abs(p.sum(axis=1) - 1.0).max() > SIMPLEX_TOL:
                out.append("automaton probabilities off the simplex")
    return out


def step_probe(step_times: array, check=None):
    """Wrapper factory for ``swapped``: times each step call into ``step_times``.

    ``check(args, result)``, if given, runs after the timed call.
    """

    def make(step):
        def probe(*args, **kwargs):
            start = perf_counter()
            result = step(*args, **kwargs)
            step_times.append(perf_counter() - start)
            if check is not None:
                check(args, result)
            return result

        return probe

    return make


@dataclass(frozen=True)
class StepWorkload:
    """Seeded ``run_aio``/``run_pso`` calls with every step timed and checked."""

    name: str
    algorithm: str
    # The optimizer settings come from this config file; the benchmark,
    # dimension count and iteration count are the workload's own.
    config: str
    benchmark: str
    dims: int
    iterations: int
    # Passes (one run each) always made; final_fitness is the median over them.
    min_passes: int

    @cached_property
    def params(self):
        cfg = config.load_config(str(ROOT / self.config))
        if self.algorithm == "aio":
            return replace(cfg.aio_params, pso=replace(cfg.aio_params.pso, max_iterations=self.iterations))
        return replace(cfg.pso_params, max_iterations=self.iterations)

    def pass_seeds(self, seed: int, index: int) -> tuple[int, int]:
        """(first optimizer seed, run count) of measured pass ``index``."""
        return run_seed(seed, index), 1

    def setup(self, seed: int, outdir: Path) -> float:
        """Seconds from spec to first step: lookup plus initial state."""
        params = self.params
        start = perf_counter()
        spec = benchmarks.lookup(self.benchmark, self.dims)
        rng = np.random.default_rng(seed)
        if self.algorithm == "aio":
            aio.init_aio_state(spec, params, rng)
        else:
            pso.init_population(spec, params.population_size, rng)
        return perf_counter() - start

    @staticmethod
    def aio_failures(args, gbest_fitness) -> list[str]:
        state, spec = args[:2]
        ctx = state.context
        return state_failures(
            spec, ctx.gbest_fitness, ctx.gbest_position, (state.pop_a, state.pop_b),
            (state.dimension_automata, state.swarm_automata),
        )

    @staticmethod
    def pso_failures(args, gbest) -> list[str]:
        population, _, spec = args[:3]
        return state_failures(spec, gbest.fitness, gbest.position, (population,), ())

    def run(self, seed: int, step_times: array) -> Run:
        """One package run, each step timed into ``step_times`` and checked."""
        run = Run(seed=seed, best_fitness=np.empty(0))
        failures = self.aio_failures if self.algorithm == "aio" else self.pso_failures

        def check(args, result):
            for message in failures(args, result):
                run.fail(message)

        spec = benchmarks.lookup(self.benchmark, self.dims)
        runner = aio.run_aio if self.algorithm == "aio" else pso.run_pso
        probe = (f"aiopt.{self.algorithm}", f"{self.algorithm}_step", step_probe(step_times, check))
        with swapped([probe]):
            run.best_fitness = runner(spec, self.params, seed).best_fitness
        for message in trace_failures(run.best_fitness, self.iterations):
            run.fail(message)
        return run

    def work(self, first: int, count: int, outdir: Path, step_times: array):
        """Runs of seeds ``first``.. ; returns (runs, b"", stepping seconds)."""
        runs = [self.run(first + r, step_times) for r in range(count)]
        return runs, b"", float(np.sum(step_times))


@dataclass(frozen=True)
class CliWorkload:
    """``aiopt.cli.main`` on a shipped config, ``runs`` seeds per pass.

    The config's ``<iterations>`` is replaced by ``iterations`` (written to
    a copy in the scratch directory) so that enough seeds for a steady
    ``final_fitness`` fit in one invocation.
    """

    name: str
    config: str
    benchmark: str
    iterations: int
    runs: int
    # Seed blocks always run; final_fitness is the median over their seeds.
    min_blocks: int

    @property
    def min_passes(self) -> int:
        # Pass 1 repeats block 0, so that the CSV of a repeat can be compared.
        return self.min_blocks + 1

    def pass_seeds(self, seed: int, index: int) -> tuple[int, int]:
        """(first optimizer seed, seed count) of measured pass ``index``."""
        block = max(index - 1, 0)
        return run_seed(seed, block * self.runs), self.runs

    def config_file(self, outdir: Path) -> Path:
        path = outdir / f"{self.name}.xml"
        if not path.exists():
            tree = ET.parse(ROOT / self.config)
            tree.getroot().find("iterations").text = str(self.iterations)
            tree.write(path, encoding="utf-8", xml_declaration=True)
        return path

    def setup(self, seed: int, outdir: Path) -> float:
        """Seconds from config file to first step: load_config, lookup, init."""
        config_file = self.config_file(outdir)
        start = perf_counter()
        cfg = config.load_config(str(config_file))
        spec = benchmarks.lookup(self.benchmark, cfg.dims)
        aio.init_aio_state(spec, cfg.aio_params, np.random.default_rng(seed))
        return perf_counter() - start

    def work(self, first: int, count: int, outdir: Path, step_times: array):
        """One ``main`` call over seeds ``first``.. ; returns (runs, csv bytes, wall seconds)."""
        out = outdir / f"curve-{first}.csv"
        argv = [
            "--config", str(self.config_file(outdir)), "--benchmark", self.benchmark,
            "--runs", str(count), "--seed", str(first), "--out", str(out),
        ]
        traces: list = []

        def capture_runs(run_aio):
            def probe(*args, **kwargs):
                trace = run_aio(*args, **kwargs)
                traces.append(trace)
                return trace
            return probe

        probes = [("aiopt.harness", "run_aio", capture_runs), ("aiopt.aio", "aio_step", step_probe(step_times))]
        printed = io.StringIO()
        with swapped(probes), contextlib.redirect_stdout(printed):
            start = perf_counter()
            code = cli.main(argv)
            wall = perf_counter() - start
        csv = out.read_bytes() if out.exists() else b""
        out.unlink(missing_ok=True)

        result = [Run(seed=t.seed, best_fitness=t.best_fitness) for t in traces]
        problems = []
        if code != 0:
            problems.append(f"cli exited with {code}")
        if [r.seed for r in result] != [first + r for r in range(count)]:
            problems.append("cli did not run the requested seeds")
        lines = csv.decode().splitlines()
        if lines[:1] != ["iteration,mean_best_fitness"] or len(lines) != self.iterations + 1:
            problems.append("csv does not have one row per iteration")
        elif any(not line.startswith(f"{i},") for i, line in enumerate(lines[1:], start=1)):
            problems.append("csv rows out of order")
        elif result and all(len(r.best_fitness) == self.iterations for r in result):
            # write_csv prints 17 significant digits, so the values round-trip exactly.
            values = np.array([float(line.split(",")[1]) for line in lines[1:]])
            mean = np.vstack([r.best_fitness for r in result]).mean(axis=0)
            if values.tobytes() != mean.tobytes():
                problems.append("csv values != mean of the run traces")
        for run in result:
            for message in problems + trace_failures(run.best_fitness, self.iterations):
                run.fail(message)
        if not result:
            result = [Run(seed=first, best_fitness=np.empty(0), failures=problems or ["no runs"])]
        return result, csv, wall


# Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        StepWorkload(
            name="aio-rastrigin-d1000", algorithm="aio", config="configs/aio.xml",
            benchmark="rastrigin", dims=1000, iterations=50, min_passes=5,
        ),
        StepWorkload(
            name="pso-sphere-d1000", algorithm="pso", config="configs/pso.xml",
            benchmark="sphere", dims=1000, iterations=1000, min_passes=5,
        ),
        CliWorkload(
            name="cli-aio-rosenbrock-d30", config="configs/aio.xml", benchmark="rosenbrock",
            iterations=500, runs=4, min_blocks=8,
        ),
    )
}


def golden_report(workload_name: str, traces: dict[int, np.ndarray]) -> dict:
    """Compare per-seed digests with golden.json; information only, never a gate."""
    golden = json.loads(GOLDEN_FILE.read_text()) if GOLDEN_FILE.exists() else {}
    expected = golden.get(workload_name, {})
    seeds = {}
    for seed, trace in sorted(traces.items()):
        got = digest(trace)
        want = expected.get(str(seed))
        seeds[str(seed)] = {"digest": got, "status": "missing" if want is None else ("match" if got == want else "mismatch")}
    statuses = {s["status"] for s in seeds.values()}
    status = "match" if statuses == {"match"} else ("mismatch" if "mismatch" in statuses else "missing")
    return {"status": status, "seeds": seeds}
