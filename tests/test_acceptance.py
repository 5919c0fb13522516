"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line for its criterion (run with ``-s`` to
see them live; they also appear in the captured output of a failing test)
and then asserts it. The comparative experiment and the full-protocol
smoke run complete optimizations, so this module takes a few minutes.
"""
import time

import numpy as np
import pytest

from aiopt import (
    AioParams,
    LearningAutomaton,
    PsoParams,
    ackley,
    aggregate,
    griewank,
    lookup,
    parse_config,
    rastrigin,
    rosenbrock,
    run_aio,
    run_experiment,
    run_pso,
    sphere,
    write_csv,
)
from aiopt.aio import ContextState, evaluate_swarm, init_aio_state
from aiopt.pso import Population, inertia_weight

BENCHMARKS = ("sphere", "rosenbrock", "ackley", "griewank", "rastrigin")


def report(number, name, ok, detail):
    print(f"\nacceptance {number} [{name}]: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_01_benchmark_function_values():
    worst_optimum = 0.0
    for name in BENCHMARKS:
        spec = lookup(name, 30)
        worst_optimum = max(worst_optimum, abs(spec.evaluate(spec.optimum_position)))

    spot_checks = [
        (sphere, [1.0, 2.0, 3.0], 14.0),
        (sphere, [-1.0], 1.0),
        (rosenbrock, [0.0, 0.0], 1.0),
        (rosenbrock, [2.0, 4.0], 1.0),
        (ackley, [1.0], 3.6253849384403627),   # 20 - 20*exp(-0.2)
        (griewank, [2.0], 1.4171468365471424),  # 4/4000 - cos(2) + 1
        (rastrigin, [0.5], 20.25),
        (rastrigin, [1.0], 1.0),
    ]
    worst_spot = max(abs(fn(np.array(x)) - expected) for fn, x, expected in spot_checks)

    ok = worst_optimum <= 1e-12 and worst_spot <= 1e-9
    report(1, "benchmark-values", ok,
           f"optimum deviation {worst_optimum:.2e} (tol 1e-12), "
           f"spot deviation {worst_spot:.2e} (tol 1e-9)")
    assert worst_optimum <= 1e-12
    assert worst_spot <= 1e-9


def test_02_automaton_simplex_preserved_under_random_updates():
    rng = np.random.default_rng(2024)
    worst_drift = 0.0
    monotone = True
    for action_count in (2, 5, 10):
        automaton = LearningAutomaton(action_count, 0.1, 0.1)
        for _ in range(10_000):
            action = int(rng.integers(action_count))
            signal = int(rng.integers(2))
            before = automaton.probabilities[action]
            automaton.reinforce(action, signal)
            after = automaton.probabilities[action]
            if signal == 0 and after < before - 1e-12:
                monotone = False
            if signal == 1 and after > before + 1e-12:
                monotone = False
            drift = abs(automaton.probabilities.sum() - 1.0)
            worst_drift = max(worst_drift, drift)
            if drift > 1e-9 or np.any(automaton.probabilities < 0.0) or np.any(
                automaton.probabilities > 1.0
            ):
                report(2, "automaton-simplex", False,
                       f"simplex broken after an update (drift {drift:.2e})")
                pytest.fail("probability simplex violated")
    ok = monotone and worst_drift <= 1e-9
    report(2, "automaton-simplex", ok,
           f"30,000 updates, worst sum drift {worst_drift:.2e} (tol 1e-9), "
           f"monotonicity {'held' if monotone else 'violated'}")
    assert ok


def test_03_reward_inaction_learns_the_better_action():
    reward_probability = (0.8, 0.2)
    confident = 0
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        automaton = LearningAutomaton(2, reward_rate=0.1, penalty_rate=0.0)
        for _ in range(10_000):
            action = automaton.select_action(rng)
            signal = 0 if rng.random() < reward_probability[action] else 1
            automaton.reinforce(action, signal)
        if automaton.probabilities[0] > 0.95:
            confident += 1
    ok = confident >= 95
    report(3, "automaton-convergence", ok,
           f"{confident}/100 trials ended with p(better action) > 0.95 (need >= 95)")
    assert confident >= 95


def test_04_inertia_schedule_endpoints():
    params = PsoParams(w_max=0.9, w_min=0.4, max_iterations=10_000)
    checks = [
        ("quick", 0, 0.9),
        ("quick", 10_000, 0.4),
        ("slow", 0, 0.9),
        ("slow", 10_000, 0.525),
    ]
    worst = max(abs(inertia_weight(mode, i, params) - expected)
                for mode, i, expected in checks)
    ok = worst <= 1e-12
    report(4, "inertia-endpoints", ok, f"worst endpoint deviation {worst:.2e} (tol 1e-12)")
    assert worst <= 1e-12


def test_05_full_cover_context_evaluation_is_exact():
    rng = np.random.default_rng(55)
    exact = True
    for name in BENCHMARKS:
        spec = lookup(name, 30)
        positions = rng.uniform(spec.lower, spec.upper, size=(1000, 30))
        population = Population(
            positions=positions,
            velocities=np.zeros_like(positions),
            pbest_positions=positions.copy(),
            pbest_fitness=np.full(1000, np.inf),
        )
        gbest = rng.uniform(spec.lower, spec.upper, 30)
        context = ContextState(gbest_position=gbest.copy(),
                               gbest_fitness=float(spec.evaluate(gbest)))
        fitness, _ = evaluate_swarm(np.arange(30), population.positions.T,
                                    population.pbest_positions.T, population.pbest_fitness,
                                    context, spec)
        direct = np.asarray(spec.evaluate(positions))
        if not np.array_equal(fitness, direct):
            exact = False
    report(5, "context-oracle", exact,
           "5 benchmarks x 1000 particles, single-swarm context fitness "
           f"{'bit-exact vs' if exact else 'DIFFERS from'} direct evaluation")
    assert exact


def test_06_every_pair_is_monotone_and_reproducible(tmp_path):
    start = time.perf_counter()
    all_ok = True
    for algorithm in ("pso", "aio"):
        for benchmark in BENCHMARKS:
            config_text = (
                f"<{algorithm}>"
                f"<benchmark>{benchmark}</benchmark>"
                "<dimensions>10</dimensions><runs>2</runs><seed>3</seed>"
                "<population-size>20</population-size><iterations>1000</iterations>"
                f"</{algorithm}>"
            )
            first = run_experiment(parse_config(config_text))
            for trace in first:
                if not np.all(np.diff(trace.best_fitness) <= 0.0):
                    all_ok = False
            second = run_experiment(parse_config(config_text))
            a = tmp_path / f"{algorithm}_{benchmark}_a.csv"
            b = tmp_path / f"{algorithm}_{benchmark}_b.csv"
            write_csv(aggregate(first), str(a))
            write_csv(aggregate(second), str(b))
            if a.read_bytes() != b.read_bytes():
                all_ok = False
    elapsed = time.perf_counter() - start
    ok = all_ok and elapsed < 60.0
    report(6, "monotone-deterministic-csv", ok,
           f"10 algorithm/benchmark pairs, traces non-increasing, "
           f"CSV byte-identical on re-run, {elapsed:.1f}s (limit 60s)")
    assert all_ok
    assert elapsed < 60.0


def _comparative_block(seeds):
    wins = 0
    rows = []
    for name in BENCHMARKS:
        spec = lookup(name, 30)
        pso_params = PsoParams(max_iterations=2000)
        aio_params = AioParams(pso=PsoParams(max_iterations=2000))
        pso_mean = np.mean([run_pso(spec, pso_params, s).final_fitness for s in seeds])
        aio_mean = np.mean([run_aio(spec, aio_params, s).final_fitness for s in seeds])
        won = aio_mean <= pso_mean
        wins += won
        rows.append(f"  {name:11s} adaptive {aio_mean:.3e} vs baseline {pso_mean:.3e}"
                    f" -> {'adaptive' if won else 'baseline'}")
    return wins, rows


def test_07_adaptive_optimizer_matches_or_beats_baseline():
    first_wins, first_rows = _comparative_block([1, 2, 3, 4, 5])
    print("\nseed block 1 (seeds 1-5):")
    print("\n".join(first_rows))
    best = first_wins
    second_wins = None
    if first_wins < 4:
        second_wins, second_rows = _comparative_block([6, 7, 8, 9, 10])
        print("seed block 2 (seeds 6-10):")
        print("\n".join(second_rows))
        best = max(best, second_wins)
    ok = best >= 4
    blocks = f"block1 {first_wins}/5" + (
        f", block2 {second_wins}/5" if second_wins is not None else ""
    )
    report(7, "comparative", ok,
           f"adaptive optimizer won {blocks}; need >= 4/5 in either block "
           "(30 dims, 2000 iterations, 5 seeds per block)")
    assert ok, (
        f"adaptive optimizer won only {blocks} benchmarks "
        "(needs at least 4 of 5 in one seed block)"
    )


def test_08_full_protocol_smoke_on_sphere():
    spec = lookup("sphere", 30)
    params = AioParams()  # 10,000 iterations, 50 particles per population
    start = time.perf_counter()
    initials, finals = [], []
    for seed in (1, 2, 3, 4, 5):
        state = init_aio_state(spec, params, np.random.default_rng(seed))
        initials.append(state.context.gbest_fitness)
        finals.append(run_aio(spec, params, seed).final_fitness)
    elapsed = time.perf_counter() - start
    mean_initial = float(np.mean(initials))
    mean_final = float(np.mean(finals))
    improvement = mean_initial / mean_final if mean_final > 0.0 else np.inf
    ok = elapsed < 600.0 and improvement >= 1e6
    report(8, "full-protocol-smoke", ok,
           f"5 runs x 10,000 iterations in {elapsed:.0f}s (limit 600s); mean best "
           f"{mean_initial:.3e} -> {mean_final:.3e}, {improvement:.1e}x (need >= 1e6x)")
    assert elapsed < 600.0
    assert improvement >= 1e6
