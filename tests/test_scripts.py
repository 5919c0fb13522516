"""Smoke runs of the scripts in scripts/ at a tiny budget."""
import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def script_main(name):
    return runpy.run_path(str(SCRIPTS / name))["main"]


def table_rows(out):
    return [line.split() for line in out.splitlines()]


def test_compare_optimizers_prints_a_row_per_algorithm(capsys):
    main = script_main("compare_optimizers.py")
    # Six dimensions: the default five swarms each need one of their own.
    assert main(["--dims", "6", "--iterations", "5", "--runs", "1",
                 "--population-size", "4"]) == 0
    rows = table_rows(capsys.readouterr().out)
    assert ["sphere", "pso"] in [row[:2] for row in rows]
    assert ["rastrigin", "aio"] in [row[:2] for row in rows]


def test_compare_optimizers_reports_bad_settings(capsys):
    main = script_main("compare_optimizers.py")
    # Four dimensions cannot hold the default five swarms.
    assert main(["--dims", "4", "--iterations", "2", "--runs", "1",
                 "--population-size", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: <tdr-factor> must be <= <dimensions>, got 5 > 4\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "script, argv, message",
    [
        pytest.param("sweep_swarm_count.py", ["--dims", "4", "--counts", "5"],
                     "<tdr-factor> must be <= <dimensions>, got 5 > 4", id="sweep-more-swarms-than-dims"),
        pytest.param("sweep_swarm_count.py", ["--benchmark", "nope"],
                     "<benchmark> must be one of ackley, griewank, rastrigin, rosenbrock, sphere, "
                     "got 'nope'", id="sweep-unknown-benchmark"),
        pytest.param("sweep_swarm_count.py", ["--counts", "0"],
                     "<tdr-factor> must be >= 1, got 0", id="sweep-zero-swarms"),
        pytest.param("sweep_swarm_count.py", ["--runs", "0"],
                     "<runs> must be >= 1, got 0", id="sweep-zero-runs"),
        pytest.param("compare_optimizers.py", ["--runs", "0"],
                     "<runs> must be >= 1, got 0", id="compare-zero-runs"),
        pytest.param("compare_optimizers.py", ["--dims", "6", "--csv-dir", "{file}"],
                     "File exists", id="compare-csv-dir-is-a-file"),
    ],
)
def test_scripts_report_errors_like_the_cli(script, argv, message, tmp_path, capsys):
    """Exit status 1 and one ``error: ...`` line on stderr, with nothing
    printed on stdout, as ``aiopt.cli.main`` does."""
    existing = tmp_path / "not-a-directory"
    existing.write_text("")
    argv = [arg.format(file=existing) for arg in argv] + ["--iterations", "2"]
    assert script_main(script)(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("script", ["compare_optimizers.py", "sweep_swarm_count.py"])
def test_scripts_report_an_allocation_failure_as_one_error_line(script, capsys):
    # 2**55 float64 values need 256 PiB, more than any address space maps,
    # so the first allocation fails at once without touching memory.
    assert script_main(script)(["--dims", str(2**55), "--iterations", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_compare_optimizers_writes_a_csv_per_run(tmp_path, capsys):
    main = script_main("compare_optimizers.py")
    assert main(["--dims", "6", "--iterations", "3", "--runs", "1",
                 "--population-size", "4", "--csv-dir", str(tmp_path / "curves")]) == 0
    written = sorted(path.name for path in (tmp_path / "curves").iterdir())
    assert written == sorted(f"{algorithm}_{name}.csv" for algorithm in ("pso", "aio")
                             for name in ("sphere", "rosenbrock", "ackley", "griewank", "rastrigin"))
    assert (tmp_path / "curves" / "aio_sphere.csv").read_text().count("\n") == 4


def test_sweep_swarm_count_prints_a_row_per_count(capsys):
    main = script_main("sweep_swarm_count.py")
    assert main(["--dims", "4", "--iterations", "5", "--runs", "1", "--counts", "1", "2"]) == 0
    firsts = [row[0] for row in table_rows(capsys.readouterr().out) if row]
    assert "1" in firsts
    assert "2" in firsts


def test_bench_ab_summary_counts_pairs_and_applies_the_bound():
    summarize = runpy.run_path(str(SCRIPTS / "bench_ab.py"))["summarize"]

    def runs(pairs):
        return [{"metrics": {"iters_per_s": rate, "setup_s": setup}} for rate, setup in pairs]

    gates = [{"name": "iters_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
             {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    out = summarize({"parent": runs([(10, 1.0), (12, 1.0), (11, 1.0)]),
                     "change": runs([(20, 1.3), (9, 1.3), (21, 1.3)])}, gates)
    rate, setup = out["iters_per_s"], out["setup_s"]
    assert (rate["parent"]["median"], rate["change"]["median"]) == (11, 20)
    assert rate["pairs_won_by_change"] == "2/3"
    assert rate["within_bound"]
    # 30% slower than the parent, beyond the 25% bound
    assert setup["pairs_won_by_change"] == "0/3"
    assert not setup["within_bound"]


def test_bench_ab_fault_summary_pools_the_set_ups_of_each_side():
    summarize_faults = runpy.run_path(str(SCRIPTS / "bench_ab.py"))["summarize_faults"]

    def runs(*counts):
        return [{"setup_faults": list(c)} for c in counts]

    out = summarize_faults({"parent": runs([466] * 10, [466] * 9 + [470]),
                            "change": runs([692] + [0] * 9, [0] * 10)})
    assert out["parent"] == {"q1": 466, "median": 466, "q3": 466}
    assert out["change"] == {"q1": 0, "median": 0, "q3": 0}
    # the CLI workload has no set-up counts
    assert summarize_faults({"parent": runs(), "change": [{"setup_faults": None}]}) is None
