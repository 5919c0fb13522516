"""Smoke runs of the scripts in scripts/ at a tiny budget."""
import runpy
from pathlib import Path

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


def test_sweep_swarm_count_prints_a_row_per_count(capsys):
    main = script_main("sweep_swarm_count.py")
    assert main(["--dims", "4", "--iterations", "5", "--runs", "1", "--counts", "1", "2"]) == 0
    firsts = [row[0] for row in table_rows(capsys.readouterr().out) if row]
    assert "1" in firsts
    assert "2" in firsts
