"""XML config parsing, experiment driving, aggregation, CSV output, and CLI."""
import dataclasses
import math
import os
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import aiopt
from aiopt import (
    AioParams,
    ConfigError,
    ExperimentConfig,
    PsoParams,
    aggregate,
    load_config,
    lookup,
    parse_config,
    run_aio,
    run_experiment,
    run_pso,
    write_csv,
)
from aiopt.automata import AutomatonBank, LearningAutomaton
from aiopt.cli import main
from aiopt.pso import RunTrace, init_population

MINIMAL_AIO = '<aio><super-component type="pso"/></aio>'


def trace(values, seed=0):
    values = np.asarray(values, dtype=np.float64)
    return RunTrace(best_fitness=values, final_fitness=float(values[-1]), seed=seed)


# ------------------------------------------------------------------ parsing

def test_minimal_document_takes_all_defaults():
    config = parse_config(MINIMAL_AIO)
    assert config.algorithm == "aio"
    assert config.benchmark == "sphere"
    assert config.dims == 30
    assert config.runs == 5
    assert config.base_seed == 1
    assert config.pso_params.max_iterations == 10_000
    assert config.pso_params.c1 == 1.49445
    assert config.pso_params.c2 == 1.49445
    assert (config.pso_params.w_max, config.pso_params.w_min) == (0.9, 0.4)
    assert config.pso_params.population_size == 50
    assert config.aio_params.swarm_count == 5
    assert config.aio_params.elite_factor == pytest.approx(2 / 3)
    assert (config.aio_params.la_reward, config.aio_params.la_penalty) == (0.1, 0.1)
    assert config.output_path is None


def test_pso_root_with_fixed_inertia():
    config = parse_config("<pso><w>0.74</w></pso>")
    assert config.algorithm == "pso"
    assert config.pso_params.w_fixed == 0.74


def test_leaves_may_sit_inside_the_super_component():
    config = parse_config(
        '<aio><super-component type="pso">'
        "<population-size>20</population-size><iterations>500</iterations>"
        "</super-component><benchmark>ackley</benchmark></aio>"
    )
    assert config.pso_params.population_size == 20
    assert config.pso_params.max_iterations == 500
    assert config.benchmark == "ackley"


def test_elite_factor_accepts_a_fraction():
    config = parse_config("<aio><elite-factor>2/3</elite-factor></aio>")
    assert config.aio_params.elite_factor == pytest.approx(2 / 3)


def test_full_parameter_document():
    config = parse_config(
        "<aio>"
        "<benchmark>rastrigin</benchmark><dimensions>12</dimensions>"
        "<runs>3</runs><seed>9</seed><output>curve.csv</output>"
        "<population-size>30</population-size><iterations>2000</iterations>"
        "<c1>1.5</c1><c2>1.7</c2><w>0.6</w><w-max>0.95</w-max><w-min>0.35</w-min>"
        "<tdr-factor>4</tdr-factor><elite-factor>0.5</elite-factor>"
        "<mutation-rate>0.2</mutation-rate>"
        "<la-reward>0.05</la-reward><la-penalty>0.02</la-penalty>"
        "</aio>"
    )
    assert config.benchmark == "rastrigin"
    assert config.dims == 12
    assert config.runs == 3
    assert config.base_seed == 9
    assert config.output_path == "curve.csv"
    assert config.pso_params.population_size == 30
    assert config.pso_params.max_iterations == 2000
    assert (config.pso_params.c1, config.pso_params.c2) == (1.5, 1.7)
    assert config.pso_params.w_fixed == 0.6
    assert (config.pso_params.w_max, config.pso_params.w_min) == (0.95, 0.35)
    assert config.aio_params.swarm_count == 4
    assert config.aio_params.elite_factor == 0.5
    assert config.aio_params.mutation_rate == 0.2
    assert (config.aio_params.la_reward, config.aio_params.la_penalty) == (0.05, 0.02)


@pytest.mark.parametrize(
    "document, fragment",
    [
        ("<ga/>", "root tag"),
        ('<aio><super-component type="ga"/></aio>', "unsupported super-component"),
        ("<aio><w-weight>1</w-weight></aio>", "unknown tag <w-weight>"),
        ("<aio><runs>0</runs></aio>", ">= 1"),
        ("<aio><dimensions>1</dimensions></aio>", ">= 2"),
        ("<aio><c1>-2</c1></aio>", "> 0"),
        ("<aio><mutation-rate>1.5</mutation-rate></aio>", "<= 1"),
        ("<aio><benchmark>nosuch</benchmark></aio>", "sphere"),
        ("<aio><iterations>many</iterations></aio>", "integer"),
        ("<aio><runs>2</runs><runs>3</runs></aio>", "duplicate tag <runs>"),
        (
            '<aio><super-component type="pso"/><super-component type="pso"/></aio>',
            "duplicate <super-component>",
        ),
        ("<aio><w-min>0.9</w-min><w-max>0.4</w-max></aio>", "<w-min> must be < <w-max>"),
        ("<pso><w>-0.1</w></pso>", "<w> must be >= 0"),
        ("<aio><w-min>-0.5</w-min><w-max>-0.1</w-max></aio>", "<w-min> must be >= 0"),
        ("<aio><w-max>-0.1</w-max><w-min>-0.5</w-min></aio>", "<w-max> must be >= 0"),
        ("<aio><c1>1e309</c1></aio>", "<c1> must be a finite number"),
        ("<aio><population-size>1</population-size></aio>", "<population-size> must be >= 2"),
        ("<aio><iterations>-1</iterations></aio>", "<iterations> must be >= 0"),
        ("<aio><seed>-1</seed></aio>", "<seed> must be >= 0"),
        ("<aio><tdr-factor>0</tdr-factor></aio>", "<tdr-factor> must be >= 1"),
        ("<aio><elite-factor>0</elite-factor></aio>", "<elite-factor> must be > 0"),
        ("<aio><la-reward>1.5</la-reward></aio>", "<la-reward> must be >= 0 and <= 1"),
        ("<aio><la-penalty>-0.1</la-penalty></aio>", "<la-penalty> must be >= 0 and <= 1"),
        ("<aio><c2>0</c2></aio>", "<c2> must be > 0"),
        ("<aio><benchmark>rastrigin</benchmark><dimensions>10</dimensions>"
         "<c1>1e308</c1><c2>1e308</c2></aio>", "<c1> + <c2>) * (upper - lower) must be finite"),
        ("<pso><benchmark>rastrigin</benchmark><dimensions>10</dimensions>"
         "<c1>1e308</c1><c2>1e308</c2></pso>", "<c1> + <c2>) * (upper - lower) must be finite"),
        ("<aio><c1>1.2<w>5</w></c1></aio>", "<c1> must hold only text, got <w> inside it"),
        ("<pso><w>1e308</w></pso>", "(<w> + <c1> + <c2>) * (upper - lower) must be finite"),
        ("<aio><w-max>1e308</w-max></aio>",
         "(<w-max> + <c1> + <c2>) * (upper - lower) must be finite"),
        ("<aio>3<c1>1.2</c1>5</aio>", "<aio> must hold only elements, got text '3'"),
        ("<aio><c1>1.2</c1>tail</aio>", "<aio> must hold only elements, got text 'tail'"),
        ('<aio><super-component type="pso">c1=2</super-component></aio>',
         "<super-component> must hold only elements, got text 'c1=2'"),
        ('<aio><c1 unit="x">1.2</c1></aio>', "<c1> takes no attributes, got unit"),
        ('<aio extra="1"><c1>1.2</c1></aio>', "<aio> takes no attributes, got extra"),
        ('<aio><super-component type="pso" mode="x"/></aio>',
         "<super-component> takes no attributes but type, got mode"),
        ("<pso><output></output></pso>", "<output> must be a non-empty path, got ''"),
    ],
)
def test_rejected_documents_name_the_problem(document, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(document)
    assert fragment in str(err.value)


@pytest.mark.parametrize("build,message", [
    pytest.param(lambda: PsoParams(population_size=2.5),
                 "<population-size> must be an integer, got 2.5", id="population-size"),
    pytest.param(lambda: PsoParams(max_iterations=2.0),
                 "<iterations> must be an integer, got 2.0", id="iterations"),
    pytest.param(lambda: PsoParams(max_iterations=True),
                 "<iterations> must be an integer, got True", id="iterations-bool"),
    pytest.param(lambda: AioParams(swarm_count=2.0),
                 "<tdr-factor> must be an integer, got 2.0", id="tdr-factor"),
    pytest.param(lambda: ExperimentConfig("pso", runs=1.5),
                 "<runs> must be an integer, got 1.5", id="runs"),
    pytest.param(lambda: ExperimentConfig("pso", dims=4.0),
                 "<dimensions> must be an integer, got 4.0", id="dimensions"),
    pytest.param(lambda: ExperimentConfig("pso", base_seed=1.5),
                 "<seed> must be an integer, got 1.5", id="seed"),
    pytest.param(lambda: lookup("sphere", 4.5),
                 "<dimensions> must be an integer, got 4.5", id="lookup-dimensions"),
    pytest.param(lambda: init_population(lookup("sphere", 4), 2.5, np.random.default_rng(0)),
                 "<population-size> must be an integer, got 2.5", id="init-population-size"),
    pytest.param(lambda: AutomatonBank(-1, 2, 0.1, 0.1),
                 "automaton count must be >= 0, got -1", id="bank-rows"),
    pytest.param(lambda: AutomatonBank(3, 2.5, 0.1, 0.1),
                 "automaton action count must be an integer, got 2.5", id="bank-actions"),
])
def test_counts_must_be_integers_in_library_code(build, message):
    with pytest.raises(ConfigError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("build,message", [
    pytest.param(lambda: PsoParams(c1="a"), "<c1> must be a number, got 'a'", id="c1-str"),
    pytest.param(lambda: PsoParams(c1=True), "<c1> must be a number, got True", id="c1-bool"),
    pytest.param(lambda: PsoParams(w_fixed=1j), "<w> must be a number, got 1j", id="w-complex"),
    pytest.param(lambda: AioParams(elite_factor=None),
                 "<elite-factor> must be a number, got None", id="elite-factor"),
    pytest.param(lambda: AioParams(mutation_rate=Decimal("0.1")),
                 "<mutation-rate> must be a number, got Decimal('0.1')", id="mutation-rate"),
    pytest.param(lambda: AutomatonBank(3, 2, "a", 0.1),
                 "<la-reward> must be a number, got 'a'", id="bank-reward"),
    pytest.param(lambda: LearningAutomaton(2, 0.1, None),
                 "<la-penalty> must be a number, got None", id="automaton-penalty"),
    pytest.param(lambda: AutomatonBank(3, 1, 0.1, 0.1),
                 "automaton action count must be >= 2, got 1", id="bank-actions"),
    pytest.param(lambda: ExperimentConfig("aio", dims="4"),
                 "<dimensions> must be an integer, got '4'", id="dimensions-str"),
    pytest.param(lambda: ExperimentConfig("pso", benchmark=["x"]),
                 "<benchmark> must be one of ackley, griewank, rastrigin, rosenbrock, sphere, "
                 "got ['x']", id="benchmark-list"),
    pytest.param(lambda: AioParams(pso=None), "pso must be a PsoParams, got NoneType", id="pso"),
    pytest.param(lambda: ExperimentConfig("pso", aio_params=PsoParams(population_size=4)),
                 "aio_params must be an AioParams, got PsoParams", id="aio-params"),
    # A parameter set of the wrong kind is named by its type, never printed: this
    # one holds an int too long for Python to print.
    pytest.param(lambda: ExperimentConfig(
                     "pso", aio_params=PsoParams(population_size=10**5000)),
                 "aio_params must be an AioParams, got PsoParams", id="aio-params-long-int"),
    pytest.param(lambda: AioParams(pso=AioParams(pso=PsoParams(population_size=10**5000))),
                 "pso must be a PsoParams, got AioParams", id="pso-long-int"),
    pytest.param(lambda: ExperimentConfig(10**5000),
                 "algorithm must be one of ('pso', 'aio'), got a number of more than 4300 digits",
                 id="algorithm-long-int"),
    pytest.param(lambda: ExperimentConfig(np.array(["pso", "aio"])),
                 "algorithm must be one of ('pso', 'aio'), got array(['pso', 'aio'], dtype='<U3')",
                 id="algorithm-array"),
    pytest.param(lambda: ExperimentConfig("pso", benchmark=10**5000),
                 "<benchmark> must be one of ackley, griewank, rastrigin, rosenbrock, sphere, "
                 "got a number of more than 4300 digits", id="benchmark-long-int"),
    pytest.param(lambda: ExperimentConfig("pso", runs=[10**5000]),
                 "<runs> must be an integer, got a list holding a number of more than 4300 digits",
                 id="runs-long-int-list"),
    *(pytest.param(lambda value=value: ExperimentConfig("pso", output_path=value),
                   f"<output> must be a non-empty path, got {value!r}", id=f"output-{name}")
      for name, value in [("bool", True), ("int", 5), ("float", 3.5), ("bytes", b"x.csv"),
                          ("empty", "")]),
    # Relation rules run only once the fields they relate have passed.
    pytest.param(lambda: PsoParams(w_min="x"), "<w-min> must be a number, got 'x'",
                 id="w-min-before-relation"),
    pytest.param(lambda: PsoParams(c1=-1, w_min=0.9, w_max=0.4), "<c1> must be > 0, got -1",
                 id="fields-before-relation"),
    pytest.param(lambda: ExperimentConfig("aio", dims=3, runs=0,
                                          aio_params=AioParams(swarm_count=5)),
                 "<runs> must be >= 1, got 0", id="runs-before-swarm-count"),
])
def test_numbers_and_parameter_sets_are_typed_in_library_code(build, message):
    with pytest.raises(ConfigError) as err:
        build()
    assert str(err.value) == message


def test_numpy_and_fraction_numbers_pass():
    params = PsoParams(c1=np.float32(1.5), c2=np.float64(1.5), w_max=Fraction(9, 10), w_min=0)
    config = ExperimentConfig("aio", dims=4, aio_params=AioParams(
        swarm_count=2, elite_factor=Fraction(2, 3), mutation_rate=np.float16(0.1), pso=params))
    assert config.pso_params is params
    assert len(AutomatonBank(2, 2, Fraction(1, 10), np.float32(0.5))) == 2


@pytest.mark.parametrize("constants", [
    {"c1": Fraction(3, 2), "c2": Fraction(5, 4), "w_fixed": Fraction(3, 4),
     "w_max": Fraction(7, 8), "w_min": Fraction(1, 2)},
    {"c1": 2, "c2": 1, "w_fixed": 1, "w_max": 1, "w_min": 0},
    {"c1": np.float32(1.5), "c2": np.float16(1.25), "w_fixed": np.longdouble(0.75),
     "w_max": np.float64(0.875), "w_min": np.int64(0)},
], ids=["fractions", "ints", "numpy"])
@pytest.mark.parametrize("runner", [run_pso, run_aio])
def test_constants_run_as_the_equal_floats(runner, constants):
    def trace(values):
        params = PsoParams(population_size=6, max_iterations=20, **values)
        assert all(type(getattr(params, name)) is float for name in values)
        return runner(lookup("rastrigin", 4), params if runner is run_pso else
                      AioParams(swarm_count=2, pso=params), seed=3).best_fitness.tobytes()

    assert trace(constants) == trace({name: float(value) for name, value in constants.items()})


@pytest.mark.parametrize("field, tag", [("c1", "<c1>"), ("population_size", "<population-size>")])
def test_numbers_beyond_the_digit_limit_name_their_tag(field, tag):
    assert getattr(PsoParams(**{field: 10**5000}), field) == (
        math.inf if field == "c1" else 10**5000)
    with pytest.raises(ConfigError) as err:
        PsoParams(**{field: -10**5000})
    assert str(err.value).startswith(f"{tag} must be")
    assert str(err.value).endswith("got a negative number of more than 4300 digits")


def test_cli_names_dimensions_that_numpy_cannot_allocate(capsys):
    code = main(["--config", str(CONFIGS / "pso.xml"),
                 "--dims", str(2**64), "--runs", "1"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: <dimensions> is too large to allocate")


def test_numpy_integer_counts_pass():
    params = PsoParams(population_size=np.int64(4), max_iterations=np.int32(3))
    config = ExperimentConfig("aio", dims=np.int64(4), runs=np.int8(1), base_seed=np.uint16(2),
                              aio_params=AioParams(swarm_count=np.int64(2), pso=params))
    assert [trace.best_fitness.size for trace in run_experiment(config)] == [3]
    assert len(AutomatonBank(np.int64(3), np.int64(2), 0.1, 0.1)) == 3


def test_every_bad_value_is_reported():
    with pytest.raises(ConfigError) as err:
        parse_config("<aio><c1>-1</c1><population-size>1</population-size></aio>")
    message = str(err.value)
    assert "<c1> must be > 0" in message
    assert "<population-size> must be >= 2" in message


def test_malformed_xml_reports_position():
    with pytest.raises(ConfigError) as err:
        parse_config("<aio><runs>2</aio>")
    message = str(err.value)
    assert "malformed XML" in message
    assert "line" in message


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "exp.xml"
    path.write_text("<pso><benchmark>griewank</benchmark></pso>", encoding="utf-8")
    config = load_config(str(path))
    assert config.algorithm == "pso"
    assert config.benchmark == "griewank"


@pytest.mark.parametrize("encoding, bom", [("iso-8859-1", ""), ("utf-8", "\ufeff"),
                                           ("utf-16", "")])
def test_load_config_honours_the_declared_encoding(tmp_path, encoding, bom):
    path = tmp_path / "exp.xml"
    text = (f'{bom}<?xml version="1.0" encoding="{encoding}"?>\n'
            "<!-- Réglages d'essai --><pso><benchmark>griewank</benchmark></pso>")
    path.write_bytes(text.encode(encoding))
    assert load_config(str(path)).benchmark == "griewank"


@pytest.mark.parametrize("document", [
    "<pso><!-- caf\xe9 --></pso>".encode("iso-8859-1"),  # undeclared, so read as UTF-8
    b'<?xml version="1.0" encoding="no-such-codec"?><pso/>',
    b'<?xml version="1.0" encoding="shift_jis"?><pso/>',
])
def test_load_config_reports_undecodable_bytes_as_malformed_xml(tmp_path, document):
    path = tmp_path / "exp.xml"
    path.write_bytes(document)
    with pytest.raises(ConfigError, match="malformed XML"):
        load_config(str(path))


def test_load_config_missing_file_names_the_path():
    with pytest.raises(ConfigError) as err:
        load_config("no/such/file.xml")
    assert "no/such/file.xml" in str(err.value)


def test_validate_rejects_swarm_count_above_dimensions():
    with pytest.raises(ConfigError) as err:
        parse_config("<aio><dimensions>3</dimensions><tdr-factor>5</tdr-factor></aio>")
    assert "<tdr-factor>" in str(err.value)


@pytest.mark.parametrize("build, field", [
    (PsoParams, "c1"),
    (PsoParams, "max_iterations"),
    (AioParams, "swarm_count"),
    (lambda: ExperimentConfig("aio"), "dims"),
])
def test_built_configs_are_frozen(build, field):
    built = build()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(built, field, -1)


@pytest.mark.parametrize("runner, params", [
    (run_pso, PsoParams(c1=1e308, c2=1e308, population_size=4, max_iterations=3)),
    (run_aio, AioParams(pso=PsoParams(c1=1e308, c2=1e308, population_size=4, max_iterations=3))),
    # Numbers that float64 arithmetic would overflow on or cannot hold.
    (run_pso, PsoParams(c1=np.float64(1e308), c2=np.float64(1e308), population_size=4,
                        max_iterations=3)),
    (run_pso, PsoParams(c1=10**400, population_size=4, max_iterations=3)),
    (run_aio, AioParams(pso=PsoParams(c2=Fraction(10**400), population_size=4,
                                      max_iterations=3))),
])
def test_library_runs_reject_overflowing_constants_before_any_warning(runner, params):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as err:
            runner(lookup("rastrigin", 10), params, seed=1)
    assert "<c1>" in str(err.value) and "<c2>" in str(err.value)


def test_velocity_rule_follows_the_box_of_the_run():
    """<c1>1e306 is finite times rastrigin's box width but not griewank's."""
    config = parse_config("<pso><benchmark>rastrigin</benchmark><dimensions>4</dimensions>"
                          "<iterations>3</iterations><c1>1e306</c1></pso>")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="<c1>"):
            run_pso(lookup("griewank", 4), config.pso_params, seed=1)


def test_each_run_bounds_only_the_inertia_it_reads():
    """``run_pso`` reads only <w> and ``run_aio`` only <w-max>, so a weight
    that overflows the bound stops only the optimizer that reads it."""
    spec = lookup("sphere", 2)
    huge_w_max = PsoParams(w_max=1e308, w_min=0.4, population_size=4, max_iterations=2)
    huge_w = PsoParams(w_fixed=1e308, population_size=4, max_iterations=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(run_pso(spec, huge_w_max, seed=1).best_fitness) == 2
        assert len(run_aio(spec, AioParams(swarm_count=2, pso=huge_w), seed=1).best_fitness) == 2
        with pytest.raises(ConfigError, match=r"^\(<w> \+ <c1> \+ <c2>\)"):
            run_pso(spec, huge_w, seed=1)
        with pytest.raises(ConfigError, match=r"^\(<w-max> \+ <c1> \+ <c2>\)"):
            run_aio(spec, AioParams(swarm_count=2, pso=huge_w_max), seed=1)


@pytest.mark.parametrize("root, unread, name", [("pso", "w-max", "w_max"), ("aio", "w", "w_fixed")])
def test_each_document_bounds_only_the_inertia_it_reads(root, unread, name):
    """The converse documents are in ``test_rejected_documents_name_the_problem``."""
    config = parse_config(f"<{root}><{unread}>1e308</{unread}></{root}>")
    assert config.algorithm == root and getattr(config.pso_params, name) == 1e308


# ------------------------------------------------------------- experiments

def small_config(algorithm="pso", runs=3, iterations=50):
    return parse_config(
        f"<{algorithm}>"
        "<benchmark>sphere</benchmark><dimensions>2</dimensions>"
        f"<runs>{runs}</runs><seed>10</seed>"
        f"<population-size>10</population-size><iterations>{iterations}</iterations>"
        "<tdr-factor>2</tdr-factor>"
        f"</{algorithm}>"
    )


def test_runs_are_seeded_consecutively():
    traces = run_experiment(small_config(runs=4))
    assert [t.seed for t in traces] == [10, 11, 12, 13]


def test_experiment_is_deterministic():
    first = run_experiment(small_config())
    second = run_experiment(small_config())
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.best_fitness, b.best_fitness)


def test_single_run_trace_is_non_increasing():
    config = small_config(runs=1, iterations=500)
    (result,) = run_experiment(config)
    assert np.all(np.diff(result.best_fitness) <= 0.0)


def test_experiment_drives_both_algorithms():
    for algorithm in ("pso", "aio"):
        traces = run_experiment(small_config(algorithm=algorithm))
        assert len(traces) == 3
        assert all(len(t.best_fitness) == 50 for t in traces)


@pytest.mark.parametrize("algorithm", ["pso", "aio"])
def test_both_algorithms_run_under_the_one_pso_set(algorithm):
    config = ExperimentConfig(
        algorithm, dims=4, runs=2, aio_params=AioParams(swarm_count=2, pso=PsoParams(
            population_size=4, max_iterations=3)),
    )
    assert config.pso_params is config.aio_params.pso
    assert [len(t.best_fitness) for t in run_experiment(config)] == [3, 3]


def test_the_pso_set_cannot_be_set_apart_from_aio_params():
    config = ExperimentConfig("pso")
    with pytest.raises(AttributeError):
        config.pso_params = PsoParams(max_iterations=3)
    with pytest.raises(TypeError):
        ExperimentConfig("aio", pso_params=PsoParams(max_iterations=3))


@pytest.mark.parametrize("root", ["pso", "aio"])
def test_parsed_config_holds_one_pso_set(root):
    config = parse_config(f"<{root}><iterations>7</iterations><c1>1.2</c1></{root}>")
    assert config.pso_params is config.aio_params.pso
    assert (config.pso_params.max_iterations, config.pso_params.c1) == (7, 1.2)


def test_invalid_config_propagates():
    with pytest.raises(ConfigError):
        dataclasses.replace(small_config(), benchmark="nosuch")


# -------------------------------------------------------------- aggregation

def test_mean_curve_by_hand():
    stats = aggregate([trace([4.0, 2.0]), trace([2.0, 0.0])])
    np.testing.assert_array_equal(stats.mean_curve, [3.0, 1.0])


def test_single_trace_aggregates_to_itself():
    stats = aggregate([trace([5.0, 4.0, 1.0])])
    np.testing.assert_array_equal(stats.mean_curve, [5.0, 4.0, 1.0])


def test_final_statistics():
    stats = aggregate([trace([9.0, v]) for v in (1.0, 2.0, 3.0, 4.0, 5.0)])
    assert stats.mean_final == 3.0
    assert stats.median_final == 3.0
    assert stats.min_final == 1.0
    assert stats.max_final == 5.0
    np.testing.assert_array_equal(stats.final_fitnesses, [1, 2, 3, 4, 5])


def test_mismatched_lengths_rejected():
    with pytest.raises(ValueError):
        aggregate([trace([1.0, 2.0]), trace([1.0, 2.0, 3.0])])


def test_empty_aggregate_rejected():
    with pytest.raises(ValueError):
        aggregate([])


# ---------------------------------------------------------------- CSV output

def test_csv_format(tmp_path):
    path = tmp_path / "curve.csv"
    write_csv(aggregate([trace([3.0, 1.0])]), str(path))
    assert path.read_text(encoding="utf-8") == "iteration,mean_best_fitness\n1,3\n2,1\n"


def test_csv_empty_curve_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(aggregate([RunTrace(np.array([]), 0.0, 0)]), str(path))
    assert path.read_text(encoding="utf-8") == "iteration,mean_best_fitness\n"


def test_csv_rewrite_is_byte_identical(tmp_path):
    stats = aggregate(run_experiment(small_config()))
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(stats, str(first))
    write_csv(stats, str(second))
    assert first.read_bytes() == second.read_bytes()


def test_csv_values_survive_a_round_trip(tmp_path):
    stats = aggregate([trace([1 / 3, 2 / 7, 1e-17])])
    path = tmp_path / "roundtrip.csv"
    write_csv(stats, str(path))
    lines = path.read_text().splitlines()[1:]
    parsed = [float(line.split(",")[1]) for line in lines]
    np.testing.assert_array_equal(parsed, stats.mean_curve)


def test_csv_unwritable_path_raises_os_error():
    with pytest.raises(OSError):
        write_csv(aggregate([trace([1.0])]), "/no/such/directory/out.csv")


# ----------------------------------------------------------------------- CLI

def write_config(tmp_path, text=MINIMAL_AIO):
    path = tmp_path / "config.xml"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_happy_path(tmp_path, capsys):
    config = write_config(
        tmp_path,
        "<pso><dimensions>2</dimensions><population-size>10</population-size>"
        "<iterations>50</iterations></pso>",
    )
    out = tmp_path / "result.csv"
    code = main(["--config", config, "--benchmark", "sphere", "--runs", "2",
                 "--seed", "42", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert out.exists()
    assert "pso on sphere" in captured.out
    assert "final fitness" in captured.out
    assert str(out) in captured.out


def test_cli_override_beats_config_value(tmp_path):
    config = write_config(
        tmp_path,
        "<pso><benchmark>sphere</benchmark><dimensions>2</dimensions>"
        "<population-size>10</population-size><iterations>30</iterations></pso>",
    )
    out = tmp_path / "ack.csv"
    code = main(["--config", config, "--benchmark", "ackley", "--runs", "1",
                 "--out", str(out)])
    assert code == 0
    assert out.exists()


def test_cli_default_output_name(tmp_path, monkeypatch, capsys):
    config = write_config(
        tmp_path,
        "<pso><dimensions>2</dimensions><population-size>10</population-size>"
        "<iterations>20</iterations><runs>1</runs></pso>",
    )
    monkeypatch.chdir(tmp_path)
    assert main(["--config", config]) == 0
    assert (tmp_path / "pso_sphere.csv").exists()


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = {
    "aio.xml": ExperimentConfig(
        "aio", benchmark="rastrigin", dims=30, runs=5, base_seed=1,
        output_path="aio_rastrigin.csv", aio_params=AioParams(
            swarm_count=5, elite_factor=2 / 3, mutation_rate=0.1, la_reward=0.1, la_penalty=0.1,
            pso=PsoParams(c1=1.49445, c2=1.49445, w_max=0.9, w_min=0.4, population_size=50,
                          max_iterations=2000))),
    "pso.xml": ExperimentConfig(
        "pso", benchmark="sphere", dims=30, runs=5, base_seed=1, output_path="pso_sphere.csv",
        aio_params=AioParams(pso=PsoParams(c1=1.49445, c2=1.49445, w_fixed=0.74,
                                           population_size=50, max_iterations=2000))),
}


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_configs_hold_their_values_and_run(tmp_path, capsys, name):
    path = str(CONFIGS / name)
    assert load_config(path) == SHIPPED[name]
    out = tmp_path / "curve.csv"
    assert main(["--config", path, "--runs", "1", "--out", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 2001
    assert "runs=1 iterations=2000" in capsys.readouterr().out


def test_cli_missing_config_file(capsys):
    code = main(["--config", "missing.xml"])
    captured = capsys.readouterr()
    assert code == 1
    assert "missing.xml" in captured.err


def test_cli_unknown_benchmark_lists_names(tmp_path, capsys):
    config = write_config(tmp_path)
    code = main(["--config", config, "--benchmark", "nosuch"])
    captured = capsys.readouterr()
    assert code == 1
    for name in ("sphere", "rosenbrock", "ackley", "griewank", "rastrigin"):
        assert name in captured.err


@pytest.mark.parametrize("flags", [["--dims", "30"], ["--algorithm", "pso"]])
def test_cli_flags_replace_file_values_before_the_check(tmp_path, capsys, flags):
    """Three dimensions cannot hold five aio swarms; either flag makes the file valid."""
    config = write_config(
        tmp_path, "<aio><dimensions>3</dimensions><tdr-factor>5</tdr-factor><runs>1</runs>"
        "<population-size>4</population-size><iterations>3</iterations></aio>")
    assert main(["--config", config, "--out", str(tmp_path / "out.csv"), *flags]) == 0
    assert main(["--config", config, "--out", str(tmp_path / "out.csv")]) == 1
    assert "<tdr-factor>" in capsys.readouterr().err


def test_cli_rejects_an_empty_output_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, "<pso><runs>1</runs><iterations>3</iterations></pso>")
    assert main(["--config", config, "--out", ""]) == 1
    assert capsys.readouterr().err == "error: <output> must be a non-empty path, got ''\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == [Path(config).name]


def test_cli_dimension_override_is_validated(tmp_path, capsys):
    config = write_config(tmp_path)
    code = main(["--config", config, "--dims", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "<dimensions>" in captured.err


@pytest.mark.parametrize("algorithm", ["aio", "pso"])
def test_cli_rejects_overflowing_constants_before_any_warning(tmp_path, algorithm):
    """Under ``-W error`` a numpy overflow warning would end the run in a
    traceback; the config check must stop it first, naming the tags."""
    config = write_config(
        tmp_path,
        f"<{algorithm}><benchmark>rastrigin</benchmark><dimensions>10</dimensions>"
        f"<runs>1</runs><iterations>5</iterations><c1>1e308</c1><c2>1e308</c2></{algorithm}>",
    )
    src = Path(aiopt.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "aiopt", "--config", config,
         "--out", str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "<c1>" in proc.stderr and "<c2>" in proc.stderr
    assert not (tmp_path / "out.csv").exists()


def test_cli_reports_an_allocation_failure_as_one_error_line(tmp_path, capsys):
    # 2**55 float64 values need 256 PiB, more than any address space maps,
    # so the first allocation fails at once without touching memory.
    config = write_config(tmp_path)
    code = main(["--config", config, "--dims", str(2**55), "--out", str(tmp_path / "out.csv")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_cli_requires_config_flag(capsys):
    code = main([])
    captured = capsys.readouterr()
    assert code == 2
    assert "usage" in captured.err.lower()


def test_cli_reports_bad_xml(tmp_path, capsys):
    config = write_config(tmp_path, "<aio><runs></aio>")
    code = main(["--config", config])
    captured = capsys.readouterr()
    assert code == 1
    assert "error:" in captured.err
