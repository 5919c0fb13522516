"""XML experiment configuration.

The root tag names the optimizer (``<pso>`` or ``<aio>``).  An optional
``<super-component type="pso">`` child names the embedded search
algorithm; only ``pso`` is available, other types are rejected so the
schema stays open for future algorithms.  Parameters are kebab-case
leaf tags and may sit directly under the root or inside the
super-component element.  Every parameter has a default, so the minimal
valid document is ``<aio><super-component type="pso"/></aio>``.

Recognized leaf tags:

    benchmark dimensions runs seed output
    population-size iterations c1 c2 w w-max w-min
    tdr-factor elite-factor mutation-rate la-reward la-penalty
"""
from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from fractions import Fraction

from .aio import AioParams
from .benchmarks import FUNCTIONS, lookup
from .errors import ConfigError
from .pso import PsoParams

ALGORITHMS = ("pso", "aio")

DEFAULTS = {
    "benchmark": "sphere",
    "dimensions": 30,
    "runs": 5,
    "seed": 1,
    "output": None,
    "population-size": 50,
    "iterations": 10_000,
    "c1": 1.49445,
    "c2": 1.49445,
    "w": 0.74,
    "w-max": 0.9,
    "w-min": 0.4,
    "tdr-factor": 5,
    "elite-factor": 2.0 / 3.0,
    "mutation-rate": 0.1,
    "la-reward": 0.1,
    "la-penalty": 0.1,
}


@dataclass
class ExperimentConfig:
    """Full parameterization of a multi-seed experiment."""

    algorithm: str
    benchmark: str = "sphere"
    dims: int = 30
    runs: int = 5
    base_seed: int = 1
    pso_params: PsoParams = field(default_factory=PsoParams)
    aio_params: AioParams = field(default_factory=AioParams)
    output_path: str | None = None

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.dims < 2:
            raise ConfigError(f"dimension count must be >= 2, got {self.dims}")
        if self.runs < 1:
            raise ConfigError(f"run count must be >= 1, got {self.runs}")
        if self.base_seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.base_seed}")
        lookup(self.benchmark, self.dims)
        if self.algorithm == "aio" and self.aio_params.swarm_count > self.dims:
            raise ConfigError(
                f"tdr-factor {self.aio_params.swarm_count} exceeds dimension count {self.dims}"
            )


def _parse_int(tag: str, text: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"<{tag}> must be an integer, got {text!r}") from None
    if value < minimum:
        raise ConfigError(f"<{tag}> must be >= {minimum}, got {value}")
    return value


def _parse_float(tag: str, text: str, low=None, high=None, exclusive_low=False) -> float:
    try:
        value = float(Fraction(text))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"<{tag}> must be a number, got {text!r}") from None
    if low is not None and (value <= low if exclusive_low else value < low):
        bound = f"> {low}" if exclusive_low else f">= {low}"
        raise ConfigError(f"<{tag}> must be {bound}, got {value}")
    if high is not None and value > high:
        raise ConfigError(f"<{tag}> must be <= {high}, got {value}")
    return value


def _parse_benchmark(tag: str, text: str) -> str:
    if text not in FUNCTIONS:
        valid = ", ".join(sorted(FUNCTIONS))
        raise ConfigError(f"<{tag}> must be one of {valid}, got {text!r}")
    return text


_LEAF_PARSERS = {
    "benchmark": _parse_benchmark,
    "dimensions": lambda t, s: _parse_int(t, s, minimum=2),
    "runs": lambda t, s: _parse_int(t, s, minimum=1),
    "seed": lambda t, s: _parse_int(t, s, minimum=0),
    "output": lambda t, s: s,
    "population-size": lambda t, s: _parse_int(t, s, minimum=2),
    "iterations": lambda t, s: _parse_int(t, s, minimum=0),
    "c1": lambda t, s: _parse_float(t, s, low=0.0, exclusive_low=True),
    "c2": lambda t, s: _parse_float(t, s, low=0.0, exclusive_low=True),
    "w": lambda t, s: _parse_float(t, s, low=0.0),
    "w-max": lambda t, s: _parse_float(t, s, low=0.0),
    "w-min": lambda t, s: _parse_float(t, s, low=0.0),
    "tdr-factor": lambda t, s: _parse_int(t, s, minimum=1),
    "elite-factor": lambda t, s: _parse_float(t, s, low=0.0, high=1.0, exclusive_low=True),
    "mutation-rate": lambda t, s: _parse_float(t, s, low=0.0, high=1.0),
    "la-reward": lambda t, s: _parse_float(t, s, low=0.0, high=1.0),
    "la-penalty": lambda t, s: _parse_float(t, s, low=0.0, high=1.0),
}


def _collect_leaves(element: ET.Element, leaves: dict, allow_super: bool) -> None:
    for child in element:
        if child.tag == "super-component":
            if not allow_super:
                raise ConfigError("<super-component> cannot be nested")
            if "super-component" in leaves:
                raise ConfigError("duplicate <super-component> element")
            leaves["super-component"] = True
            kind = child.get("type")
            if kind != "pso":
                raise ConfigError(f"unsupported super-component type {kind!r}")
            _collect_leaves(child, leaves, allow_super=False)
        elif child.tag in _LEAF_PARSERS:
            if child.tag in leaves:
                raise ConfigError(f"duplicate tag <{child.tag}>")
            leaves[child.tag] = _LEAF_PARSERS[child.tag](child.tag, (child.text or "").strip())
        else:
            raise ConfigError(f"unknown tag <{child.tag}>")


def parse_config(text: str) -> ExperimentConfig:
    """Parse an XML experiment document; absent parameters take defaults."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ConfigError(f"malformed XML: {exc}") from exc
    if root.tag not in ALGORITHMS:
        raise ConfigError(f"root tag must be <pso> or <aio>, got <{root.tag}>")

    leaves: dict = {}
    _collect_leaves(root, leaves, allow_super=True)
    leaves.pop("super-component", None)

    def get(tag):
        return leaves.get(tag, DEFAULTS[tag])

    if get("w-min") >= get("w-max"):
        raise ConfigError(f"<w-min> must be < <w-max>, got {get('w-min')} >= {get('w-max')}")

    pso_params = PsoParams(
        c1=get("c1"),
        c2=get("c2"),
        inertia_mode="fixed",
        w_fixed=get("w"),
        w_max=get("w-max"),
        w_min=get("w-min"),
        population_size=get("population-size"),
        max_iterations=get("iterations"),
    )
    aio_params = AioParams(
        swarm_count=get("tdr-factor"),
        elite_factor=get("elite-factor"),
        mutation_rate=get("mutation-rate"),
        la_reward=get("la-reward"),
        la_penalty=get("la-penalty"),
        pso=pso_params,
    )
    return ExperimentConfig(
        algorithm=root.tag,
        benchmark=get("benchmark"),
        dims=get("dimensions"),
        runs=get("runs"),
        base_seed=get("seed"),
        pso_params=pso_params,
        aio_params=aio_params,
        output_path=get("output"),
    )


def load_config(path: str) -> ExperimentConfig:
    """Read and parse an XML experiment file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    return parse_config(text)
