"""XML experiment configuration.

The root tag names the optimizer (``<pso>`` or ``<aio>``).  An optional
``<super-component type="pso">`` child names the embedded search
algorithm; only ``pso`` is available, other types are rejected so the
schema stays open for future algorithms.  Parameters are kebab-case
leaf tags and may sit directly under the root or inside the
super-component element; ``TAGS`` maps each one to the dataclass field
it sets.  Every parameter has a default, so the minimal valid document
is ``<aio><super-component type="pso"/></aio>``.

The parser only maps tags to fields and parses their text: defaults and
ranges live on the frozen dataclasses ``ExperimentConfig`` (in
``harness``), ``PsoParams`` and ``AioParams``, which check them when built.
"""
from __future__ import annotations

import xml.etree.ElementTree as ET
from fractions import Fraction

from .aio import AioParams
from .errors import ConfigError
from .harness import ALGORITHMS, ExperimentConfig
from .pso import PsoParams


def _integer(tag: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"<{tag}> must be an integer, got {text!r}") from None


def _number(tag: str, text: str) -> float:
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ConfigError(f"<{tag}> must be a finite number, got {text!r}") from None


def _text(tag: str, text: str) -> str:
    return text


# Leaf tag -> (section, field, parse).  The section names the dataclass
# that owns the field: ExperimentConfig, PsoParams or AioParams.
TAGS = {
    "benchmark": ("experiment", "benchmark", _text),
    "dimensions": ("experiment", "dims", _integer),
    "runs": ("experiment", "runs", _integer),
    "seed": ("experiment", "base_seed", _integer),
    "output": ("experiment", "output_path", _text),
    "population-size": ("pso", "population_size", _integer),
    "iterations": ("pso", "max_iterations", _integer),
    "c1": ("pso", "c1", _number),
    "c2": ("pso", "c2", _number),
    "w": ("pso", "w_fixed", _number),
    "w-max": ("pso", "w_max", _number),
    "w-min": ("pso", "w_min", _number),
    "tdr-factor": ("aio", "swarm_count", _integer),
    "elite-factor": ("aio", "elite_factor", _number),
    "mutation-rate": ("aio", "mutation_rate", _number),
    "la-reward": ("aio", "la_reward", _number),
    "la-penalty": ("aio", "la_penalty", _number),
}


def _check_attributes(element: ET.Element, allowed: str | None = None) -> None:
    extra = ", ".join(name for name in element.attrib if name != allowed)
    if extra:
        takes = f"no attributes but {allowed}" if allowed else "no attributes"
        raise ConfigError(f"<{element.tag}> takes {takes}, got {extra}")


def _collect_leaves(element: ET.Element, leaves: dict, allow_super: bool) -> None:
    """Parse the leaves under the root or ``<super-component>`` into ``leaves``."""
    _check_attributes(element, "type" if element.tag == "super-component" else None)
    for text in (element.text, *(child.tail for child in element)):
        if text and text.strip():
            raise ConfigError(f"<{element.tag}> must hold only elements, got text {text.strip()!r}")
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
        elif child.tag in TAGS:
            if child.tag in leaves:
                raise ConfigError(f"duplicate tag <{child.tag}>")
            if len(child):
                raise ConfigError(f"<{child.tag}> must hold only text, got <{child[0].tag}> inside it")
            _check_attributes(child)
            parse = TAGS[child.tag][2]
            leaves[child.tag] = parse(child.tag, (child.text or "").strip())
        else:
            raise ConfigError(f"unknown tag <{child.tag}>")


def parse_config(text: str | bytes, **overrides) -> ExperimentConfig:
    """Parse an XML experiment document; absent parameters take defaults, and
    ``overrides`` (``ExperimentConfig`` fields) replace the document's values.
    Bytes are decoded as the document's declaration or byte order mark says."""
    try:
        root = ET.fromstring(text)
    except (ET.ParseError, LookupError, ValueError) as exc:  # the last two: bad encodings
        raise ConfigError(f"malformed XML: {exc}") from exc
    if root.tag not in ALGORITHMS:
        raise ConfigError(f"root tag must be <pso> or <aio>, got <{root.tag}>")

    leaves: dict = {}
    _collect_leaves(root, leaves, allow_super=True)
    leaves.pop("super-component", None)

    sections: dict[str, dict] = {"experiment": {}, "pso": {}, "aio": {}}
    for tag, value in leaves.items():
        section, name, _ = TAGS[tag]
        sections[section][name] = value
    return ExperimentConfig(
        aio_params=AioParams(pso=PsoParams(**sections["pso"]), **sections["aio"]),
        **{"algorithm": root.tag, **sections["experiment"], **overrides},
    )


def load_config(path: str, **overrides) -> ExperimentConfig:
    """Read and parse an XML experiment file; see ``parse_config``."""
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    return parse_config(text, **overrides)
