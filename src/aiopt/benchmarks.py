"""Standard benchmark objectives for box-constrained minimization.

Five classic test functions (sphere, rosenbrock, ackley, griewank,
rastrigin), each with its canonical search domain and a known global
minimum of 0.  All functions accept a 1-D vector and return a float,
or a 2-D batch of row vectors and return a 1-D array of values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check


def _as_points(x, min_dims: int = 1) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError(f"expected a vector or batch of vectors, got ndim={x.ndim}")
    if x.shape[-1] < min_dims:
        raise ValueError(f"input needs at least {min_dims} dimension(s), got {x.shape[-1]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains non-finite entries")
    return x


def _scalarize(x: np.ndarray, value: np.ndarray) -> float | np.ndarray:
    return float(value) if x.ndim == 1 else value


def sphere(x) -> float | np.ndarray:
    """Sum of squares; single bowl-shaped minimum at the origin."""
    x = _as_points(x)
    return _scalarize(x, np.sum(x * x, axis=-1))


def rosenbrock(x) -> float | np.ndarray:
    """Banana-valley function, minimum 0 at all-ones; needs length >= 2."""
    x = _as_points(x, min_dims=2)
    head, tail = x[..., :-1], x[..., 1:]
    return _scalarize(x, np.sum(100.0 * (tail - head**2) ** 2 + (head - 1.0) ** 2, axis=-1))


def ackley(x) -> float | np.ndarray:
    """Nearly flat outer region with a deep hole at the origin."""
    x = _as_points(x)
    radial = -20.0 * np.exp(-0.2 * np.sqrt(np.mean(x * x, axis=-1)))
    cosine = -np.exp(np.mean(np.cos(2.0 * np.pi * x), axis=-1))
    return _scalarize(x, radial + cosine + 20.0 + np.e)


def griewank(x) -> float | np.ndarray:
    """Quadratic bowl modulated by a cosine product (1-based indices)."""
    x = _as_points(x)
    idx = np.arange(1, x.shape[-1] + 1, dtype=np.float64)
    quad = np.sum(x * x, axis=-1) / 4000.0
    trig = np.prod(np.cos(x / np.sqrt(idx)), axis=-1)
    return _scalarize(x, quad - trig + 1.0)


def rastrigin(x) -> float | np.ndarray:
    """Sinusoidally modulated bowl with a regular grid of local minima."""
    x = _as_points(x)
    n = x.shape[-1]
    return _scalarize(x, 10.0 * n + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x), axis=-1))


FUNCTIONS = {
    "sphere": sphere,
    "rosenbrock": rosenbrock,
    "ackley": ackley,
    "griewank": griewank,
    "rastrigin": rastrigin,
}

# Canonical literature domains, per-dimension (lower, upper).
DOMAINS = {
    "sphere": (-100.0, 100.0),
    "rosenbrock": (-30.0, 30.0),
    "ackley": (-32.0, 32.0),
    "griewank": (-600.0, 600.0),
    "rastrigin": (-5.12, 5.12),
}


@dataclass
class BenchmarkSpec:
    """A benchmark function bound to a dimension count and search box."""

    name: str
    dims: int
    lower: float
    upper: float
    optimum_position: np.ndarray
    optimum_value: float

    def evaluate(self, x) -> float | np.ndarray:
        return FUNCTIONS[self.name](x)


def lookup_rules(name: str, dims: int) -> list[tuple[bool, str]]:
    """The ``check`` rules that ``lookup`` enforces on its arguments."""
    valid = ", ".join(sorted(FUNCTIONS))
    return [
        (name in FUNCTIONS, f"<benchmark> must be one of {valid}, got {name!r}"),
        (dims >= 2, f"<dimensions> must be >= 2, got {dims}"),
    ]


def lookup(name: str, dims: int) -> BenchmarkSpec:
    """Resolve a benchmark name to its spec with the standard domain."""
    check(*lookup_rules(name, dims))
    lower, upper = DOMAINS[name]
    optimum = np.ones(dims) if name == "rosenbrock" else np.zeros(dims)
    return BenchmarkSpec(
        name=name,
        dims=dims,
        lower=lower,
        upper=upper,
        optimum_position=optimum,
        optimum_value=0.0,
    )
