"""Standard benchmark objectives for box-constrained minimization.

Five classic test functions (sphere, rosenbrock, ackley, griewank,
rastrigin), each with its canonical search domain and a known global
minimum of 0.  All functions accept a 1-D vector and return a float,
or a 2-D batch of row vectors and return a 1-D array of values.
``BenchmarkSpec.context_fitness`` scores points that differ from a base
point on a few columns; for the four objectives that reduce per-column
terms it computes terms for those columns only.
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
    if not np.isfinite(x).all():
        raise ValueError("input contains non-finite entries")
    return x


def _scalarize(x: np.ndarray, value: np.ndarray) -> float | np.ndarray:
    return float(value) if x.ndim == 1 else value


# Four objectives are a reduction over per-column terms.  ``terms(x, index)``
# maps points whose columns sit at the 1-based positions ``index`` to term
# arrays shaped like ``x``; ``reduce(terms, n)`` folds the last axis of n
# columns to one value per point.  The full functions and
# ``BenchmarkSpec.context_fitness`` share these kernels.  Each kernel applies
# its formula's operations one ufunc at a time, in the formula's order, into
# as few buffers as it can, so the terms are the formula's bits.


def _cos_2pi(x: np.ndarray) -> np.ndarray:
    """``np.cos(2.0 * np.pi * x)`` in one buffer."""
    out = np.multiply(2.0 * np.pi, x)
    return np.cos(out, out=out)


def _sphere_terms(x, index):
    return (x * x,)


def _sphere_reduce(terms, n):
    return terms[0].sum(axis=-1)


def _ackley_terms(x, index):
    return x * x, _cos_2pi(x)


def _ackley_reduce(terms, n):
    radial = -20.0 * np.exp(-0.2 * np.sqrt(terms[0].mean(axis=-1)))
    cosine = -np.exp(terms[1].mean(axis=-1))
    return radial + cosine + 20.0 + np.e


def _griewank_terms(x, index):
    trig = np.divide(x, np.sqrt(index))
    return x * x, np.cos(trig, out=trig)


def _griewank_reduce(terms, n):
    quad = terms[0].sum(axis=-1) / 4000.0
    return quad - terms[1].prod(axis=-1) + 1.0


def _rastrigin_terms(x, index):
    """``x * x - 10.0 * np.cos(2.0 * np.pi * x)``."""
    sq = x * x
    wave = _cos_2pi(x)
    np.multiply(10.0, wave, out=wave)
    return (np.subtract(sq, wave, out=sq),)


def _rastrigin_reduce(terms, n):
    return 10.0 * n + terms[0].sum(axis=-1)


TERMS = {
    "sphere": (_sphere_terms, _sphere_reduce),
    "ackley": (_ackley_terms, _ackley_reduce),
    "griewank": (_griewank_terms, _griewank_reduce),
    "rastrigin": (_rastrigin_terms, _rastrigin_reduce),
}


def _index(n: int) -> np.ndarray:
    """1-based float64 column positions of an n-column point."""
    return np.arange(1, n + 1, dtype=np.float64)


def _from_terms(name: str, x) -> float | np.ndarray:
    x = _as_points(x)
    terms, reduce = TERMS[name]
    n = x.shape[-1]
    return _scalarize(x, reduce(terms(x, _index(n)), n))


def sphere(x) -> float | np.ndarray:
    """Sum of squares; single bowl-shaped minimum at the origin."""
    return _from_terms("sphere", x)


def rosenbrock(x) -> float | np.ndarray:
    """Banana-valley function, minimum 0 at all-ones; needs length >= 2."""
    x = _as_points(x, min_dims=2)
    head, tail = x[..., :-1], x[..., 1:]
    # 100.0 * (tail - head**2) ** 2 + (head - 1.0) ** 2, one ufunc at a
    # time in that order into two buffers
    valley = np.square(head)
    np.subtract(tail, valley, out=valley)
    np.square(valley, out=valley)
    np.multiply(100.0, valley, out=valley)
    offset = np.subtract(head, 1.0)
    np.square(offset, out=offset)
    return _scalarize(x, np.add(valley, offset, out=valley).sum(axis=-1))


def ackley(x) -> float | np.ndarray:
    """Nearly flat outer region with a deep hole at the origin."""
    return _from_terms("ackley", x)


def griewank(x) -> float | np.ndarray:
    """Quadratic bowl modulated by a cosine product (1-based indices)."""
    return _from_terms("griewank", x)


def rastrigin(x) -> float | np.ndarray:
    """Sinusoidally modulated bowl with a regular grid of local minima."""
    return _from_terms("rastrigin", x)


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

    def context_fitness(
        self, swarm_dims: np.ndarray, values: np.ndarray, base: np.ndarray
    ) -> np.ndarray:
        """Fitness of ``base`` with columns ``swarm_dims`` set to each row of ``values``.

        Bit for bit ``evaluate`` of those context rows.  Rosenbrock, whose
        terms couple neighbouring columns, builds the rows and evaluates
        them.  The other objectives tile the base point's term row and
        overwrite the swarm's columns with the terms of ``values``, so the
        kernels see one row plus the swarm's columns instead of every
        context row.  ``swarm_dims`` must be distinct.  Raises ``ValueError``
        unless it is a non-empty list of in-range integers, one per column of
        the 2-D ``values``, and on a non-finite value or a non-finite base
        entry outside ``swarm_dims``.
        """
        swarm_dims = np.asarray(swarm_dims)
        values = np.asarray(values, dtype=np.float64)
        n = len(base)
        if swarm_dims.size == 0:
            raise ValueError("swarm dimension set must be non-empty")
        if (swarm_dims.dtype.kind not in "iu" or values.ndim != 2
                or values.shape[1:] != swarm_dims.shape):
            raise ValueError(f"need integer swarm dimensions and a column of values for each, "
                             f"got {swarm_dims.dtype} {swarm_dims.shape} and {values.shape}")
        if swarm_dims.min() < 0 or swarm_dims.max() >= n:
            raise ValueError("swarm dimension index out of range")
        if self.name not in TERMS:
            rows = np.empty((len(values), n))
            rows[:] = base
            rows[:, swarm_dims] = values
            return self.evaluate(rows)
        terms, reduce = TERMS[self.name]
        # The context rows replace the swarm's columns of base, so those
        # entries are neither checked nor passed to a kernel.
        base = np.array(base, dtype=np.float64)
        base[swarm_dims] = 0.0
        index = _index(n)
        matrices = []
        for row, part in zip(terms(_as_points(base), index),
                             terms(_as_points(values), index[swarm_dims])):
            matrix = np.empty((len(values), n))
            matrix[:] = row
            matrix[:, swarm_dims] = part
            matrices.append(matrix)
        return reduce(matrices, n)


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
