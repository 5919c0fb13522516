"""Span tracing from outside the package.

A ``Tracer`` swaps timing wrappers onto module attributes of ``aiopt``
(the names the package's own code looks up at call time) and restores
the originals on exit.  No source under ``src/aiopt`` is edited.

Spans are kept in memory as parallel arrays (name id, parent index,
start, end) and written out once at the end.  A span's self time is its
duration minus the durations of its direct children; calls are
single-threaded, so children never overlap.
"""
from __future__ import annotations

import importlib
import json
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

NO_PARENT = -1


def _rows(args, result) -> int:
    """Row count of the batch passed to ``BenchmarkSpec.evaluate(self, x)``."""
    return int(np.shape(args[1])[0]) if np.ndim(args[1]) == 2 else 1


def _empty_swarms(args, result) -> int:
    """Swarms of a ``SwarmPartition`` that got no dimension."""
    return sum(1 for dims in result.members if dims.size == 0)


def _improved(args, result) -> int:
    """``evaluate_swarm`` returns (fitness, improved_gbest)."""
    return int(result[1])


# (module, attribute, span name, {counter: fn(args, result) -> int}).
# Each entry wraps the name in the module that *calls* it: ``aio`` binds
# its own ``update_velocities`` etc. with ``from .pso import ...``.
SPAN_SITES = (
    ("aiopt.benchmarks", "BenchmarkSpec.evaluate", "benchmarks.evaluate",
     {"rows": _rows}),
    ("aiopt.automata", "LearningAutomaton.select_action", "automata.select", {}),
    ("aiopt.automata", "LearningAutomaton.reinforce", "automata.reinforce", {}),
    ("aiopt.aio", "init_aio_state", "aio.init_state", {}),
    ("aiopt.aio", "aio_step", "aio.step", {}),
    ("aiopt.aio", "select_memberships", "aio.membership",
     {"empty_swarms": _empty_swarms}),
    ("aiopt.aio", "select_populations", "aio.population", {}),
    ("aiopt.aio", "evaluate_swarm", "aio.context_eval",
     {"improved": _improved}),
    ("aiopt.aio", "reinforce_layers", "aio.reinforce", {}),
    ("aiopt.aio", "rank_and_concentrate", "aio.concentrate", {}),
    ("aiopt.aio", "init_population", "pso.init_population", {}),
    ("aiopt.aio", "update_velocities", "pso.update_velocities", {}),
    ("aiopt.aio", "update_positions", "pso.update_positions", {}),
    ("aiopt.pso", "init_population", "pso.init_population", {}),
    ("aiopt.pso", "update_velocities", "pso.update_velocities", {}),
    ("aiopt.pso", "update_positions", "pso.update_positions", {}),
    ("aiopt.pso", "pso_step", "pso.step", {}),
    ("aiopt.harness", "run_aio", "aio.run", {}),
    ("aiopt.harness", "run_pso", "pso.run", {}),
    ("aiopt.cli", "load_config", "config.load_config", {}),
    ("aiopt.cli", "run_experiment", "harness.run_experiment", {}),
    ("aiopt.cli", "aggregate", "harness.aggregate", {}),
    ("aiopt.cli", "write_csv", "harness.write_csv", {}),
    ("aiopt.cli", "main", "cli.main", {}),
)


def _resolve(module_name: str, attribute: str):
    """Return (owner object, attribute name) for ``Class.method`` or ``name``."""
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


@contextmanager
def swapped(replacements):
    """Replace each ``module.attribute`` by ``make(original)``; restore on exit."""
    saved = []
    try:
        for module_name, attribute, make in replacements:
            owner, attr = _resolve(module_name, attribute)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder; ``installed()`` puts its wrappers in place."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self._stack = [NO_PARENT]

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, counters: dict):
        nid = self._id(name)
        stack = self._stack
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        totals = self.counters
        keys = [(f"{name}.{key}", count) for key, count in counters.items()]
        for key, _ in keys:
            totals.setdefault(key, 0)

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            for key, count in keys:
                totals[key] += count(args, result)
            return result

        return traced

    def installed(self):
        return swapped(
            (module_name, attribute, lambda fn, n=name, c=counters: self.wrap(fn, n, c))
            for module_name, attribute, name, counters in SPAN_SITES
        )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (sum of durations), self_s."""
        nid = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        busy = np.bincount(nid, weights=dur, minlength=n)
        self_s = np.bincount(nid, weights=own, minlength=n)
        return {
            name: {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def arrays(self) -> dict:
        """The spans (name, start, end, parent) and counters as plain arrays."""
        return {
            "names": list(self.names),
            "name_id": np.asarray(self.name_id, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "start": np.asarray(self.start),
            "end": np.asarray(self.end),
            "counters": dict(self.counters),
        }


def write_spans(path: Path, passes: list[dict]) -> None:
    """Write the spans of several traced passes (``Tracer.arrays()``) as one npz.

    Span ``i`` of the file belongs to pass ``pass_id[i]``; ``parent`` indexes
    the file's own spans, and names are ids into ``names``.
    """
    names: list[str] = sorted({n for p in passes for n in p["names"]})
    ids = {n: i for i, n in enumerate(names)}
    offset = 0
    cols = {"pass_id": [], "name_id": [], "parent": [], "start": [], "end": []}
    for k, p in enumerate(passes):
        remap = np.array([ids[n] for n in p["names"]], dtype=np.int64)
        cols["pass_id"].append(np.full(len(p["start"]), k, dtype=np.int64))
        cols["name_id"].append(remap[p["name_id"]] if len(remap) else p["name_id"])
        cols["parent"].append(np.where(p["parent"] >= 0, p["parent"] + offset, NO_PARENT))
        cols["start"].append(p["start"])
        cols["end"].append(p["end"])
        offset += len(p["start"])
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        names=np.array(names),
        **{k: np.concatenate(v) if v else np.empty(0) for k, v in cols.items()},
        counters=np.array(json.dumps([p["counters"] for p in passes])),
    )
