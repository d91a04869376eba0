"""Span tracer for the benchmark's traced run.

The tracer wraps evodemo's public names at the place each one is looked up
while a search runs: ``evolution`` binds ``joint_fitness``, ``decode``,
``crossover``, ``mutate`` and ``validate_initial`` at import, so those are
replaced on the ``evolution`` module; ``evolution._run`` looks up
``make_offspring`` and ``migrate`` in its own module globals and calls
``rollout.generate`` through the module; environment steppers and policies
are wrapped on their classes.  Nothing inside the package changes.

Spans (name, parent, request, start, end) are kept in one flat array and
written out when the run ends.  A span's self time is its duration minus the
durations of its direct children.  Counting hooks run inside a span of their
own (``bench.hooks``), so their cost is not charged to the caller.

A wrapped call costs the tracer about a microsecond, which matters when the
rollout layer makes three wrapped calls per environment step.  The tracer
therefore measures that cost once (``calibrate``) and removes it from every
span: the part spent inside a span's own clock readings from its own self
time, and the rest from its parent's self time.  The saved spans keep the
raw clock readings.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter
from pathlib import Path

# (module, class name or None for the module itself, attribute, span name)
WRAPPED = (
    ("evolution", None, "init_population", "evolution.init_population"),
    ("evolution", None, "make_offspring", "evolution.make_offspring"),
    ("evolution", None, "evaluate_offspring", "evolution.evaluate_offspring"),
    ("evolution", None, "migrate", "evolution.migrate"),
    ("evolution", None, "joint_fitness", "fitness.joint_fitness"),
    ("evolution", None, "decode", "encoding.decode"),
    ("evolution", None, "crossover", "encoding.crossover"),
    ("evolution", None, "mutate", "encoding.mutate"),
    ("evolution", None, "random_genome", "encoding.random_genome"),
    ("evolution", None, "validate_initial", "environments.validate_initial"),
    ("evolution", None, "initial_state_from_vector", "environments.initial_state_from_vector"),
    ("rollout", None, "generate", "rollout.generate"),
    ("rollout", None, "make_env", "environments.make_env"),
    ("environments", "GridEnv", "step", "environments.step"),
    ("environments", "ReachEnv", "step", "environments.step"),
    ("policy", "TabularPolicy", "act", "policy.act"),
    ("policy", "TabularPolicy", "certainty", "policy.certainty"),
    ("policy", "GaussianControllerPolicy", "act", "policy.act"),
    ("policy", "GaussianControllerPolicy", "certainty", "policy.certainty"),
    ("fitness", "DemonstrationSet", "add", "fitness.demoset.add"),
    ("fitness", "DemonstrationSet", "discard", "fitness.demoset.discard"),
)

FIELDS = ("name", "parent", "request", "start", "end")
_WIDTH = len(FIELDS)


class Tracer:
    """Records nested spans and per-name counters while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.counts: Counter = Counter()
        self.starts: set = set()
        self.request = -1
        self.missing: list[str] = []
        self.inside_s = 0.0  # tracer cost inside a span's own clock readings
        self.outside_s = 0.0  # tracer cost a wrapped call adds outside them
        self._patches: list[tuple[object, str, object]] = []
        self._spans = array("d")  # FIELDS per span; indexes are exact in a double
        self._stack = [-1]
        self._finished: list[dict] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        spans, stack = self._spans, self._stack
        index = len(spans)
        spans.extend((self.name_id(name), stack[-1], self.request, time.perf_counter(), 0.0))
        stack.append(index)
        try:
            yield
        finally:
            spans[index + 4] = time.perf_counter()
            stack.pop()

    # -- wrapping ----------------------------------------------------------

    def install(self, evodemo) -> None:
        """Wrap every name in ``WRAPPED`` that the package still has."""
        hooks = _count_hooks(self)
        self.missing = []
        for module_name, class_name, attr, span_name in WRAPPED:
            owner = getattr(evodemo, module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(".".join(filter(None, (module_name, class_name, attr))))
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name, hooks.get(span_name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, original, span_name: str, hook=None):
        name_id = float(self.name_id(span_name))
        hook_id = float(self.name_id("bench.hooks"))
        spans, stack, clock, tracer = self._spans, self._stack, time.perf_counter, self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.extend((name_id, stack[-1], tracer.request, clock(), 0.0))
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index + 4] = clock()
                stack.pop()
            if hook is not None:
                index = len(spans)
                spans.extend((hook_id, stack[-1], tracer.request, clock(), 0.0))
                hook(args, result)
                spans[index + 4] = clock()
            return result

        traced.__wrapped__ = original
        return traced

    def calibrate(self, calls: int = 20000) -> None:
        """Measure what one wrapped call costs, inside and outside its span."""

        def noop(*args):
            return None

        traced = self._wrap(noop, "bench.calibration")
        mark = len(self._spans)
        best_plain = best_traced = best_inside = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop(1, 2)
            t1 = time.perf_counter()
            for _ in range(calls):
                traced(1, 2)
            t2 = time.perf_counter()
            recorded = self._spans[mark:]
            del self._spans[mark:]
            best_plain, best_traced = min(best_plain, t1 - t0), min(best_traced, t2 - t1)
            best_inside = min(best_inside, sum(recorded[4::_WIDTH]) - sum(recorded[3::_WIDTH]))
        # the wrapped function's own call is real work, not tracer cost
        self.inside_s = max((best_inside - best_plain) / calls, 0.0)
        self.outside_s = max((best_traced - best_plain) / calls - self.inside_s, 0.0)

    # -- results -----------------------------------------------------------

    def take(self, keep_spans: bool = True) -> dict:
        """Summarise the spans and counters recorded since the last call.

        Returns per span name the self time and the inclusive time, both with
        the tracer's cost removed, and the call count, plus the counters.
        Keeps the raw spans for ``save`` unless told not to.
        """
        import numpy as np

        table = np.array(self._spans, dtype=np.float64).reshape(-1, _WIDTH)
        del self._spans[:]
        table[:, 1] = np.where(table[:, 1] >= 0, table[:, 1] // _WIDTH, -1)  # offset -> row
        name = table[:, 0].astype(np.int64)
        parent = table[:, 1].astype(np.int64)
        duration = table[:, 4] - table[:, 3]
        nested = parent >= 0
        size = len(duration)
        children = np.bincount(parent[nested], minlength=size)
        self_raw = duration - np.bincount(parent[nested], weights=duration[nested], minlength=size)
        self_fixed = np.maximum(self_raw - self.inside_s - children * self.outside_s, 0.0)
        inclusive = self_fixed.copy()
        depth = _depths(parent)
        for level in range(int(depth.max(initial=0)), 0, -1):
            at = depth == level
            np.add.at(inclusive, parent[at], inclusive[at])

        def by_name(values):
            sums = np.bincount(name, weights=values, minlength=len(self.names))
            return {n: float(sums[i]) for i, n in enumerate(self.names)}

        counts = np.bincount(name, minlength=len(self.names))
        summary = {
            "self_s": by_name(self_fixed),
            "total_s": by_name(inclusive),
            "calls": {n: int(counts[i]) for i, n in enumerate(self.names)},
            "counts": dict(self.counts),
            "distinct_starts": len(self.starts),
        }
        self.counts.clear()
        self.starts.clear()
        if keep_spans:
            self._finished.append({field: table[:, i] for i, field in enumerate(FIELDS)})
        return summary

    def save(self, path: Path) -> None:
        """Write the kept spans; parent indexes count rows within one block."""
        import numpy as np

        arrays = {"names": np.array(self.names), "inside_s": self.inside_s,
                  "outside_s": self.outside_s}
        for block, spans in enumerate(self._finished):
            for field, values in spans.items():
                arrays[f"{field}_{block}"] = values
        np.savez(path, **arrays)


def _depths(parent):
    """Nesting depth of every span (0 for roots); parents precede children."""
    import numpy as np

    depth = np.zeros(len(parent), dtype=np.int64)
    current = parent.copy()
    while (current >= 0).any():
        up = current >= 0
        depth[up] += 1
        current[up] = parent[current[up]]
    return depth


def _count_hooks(tracer: Tracer) -> dict:
    """Counters taken where the work happens, keyed by span name."""
    counts = tracer.counts

    def joint_fitness(args, result):
        trajectory, demos = args[0], args[1]
        others = [t for t in demos.trajectories() if t is not trajectory]
        counts["fitness.pairs"] += len(others)
        counts["fitness.dist_elems"] += len(trajectory.states) * sum(len(t.states) for t in others)

    def generate(args, result):
        counts["rollout.steps"] += result.raw_length
        tracer.starts.add(args[2])

    def make_offspring(args, result):
        counts["evolution.offspring_valid"] += len(result)

    def migrate(args, result):
        offspring_ids = {individual.id for individual in args[1]}
        counts["evolution.admitted"] += sum(1 for ind in result if ind.id in offspring_ids)

    return {
        "fitness.joint_fitness": joint_fitness,
        "rollout.generate": generate,
        "evolution.make_offspring": make_offspring,
        "evolution.migrate": migrate,
    }
