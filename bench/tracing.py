"""Span tracing of the program's layers, installed from the benchmark's side.

A layer is a public function or method of a privsynth module. While a traced
repetition runs, the tracer replaces each layer's name where its callers look
it up (a module global such as privsynth.engine.gaussian_mechanism, or a
class attribute such as privsynth.queries.QueryEvaluator.loss_and_gradient)
with a wrapper that records a span: (name, start, end, parent, run id).
Spans stay in memory until the run ends. A layer's self time is its spans'
duration minus the part of each span its child spans cover.
"""

from __future__ import annotations

import csv
import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

PROJECTION = "projection.relaxed_projection"

# (layer name, attribute path, modules whose namespace callers look it up in)
LAYERS = (
    ("schema.load_csv", "load_csv", ("privsynth.schema",)),
    ("schema.save_csv", "save_csv", ("privsynth.schema",)),
    ("queries.workload_build", "Workload.__init__", ("privsynth.queries",)),
    ("queries.eval_discrete", "eval_discrete", ("privsynth.engine", "privsynth.evaluation")),
    ("queries.evaluator_build", "QueryEvaluator.__init__", ("privsynth.queries",)),
    ("queries.answers", "QueryEvaluator.answers", ("privsynth.queries",)),
    ("queries.loss_and_gradient", "QueryEvaluator.loss_and_gradient", ("privsynth.queries",)),
    ("privacy.gaussian", "gaussian_mechanism", ("privsynth.engine",)),
    ("privacy.noisy_max", "report_noisy_max", ("privsynth.engine",)),
    ("privacy.ledger_spend", "PrivacyBudget.spend", ("privsynth.privacy",)),
    (PROJECTION, "relaxed_projection", ("privsynth.engine",)),
    ("projection.sparsemax", "sparsemax_rows", ("privsynth.projection",)),
    ("projection.adam", "AdamState.update", ("privsynth.projection",)),
    ("engine.fit", "fit", ("privsynth.engine",)),
    ("engine.conjectured_answers", "conjectured_answers", ("privsynth.engine",)),
    ("engine.save_relaxed_csv", "save_relaxed_csv", ("privsynth.engine",)),
    ("engine.load_relaxed_csv", "load_relaxed_csv", ("privsynth.engine",)),
    ("rounding.randomized_round", "randomized_round", ("privsynth.rounding",)),
    ("evaluation.max_error", "max_error", ("privsynth.evaluation",)),
    ("cli.workload", "cmd_workload", ("privsynth.cli",)),
    ("cli.fit", "cmd_fit", ("privsynth.cli",)),
    ("cli.round", "cmd_round", ("privsynth.cli",)),
    ("cli.eval", "cmd_eval", ("privsynth.cli",)),
)


class Tracer:
    """Collects spans of every layer call made while `recording` is active."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index or -1, run id)
        self.projections: list[tuple[int, int, int]] = []  # (run id, steps, best_step)
        self._stack: list[int] = []
        self._run_id = -1

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self._run_id)
            if name == PROJECTION:
                self.projections.append((self._run_id, result.steps, result.best_step))
            return result

        return traced

    @contextmanager
    def recording(self, run_id: int):
        """Install every wrapper for the duration of one repetition."""
        saved = []
        self._run_id = run_id
        try:
            for name, attr, modules in LAYERS:
                owner_path, _, leaf = attr.rpartition(".")
                for mod_name in modules:
                    owner = importlib.import_module(mod_name)
                    if owner_path:
                        owner = getattr(owner, owner_path)
                    original = owner.__dict__[leaf] if owner_path else getattr(owner, leaf)
                    saved.append((owner, leaf, original))
                    setattr(owner, leaf, self._wrap(name, original))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)
            self._stack.clear()

    def layers(self, run_id: int) -> dict[str, dict]:
        """Per layer: calls and self time within one repetition; every layer listed."""
        table = {name: {"calls": 0, "self_s": 0.0} for name, _, _ in LAYERS}
        covered = self_coverage(self.spans)
        for i, (name, start, end, _, rid) in enumerate(self.spans):
            if rid == run_id:
                table[name]["calls"] += 1
                table[name]["self_s"] += (end - start) - covered[i]
        return table

    def projection_counts(self, run_id: int) -> tuple[int, int]:
        """(steps, best steps) summed over the projections of one repetition."""
        rows = [(s, b) for rid, s, b in self.projections if rid == run_id]
        return sum(s for s, _ in rows), sum(b for _, b in rows)

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start", "end", "parent", "run_id"])
            writer.writerows(self.spans)


def self_coverage(spans) -> list[float]:
    """For each span, the length of its interval that its children cover."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = [0.0] * len(spans)
    for idx, intervals in children.items():
        lo, hi = spans[idx][1], spans[idx][2]
        total, cur_s, cur_e = 0.0, None, None
        for s, e in sorted(intervals):
            s, e = max(s, lo), min(e, hi)
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    total += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            total += cur_e - cur_s
        out[idx] = total
    return out
