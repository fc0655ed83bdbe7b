"""Span recorder for the traced run.

Each listed public bellkit function is wrapped at every place it is bound,
because the modules import names from each other (``from .linalg import
...``); ``DensityOperator`` is wrapped through its ``__init__`` so that
``isinstance`` checks keep working. Spans (name, start, end, parent, op id)
stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

#: layer -> metric name -> attributes of ``bellkit.<layer>`` recorded under it.
TRACED = {
    "linalg": {
        "hermitian_eigensystem": ("hermitian_eigensystem",),
        "DensityOperator": ("DensityOperator",),
        "partial_trace": ("partial_trace",),
        "random": ("random_unitary", "random_density", "random_pure", "random_dichotomic"),
    },
    "scenario": {name: (name,) for name in (
        "maximize_violation", "correlation_matrix", "bell_operator", "beta", "correlations")},
    "feasibility": {name: (name,) for name in (
        "joint_feasible", "fine_criterion", "marginals_from_scenario")},
    "entropy": {name: (name,) for name in (
        "entropy_report", "von_neumann_entropy", "linear_entropy_criterion",
        "horodecki_criterion", "bell_purity_bound")},
    "hidden_vars": {"build_hv_model": ("build_hv_model",), "verify_model": ("verify_model",)},
    "logic": {"distance": ("distance",), "quad_check": ("quad_check",)},
    "sweeps": {"run_sweep": ("run_sweep",)},
    "cli": {"main": ("main",)},
}

SPAN_NAMES = tuple(f"{layer}.{name}" for layer, names in TRACED.items() for name in names)


class Recorder:
    """Collects spans and outcome counters while installed."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)
            if name == "feasibility.joint_feasible":
                self.counters["lp_solves"] += 1
                self.counters["witnesses"] += result.witness is not None
                self.counters["disagreements"] += result.feasible != result.fine_criterion
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "bellkit" or n.startswith("bellkit.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"bellkit.{layer}"]
            for name, attrs in names.items():
                for attr in attrs:
                    original = getattr(home, attr)
                    if isinstance(original, type):
                        self._patch(original, "__init__", self._wrap(f"{layer}.{name}", original.__init__))
                        continue
                    wrapper = self._wrap(f"{layer}.{name}", original)
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def self_ms(self, scale_of_op) -> tuple[dict, dict]:
        """Per span name: total self time (ms, scaled per op by
        ``scale_of_op[op]``) and call count, over all recorded spans."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_total: dict = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, t0, t1, _, op) in enumerate(self.spans):
            self_total[name] += (t1 - t0 - child[i]) * 1e3 * scale_of_op[op]
            calls[name] += 1
        return self_total, calls

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent", "op"], "spans": self.spans},
            separators=(",", ":")))
