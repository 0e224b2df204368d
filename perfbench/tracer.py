"""Outside-in tracer: times delaycert's layers by wrapping their public functions.

Each wrapper is installed at the name the caller resolves (for example
`delaycert.cli.simulate_continuous`, not `delaycert.simulate.simulate_continuous`,
because cli.py imported the name), so no code under src/ changes.  Spans
(name, start, end, parent) are kept in memory; counters are recorded at the
same boundaries.  `metrics()` derives each span name's self time: the span
minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

ROOT = "cli.main"

# (dotted module or class path, attribute, span name).  Names map to the
# per-layer metrics below; several entries may share one span name.
SPANS = (
    ("delaycert.cli", "main", ROOT),
    ("delaycert.cli", "load_config", "config.load_config"),
    ("delaycert.checks", "check_model", "checks.check_model"),
    ("delaycert.checks", "check_delay_assumption", "checks.delay_assumption"),
    ("delaycert.checks", "history_depth", "delays.history_depth"),
    ("delaycert.simulate", "history_depth", "delays.history_depth"),
    ("delaycert.cli", "find_certificate_nonlinear", "certify.search"),
    ("delaycert.cli", "find_certificate_linear", "certify.linear"),
    ("delaycert.rates", "eta_bound", "rates.bound"),
    ("delaycert.rates", "theta_bound", "rates.bound"),
    ("delaycert.rates", "xi_bound", "rates.bound"),
    ("delaycert.rates", "beta_bound", "rates.bound"),
    ("delaycert.cli", "simulate_continuous", "simulate.integrate"),
    ("delaycert.cli", "simulate_discrete", "simulate.integrate"),
    ("delaycert.simulate.Trajectory", "lyapunov_values", "simulate.lyapunov_values"),
    ("delaycert.cli", "envelope_check", "simulate.envelope_check"),
    ("delaycert.cli", "level_set_descent", "simulate.level_set_descent"),
    ("delaycert.cli", "export_csv", "simulate.export_csv"),
    ("delaycert.model.PolyVectorField", "evaluate", "model.field_eval"),
    ("delaycert.simulate", "lyapunov_v", "model.lyapunov_v"),
)

# Functions that are counted but not timed: their time stays with the caller.
COUNTERS = (
    ("delaycert.model.ScalarPoly", "evaluate", "model.poly_eval"),
    ("delaycert.certify", "margins", "certify.margins"),
    ("delaycert.cli", "verify_certificate", "certify.verify"),
    ("delaycert.certify", "verify_certificate", "certify.verify"),
    ("delaycert.rates", "verify_certificate", "certify.verify"),
)

# Per-layer metrics in report order: (name, unit).  Every "_s" metric is a
# self time summed over one pass.
LAYER_METRICS = (
    ("model.field_eval_calls", "count"),
    ("model.field_eval_s", "s"),
    ("model.poly_eval_calls", "count"),
    ("model.lyapunov_v_calls", "count"),
    ("model.lyapunov_v_s", "s"),
    ("simulate.integrate_s", "s"),
    ("simulate.integrate_calls", "count"),
    ("simulate.steps", "count"),
    ("simulate.rhs_per_step", "ratio"),
    ("simulate.lyapunov_values_calls", "count"),
    ("simulate.lyapunov_values_s", "s"),
    ("simulate.envelope_check_s", "s"),
    ("simulate.level_set_descent_s", "s"),
    ("simulate.export_csv_s", "s"),
    ("simulate.csv_bytes", "bytes"),
    ("certify.search_s", "s"),
    ("certify.search_calls", "count"),
    ("certify.margins_calls", "count"),
    ("certify.verify_calls", "count"),
    ("certify.linear_s", "s"),
    ("rates.bound_s", "s"),
    ("rates.solve_monotone_calls", "count"),
    ("rates.root_fn_evals", "count"),
    ("checks.check_model_s", "s"),
    ("checks.delay_assumption_s", "s"),
    ("delays.history_depth_calls", "count"),
    ("delays.history_depth_s", "s"),
    ("config.load_config_calls", "count"),
    ("config.load_config_s", "s"),
    ("cli.self_s", "s"),
    ("cli.ops", "count"),
)

COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS if unit in ("count", "bytes", "ratio"))


def _resolve(path: str):
    """The module, or the class inside a module, that `path` names."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Span and counter recorder for one traced pass of `ops_per_pass`
    operations."""

    def __init__(self, ops_per_pass: int = 0):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter = Counter({"cli.ops": ops_per_pass})
        self._stack: list[int] = [-1]

    def _timed(self, fn, name):
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1])
            starts.append(clock())
            ends.append(0.0)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        if name == "simulate.integrate":
            def integrate(*args, **kwargs):
                traj = wrapper(*args, **kwargs)
                self.counts["simulate.steps"] += len(traj.times) - 1
                return traj
            return integrate
        if name == "simulate.export_csv":
            def export(traj, path, *args, **kwargs):
                wrapper(traj, path, *args, **kwargs)
                self.counts["simulate.csv_bytes"] += os.path.getsize(path)
            return export
        return wrapper

    def _counted(self, fn, name):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _solve_monotone(self, fn):
        def wrapper(root_fn, *args, **kwargs):
            self.counts["rates.solve_monotone"] += 1

            def counted(x):
                self.counts["rates.root_fn"] += 1
                return root_fn(x)

            return fn(counted, *args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        """Install every wrapper, and restore the original names on exit."""
        saved = []
        plan = [(p, a, self._timed, n) for p, a, n in SPANS]
        plan += [(p, a, self._counted, n) for p, a, n in COUNTERS]
        plan.append(("delaycert.rates", "solve_monotone", lambda fn, _n: self._solve_monotone(fn), None))
        try:
            for path, attr, make, name in plan:
                owner = _resolve(path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- derived metrics -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as arrays: name table, name code, parent index, start, end."""
        table = sorted(set(self.names))
        code = {name: k for k, name in enumerate(table)}
        return {
            "names": np.array(table),
            "name_code": np.array([code[n] for n in self.names], dtype=np.int32),
            "parent": np.array(self.parents, dtype=np.int64),
            "start": np.array(self.starts),
            "end": np.array(self.ends),
        }

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass: calls, counters and self times."""
        a = self.arrays()
        names = list(a["names"])
        code, parent = a["name_code"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = np.bincount(code, weights=dur - covered, minlength=len(names))
        count = np.bincount(code, minlength=len(names))

        def calls(name):
            return int(count[names.index(name)]) if name in names else 0

        def secs(name):
            return float(own[names.index(name)]) if name in names else 0.0

        steps = self.counts["simulate.steps"]
        rhs = 0
        if "model.field_eval" in names and "simulate.integrate" in names:
            rhs = int(np.sum((code[has_parent] == names.index("model.field_eval"))
                             & (code[parent[has_parent]] == names.index("simulate.integrate"))))
        return {
            "model.field_eval_calls": calls("model.field_eval"),
            "model.field_eval_s": secs("model.field_eval"),
            "model.poly_eval_calls": self.counts["model.poly_eval"],
            "model.lyapunov_v_calls": calls("model.lyapunov_v"),
            "model.lyapunov_v_s": secs("model.lyapunov_v"),
            "simulate.integrate_s": secs("simulate.integrate"),
            "simulate.integrate_calls": calls("simulate.integrate"),
            "simulate.steps": steps,
            "simulate.rhs_per_step": rhs / steps if steps else 0.0,
            "simulate.lyapunov_values_calls": calls("simulate.lyapunov_values"),
            "simulate.lyapunov_values_s": secs("simulate.lyapunov_values"),
            "simulate.envelope_check_s": secs("simulate.envelope_check"),
            "simulate.level_set_descent_s": secs("simulate.level_set_descent"),
            "simulate.export_csv_s": secs("simulate.export_csv"),
            "simulate.csv_bytes": self.counts["simulate.csv_bytes"],
            "certify.search_s": secs("certify.search"),
            "certify.search_calls": calls("certify.search"),
            "certify.margins_calls": self.counts["certify.margins"],
            "certify.verify_calls": self.counts["certify.verify"],
            "certify.linear_s": secs("certify.linear"),
            "rates.bound_s": secs("rates.bound"),
            "rates.solve_monotone_calls": self.counts["rates.solve_monotone"],
            "rates.root_fn_evals": self.counts["rates.root_fn"],
            "checks.check_model_s": secs("checks.check_model"),
            "checks.delay_assumption_s": secs("checks.delay_assumption"),
            "delays.history_depth_calls": calls("delays.history_depth"),
            "delays.history_depth_s": secs("delays.history_depth"),
            "config.load_config_calls": calls("config.load_config"),
            "config.load_config_s": secs("config.load_config"),
            "cli.self_s": secs(ROOT),
            "cli.ops": self.counts["cli.ops"],
        }
