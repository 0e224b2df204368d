"""Self-tests of the benchmark's checker, tracer and workloads.

    python3 perfbench/selftest.py        (from the repository root)

They run delaycert in-process on reduced-size configs (shorter horizons)
and take about a minute.  The file is not named test_*.py, so the
repository's test suite does not collect it.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
SCRATCH = HERE.parent / ".perfbench_work"

import checker  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNT_METRICS, Tracer  # noqa: E402
from worker import _run_op  # noqa: E402

from delaycert import cli  # noqa: E402

# reduced horizons: continuous ones stay past the checker's reference times
REDUCED_HORIZON = {"cubic_ensemble": 5.0, "linear_dense": 5.0, "discrete_long": 5000}
SEED = 7


def _scratch_dir() -> tempfile.TemporaryDirectory:
    SCRATCH.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=SCRATCH)


def reduced_configs(name: str, seed: int = SEED) -> dict[str, dict]:
    docs = workloads.WORKLOADS[name].configs(seed)
    for doc in docs.values():
        if name in REDUCED_HORIZON:
            doc["sim"]["horizon"] = REDUCED_HORIZON[name]
    return docs


def run_reduced(name: str, workdir: Path, tracer: Tracer | None = None):
    """Write reduced configs, run one pass in-process; returns (docs, results)."""
    docs = reduced_configs(name)
    config_dir, out_dir = workdir / "configs", workdir / "out"
    config_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    for stem, doc in docs.items():
        (config_dir / f"{stem}.json").write_text(json.dumps(doc))
    ops = workloads.WORKLOADS[name].ops(config_dir, out_dir)
    if tracer is None:
        return docs, [_run_op(cli, argv) for argv in ops]
    with tracer.installed():
        return docs, [_run_op(cli, argv) for argv in ops]


def integrate(doc: dict, mode: str) -> np.ndarray:
    """RK4 in the program's scheme, or a mutant of it: 'hermite' reads the
    delayed state by cubic Hermite interpolation (more accurate), 'shift'
    reads it one grid point late, 'step' advances by 1.001 h per step."""
    sys_ = checker.System.from_config(doc)
    h, horizon = doc["sim"]["h"], doc["sim"]["horizon"]
    hist = np.array(doc["initial_history"]["constant"], dtype=float)
    steps = int(round(horizon / h))
    X = np.empty((steps + 1, hist.size))
    D = np.empty_like(X)
    X[0] = hist
    tau = checker.delay_fn(sys_.delays[0])
    g = sys_.gs[0]
    hh = 1.001 * h if mode == "step" else h

    def read(s, j):
        if s <= 0.0:
            return hist
        idx = min(int(s / h), j - 1)
        w = (s - idx * h) / h
        if mode == "shift":
            idx = min(idx + 1, j - 1)
        a, b = X[idx], X[idx + 1]
        if mode == "hermite":
            return ((2 * w**3 - 3 * w**2 + 1) * a + (w**3 - 2 * w**2 + w) * h * D[idx]
                    + (3 * w**2 - 2 * w**3) * b + (w**3 - w**2) * h * D[idx + 1])
        return a + w * (b - a)

    for j in range(steps):
        t, x = j * h, X[j]

        def rhs(ts, y):
            return sys_.f(y) + g(read(ts - float(tau(np.array(ts))), j))

        k1 = rhs(t, x)
        D[j] = k1
        k2 = rhs(t + h / 2, x + hh / 2 * k1)
        k3 = rhs(t + h / 2, x + hh / 2 * k2)
        k4 = rhs(t + h, x + hh * k3)
        X[j + 1] = x + hh / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return X


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = _scratch_dir()
        cls.dir = Path(cls.tmp.name) / "linear_dense"
        cls.docs, cls.results = run_reduced("linear_dense", cls.dir)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def _csv_verdict(self, transform) -> str:
        (stem, doc), = self.docs.items()
        src = self.dir / "out" / f"{stem}.csv"
        header, data = checker.read_csv(src)
        data = transform(data.copy())
        dst = self.dir / "mutant.csv"
        rows = "\n".join(",".join(f"{x:.17g}" for x in row) for row in data)
        dst.write_text(",".join(header) + "\n" + rows + "\n")
        v = checker._linear_certificate(checker.System.from_config(doc))
        return checker.check_trajectory(doc, dst, v, json.loads(self.results[0]["stdout"]))

    def test_program_output_passes(self):
        verdicts = checker.check_pass("linear_dense", self.docs, self.results, self.dir / "out")
        self.assertEqual(verdicts.ok, [True], verdicts.reasons)

    def test_one_state_perturbed_fails(self):
        rng = np.random.default_rng(0)
        for _ in range(3):
            row = int(rng.integers(1, 501))
            col = int(rng.integers(1, 21))

            def perturb(data):
                data[row, col] *= 1.0 + 1e-3
                return data

            self.assertIn("RK4 step", self._csv_verdict(perturb))

    def test_wrong_row_count_fails(self):
        self.assertIn("shape", self._csv_verdict(lambda data: data[:-1]))

    def test_bad_certificate_fails(self):
        (stem, doc), = reduced_configs("certify_nonlinear").items()
        good = {"v": [1.0] * 8, "valid": True}
        self.assertEqual(checker.check_certificate(doc, good), "")
        for bad in ([1.0] * 7 + [0.0], [1.0] * 7 + [-1.0], [1.0] * 7 + [1e6]):
            self.assertNotEqual(checker.check_certificate(doc, {"v": bad, "valid": True}), "")


class MutantIntegratorTest(unittest.TestCase):
    """The step and reference checks accept a more accurate delayed read and
    reject a delayed read one index late or a wrong step size."""

    def _verdict(self, doc, X):
        sys_ = checker.System.from_config(doc)
        hist = np.array(doc["initial_history"]["constant"], dtype=float)
        gap = checker.step_residual(sys_, hist, doc["sim"]["h"], X)
        return gap <= 1.0, checker.check_reference([doc], [X])[0] == ""

    def test_mutants(self):
        docs = reduced_configs("cubic_ensemble")
        for doc in list(docs.values())[:3] + list(reduced_configs("linear_dense").values()):
            self.assertEqual(self._verdict(doc, integrate(doc, "linear")), (True, True))
            self.assertEqual(self._verdict(doc, integrate(doc, "hermite")), (True, True))
            self.assertFalse(self._verdict(doc, integrate(doc, "shift"))[0])
            self.assertFalse(self._verdict(doc, integrate(doc, "step"))[0])


class WorkloadTest(unittest.TestCase):
    def test_generation_is_deterministic(self):
        for name, w in workloads.WORKLOADS.items():
            self.assertEqual(json.dumps(w.configs(3)), json.dumps(w.configs(3)), name)
            self.assertNotEqual(json.dumps(w.configs(3)), json.dumps(w.configs(4)), name)

    def test_reduced_runs_complete_and_check(self):
        for name in workloads.WORKLOADS:
            with self.subTest(name), _scratch_dir() as tmp:
                docs, results = run_reduced(name, Path(tmp))
                verdicts = checker.check_pass(name, docs, results, Path(tmp) / "out")
                self.assertEqual(len(verdicts.ok), workloads.WORKLOADS[name].ops_per_pass)
                self.assertTrue(all(verdicts.ok), verdicts.reasons)

    def test_traced_counters_repeat(self):
        counts = []
        for _ in range(2):
            with _scratch_dir() as tmp:
                tracer = Tracer()
                run_reduced("cubic_ensemble", Path(tmp), tracer)
                m = tracer.metrics()
                counts.append({k: m[k] for k in COUNT_METRICS if k in m})
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["model.field_eval_calls"], 0)
        self.assertEqual(counts[0]["simulate.rhs_per_step"], 8.0)


if __name__ == "__main__":
    unittest.main()
