"""Seeded workload generator for the delaycert benchmark.

Each workload turns a seed into experiment configs (JSON documents in the
CLI's schema) plus the list of CLI invocations that make up one pass.  The
program under test only ever sees the written files.  Before a config is
used, the generator asserts the hypotheses the workload relies on with
numpy alone, so that no seed can produce a blow-up or an uncertifiable
system.

This module imports numpy but not delaycert.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Seed used when the benchmark is run without --seed.
DEFAULT_SEED = 1

# 2-d cubic benchmark of the test suite: cooperative f, non-decreasing g,
# homogeneous of degree 2 under the dilation r = (1, 2).
CUBIC_F = {
    "n": 2,
    "components": [
        [{"coeff": -5.0, "exp": [3, 0]}, {"coeff": 2.0, "exp": [1, 1]}],
        [{"coeff": 1.0, "exp": [2, 1]}, {"coeff": -4.0, "exp": [0, 2]}],
    ],
}
CUBIC_G = {
    "n": 2,
    "components": [
        [{"coeff": 1.0, "exp": [1, 1]}],
        [{"coeff": 2.0, "exp": [4, 0]}],
    ],
}
CUBIC_V = [1.0, 1.0]
CUBIC_R = [1.0, 2.0]

# Every generated delay stays at or above this, far above any step size, so
# a delayed argument never falls inside the step being taken.
MIN_DELAY = 0.5


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    `configs(seed)` returns {file stem: config document}; `ops(config_dir,
    out_dir)` returns the CLI argv lists of one pass.  `ops_per_pass`
    counts operations: one per CLI invocation, or one per config inside
    `batch`.
    """

    name: str
    why: str
    configs: Callable[[int], dict[str, dict]]
    ops: Callable[[Path, Path], list[list[str]]]
    ops_per_pass: int


# -- helpers ------------------------------------------------------------------


def _matrix_field(M: np.ndarray) -> dict:
    n = M.shape[0]
    comps = []
    for i in range(n):
        terms = []
        for j in range(n):
            if M[i, j] != 0.0:
                exp = [0] * n
                exp[j] = 1
                terms.append({"coeff": float(M[i, j]), "exp": exp})
        comps.append(terms)
    return {"n": n, "components": comps}


def field_eval(doc: dict, x) -> np.ndarray:
    """Evaluate a vector-field document at one point with numpy."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(doc["n"])
    for i, terms in enumerate(doc["components"]):
        for term in terms:
            out[i] += term["coeff"] * np.prod(x ** np.asarray(term["exp"]))
    return out


def _base_config(kind: str, f: dict, g: dict, dilation, degree: float) -> dict:
    return {
        "version": 1,
        "system": {
            "kind": kind,
            "f": f,
            "delayed": [g],
            "dilation": list(dilation),
            "degree": degree,
        },
    }


def _delay_ok(doc: dict) -> None:
    family = doc["family"]
    if family == "constant":
        assert doc["tau"] >= MIN_DELAY
    elif family == "sinusoidal":
        assert doc["a"] - abs(doc["b"]) >= MIN_DELAY and abs(doc["b"]) <= 1.0
    elif family == "piecewise_linear":
        assert min(tau for _, tau in doc["knots"]) >= MIN_DELAY


# -- cubic_ensemble -------------------------------------------------------------


def _cubic_delay(rng: np.random.Generator, family: str) -> dict:
    if family == "constant":
        return {"family": "constant", "tau": float(rng.uniform(MIN_DELAY, 5.0))}
    if family == "sinusoidal":
        b = float(rng.uniform(-1.0, 1.0))
        a = float(rng.uniform(abs(b) + MIN_DELAY, 4.5))
        return {"family": "sinusoidal", "a": a, "b": b}
    t1 = float(rng.uniform(2.0, 10.0))
    t2 = float(rng.uniform(12.0, 30.0))
    taus = rng.uniform(MIN_DELAY, 5.0, size=3)
    return {
        "family": "piecewise_linear",
        "knots": [[0.0, float(taus[0])], [t1, float(taus[1])], [t2, float(taus[2])]],
    }


def cubic_configs(seed: int) -> dict[str, dict]:
    """Six configs of the cubic benchmark that differ in delay and history.

    The family mix is fixed (two of each) so that every seed does the same
    kind of work; only the parameters are drawn.  Histories are constant
    dilated rays (lam**r_i * v_i), on which V equals lam**2.
    """
    rng = np.random.default_rng([seed, 1])
    margins = field_eval(CUBIC_F, CUBIC_V) + field_eval(CUBIC_G, CUBIC_V)
    assert np.all(margins < 0.0), "cubic benchmark lost its certificate"
    out = {}
    for k, family in enumerate(("sinusoidal", "constant", "piecewise_linear") * 2):
        lam = float(rng.uniform(0.5, 1.2))
        delay = _cubic_delay(rng, family)
        _delay_ok(delay)
        doc = _base_config("continuous", CUBIC_F, CUBIC_G, CUBIC_R, 2.0)
        doc["delay"] = delay
        doc["initial_history"] = {"constant": [lam ** r * v for r, v in zip(CUBIC_R, CUBIC_V)]}
        doc["sim"] = {"h": 0.01, "horizon": 50.0}
        doc["analysis"] = {"v": list(CUBIC_V)}
        out[f"cubic_{k}"] = doc
    return out


# -- linear_dense ---------------------------------------------------------------

LINEAR_N = 20


def linear_dense_configs(seed: int) -> dict[str, dict]:
    """Dense Metzler A (diagonal -1) with a nonnegative B, constant tau = 1.

    Off-diagonal row sums of A + B stay below 0.875, so A + B is Hurwitz by
    Gershgorin for every seed; the assertion below re-checks it.
    """
    n = LINEAR_N
    rng = np.random.default_rng([seed, 2])
    A = rng.uniform(0.0, 0.5 / n, size=(n, n))
    np.fill_diagonal(A, -1.0)
    B = rng.uniform(0.0, 0.4 / n, size=(n, n))
    M = A + B
    assert np.max(np.linalg.eigvals(M).real) < 0.0, "A + B is not Hurwitz"
    assert np.all(np.linalg.solve(M, -np.ones(n)) > 0.0), "linear route infeasible"
    doc = _base_config("continuous", _matrix_field(A), _matrix_field(B), [1.0] * n, 0.0)
    doc["delay"] = {"family": "constant", "tau": 1.0}
    doc["initial_history"] = {"constant": [float(c) for c in rng.uniform(0.5, 1.5, size=n)]}
    doc["sim"] = {"h": 0.01, "horizon": 5.0}
    doc["analysis"] = {"bounds": ["eta"]}
    return {"linear_dense": doc}


# -- discrete_long --------------------------------------------------------------

DISCRETE_STEPS = 100_000


def discrete_configs(seed: int) -> dict[str, dict]:
    """2-d nonnegative map rescaled to a spectral radius of A + B in
    [0.85, 0.95], so the power-rate decay stays far from underflow over
    100k steps."""
    rng = np.random.default_rng([seed, 3])
    A = rng.uniform(0.05, 0.5, size=(2, 2))
    B = rng.uniform(0.05, 0.3, size=(2, 2))
    rho = float(np.max(np.abs(np.linalg.eigvals(A + B))))
    scale = float(rng.uniform(0.85, 0.95)) / rho
    A, B = A * scale, B * scale
    M = A + B
    assert np.max(np.abs(np.linalg.eigvals(M))) < 1.0, "A + B is not Schur"
    assert np.all(np.linalg.solve(np.eye(2) - M, np.ones(2)) > 0.0), "linear route infeasible"
    doc = _base_config("discrete", _matrix_field(A), _matrix_field(B), [1.0, 1.0], 0.0)
    doc["delay"] = {"family": "proportional_steps", "alpha": 0.5}
    doc["initial_history"] = {"constant": [float(c) for c in rng.uniform(0.5, 1.5, size=2)]}
    doc["sim"] = {"horizon": DISCRETE_STEPS}
    return {"discrete_long": doc}


# -- certify_nonlinear ----------------------------------------------------------

NONLINEAR_N = 8
# Seed of the n=8 system's sparsity pattern and base coefficients.  Fully
# random systems make the ray search's effort vary by about 11% (interquartile
# range of margin evaluations) from seed to seed; a fixed pattern with
# coefficients jittered by 10% keeps it near 4%, so run_s measures the code.
NONLINEAR_STRUCTURE_SEED = 1
NONLINEAR_JITTER = 0.1


def nonlinear_configs(seed: int) -> dict[str, dict]:
    """Degree-0 system under r = (1, 2, 1, 2, ...): linear couplings between
    components of equal weight, quadratic couplings from the weight-1
    components into the weight-2 ones.  The diagonal is set so that the
    all-ones vector certifies the system with margins of at least 0.5, which
    keeps the ray search's feasible cone wide for every seed.  The seed
    jitters the couplings, draws the delay and seeds the ray search."""
    n = NONLINEAR_N
    base = np.random.default_rng([NONLINEAR_STRUCTURE_SEED, 4])
    rng = np.random.default_rng([seed, 4])
    r = [1.0 if i % 2 == 0 else 2.0 for i in range(n)]
    light = [i for i in range(n) if r[i] == 1.0]
    f_comps: list[list[dict]] = [[] for _ in range(n)]
    g_comps: list[list[dict]] = [[] for _ in range(n)]

    def unit(j):
        e = [0] * n
        e[j] = 1
        return e

    def coeff(lo, hi):
        return float(base.uniform(lo, hi) * rng.uniform(1.0 - NONLINEAR_JITTER, 1.0 + NONLINEAR_JITTER))

    for i in range(n):
        same = [j for j in range(n) if r[j] == r[i]]
        for j in same:
            if j != i and base.random() < 0.6:
                f_comps[i].append({"coeff": coeff(0.1, 0.5), "exp": unit(j)})
            if base.random() < 0.6:
                g_comps[i].append({"coeff": coeff(0.1, 0.4), "exp": unit(j)})
        if r[i] == 2.0:
            for target, count in ((f_comps, 2), (g_comps, 2)):
                for _ in range(count):
                    a, b = sorted(base.choice(light, size=2))
                    e = [0] * n
                    e[a] += 1
                    e[b] += 1
                    target[i].append({"coeff": coeff(0.1, 0.5), "exp": e})
    g = {"n": n, "components": g_comps}
    f_off = {"n": n, "components": f_comps}
    ones = np.ones(n)
    push = field_eval(f_off, ones) + field_eval(g, ones)
    for i in range(n):
        d = float(push[i] + base.uniform(0.5, 1.0))
        f_comps[i].insert(0, {"coeff": -d, "exp": unit(i)})
    f = {"n": n, "components": f_comps}
    margins = field_eval(f, ones) + field_eval(g, ones)
    assert np.all(margins <= -0.5), "all-ones vector does not certify the system"
    b = float(rng.uniform(-0.5, 0.5))
    delay = {"family": "sinusoidal", "a": float(rng.uniform(abs(b) + MIN_DELAY, 2.0)), "b": b}
    _delay_ok(delay)
    doc = _base_config("continuous", f, g, r, 0.0)
    doc["delay"] = delay
    doc["initial_history"] = {"constant": [1.0] * n}
    doc["sim"] = {"h": 0.01, "horizon": 10.0}
    doc["seed"] = int(seed)
    return {"certify_nonlinear": doc}


# -- registry -------------------------------------------------------------------


def _simulate_ops(stem: str) -> Callable[[Path, Path], list[list[str]]]:
    def ops(config_dir: Path, out_dir: Path) -> list[list[str]]:
        return [["simulate", "--config", str(config_dir / f"{stem}.json"),
                 "--out", str(out_dir / f"{stem}.csv")]]
    return ops


def _batch_ops(config_dir: Path, out_dir: Path) -> list[list[str]]:
    return [["batch", *(str(config_dir / f"cubic_{k}.json") for k in range(6)),
             "--out", str(out_dir)]]


def _certify_ops(config_dir: Path, out_dir: Path) -> list[list[str]]:
    path = str(config_dir / "certify_nonlinear.json")
    return [[cmd, "--config", path] for cmd in ("check", "certify", "bounds")]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "cubic_ensemble",
            "batch over 6 cubic configs sharing one system: small-n RK4 with per-step "
            "overhead, delayed lookups and V/envelope/CSV post-processing",
            cubic_configs, _batch_ops, 6,
        ),
        Workload(
            "linear_dense",
            "simulate a dense n=20 Metzler system: O(n^3) polynomial field evaluation "
            "is almost all of the run",
            linear_dense_configs, _simulate_ops("linear_dense"), 1,
        ),
        Workload(
            "discrete_long",
            "simulate a 2-d map for 100k steps with proportional delay: V recomputation, "
            "CSV writing and memory dominate",
            discrete_configs, _simulate_ops("discrete_long"), 1,
        ),
        Workload(
            "certify_nonlinear",
            "check, certify, bounds on an n=8 nonlinear system: ray search over scattered "
            "single-point margin evaluations, plus checks and rates",
            nonlinear_configs, _certify_ops, 3,
        ),
    )
}


def write_configs(workload: Workload, seed: int, config_dir: Path) -> dict[str, dict]:
    """Generate the workload's configs for `seed` and write them as JSON."""
    config_dir.mkdir(parents=True, exist_ok=True)
    docs = workload.configs(seed)
    for stem, doc in docs.items():
        (config_dir / f"{stem}.json").write_text(json.dumps(doc, indent=1, sort_keys=True))
    return docs
