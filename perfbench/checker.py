"""Independent correctness checker for the delaycert benchmark.

Everything here is computed with numpy from the config documents; nothing
imports delaycert.  Per operation it checks:

- simulate: the CSV header and row count, the time grid, the V column
  against max_i (x_i/v_i)**(r_max/r_i) recomputed from the CSV's states,
  every row against one step of the method rebuilt from the CSV's own
  earlier rows (RK4 with linearly interpolated delayed states, or the exact
  map for discrete systems), and samples at fixed times against an
  independent reference run with step h/8 (discrete: the exact map);
- certify and bounds: the reported v is positive and every margin,
  recomputed at v, is negative;
- check: the delay report's supremum and history depth.

The tolerances accept a reordered floating-point sum and a more accurate
treatment of the delayed argument (a row may stray from the rebuilt step by
ten times what cubic Hermite instead of linear interpolation would change
it), and reject one state perturbed by 1e-3 relative, a wrong step size, or
a delayed read off by one grid index; selftest.py checks each of these.
Exit codes, envelope verdicts and bound rates are recorded as outcomes but
are not gated on.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# one RK4 step rebuilt from the CSV: a row may differ from the step with
# linearly interpolated delayed states by HERMITE_FACTOR times that step's gap
# to the step with cubic Hermite ones, plus STEP_RTOL of its largest state
HERMITE_FACTOR = 10.0
STEP_RTOL = 1e-12
# samples against the h/8 reference, relative to the trajectory's largest state
REF_RTOL = 5e-4
# V column against the recomputed Lyapunov values
V_RTOL = 1e-12
# discrete rows against the exact map (rounding only)
MAP_RTOL = 1e-12
# continuous reference sample times, within the horizon (a prefix: the
# reference integrates eight times as many steps as the program)
REF_TIMES = (0.5, 1.0, 2.0, 3.0, 4.0)
# discrete reference samples, as shares of the horizon
DISCRETE_SAMPLES = (0.0001, 0.01, 0.1, 0.5, 1.0)
CLAMP_EPS = 1e-12


class Field:
    """A polynomial vector field from its config document, evaluated on
    arrays of points of shape (..., n)."""

    def __init__(self, doc: dict):
        n = int(doc["n"])
        coeffs, exps, rows = [], [], []
        for i, terms in enumerate(doc["components"]):
            for term in terms:
                coeffs.append(float(term["coeff"]))
                exps.append([int(e) for e in term["exp"]])
                rows.append(i)
        self.n = n
        exps_arr = np.array(exps, dtype=float).reshape(len(coeffs), n)
        self.linear = bool(np.all(exps_arr.sum(axis=1) == 1))
        if self.linear:
            self.M = np.zeros((n, n))
            for c, e, i in zip(coeffs, exps_arr, rows):
                self.M[i, int(np.argmax(e))] += c
        else:
            self.exps = exps_arr
            self.weights = np.zeros((len(coeffs), n))
            self.weights[np.arange(len(coeffs)), rows] = coeffs

    def __call__(self, X: np.ndarray) -> np.ndarray:
        if self.linear:
            return X @ self.M.T
        return np.prod(X[..., None, :] ** self.exps, axis=-1) @ self.weights


@dataclass
class System:
    kind: str
    f: Field
    gs: list[Field]
    delays: list[dict]
    r: np.ndarray

    @classmethod
    def from_config(cls, doc: dict) -> "System":
        s = doc["system"]
        gs = [Field(g) for g in s["delayed"]]
        delays = doc["delay"] if isinstance(doc["delay"], list) else [doc["delay"]] * len(gs)
        return cls(s["kind"], Field(s["f"]), gs, delays, np.array(s["dilation"], dtype=float))

    def margins(self, v: np.ndarray) -> np.ndarray:
        m = self.f(v) + sum(g(v) for g in self.gs)
        return m - v if self.kind == "discrete" else m


def delay_fn(doc: dict):
    """Vectorized tau(t) (or d(k)) for a delay document."""
    family = doc["family"]
    if family == "constant":
        return lambda t: np.full(np.shape(t), float(doc["tau"]))
    if family == "sinusoidal":
        return lambda t: doc["a"] + doc["b"] * np.sin(t)
    if family == "piecewise_linear":
        kt = np.array([k[0] for k in doc["knots"]], dtype=float)
        ky = np.array([k[1] for k in doc["knots"]], dtype=float)
        return lambda t: np.interp(t, kt, ky)
    if family == "proportional_steps":
        return lambda k: np.floor(doc["alpha"] * np.asarray(k)).astype(np.int64)
    raise ValueError(f"checker has no model of delay family {family!r}")


def lyapunov(X: np.ndarray, v, r: np.ndarray) -> np.ndarray:
    return np.max((np.clip(X, 0.0, None) / np.asarray(v)) ** (r.max() / r), axis=1)


# -- continuous ------------------------------------------------------------------


def _read_delayed(X, s, h, hist, cap, D=None):
    """X at times s from the grid j*h (rows up to cap+1): linear
    interpolation, or cubic Hermite with grid derivatives D; the constant
    history where s <= 0."""
    idx = np.maximum(np.minimum(np.floor(s / h).astype(np.int64), cap), 0)
    w = ((s - idx * h) / h)[..., None]
    a, b = X[idx], X[idx + 1]
    if D is None:
        val = a + w * (b - a)
    else:
        w2, w3 = w * w, w * w * w
        val = ((2 * w3 - 3 * w2 + 1) * a + (w3 - 2 * w2 + w) * h * D[idx]
               + (3 * w2 - 2 * w3) * b + (w3 - w2) * h * D[idx + 1])
    return np.where((s <= 0.0)[..., None], hist, val)


def step_residual(sys_: System, hist: np.ndarray, h: float, X: np.ndarray) -> float:
    """How far the CSV's rows stray from one RK4 step taken from the
    previous row, with delayed states read from the CSV itself.

    The step is taken twice: with linearly interpolated delayed states (the
    program's documented method) and with cubic Hermite ones (a more
    accurate method).  A row passes when it lies within HERMITE_FACTOR times
    the gap between the two, plus STEP_RTOL of the row's largest state.
    Returns the worst row's gap over its allowance; above 1 fails."""
    J = X.shape[0] - 1
    t_grid = np.arange(J + 1) * h
    taus = [delay_fn(d) for d in sys_.delays]
    cap_grid = np.maximum(np.arange(J + 1) - 1, 0)
    D = sys_.f(X)
    for g, tau in zip(sys_.gs, taus):
        D = D + g(_read_delayed(X, t_grid - tau(t_grid), h, hist, cap_grid))
    t, x, cap = t_grid[:-1], X[:-1], cap_grid[:-1]

    def step(derivs):
        def rhs(ts, y):
            out = sys_.f(y)
            for g, tau in zip(sys_.gs, taus):
                out = out + g(_read_delayed(X, ts - tau(ts), h, hist, cap, derivs))
            return out

        k1 = rhs(t, x)
        k2 = rhs(t + 0.5 * h, x + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, x + 0.5 * h * k2)
        k4 = rhs(t + h, x + h * k3)
        pred = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        pred[(pred < 0.0) & (pred >= -CLAMP_EPS)] = 0.0
        return pred

    linear, hermite = step(None), step(D)
    scale = np.abs(X[1:]).max(axis=1)
    allowance = (HERMITE_FACTOR * np.abs(hermite - linear).max(axis=1)
                 + STEP_RTOL * scale + 1e-300)
    return float((np.abs(linear - X[1:]).max(axis=1) / allowance).max())


def reference_samples(sys_list: list[System], hists: np.ndarray, h: float, times) -> np.ndarray:
    """Fine-step (h/8) RK4 reference for a batch of configs sharing f and g,
    sampled at `times`; returns (len(times), B, n)."""
    hr = h / 8.0
    steps = int(round(max(times) / hr))
    B, n = hists.shape
    f, gs = sys_list[0].f, sys_list[0].gs
    taus = [[delay_fn(d) for d in s.delays] for s in sys_list]
    Xs = np.empty((steps + 1, B, n))
    Xs[0] = hists
    cols = np.arange(B)

    def delayed(q, ts, j):
        s = ts - np.array([float(tau[q](ts)) for tau in taus])
        idx = np.clip(np.floor(s / hr).astype(np.int64), 0, max(j - 1, 0))
        w = ((s - idx * hr) / hr)[:, None]
        val = Xs[idx, cols] + w * (Xs[idx + 1, cols] - Xs[idx, cols])
        return np.where((s <= 0.0)[:, None], hists, val)

    def rhs(ts, y, j):
        out = f(y)
        for q, g in enumerate(gs):
            out = out + g(delayed(q, ts, j))
        return out

    for j in range(steps):
        t = j * hr
        x = Xs[j]
        k1 = rhs(t, x, j)
        k2 = rhs(t + 0.5 * hr, x + 0.5 * hr * k1, j)
        k3 = rhs(t + 0.5 * hr, x + 0.5 * hr * k2, j)
        k4 = rhs(t + hr, x + hr * k3, j)
        Xs[j + 1] = x + (hr / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return Xs[[int(round(t / hr)) for t in times]]


# -- discrete --------------------------------------------------------------------


def map_residual(sys_: System, X: np.ndarray) -> float:
    """Largest relative gap between each row and the map applied to the
    CSV's own earlier rows (history depth zero)."""
    k = np.arange(X.shape[0] - 1)
    pred = sys_.f(X[:-1])
    for g, d in zip(sys_.gs, sys_.delays):
        pred = pred + g(X[k - delay_fn(d)(k)])
    scale = np.maximum(np.abs(X[1:]).max(axis=1), 1e-300)
    return float((np.abs(pred - X[1:]).max(axis=1) / scale).max())


def map_reference(sys_: System, x0: np.ndarray, samples) -> np.ndarray:
    steps = max(samples)
    seq = np.empty((steps + 1, x0.size))
    seq[0] = x0
    ds = [delay_fn(d)(np.arange(steps)) for d in sys_.delays]
    F = sys_.f.M.T
    Gs = [g.M.T for g in sys_.gs]
    for k in range(steps):
        y = seq[k] @ F
        for G, d in zip(Gs, ds):
            y = y + seq[k - d[k]] @ G
        seq[k + 1] = y
    return seq[list(samples)]


# -- per-operation checks --------------------------------------------------------


@dataclass
class Verdicts:
    """Per-operation outcome of one pass: ok flags plus recorded outcomes."""

    ok: list[bool] = field(default_factory=list)
    reasons: list[str] = field(default_factory=list)
    outcomes: Counter = field(default_factory=Counter)
    rates: list[float] = field(default_factory=list)

    def add(self, ok: bool, reason: str = "") -> None:
        self.ok.append(ok)
        if not ok:
            self.reasons.append(reason)


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def check_trajectory(doc: dict, csv: Path, v, report: dict | None) -> str:
    """'' when the CSV and its report are right, else the first reason."""
    sys_ = System.from_config(doc)
    n = sys_.f.n
    header, data = read_csv(csv)
    expected = ["t"] + [f"x_{i + 1}" for i in range(n)] + ["V"]
    if header[: n + 2] != expected or header[n + 2:] not in ([], ["bound"]):
        return f"{csv.name}: header {header}"
    discrete = sys_.kind == "discrete"
    h = 1.0 if discrete else float(doc["sim"]["h"])
    rows = int(round(float(doc["sim"]["horizon"]) / h)) + 1
    if data.shape != (rows, len(header)):
        return f"{csv.name}: shape {data.shape}, expected ({rows}, {len(header)})"
    if report is None or report.get("samples") != rows or report.get("diverged_at") is not None:
        return f"{csv.name}: report {report}"
    t, X = data[:, 0], data[:, 1: n + 1]
    if not np.allclose(t, np.arange(rows) * h, rtol=1e-12, atol=1e-12):
        return f"{csv.name}: time grid"
    V = lyapunov(X, v, sys_.r)
    if not np.allclose(data[:, n + 1], V, rtol=V_RTOL, atol=1e-300):
        return f"{csv.name}: V column"
    hist = np.array(doc["initial_history"]["constant"], dtype=float)
    if discrete:
        gap = map_residual(sys_, X)
        if gap > MAP_RTOL:
            return f"{csv.name}: row off the map by {gap:.3g}"
        samples = sorted({int(q * (rows - 1)) for q in DISCRETE_SAMPLES})
        ref = map_reference(sys_, hist, samples)
        got = X[samples]
        if not np.allclose(got, ref, rtol=1e-9, atol=0.0):
            return f"{csv.name}: samples off the exact map"
        return ""
    gap = step_residual(sys_, hist, h, X)
    if gap > 1.0:
        return f"{csv.name}: row off one RK4 step by {gap:.3g} times the allowance"
    return ""


def check_reference(docs: list[dict], X_by_doc: list[np.ndarray]) -> list[str]:
    """Compare each continuous trajectory with the batched h/8 reference."""
    systems = [System.from_config(d) for d in docs]
    h = float(docs[0]["sim"]["h"])
    hists = np.array([d["initial_history"]["constant"] for d in docs], dtype=float)
    horizon = min(float(d["sim"]["horizon"]) for d in docs)
    times = [t for t in REF_TIMES if t <= horizon]
    ref = reference_samples(systems, hists, h, times)
    out = []
    for b, X in enumerate(X_by_doc):
        got = X[[int(round(t / h)) for t in times]]
        scale = np.abs(X).max()
        gap = float(np.abs(got - ref[:, b]).max() / scale)
        out.append("" if gap <= REF_RTOL else f"reference gap {gap:.3g}")
    return out


def check_certificate(doc: dict, cert: dict | None) -> str:
    if not cert or not cert.get("valid"):
        return f"no valid certificate: {cert}"
    sys_ = System.from_config(doc)
    v = np.array(cert["v"], dtype=float)
    if v.shape != (sys_.f.n,) or not np.all(v > 0.0):
        return f"certificate vector not positive: {cert['v']}"
    m = sys_.margins(v)
    if not np.all(m < 0.0):
        return f"margins at v not negative: {m.tolist()}"
    return ""


def _decode_all(text: str) -> list[dict]:
    dec = json.JSONDecoder()
    docs, pos = [], 0
    text = text.strip()
    while pos < len(text):
        doc, pos = dec.raw_decode(text, pos)
        docs.append(doc)
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return docs


def _record_sim(v: Verdicts, report: dict | None) -> None:
    if report and "envelope" in report:
        v.outcomes[f"envelope.holds={report['envelope']['holds']}"] += 1
    if report and "bound" in report:
        v.rates.append(float(report["bound"]["rate"]))


def check_pass(workload: str, docs: dict[str, dict], results: list[dict], out_dir: Path) -> Verdicts:
    """Verdicts for one pass, from the configs, each invocation's recorded
    result ({"code", "raised", "stdout", "stderr"}) and the CSVs in out_dir."""
    v = Verdicts()
    for res in results:
        v.outcomes[f"exit={res['code']}"] += 1
    if workload == "cubic_ensemble":
        res = results[0]
        reports = {}
        if res["raised"] is None:
            for rep in _decode_all(res["stdout"]):
                reports[Path(rep["csv"]).stem] = rep
        traj_docs, trajs, stems = [], [], []
        for stem, doc in docs.items():
            rep = reports.get(stem)
            _record_sim(v, rep)
            if res["raised"] is not None or rep is None:
                v.add(False, f"{stem}: {res['raised'] or 'no report'}")
                continue
            reason = check_trajectory(doc, out_dir / f"{stem}.csv", doc["analysis"]["v"], rep)
            if reason:
                v.add(False, reason)
                continue
            traj_docs.append(doc)
            trajs.append(read_csv(out_dir / f"{stem}.csv")[1][:, 1:3])
            stems.append(stem)
        if traj_docs:
            for stem, reason in zip(stems, check_reference(traj_docs, trajs)):
                v.add(not reason, f"{stem}: {reason}")
        return v
    if workload in ("linear_dense", "discrete_long"):
        (stem, doc), = docs.items()
        res = results[0]
        if res["raised"] is not None or res["code"] == 64:
            v.add(False, f"{stem}: {res['raised'] or res['stderr']}")
            return v
        rep = json.loads(res["stdout"])
        _record_sim(v, rep)
        csv = out_dir / f"{stem}.csv"
        sys_ = System.from_config(doc)
        weights = _linear_certificate(sys_)
        reason = check_trajectory(doc, csv, weights, rep)
        if not reason and sys_.kind == "continuous":
            X = read_csv(csv)[1][:, 1: sys_.f.n + 1]
            reason = check_reference([doc], [X])[0]
        v.add(not reason, f"{stem}: {reason}")
        return v
    (stem, doc), = docs.items()
    for cmd, res in zip(("check", "certify", "bounds"), results):
        if res["raised"] is not None or res["code"] == 64:
            v.add(False, f"{cmd}: {res['raised'] or res['stderr']}")
            continue
        rep = json.loads(res["stdout"])
        if cmd == "check":
            v.outcomes[f"check.verdict={rep.get('verdict')}"] += 1
            v.add(not _check_delay_report(doc["delay"], rep), f"check: {rep.get('delays')}")
            continue
        reason = check_certificate(doc, rep.get("certificate"))
        if cmd == "bounds" and not reason:
            bounds = rep.get("bounds") or []
            v.rates.extend(float(b["rate"]) for b in bounds)
            if not bounds or not all(float(b["rate"]) > 0.0 for b in bounds):
                reason = f"bounds: {bounds}"
        v.add(not reason, f"{cmd}: {reason}")
    return v


def _linear_certificate(sys_: System) -> np.ndarray:
    """The v the linear route must report: M v = -1 (continuous) or
    (I - M) v = 1 (discrete), with M = A + sum B."""
    M = sys_.f.M + sum(g.M for g in sys_.gs)
    one = np.ones(sys_.f.n)
    if sys_.kind == "discrete":
        return np.linalg.solve(np.eye(sys_.f.n) - M, one)
    return np.linalg.solve(M, -one)


def _check_delay_report(delay: dict, rep: dict) -> str:
    d = (rep.get("delays") or {}).get("delay_0") or {}
    tau_sup = delay["a"] + abs(delay["b"])
    if not math.isclose(d.get("tau_sup", math.nan), tau_sup, rel_tol=1e-12):
        return "tau_sup"
    if not math.isclose(d.get("history_depth", math.nan), delay["a"], rel_tol=1e-12):
        return "history_depth"
    return ""
