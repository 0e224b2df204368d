"""Direct numerical integration of the delayed dynamics.

Continuous systems use fixed-step classical Runge-Kutta (4 stages).  The
delayed argument x(t - tau(t)) is evaluated at each stage time: arguments in
the initial window come from the history function, arguments inside the
computed grid from piecewise-linear interpolation of the stored solution,
and arguments beyond the last completed grid point (possible when the delay
drops below the step size) from the segment between the last grid point and
the current stage state.  With a zero delay this reduces to classical RK4
on the combined field, bit for bit.

Fixed stepping is deliberate: time-varying delays create derivative kinks at
unpredictable times, and a fine fixed step with a documented O(h^2)
interpolation floor is reproducible where adaptive stepping is not.  The
full step history is retained because unbounded delays can reach back
arbitrarily far.

Discrete systems iterate the map exactly (floating point only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Mapping, Sequence

import numpy as np

from .delays import DelayModel, as_delay_list, history_depth
from .model import Dilation, LevelSetProbe, SystemModel, lyapunov_v
from .rates import DEFAULT_SAFETY, DecayBound

CLAMP_EPS = 1e-12      # negative roundoff this small is snapped to zero
VIOLATION_EPS = 1e-9   # anything below this is a recorded positivity violation


class HistoryUnderrunError(ValueError):
    """A delayed argument reached below the declared initial window."""


@dataclass
class Trajectory:
    """Simulated solution on a time grid.

    metadata records the step size, delay models, history description, any
    positivity violations (time, component, value), and `diverged_at` when
    the state left the finite range (the trajectory is truncated just
    before that time).

    v_values caches V along the trajectory: None until `lyapunov_values` is
    first called, then the pair ((v, dilation), V) for the last weights and
    dilation asked for.  V is read-only; a later call with the same
    (v, dilation) returns it without recomputing.
    """

    times: np.ndarray
    states: np.ndarray
    v_values: tuple[tuple[tuple[float, ...], Dilation], np.ndarray] | None = None
    metadata: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def diverged(self) -> bool:
        return self.metadata.get("diverged_at") is not None

    def lyapunov_values(self, v: Sequence[float], dilation: Dilation) -> np.ndarray:
        """V along the trajectory, read-only and computed once per (v,
        dilation); tiny negative roundoff is clipped to zero."""
        key = (tuple(float(vi) for vi in v), dilation)
        if self.v_values is None or self.v_values[0] != key:
            V = lyapunov_v(v, dilation, np.clip(self.states, 0.0, None))
            V.flags.writeable = False
            self.v_values = (key, V)
        return self.v_values[1]


def constant_history(x0: Sequence[float]) -> Callable[[float], tuple[float, ...]]:
    """History function that is identically x0 on the initial window."""
    frozen = tuple(float(x) for x in x0)
    return lambda t: frozen


def tabulated_history(times: Sequence[float], states) -> Callable[[float], tuple[float, ...]]:
    """Piecewise-linear history through sample points (times ascending, <= 0)."""
    ts = np.asarray(times, dtype=float)
    ys = np.asarray(states, dtype=float)
    if ts.ndim != 1 or len(ts) < 1 or not np.all(np.isfinite(ts)) or np.any(np.diff(ts) <= 0):
        raise ValueError("history times must be finite and strictly increasing")
    if ts[-1] < 0.0:
        raise ValueError("history table must include t = 0")

    def phi(t: float) -> tuple[float, ...]:
        return tuple(float(np.interp(t, ts, ys[:, j])) for j in range(ys.shape[1]))

    return phi


def simulate_continuous(
    model: SystemModel,
    delay: DelayModel | Sequence[DelayModel],
    phi: Callable[[float], Sequence[float]],
    h: float,
    horizon: float,
) -> Trajectory:
    """Integrate x'(t) = f(x(t)) + sum_q g_q(x(t - tau_q(t))) from history phi.

    phi must be defined (continuous, nonnegative) on [-history_depth, 0].
    State components in [-1e-12, 0) are clamped to zero as roundoff; deeper
    excursions are kept and those below -1e-9 are recorded as positivity
    violations.  A non-finite state stops the run and is reported through
    metadata["diverged_at"] rather than raised: blow-up is the expected
    outcome for unstable systems.
    """
    if model.is_discrete:
        raise ValueError("model is discrete; use simulate_discrete")
    if h <= 0.0 or horizon <= 0.0:
        raise ValueError("step size and horizon must be positive")
    delays = as_delay_list(delay, len(model.delayed_terms))
    if any(d.is_discrete for d in delays):
        raise ValueError("continuous simulation needs continuous delay models")
    depth = max(history_depth(d, probe_horizon=max(horizon, 10.0)) for d in delays)
    steps = int(round(horizon / h))
    if steps < 1:
        raise ValueError("horizon shorter than one step")

    f = model.f
    gs = model.delayed_terms
    n = model.n
    x0 = tuple(float(c) for c in phi(0.0))
    if len(x0) != n:
        raise ValueError(f"history returns dimension {len(x0)}, model n={n}")

    states: list[tuple[float, ...]] = [x0]
    violations: list[tuple[float, int, float]] = []
    diverged_at = None
    underrun_slack = depth + 1e-9

    def read_history(s: float) -> Sequence[float]:
        if s < -underrun_slack:
            raise HistoryUnderrunError(
                f"delayed argument {s} reaches below the initial window "
                f"[-{depth}, 0]; delay and history depth are inconsistent"
            )
        return phi(max(s, -depth))

    def delayed_state(q: int, t_stage: float, y: Sequence[float], t_base: float,
                      x_base: Sequence[float], j_complete: int) -> Sequence[float]:
        tau = delays[q].value(t_stage)
        if tau < 0.0:
            raise ValueError(f"delay became negative at t={t_stage}")
        if tau == 0.0:
            return y
        s = t_stage - tau
        if s <= 0.0:
            return read_history(s)
        if s >= t_base:
            # between the last completed point and the current stage
            w = (s - t_base) / (t_stage - t_base)
            return [xb + w * (yi - xb) for xb, yi in zip(x_base, y)]
        idx = int(s / h)
        if idx > j_complete - 1:
            idx = j_complete - 1
        if idx < 0:
            idx = 0
        t0 = idx * h
        w = (s - t0) / h
        a = states[idx]
        b = states[idx + 1]
        return [ai + w * (bi - ai) for ai, bi in zip(a, b)]

    def rhs(t_stage: float, y: Sequence[float], t_base: float,
            x_base: Sequence[float], j_complete: int) -> list[float]:
        out = f.evaluate(y)
        for q, g in enumerate(gs):
            yd = delayed_state(q, t_stage, y, t_base, x_base, j_complete)
            gy = g.evaluate(yd)
            for i in range(n):
                out[i] += gy[i]
        return out

    half = 0.5 * h
    sixth = h / 6.0
    for j in range(steps):
        t = j * h
        x = states[j]
        k1 = rhs(t, x, t, x, j)
        y2 = [xi + half * ki for xi, ki in zip(x, k1)]
        k2 = rhs(t + half, y2, t, x, j)
        y3 = [xi + half * ki for xi, ki in zip(x, k2)]
        k3 = rhs(t + half, y3, t, x, j)
        y4 = [xi + h * ki for xi, ki in zip(x, k3)]
        k4 = rhs(t + h, y4, t, x, j)
        xn = [
            xi + sixth * (a + 2.0 * b + 2.0 * c + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
        ]
        t_next = (j + 1) * h
        if not all(math.isfinite(c) for c in xn):
            diverged_at = t_next
            break
        for i, c in enumerate(xn):
            if c < 0.0:
                if c >= -CLAMP_EPS:
                    xn[i] = 0.0
                elif c < -VIOLATION_EPS:
                    violations.append((t_next, i, c))
        states.append(tuple(xn))

    times = np.array([j * h for j in range(len(states))])
    traj = Trajectory(
        times=times,
        states=np.array(states),
        metadata={
            "kind": "continuous",
            "h": h,
            "horizon": horizon,
            "history_depth": depth,
            "delays": [repr(d) for d in delays],
            "positivity_violations": violations,
            "diverged_at": diverged_at,
        },
    )
    return traj


def simulate_discrete(
    model: SystemModel,
    delay: DelayModel | Sequence[DelayModel],
    phi: Mapping[int, Sequence[float]] | Callable[[int], Sequence[float]],
    horizon: int,
) -> Trajectory:
    """Iterate x(k+1) = f(x(k)) + sum_q g_q(x(k - d_q(k))) exactly.

    phi must cover {-d_max, ..., 0} (a mapping or a callable); divergence to
    a non-finite state truncates the run and is reported in metadata.
    """
    if not model.is_discrete:
        raise ValueError("model is continuous; use simulate_continuous")
    if horizon < 1:
        raise ValueError("horizon must be at least one step")
    delays = as_delay_list(delay, len(model.delayed_terms))
    if any(not d.is_discrete for d in delays):
        raise ValueError("discrete simulation needs discrete delay models")
    depth = max(int(history_depth(d)) for d in delays)

    lookup = phi if callable(phi) else phi.__getitem__
    n = model.n
    seq: list[tuple[float, ...]] = []
    for k in range(-depth, 1):
        try:
            xk = tuple(float(c) for c in lookup(k))
        except (KeyError, IndexError) as exc:
            raise HistoryUnderrunError(
                f"initial history does not cover k={k} (needs {{-{depth}, ..., 0}})"
            ) from exc
        if len(xk) != n:
            raise ValueError(f"history at k={k} has dimension {len(xk)}, model n={n}")
        seq.append(xk)

    f = model.f
    gs = model.delayed_terms
    violations: list[tuple[float, int, float]] = []
    diverged_at = None
    for k in range(horizon):
        x = seq[k + depth]
        xn = f.evaluate(x)
        for q, g in enumerate(gs):
            dk = delays[q].value(k)
            if dk < 0:
                raise ValueError(f"delay became negative at k={k}")
            src = k - dk + depth
            if src < 0:
                raise HistoryUnderrunError(
                    f"delayed index {k - dk} reaches below the initial window "
                    f"{{-{depth}, ..., 0}}"
                )
            gy = g.evaluate(seq[src])
            for i in range(n):
                xn[i] += gy[i]
        if not all(math.isfinite(c) for c in xn):
            diverged_at = k + 1
            break
        for i, c in enumerate(xn):
            if c < -VIOLATION_EPS:
                violations.append((float(k + 1), i, c))
        seq.append(tuple(xn))

    recorded = len(seq) - depth
    times = np.arange(recorded, dtype=float)
    traj = Trajectory(
        times=times,
        states=np.array(seq[depth:]),
        metadata={
            "kind": "discrete",
            "horizon": horizon,
            "history_depth": depth,
            "delays": [repr(d) for d in delays],
            "positivity_violations": violations,
            "diverged_at": diverged_at,
        },
    )
    return traj


@dataclass(frozen=True)
class EnvelopeReport:
    """Outcome of checking a trajectory against an upper-solution envelope.

    The clock mu_u and the constant M_theory come from rates.upper_envelope,
    which derives W(t) mu_u(t) <= M_theory for every t >= 0 from an upper
    solution.  The envelope `holds` when that inequality holds at every grid
    time, up to a relative allowance of rates.DEFAULT_SAFETY for rounding.
    The verdict is valid at any horizon, including one shorter than the
    delay.  For the exponential and polynomial-reciprocal bounds mu_u is the
    bound's own mu; for the power-rate bounds it is (t/s + 1)**e, with s = 1
    under proportional delays and e the exponent the upper solution supports.

    M_fit is the largest observed W(t) mu_u(t) over the whole run (the
    smallest constant making W <= M/mu_u hold everywhere on the grid); where
    an exponential mu_u passes the float range it is computed as
    exp(log W + rate t), and it is inf only when that passes it too.
    """

    M_fit: float
    holds: bool
    M_theory: float

    def to_dict(self) -> dict:
        M_fit = self.M_fit if math.isfinite(self.M_fit) else "inf"
        return {"M_fit": M_fit, "M_theory": self.M_theory, "holds": self.holds}


def envelope_check(
    traj: Trajectory,
    clock: DecayBound,
    v: Sequence[float],
    dilation: Dilation,
    M_theory: float,
) -> EnvelopeReport:
    """Check W(t) clock.mu(t) <= M_theory at every grid time (see EnvelopeReport)."""
    if len(traj.times) == 0:
        raise ValueError("empty trajectory")
    W = traj.lyapunov_values(v, dilation)
    mu = np.array([clock.mu(t) for t in traj.times])
    over = np.isinf(mu)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        scaled = W * mu
        # an exponential clock past the float range: W mu = exp(log W + rate t)
        scaled[over] = np.exp(np.log(W[over]) + clock.rate * traj.times[over])
    M_fit = float(scaled.max())
    return EnvelopeReport(
        M_fit=M_fit, holds=M_fit <= M_theory * (1.0 + DEFAULT_SAFETY), M_theory=M_theory
    )


def level_set_descent(
    traj: Trajectory,
    v: Sequence[float],
    dilation: Dilation,
    gamma: float,
    phi_norm: float,
    m_max: int = 1000,
) -> list[float]:
    """Entry times into the nested Lyapunov sublevel sets.

    For each threshold gamma**m * phi_norm of LevelSetProbe, the entry time
    is the first grid time after which V stays at or below the threshold
    for the rest of the run (computed from the suffix maximum of V).  Stops
    at the first threshold never entered; the returned times are
    non-decreasing by construction.
    """
    probe = LevelSetProbe(gamma, phi_norm)
    if len(traj.times) == 0:
        return []
    V = traj.lyapunov_values(v, dilation)
    suffix_max = np.maximum.accumulate(V[::-1])[::-1]
    entries: list[float] = []
    idx = 0
    for m in range(m_max + 1):
        thr = probe.threshold(m)
        while idx < len(V) and suffix_max[idx] > thr:
            idx += 1
        if idx >= len(V):
            break
        entries.append(float(traj.times[idx]))
        if thr == 0.0:
            break
    return entries


def export_csv(
    traj: Trajectory,
    path,
    v: Sequence[float] | None = None,
    dilation: Dilation | None = None,
    bound: DecayBound | None = None,
) -> None:
    """Write the trajectory as CSV: t, x_1..x_n, then V and the envelope.

    The V column needs (v, dilation); the bound column is the envelope value
    1/mu(t), left out when the bound's rate is infinite (faster than any
    power: no envelope to write).  Floats are written with 17 significant
    digits so the file round-trips exactly.
    """
    header = ["t"] + [f"x_{i + 1}" for i in range(traj.n)]
    times = traj.times.tolist()
    columns = [times, *traj.states.T.tolist()]
    if v is not None and dilation is not None:
        header.append("V")
        columns.append(traj.lyapunov_values(v, dilation).tolist())
    if bound is not None and math.isfinite(bound.rate):
        header.append("bound")
        columns.append([bound.envelope(t) for t in times])
    row = ",".join(["%.17g"] * len(columns))
    lines = [",".join(header)] + [row % cells for cells in zip(*columns)]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
