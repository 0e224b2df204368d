"""Direct numerical integration of the delayed dynamics.

Continuous systems use fixed-step classical Runge-Kutta (4 stages).  The
delayed argument x(t - tau(t)) is evaluated at each stage time: arguments in
the initial window come from the history function, arguments inside the
computed grid from piecewise-linear interpolation of the stored solution,
and arguments beyond the last completed grid point (possible when the delay
drops below the step size) from the segment between the last grid point and
the current stage state.  With a zero delay this reduces to classical RK4
on the combined field, bit for bit.

Which source each stage reads, and at what weight, depends only on the
delays and the step grid, so a read plan works it out before the steps run:
numpy computes, for a block of PLAN_BLOCK steps at a time, one (source,
weight, grid index) triple per stage time and delay, from one
`DelayModel.values` call per stage time and delay.  The run loop over a
block is Python source generated from the system's monomials
(`model.emit_field_sum`): the four stages and every component, monomial and
delayed read are unrolled over local names, so a step makes no call and
builds no list per stage.  The loop binds nothing of one run (the states,
the history and the positivity record come in as arguments), so it is
generated and compiled once per (system, h) and kept in the small cache of
compiled functions in `model`, which every later run of that system at that
step size reuses.  The plan and the loop do the float operations of a
per-stage lookup and of `PolyVectorField.evaluate`, in the same order, so
the trajectory is the same bit for bit.

Fixed stepping is deliberate: time-varying delays create derivative kinks at
unpredictable times, and a fine fixed step with a documented O(h^2)
interpolation floor is reproducible where adaptive stepping is not.  The
full step history is retained because unbounded delays can reach back
arbitrarily far.

Discrete systems iterate the map exactly (floating point only), through
the same generated field sum, compiled once per system.

CSV export writes the bytes `'%.17g' % x` writes, without a formatting call
per float.  For PLAN_BLOCK rows at a time, numpy estimates the decimal
exponent E = floor(log10|x|), scales |x| by 10**(16 - E) in double-double
(Dekker's TwoProduct against a table of powers of ten, each the sum of two
doubles), corrects E where the integer part falls outside [1e16, 1e17),
rounds to 17 digits and lays out digits, point and exponent by the %g rule.
The fraction it rounds is within 1e-14 of the exact one, so Python's
formatter takes every value whose fraction lies within 1e-7 of one half
(a possible tie), and zeros, values that are not finite and values outside
[1e-200, 1e200], where the scaling could leave the float range.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Mapping, Sequence

import numpy as np

from .delays import DelayModel, as_delay_list, history_depth
from .model import Dilation, LevelSetProbe, SystemModel, _cached, _define, _names, emit_field_sum, emit_key, lyapunov_v
from .model import RUN_CACHE_SIZE, _RUNS  # noqa: F401  (re-exported: the cache of compiled runs)
from .rates import DEFAULT_SAFETY, DecayBound, _exp

CLAMP_EPS = 1e-12      # negative roundoff this small is snapped to zero
VIOLATION_EPS = 1e-9   # anything below this is a recorded positivity violation
LEVEL_SETS = 50        # thresholds level_set_descent follows, gamma**0 to gamma**49


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


_GRID, _HISTORY, _SEGMENT, _CURRENT = range(4)
_SOURCES = ("grid", "history", "segment", "current")
PLAN_BLOCK = 1024  # steps per read plan, so the plan's size does not grow with the horizon


_BOUNDS = {"_LO": -math.inf, "_HI": math.inf}  # the names that _finite's test reads


def _finite(names: list[str]) -> str:
    return " and ".join(f"_LO < {v} < _HI" for v in names)


def _rk4_run(model: SystemModel, h: float) -> Callable:
    """run(x, rows, S, P, neg): the RK4 steps of one block of rows from the
    state tuple x, appending each new state tuple to the list S; True when
    every row was stepped, False at the first step whose state is not
    finite (that step appends nothing).  An OverflowError it raises means
    the same.

    rows are the block's rows of the read plan, and each delayed read is
    the branch its plan code picks: the interpolation between two stored
    states of S, the history function P, the segment from x to the stage
    state, or the stage state itself.  A new state with a negative
    component is replaced by neg(state), which records and clamps it.

    The loop body is straight-line source: the stages, components,
    monomials and delayed reads are unrolled over local names.  Nothing of
    one run is bound in the function, so one compiled run serves every run
    of the system at step size h, from the cache `_RUNS`.
    """
    h = float(h)
    fields = (model.f, *model.delayed_terms)
    return _cached((h.hex(), emit_key(fields)), lambda: _build_rk4_run(model, h))


def _build_rk4_run(model: SystemModel, h: float) -> Callable:
    n, fields = model.n, (model.f, *model.delayed_terms)
    X, Y, A, B = (_names(p, n) for p in "xyab")
    D = [_names(f"d{q}_", n) for q in range(len(fields) - 1)]
    plan = [f"c{st}_{q}, w{st}_{q}, i{st}_{q}" for st in range(3) for q in range(len(D))]
    body = []
    ns: dict = {**_BOUNDS, "h": h, "half": 0.5 * h, "sixth": h / 6.0}
    for stage, st in enumerate((0, 1, 1, 2), 1):  # k1 at t, k2 and k3 at t + h/2, k4 at t + h
        if stage > 1:
            inc = "h" if stage == 4 else "half"
            body += [f"y{i} = x{i} + {inc} * k{stage - 1}_{i}" for i in range(n)]
        Z = X if stage == 1 else Y
        for q, Dq in enumerate(D):
            c, w, i = f"c{st}_{q}", f"w{st}_{q}", f"i{st}_{q}"
            reads = {
                _GRID: [f"{', '.join(A)}, = S[{i}]", f"{', '.join(B)}, = S[{i} + 1]"]
                + [f"{d} = {a} + {w} * ({b} - {a})" for d, a, b in zip(Dq, A, B)],
                _HISTORY: [f"{', '.join(Dq)}, = P({w})"],
                _SEGMENT: [f"{d} = {x} + {w} * ({y} - {x})" for d, x, y in zip(Dq, X, Y)],
                _CURRENT: [f"{d} = {z}" for d, z in zip(Dq, Z)],
            }
            if stage == 3:  # k3 keeps k2's grid and history reads: same time, same values
                del reads[_GRID], reads[_HISTORY]
            for b, (code, lines) in enumerate(reads.items()):
                body += [f"{'elif' if b else 'if'} {c} == {code}:", *("    " + line for line in lines)]
        body += emit_field_sum(fields, [Z, *D], _names(f"k{stage}_", n), ns)
    body += [f"x{i} = x{i} + sixth * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})" for i in range(n)]
    state = ", ".join(X) + ","
    body += [
        f"if not ({_finite(X)}):",
        "    return False",
        f"if {' or '.join(f'{x} < 0.0' for x in X)}:",
        f"    {state} = neg(({state}))",
        f"S.append(({state}))",
    ]
    return _define("run", "x, rows, S, P, neg", [
        f"{state} = x",
        f"for {', '.join(plan)}, in rows:",
        *("    " + line for line in body),
        "return True",
    ], ns)


def _map_step(model: SystemModel) -> Callable:
    """step(x, d): the map f(x) + sum_q g_q(d[q]) as one straight-line
    function of the state tuple x and the delayed state tuples d; the next
    state tuple, or None when it is not finite."""
    n = model.n
    X, N, D = _names("x", n), _names("n", n), [_names(f"d{q}_", n) for q in range(len(model.delayed_terms))]
    body = [f"{', '.join(X)}, = x"] + [f"{', '.join(Dq)}, = d[{q}]" for q, Dq in enumerate(D)]
    ns: dict = dict(_BOUNDS)
    body += emit_field_sum((model.f, *model.delayed_terms), [X, *D], N, ns)
    body += [f"if {_finite(N)}: return ({', '.join(N)},)"]
    return _define("step", "x, d", body, ns)


def _read_plan(delays: Sequence[DelayModel], j0: int, j1: int, h: float, depth: float):
    """(rows, codes, error): the delayed reads of RK4 steps j0..j1 - 1.

    rows yields, in order, step j's row for `_rk4_run`: a (code, w, idx) triple
    per stage time t, t + h/2, t + h (k2 and k3 share the middle one) and
    delay.  With s = t_stage - tau(t_stage), the read is
      _CURRENT  the stage state, when tau = 0 (or s does not move off the
                step's base time t: the in-step segment has no width);
      _HISTORY  phi(w), w = max(s, -depth), when s <= 0;
      _SEGMENT  x + w (y - x), w = (s - t)/(t_stage - t), when s >= t;
      _GRID     the stored states idx and idx + 1 at weight
                w = (s - idx h)/h, idx = int(s/h) clamped to [0, j - 1].
    These are the float operations of a scalar lookup, so the reads are the
    same bit for bit.  codes holds the code of every stage's read, one row
    per (stage, delay), for counting reads.  error is the exception of the
    first step that reads a negative delay or below the initial window, else
    None; the rows stop before that step, which raises it if the run gets
    there.
    """
    t = np.arange(j0, j1) * h
    cols, codes, stop, error = [], [], j1 - j0, None
    for st, ts in enumerate((t, t + 0.5 * h, t + h)):
        for d in delays:
            tau = d.values(ts)
            s = ts - tau
            # in reverse order of priority: the first condition that holds writes last
            code = np.full(len(t), _GRID)
            ahead = s >= t
            code[ahead] = _CURRENT
            code[ahead & (ts > t)] = _SEGMENT
            code[s <= 0.0] = _HISTORY
            code[tau == 0.0] = _CURRENT
            grid = code == _GRID
            with np.errstate(divide="ignore", invalid="ignore"):
                idx = (np.where(grid, s, 0.0) / h).astype(np.int64)
                np.minimum(idx, np.arange(j0 - 1, j1 - 1), out=idx)
                np.maximum(idx, 0, out=idx)
                w = (s - idx * h) / h
                w[~grid] = 0.0
                if (seg := code == _SEGMENT).any():
                    w[seg] = (s[seg] - t[seg]) / (ts[seg] - t[seg])
                if (hist := code == _HISTORY).any():
                    w[hist] = np.where(-depth > s[hist], -depth, s[hist])
            cols += [code, w, idx]
            codes += [code] * (1 + (st == 1))
            bad = np.flatnonzero(~(tau >= 0.0) | (s < -depth - 1e-9))
            if len(bad) and bad[0] < stop:
                stop = m = int(bad[0])
                error = HistoryUnderrunError(
                    f"delayed argument {s[m]} reaches below the initial window "
                    f"[-{depth}, 0]; delay and history depth are inconsistent"
                ) if tau[m] >= 0.0 else ValueError(
                    f"delay became {'negative' if tau[m] < 0.0 else tau[m]} at t={float(ts[m])}"
                )
    return zip(*(col[:stop].tolist() for col in cols)), np.array(codes), error


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
    outcome for unstable systems.  metadata["delayed_reads"] counts the
    stages' delayed reads by source: history, grid, in-step segment and
    current stage state.
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

    n = model.n
    x = tuple(float(c) for c in phi(0.0))
    if len(x) != n:
        raise ValueError(f"history returns dimension {len(x)}, model n={n}")

    states: list[tuple[float, ...]] = [x]
    violations: list[tuple[float, int, float]] = []
    diverged_at = None

    def neg(xn: tuple[float, ...]) -> tuple[float, ...]:
        # the state of step len(states), at time len(states) * h
        violations.extend((len(states) * h, i, c) for i, c in enumerate(xn) if c < -VIOLATION_EPS)
        return tuple(0.0 if -CLAMP_EPS <= c < 0.0 else c for c in xn)

    run = _rk4_run(model, h)
    reads = np.zeros(len(_SOURCES), dtype=np.int64)
    for j0 in range(0, steps, PLAN_BLOCK):
        rows, codes, error = _read_plan(delays, j0, min(j0 + PLAN_BLOCK, steps), h, depth)
        try:
            finished = run(states[-1], rows, states, phi, neg)
        except OverflowError:
            finished = False
        if not finished:
            diverged_at = len(states) * h
        taken = len(states) - 1 - j0 + (diverged_at is not None)  # the diverging step read too
        reads += np.bincount(codes[:, :taken].ravel(), minlength=len(_SOURCES))
        if diverged_at is not None:
            break
        if error is not None:
            raise error

    return Trajectory(
        times=np.arange(len(states)) * h,
        states=np.array(states),
        metadata={
            "kind": "continuous",
            "h": h,
            "horizon": horizon,
            "history_depth": depth,
            "delays": [repr(d) for d in delays],
            "positivity_violations": violations,
            "diverged_at": diverged_at,
            "delayed_reads": dict(zip(_SOURCES, reads.tolist())),
        },
    )


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

    step = _cached(("discrete", emit_key((model.f, *model.delayed_terms))), lambda: _map_step(model))

    violations: list[tuple[float, int, float]] = []
    diverged_at = None
    for k in range(horizon):
        delayed = []
        for d in delays:
            dk = d.value(k)
            if dk < 0:
                raise ValueError(f"delay became negative at k={k}")
            src = k - dk + depth
            if src < 0:
                raise HistoryUnderrunError(
                    f"delayed index {k - dk} reaches below the initial window "
                    f"{{-{depth}, ..., 0}}"
                )
            delayed.append(seq[src])
        try:
            xn = step(seq[k + depth], delayed)
        except OverflowError:
            xn = None
        if xn is None:
            diverged_at = k + 1
            break
        if min(xn) < -VIOLATION_EPS:
            violations += [(float(k + 1), i, c) for i, c in enumerate(xn) if c < -VIOLATION_EPS]
        seq.append(xn)

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
    mu = clock.mu(traj.times)
    over = np.isinf(mu)
    with np.errstate(invalid="ignore", over="ignore"):
        scaled = W * mu
    # an exponential clock past the float range: W mu = exp(log W + rate t),
    # with math.log and exp per element, as DecayBound's clocks are computed
    scaled[over] = [
        _exp(math.log(w) + clock.rate * t) if w else 0.0
        for w, t in zip(W[over].tolist(), traj.times[over].tolist())
    ]
    scaled[W == 0.0] = 0.0  # nothing left to scale, even by an infinite clock
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
) -> list[float]:
    """Entry times into the nested Lyapunov sublevel sets.

    For each threshold gamma**m * phi_norm of LevelSetProbe, m < LEVEL_SETS,
    the entry time is the first grid time after which V stays at or below the threshold
    for the rest of the run (computed from the suffix maximum of V).  Stops
    at the first threshold never entered; the returned times are
    non-decreasing by construction.
    """
    probe = LevelSetProbe(gamma, phi_norm)
    if len(traj.times) == 0:
        return []
    V = traj.lyapunov_values(v, dilation)
    suffix_max = np.maximum.accumulate(V[::-1])[::-1]
    thresholds = np.array([probe.threshold(m) for m in range(LEVEL_SETS)])
    # suffix_max is non-increasing: the first index at or below a threshold
    idx = np.maximum.accumulate(np.searchsorted(-suffix_max, -thresholds))
    count = int(np.sum(idx < len(V)))  # idx is non-decreasing: a prefix is in range
    zeros = np.flatnonzero(thresholds[:count] == 0.0)
    if len(zeros):
        count = int(zeros[0]) + 1  # the zero set is the last one to enter
    return traj.times[idx[:count]].tolist()


@functools.cache
def _tens() -> tuple[np.ndarray, ...]:
    """(hi, hi_h, hi_l, lo), indexed by E + 202 for E in [-202, 202]: the
    power 10**(16 - E) as the double-double hi + lo (hi the nearest double,
    lo the nearest double to the rest), with hi split into two 26-bit
    halves hi_h + hi_l for Dekker's TwoProduct.  Python's int to float
    conversion and int true division round correctly, so hi and lo are exact
    to the last bit."""
    hi, lo = [], []
    for k in range(16 + 202, 16 - 203, -1):
        if k >= 0:
            h = float(10**k)
            lo.append(float(10**k - int(h)))
        else:
            h = 1 / 10**-k
            num, den = h.as_integer_ratio()
            lo.append((den - num * 10**-k) / (den * 10**-k))
        hi.append(h)
    hi_a, lo_a = np.array(hi), np.array(lo)
    c = 134217729.0 * hi_a  # 2**27 + 1
    hi_h = c - (c - hi_a)
    return hi_a, hi_h, hi_a - hi_h, lo_a


@functools.cache
def _digit_quads() -> np.ndarray:
    """The four ASCII digits of 0000..9999, each packed in one uint32."""
    i = np.arange(10000)[:, None]
    return (ord("0") + i // np.array([1000, 100, 10, 1]) % 10).astype(np.uint8).view(np.uint32).ravel()


def _scaled(a, E):
    """(floor(X), X - floor(X)) of X = a * 10**(16 - E): the product in
    double-double, its integer part exact in int64 and its fraction within
    1e-14."""
    hi, hi_h, hi_l, lo = (col[E + 202] for col in _tens())
    c = 134217729.0 * a  # a = a_h + a_l, split as in `_tens`
    a_h = c - (c - a)
    a_l = a - a_h
    p = a * hi
    r = (((a_h * hi_h - p) + a_h * hi_l + a_l * hi_h) + a_l * hi_l) + a * lo
    floor = np.floor(r)
    return p.astype(np.int64) + floor.astype(np.int64), r - floor


def _g17_fields(x: np.ndarray, out: np.ndarray) -> None:
    """Write the bytes of `'%.17g' % x` for every element of x down its
    column of rows 0..28 of the uint8 array out (the module docstring has
    the method).

    The rows are slots: the sign, "0." and up to three zeros (for a decimal
    exponent E in [-4, -1]), 18 slots for the 17 digits and the decimal
    point, then "e", the exponent's sign and three exponent digits.  A slot
    the field does not use holds 0.
    """
    a = np.abs(x)
    fast = (a >= 1e-200) & (a <= 1e200)
    a[~fast] = 1.0
    E = np.floor(np.log10(a)).astype(np.int64)  # an estimate: corrected below
    N, frac = _scaled(a, E)
    off = np.flatnonzero((N < 10**16) | (N >= 10**17))
    if len(off):
        E[off] += np.where(N[off] < 10**16, -1, 1)
        N[off], frac[off] = _scaled(a[off], E[off])
    # a possible tie, or an exponent still off, goes to Python's formatter
    fast &= (N >= 10**16) & (N < 10**17) & (np.abs(frac - 0.5) >= 1e-7)
    N += frac > 0.5
    carry = N == 10**17
    N[carry] = 10**16
    E += carry

    quads = np.empty((len(x), 6), np.uint32)
    for j in range(4, 0, -1):
        N, rest = np.divmod(N, 10000)
        quads[:, j] = _digit_quads()[rest]
    quads[:, 0] = _digit_quads()[N]
    quads[:, 5] = 0
    # row 0 "0", rows 1..17 the digits, row 18 empty
    D = np.ascontiguousarray(quads.view(np.uint8)[:, 2:21].T)
    slot = np.arange(18, dtype=np.uint8)[:, None]
    digits = ((D[1:18] != ord("0")) * slot[1:]).max(axis=0)  # trailing zeros stripped
    sci = (E < -4) | (E >= 17)
    small = ~sci & (E < 0)
    fixed = ~sci & ~small
    point = (sci + small * 18 + fixed * (E + 1)).astype(np.uint8)  # 18: no point
    keep = np.maximum(digits, fixed * (E + 1)).astype(np.uint8)  # the integer part stays
    below, above = slot < point, slot > point
    body = D[1:19] * below + D[0:18] * above
    body *= (slot - above) < keep
    body += (slot == point) * ((point < keep) * np.uint8(ord(".")))

    out[0] = (x < 0) * np.uint8(ord("-"))
    out[1] = small * np.uint8(ord("0"))
    out[2] = small * np.uint8(ord("."))
    out[3:6] = (slot[:3] < (-1 - E) * small) * np.uint8(ord("0"))
    out[6:24] = body
    out[24:29] = 0
    if len(i := np.flatnonzero(sci)):
        e = np.abs(E[i])
        quad = _digit_quads()[e].view(np.uint8).reshape(-1, 4)  # "0" and three digits
        out[24, i] = ord("e")
        out[25, i] = np.where(E[i] < 0, ord("-"), ord("+"))
        out[26, i] = (e >= 100) * quad[:, 1]
        out[27:29, i] = quad[:, 2:].T
    slow = np.flatnonzero(~fast)
    if len(slow):
        text = np.array([b"%.17g" % f for f in x[slow].tolist()], "S29")
        out[:29, slow] = text.view(np.uint8).reshape(-1, 29).T


def _csv_rows(block: np.ndarray) -> bytes:
    """The CSV lines of the rows of a 2-D float array, every float as '%.17g'."""
    rows, cols = block.shape
    out = np.empty((30, rows * cols), np.uint8)
    _g17_fields(block.ravel(), out)
    out[29] = ord(",")
    out[29, cols - 1 :: cols] = ord("\n")
    text = out.T.ravel()
    return np.compress(text != 0, text).tobytes()


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

    The fields are the bytes of `'%.17g' % x`, made by numpy a block of
    PLAN_BLOCK rows at a time (see the module docstring); zeros, values that
    are not finite or lie outside [1e-200, 1e200], and values within 1e-7 of
    a rounding tie are formatted by Python itself.
    """
    header = ["t"] + [f"x_{i + 1}" for i in range(traj.n)]
    columns = [traj.times, *traj.states.T]
    if v is not None and dilation is not None:
        header.append("V")
        columns.append(traj.lyapunov_values(v, dilation))
    if bound is not None and math.isfinite(bound.rate):
        header.append("bound")
        columns.append(bound.envelope(traj.times))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for j in range(0, len(traj.times), PLAN_BLOCK):
            fh.write(_csv_rows(np.column_stack([col[j : j + PLAN_BLOCK] for col in columns])))
