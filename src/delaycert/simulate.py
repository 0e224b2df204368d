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
`DelayModel.values` call per stage time and delay.  Every column of a plan,
and everything `_drive` finds in a block's rows, is computed per step, so
no output depends on where a block ends: the block sets only the plan's
memory and how many times a run calls the kernel, once per block.

The run loop over a block is one RK4 kernel with one contract (see
`_rk4_run`), built once per run and kept by nothing else, so the kernel a
run takes depends only on what its environment offers then.  Both forms
step a preallocated (steps + 1, n) array, snap each new component in
[-CLAMP_EPS, 0) to zero as roundoff before they store it, and stop only
at a state that is not finite:
  - C: `rk4_block`, one fixed function whose text does not depend on the
    system.  Its field sums are calls of `term_sum`, a walk over the
    system's term tables (`model.field_tables`, built once per run),
    which `margins_at`, the certificate search's margins, calls too.
    These, the power helper `native.PY_POW`, the CSV writer below and
    the extension section through which the search calls `margins_at`
    are one C source, which `native` compiles once per machine into one
    cached object, on the first simulate, export or search;
  - Python: the same loop, stage by stage, where each stage's field sum
    is f(z) + g_0(d_0) + g_1(d_1) + ..., each field from the monomial
    kernel `model._sum_monomials`, in the C walk's order.  It runs only
    where no C kernel can be built (no compiler, a failed compile, a
    cache that cannot be written), and it is the reference the C kernel
    is tested against.
One driver, `_run_block`, runs either over a block of the read plan in
one call: it fills in the block's history reads from phi before the
kernel runs, in one array call where phi has an array form.  `_drive`
runs the blocks and then finds each block's positivity violations in the
stored rows.  metadata["integrator"] says which kernel ran.  Both do the
float operations of a per-stage lookup and of `PolyVectorField.evaluate`,
in the same order, and a power x ** e in C is CPython's own float power,
so the trajectory, positivity record, divergence time and read counts are
the same bit for bit.

Fixed stepping is deliberate: time-varying delays create derivative kinks at
unpredictable times, and a fine fixed step with a documented O(h^2)
interpolation floor is reproducible where adaptive stepping is not.  The
full step history is retained because unbounded delays can reach back
arbitrarily far.

Discrete systems iterate the map exactly (floating point only), as the
one-stage case of the same kernels and driver: the stage count, one, and
the absence of the roundoff clamp follow from `SystemModel.is_discrete`.
The history rows are stored in front of the run's rows, and every delayed
read is an exact read of a stored row (`_map_plan`, from one
`DelayModel.values` call per block and delay).

CSV export writes the bytes `'%.17g' % x` writes, without a formatting call
per float where a C compiler is found.  One fixed C function, `csv_fields`
in the one compiled object, writes a block of PLAN_BLOCK rows into one
byte buffer, fields, commas and newlines in order.  For each value it
estimates the decimal exponent E = floor(log10|x|) from the binary one,
scales |x| by 10**(16 - E) in double-double (Dekker's TwoProduct against
a table of powers of ten, each the sum of two doubles), corrects E where
the integer part falls outside [1e16, 1e17), rounds to 17 digits and lays
out digits, point and exponent by the %g rule.  The fraction it rounds is
within 1e-14 of the exact one, so it stops at every value whose fraction
lies within 1e-7 of one half (a possible tie), and at zeros, values that
are not finite and values outside [1e-200, 1e200], where the scaling could
leave the float range.  It returns that value's index; Python writes the
value and its separator, and the C function resumes after it.  Where no
kernel can be built, one `%` over a whole block writes every value.

Both C functions of a run, `rk4_block` and `csv_fields`, are called
through `native.call`: they run without the GIL and without the lock of a
`native.held` block, so that `batch` runs overlap in them.  The Python
loops, the Python RK4 kernel among them, hold both throughout.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import native
from .delays import DelayModel, as_delay_list, history_depth
from .model import Dilation, LevelSetProbe, SystemModel, _sum_monomials, field_tables, lyapunov_v
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
    """History function that is identically x0 on the initial window.  Its
    array form phi.rows(ts) is x0 in each of len(ts) rows (see `_run_block`)."""
    frozen = tuple(float(x) for x in x0)

    def phi(t: float) -> tuple[float, ...]:
        return frozen

    phi.rows = lambda ts: np.full((len(ts), len(frozen)), frozen, dtype=float)
    return phi


def tabulated_history(times: Sequence[float], states) -> Callable[[float], tuple[float, ...]]:
    """Piecewise-linear history through sample points (times ascending, <= 0).
    Its array form phi.rows(ts) is phi at each time of ts, one row each,
    from one `np.interp` per column: the bits of phi (see `_run_block`)."""
    ts = np.asarray(times, dtype=float)
    ys = np.asarray(states, dtype=float)
    if ts.ndim != 1 or len(ts) < 1 or not np.all(np.isfinite(ts)) or np.any(np.diff(ts) <= 0):
        raise ValueError("history times must be finite and strictly increasing")
    if ts[-1] < 0.0:
        raise ValueError("history table must include t = 0")

    def phi(t: float) -> tuple[float, ...]:
        return tuple(float(np.interp(t, ts, ys[:, j])) for j in range(ys.shape[1]))

    phi.rows = lambda at: np.column_stack([np.interp(at, ts, ys[:, j]) for j in range(ys.shape[1])])
    return phi


_GRID, _HISTORY, _SEGMENT, _CURRENT = range(4)
_SOURCES = ("grid", "history", "segment", "current")
# Steps per read plan and rows per CSV block, so that neither grows with the
# horizon: a continuous plan holds 72 bytes per step and delay (590 KB per
# delay), and the CSV buffer FIELD_BYTES per value (1 MB for 5 columns).  A
# run of up to PLAN_BLOCK steps builds one plan, makes one kernel call and
# writes one CSV block.
PLAN_BLOCK = 8192


def _rk4_run(model: SystemModel, h: float) -> tuple[str, Callable]:
    """(integrator, kernel): the RK4 block loop of the system at step size
    h, built for one run.  It is the C kernel ("native", see `_native_rk4`)
    wherever `native.load` can build one at this call, and only otherwise
    the Python loop ("python", see `_python_rk4`).  For a discrete system
    both take one stage, the map itself, and store its value unclamped.

    Both kernels have one contract, kernel(S, j, r, r1, code, w, idx, P):
    from the state row j of the (steps + 1, n) array S they take the steps
    of the read plan's columns r .. r1 - 1 (code, w and idx, see
    `_read_plan`), storing the new state of column r' as row
    j + 1 + r' - r, where a history read takes the row idx of the array P.
    Each new component in [-CLAMP_EPS, 0) is stored as 0.0; a deeper one is
    stored as it is.  They return r1 when every step was taken, and
    -1 - r' when the state of column r' is not finite or one of its powers
    overflowed (it is not stored: the C kernel may have written its row,
    which the run does not keep).
    """
    h = float(h)
    kernel = _native_rk4(model, h)
    return ("native", kernel) if kernel is not None else ("python", _python_rk4(model, h))


def _python_rk4(model: SystemModel, h: float) -> Callable:
    """The kernel of `_rk4_run`'s contract as a Python loop: `rk4_block`'s
    loop, stage by stage, where each stage's field sum is f(z), plus
    g_0(d_0), plus g_1(d_1), ..., each from `_sum_monomials`.  A power that
    overflows counts there as a signed infinity, so its state is not
    finite and ends the call."""
    fields = [F._sparse for F in (model.f, *model.delayed_terms)]
    Q, stages = len(model.delayed_terms), 1 if model.is_discrete else 4
    half, sixth = 0.5 * h, h / 6.0

    def kernel(S, j, r, r1, code, w, idx, P):
        x, d = S[j].tolist(), [None] * Q
        plan = zip(range(r, r1), *(a[:, r:r1].T.tolist() for a in (code, w, idx)))
        for r, c, wr, ir in plan:
            k: list = []
            for stage in range(stages):  # k1 at t, k2 and k3 at t + h/2, k4 at t + h
                z = [a + (h if stage == 3 else half) * b for a, b in zip(x, k[-1])] if stage else x
                for q in range(Q):
                    p = (stage + 1) // 2 * Q + q
                    if stage == 2 and c[p] < _SEGMENT:  # k3 keeps k2's grid and history reads
                        continue
                    if c[p] == _GRID:
                        a, b = S[ir[p]:ir[p] + 2].tolist()
                        d[q] = [ai + wr[p] * (bi - ai) for ai, bi in zip(a, b)]
                    elif c[p] == _HISTORY:
                        d[q] = P[ir[p]].tolist()
                    elif c[p] == _SEGMENT:
                        d[q] = [xi + wr[p] * (zi - xi) for xi, zi in zip(x, z)]
                    else:
                        d[q] = z
                kz = _sum_monomials(fields[0], z)
                for g, dq in zip(fields[1:], d):
                    kz = [a + b for a, b in zip(kz, _sum_monomials(g, dq))]
                k.append(kz)
            # an RK4 step snaps roundoff below zero to zero, which leaves a state as finite as it was
            x = k[0] if stages == 1 else [0.0 if -CLAMP_EPS <= v < 0.0 else v for v in (
                xi + sixth * (a + 2.0 * b + 2.0 * e + f) for xi, a, b, e, f in zip(x, *k))]
            if not all(map(math.isfinite, x)):
                return -1 - r
            j += 1
            S[j] = x
        return r1

    return kernel


# `_python_rk4`'s loop as one fixed C function over `field_tables`, so one
# compiled object serves every system, and `certify.margins` as another
# over the same walk.  The plan codes are _GRID, _HISTORY, _SEGMENT and
# _CURRENT.
_RK4_SOURCE = f"#define CLAMP_EPS {CLAMP_EPS!r}\n" + r"""
enum { GRID, HISTORY, SEGMENT, CURRENT };

typedef struct { const int64_t *span, *first, *var, *odd; const double *coeff, *power; } Terms;

/* 0.0 + t_1 + t_2 + ... over the terms of group g of the tables at the
   point a, each t = coeff * a_j * a_k ** e with its factors in variable
   order, as model._sum_monomials sums; *stop is set where a power overflows */
static double term_sum(const Terms *T, int64_t g, const double *a, int *stop)
{
    double sum = 0.0, v;
    int64_t t, f;
    for (t = T->span[g]; t < T->span[g + 1]; t++) {
        f = T->first[t];
        if (T->first[t + 1] == f + 1 && T->power[f] == 1.0)  /* one linear factor */
            v = T->coeff[t] * a[T->var[f]];
        else
            for (v = T->coeff[t]; f < T->first[t + 1]; f++)
                v *= T->power[f] == 1.0 ? a[T->var[f]] : py_pow(a[T->var[f]], T->power[f], (int)T->odd[f], stop);
        sum += v;
    }
    return sum;
}

int64_t rk4_block(int64_t r, int64_t r1, int64_t R, int64_t j, int64_t n, int64_t Q, int64_t stages,
                  double *S, const int64_t *C, const double *W, const int64_t *I, const double *P,
                  const int64_t *span, const double *coeff, const int64_t *first,
                  const int64_t *var, const double *power, const int64_t *odd,
                  double h, double half, double sixth)
{
    const Terms T = {span, first, var, odd, coeff, power};
    double y[n], d[Q * n], k[4][n], v, *x = S + j * n;
    const double *a, *z;
    int64_t i, q, p, g, stage;
    int stop = 0;  /* a power overflowed, or the new state is not finite */
    for (; r < r1; r++, x += n) {
        for (stage = 0; stage < stages; stage++) {  /* k1 at t, k2 and k3 at t + h/2, k4 at t + h */
            for (i = 0; stage && i < n; i++)
                y[i] = x[i] + (stage == 3 ? h : half) * k[stage - 1][i];
            z = stage ? y : x;
            for (q = 0; q < Q; q++) {
                p = ((stage + 1) / 2 * Q + q) * R + r;
                if (stage == 2 && C[p] < SEGMENT)  /* k3 keeps k2's grid and history reads */
                    continue;
                a = C[p] == GRID ? S + I[p] * n : C[p] == HISTORY ? P + I[p] * n : z;
                for (i = 0; i < n; i++)
                    d[q * n + i] = C[p] == GRID ? a[i] + W[p] * (a[n + i] - a[i])
                                   : C[p] == SEGMENT ? x[i] + W[p] * (y[i] - x[i]) : a[i];
            }
            /* k = f(z) + g_1(d) + g_2(d + n) + ... */
            for (i = 0, g = 0; i < n; i++)
                for (q = 0; q <= Q; q++, g++) {
                    v = term_sum(&T, g, q ? d + (q - 1) * n : z, &stop);
                    k[stage][i] = q ? k[stage][i] + v : v;
                }
        }
        /* the new state goes to the next row, a step's roundoff below zero
           snapped to zero; the row is kept only when the state is finite */
        for (i = 0; i < n; i++) {
            v = stages == 1 ? k[0][i] : x[i] + sixth * (k[0][i] + 2.0 * k[1][i] + 2.0 * k[2][i] + k[3][i]);
            stop |= !(-HUGE_VAL < v && v < HUGE_VAL);
            x[n + i] = stages > 1 && v < 0.0 && v >= -CLAMP_EPS ? 0.0 : v;
        }
        if (stop)
            return -1 - r;
    }
    return r1;
}

/* the certificate margins at x, f_i(x) + (0.0 + g_0,i(x) + g_1,i(x) + ...),
   minus x_i for a map, as certify.margins' kernel path sums them; nonzero
   where a power overflowed */
int margins_at(int64_t n, int64_t Q, int64_t discrete, const double *x, double *out,
               const int64_t *span, const double *coeff, const int64_t *first,
               const int64_t *var, const double *power, const int64_t *odd)
{
    const Terms T = {span, first, var, odd, coeff, power};
    int stop = 0;
    for (int64_t i = 0; i < n; i++) {
        double g = 0.0;
        for (int64_t q = 1; q <= Q; q++)
            g += term_sum(&T, i * (Q + 1) + q, x, &stop);
        out[i] = term_sum(&T, i * (Q + 1), x, &stop) + g - (discrete ? x[i] : 0.0);
    }
    return stop;
}
"""


def _native_rk4(model: SystemModel, h: float) -> Callable | None:
    """kernel(S, j, r, r1, code, w, idx, P): `rk4_block` of `_RK4_SOURCE`
    on numpy arrays, with the system's term tables (`field_tables`, built
    here once), its stage count and h; None when `native.load` cannot
    build the C source."""
    lib = native.load(_SOURCE)
    if lib is None:
        return None
    import ctypes

    fn = lib.rk4_block
    i64, ptr, dbl = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    fn.restype = i64
    fn.argtypes = [*[i64] * 7, *[ptr] * 11, dbl, dbl, dbl]
    n, Q, stages = model.n, len(model.delayed_terms), 1 if model.is_discrete else 4
    tables = field_tables((model.f, *model.delayed_terms))
    hs = (h, 0.5 * h, h / 6.0)

    def kernel(S, j, r, r1, code, w, idx, P):
        arrays = (S, code, w, idx, P, *tables)
        return native.call(fn, r, r1, code.shape[1], j, n, Q, stages, *(a.ctypes.data for a in arrays), *hs)

    return kernel


def _read_plan(delays: Sequence[DelayModel], j0: int, j1: int, h: float, depth: float):
    """(code, w, idx, stop, error): the delayed reads of RK4 steps j0..j1 - 1.

    code, w and idx have a row per stage time t, t + h/2, t + h (k2 and k3
    share the middle one) and delay, row st * Q + q for stage time st and
    delay q of Q, and a column per step.  With s = t_stage - tau(t_stage),
    the read is
      _CURRENT  the stage state, when tau = 0 (or s does not move off the
                step's base time t: the in-step segment has no width);
      _HISTORY  phi(w), w = max(s, -depth), when s <= 0;
      _SEGMENT  x + w (y - x), w = (s - t)/(t_stage - t), when s >= t;
      _GRID     the stored states idx and idx + 1 at weight
                w = (s - idx h)/h, idx = int(s/h) clamped to [0, j - 1].
    These are the float operations of a scalar lookup, so the reads are the
    same bit for bit.  error is the exception of the first step that reads
    a negative delay or below the initial window, else None; stop is that
    step's column (j1 - j0 without one), and the run raises error if it
    gets there.
    """
    t = np.arange(j0, j1) * h
    cols: tuple[list, list, list] = ([], [], [])
    stop, error = j1 - j0, None
    for ts in (t, t + 0.5 * h, t + h):
        for d in delays:
            tau = d.values(ts)
            s = ts - tau
            # in reverse order of priority: the first condition that holds writes last
            code = np.full(len(t), _GRID, dtype=np.int64)
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
            for col, a in zip(cols, (code, w, idx)):
                col.append(a)
            bad = np.flatnonzero(~(tau >= 0.0) | (s < -depth - 1e-9))
            if len(bad) and bad[0] < stop:
                stop = m = int(bad[0])
                error = HistoryUnderrunError(
                    f"delayed argument {s[m]} reaches below the initial window "
                    f"[-{depth}, 0]; delay and history depth are inconsistent"
                ) if tau[m] >= 0.0 else ValueError(
                    f"delay became {'negative' if tau[m] < 0.0 else tau[m]} at t={float(ts[m])}"
                )
    return (*(np.array(col) for col in cols), stop, error)


def _map_plan(delays: Sequence[DelayModel], k0: int, k1: int, depth: int):
    """(code, w, idx, stop, error): the delayed reads of map steps
    k0 .. k1 - 1, in `_read_plan`'s form with one stage time.  Row q of
    step k reads the state itself (_CURRENT) where d_q(k) = 0, and
    otherwise the stored row idx = depth + k - d_q(k) (_HISTORY, a read of
    the store itself, see `_run_block`): the history rows come first in
    the store.  error is the exception of the first step whose delay is
    negative or reaches below the initial window, else None; stop is that
    step's column (k1 - k0 without one), and the run raises error if it
    gets there.
    """
    ks, code, idx, stop, error = np.arange(k0, k1), [], [], k1 - k0, None
    for d in delays:
        dk = d.values(ks)
        code.append(np.where(dk == 0, _CURRENT, _HISTORY))
        idx.append(ks - dk + depth)
        bad = np.flatnonzero((dk < 0) | (idx[-1] < 0))
        if len(bad) and bad[0] < stop:
            stop = m = int(bad[0])
            k, dm = k0 + m, int(dk[m])
            error = (ValueError(f"delay became negative at k={k}") if dm < 0 else HistoryUnderrunError(
                f"delayed index {k - dm} reaches below the initial window {{-{depth}, ..., 0}}"))
    return np.array(code, dtype=np.int64), np.zeros((len(delays), k1 - k0)), np.array(idx), stop, error


def _run_block(kernel: Callable, S: np.ndarray, j0: int, stop: int, code, w, idx, phi) -> tuple[int, bool]:
    """Steps j0 .. j0 + stop - 1 of the read plan (code, w, idx) in one call
    of kernel (see `_rk4_run`), from row j0 of the state store S: (rows of
    S then stored, True when every step was taken, False at a state that is
    not finite).  The history reads are filled in first: row k of P is phi
    at the k-th of them, and idx points there.  A phi with an array form,
    phi.rows(times) (`constant_history`, `tabulated_history`), gives P in
    one call; any other phi is called once per read.  Without phi (a map's
    plan) every history read is the row idx of S itself."""
    P = S
    if phi is not None:
        hist = code == _HISTORY
        hist[:, stop:] = False
        at = np.flatnonzero(hist)
        if hasattr(phi, "rows"):
            P = phi.rows(w.flat[at])
        else:
            P = np.array([phi(s) for s in w.flat[at].tolist()], dtype=float).reshape(-1, S.shape[1])
        idx.flat[at] = np.arange(len(at))
    r = kernel(S, j0, 0, stop, code, w, idx, P)
    return (j0 + stop + 1, True) if r == stop else (j0 - r, False)


def _drive(model: SystemModel, S: np.ndarray, j0: int, steps: int, h: float, plan: Callable, phi=None):
    """(integrator, stored, finished, violations, reads): steps 0 .. steps - 1
    of the system from row j0 of the store S, one call of the run's kernel
    (`_rk4_run`) per block of PLAN_BLOCK steps, plan(k0, k1) giving the
    block's reads (`_read_plan` or `_map_plan`, with phi as `_run_block`
    takes it).  A run of up to PLAN_BLOCK steps is one plan and one call.

    stored counts the rows of S then stored, and finished is False where a
    state was not finite.  violations lists the stored components below
    -VIOLATION_EPS as (time, component, value), time the step's number
    times h, in step and then component order; reads counts the delayed
    reads by source (k2 and k3 both read at the middle stage time), the
    diverging step's among them.  A block that holds a plan error raises
    it once the steps before it are taken.
    """
    integrator, kernel = _rk4_run(model, h)
    Q = len(model.delayed_terms)
    violations, reads = [], np.zeros(len(_SOURCES), dtype=np.int64)
    for k0 in range(0, steps, PLAN_BLOCK):
        code, w, idx, stop, error = plan(k0, min(k0 + PLAN_BLOCK, steps))
        j = j0 + k0
        stored, finished = _run_block(kernel, S, j, stop, code, w, idx, phi)
        rows, cols = np.nonzero(S[j + 1:stored] < -VIOLATION_EPS)
        violations += zip([(k0 + 1 + k) * h for k in rows.tolist()], cols.tolist(),
                          S[j + 1 + rows, cols].tolist())
        taken = stored - j - finished  # the steps that read, the diverging one among them
        reads += np.bincount(np.concatenate((code, code[Q:2 * Q]))[:, :taken].ravel(), minlength=len(_SOURCES))
        if not finished:
            break
        if error is not None:
            raise error
    return integrator, stored, finished, violations, reads


def _memory_bytes() -> float:
    """The machine's physical memory in bytes, or inf where the system
    does not report it."""
    try:
        size = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return math.inf
    return size if size > 0 else math.inf


def _state_store(rows: int, n: int) -> np.ndarray:
    """np.empty((rows, n)), the state store of a run; MemoryError where its
    bytes exceed physical memory, which an allocation that only reserves
    address space can pass, so that no step runs into a store the machine
    cannot hold."""
    if rows * n * 8 > _memory_bytes():
        raise MemoryError(f"a store of {rows} x {n} states exceeds physical memory")
    return np.empty((rows, n))


def simulate_continuous(
    model: SystemModel,
    delay: DelayModel | Sequence[DelayModel],
    phi: Callable[[float], Sequence[float]],
    h: float,
    horizon: float,
) -> Trajectory:
    """Integrate x'(t) = f(x(t)) + sum_q g_q(x(t - tau_q(t))) from history phi.

    phi must be defined (continuous, nonnegative) on [-history_depth, 0].
    The kernel snaps state components in [-CLAMP_EPS, 0) to zero as
    roundoff and keeps deeper excursions; after each plan block the stored
    components below -VIOLATION_EPS are recorded as positivity violations
    (time, component, value), in step and then component order.  A
    non-finite state stops the run and is reported through
    metadata["diverged_at"] rather than raised: blow-up is the expected
    outcome for unstable systems.  metadata["delayed_reads"] counts the
    stages' delayed reads by source: history, grid, in-step segment and
    current stage state.  metadata["integrator"] says which kernel ran the
    steps, "native" (the C kernel) or "python" (where no kernel could be
    built); both give the same trajectory bit for bit.  A step count whose
    states cannot be allocated, or would exceed physical memory, raises
    ValueError before any step is taken.
    """
    if model.is_discrete:
        raise ValueError("model is discrete; use simulate_discrete")
    if h <= 0.0 or horizon <= 0.0:
        raise ValueError("step size and horizon must be positive")
    delays = as_delay_list(delay, len(model.delayed_terms))
    if any(d.is_discrete for d in delays):
        raise ValueError("continuous simulation needs continuous delay models")
    depth = max(history_depth(d, probe_horizon=max(horizon, 10.0)) for d in delays)
    n = model.n
    try:
        steps = int(round(horizon / h))
        # the kernels' store, and the size of the trajectory they return
        S = _state_store(steps + 1, n)
    except (OverflowError, ValueError, MemoryError):
        raise ValueError(
            f"{horizon / h:.3g} steps of sim.h = {h!r} to sim.horizon = {horizon!r}: "
            "their states cannot be allocated"
        ) from None
    if steps < 1:
        raise ValueError("horizon shorter than one step")
    x = tuple(float(c) for c in phi(0.0))
    if len(x) != n:
        raise ValueError(f"history returns dimension {len(x)}, model n={n}")

    S[0] = x
    integrator, stored, finished, violations, reads = _drive(
        model, S, 0, steps, h, lambda j0, j1: _read_plan(delays, j0, j1, h, depth), phi
    )
    return Trajectory(
        times=np.arange(stored) * h,
        states=S[:stored],
        metadata={
            "kind": "continuous",
            "h": h,
            "horizon": horizon,
            "history_depth": depth,
            "delays": [repr(d) for d in delays],
            "positivity_violations": violations,
            "diverged_at": None if finished else stored * h,
            "delayed_reads": dict(zip(_SOURCES, reads.tolist())),
            "integrator": integrator,
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
    a non-finite state truncates the run and is reported in metadata.  The
    steps run as the one-stage case of `simulate_continuous`'s kernels
    (see the module docstring), and metadata["integrator"] says which ran.
    States below -VIOLATION_EPS are kept and recorded as positivity
    violations.  A horizon whose states cannot be allocated, or would
    exceed physical memory, raises ValueError before any step is taken.
    """
    if not model.is_discrete:
        raise ValueError("model is continuous; use simulate_continuous")
    if horizon < 1:
        raise ValueError("horizon must be at least one step")
    delays = as_delay_list(delay, len(model.delayed_terms))
    if any(not d.is_discrete for d in delays):
        raise ValueError("discrete simulation needs discrete delay models")
    depth = max(int(history_depth(d)) for d in delays)
    n = model.n
    try:
        # the history rows, then the run's
        S = _state_store(depth + 1 + horizon, n)
    except (OverflowError, ValueError, MemoryError):
        raise ValueError(f"sim.horizon = {horizon!r} steps: their states cannot be allocated") from None

    lookup = phi if callable(phi) else phi.__getitem__
    for k in range(-depth, 1):
        try:
            xk = tuple(float(c) for c in lookup(k))
        except (KeyError, IndexError) as exc:
            raise HistoryUnderrunError(
                f"initial history does not cover k={k} (needs {{-{depth}, ..., 0}})"
            ) from exc
        if len(xk) != n:
            raise ValueError(f"history at k={k} has dimension {len(xk)}, model n={n}")
        S[k + depth] = xk

    integrator, stored, finished, violations, _ = _drive(
        model, S, depth, horizon, 1.0, lambda k0, k1: _map_plan(delays, k0, k1, depth)
    )
    return Trajectory(
        times=np.arange(stored - depth, dtype=float),
        states=S[depth:stored],
        metadata={
            "kind": "discrete",
            "horizon": horizon,
            "history_depth": depth,
            "delays": [repr(d) for d in delays],
            "positivity_violations": violations,
            "diverged_at": None if finished else stored - depth,
            "integrator": integrator,
        },
    )


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


FIELD_BYTES = 25  # the longest '%.17g' field, as in "-2.2250738585072014e-308", and its separator

_CSV_SOURCE = r"""
#define LOW 10000000000000000LL   /* 10**16 */
#define HIGH 100000000000000000LL /* 10**17 */

static const char PAIRS[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* floor(X), with *frac = X - floor(X), of X = a * 10**(16 - E) in
   double-double, where t is the row E + 202 of the powers of ten */
static int64_t scaled(double a, const double *t, double *frac)
{
    double c = 134217729.0 * a;
    double a_h = c - (c - a);
    double a_l = a - a_h;
    double p = a * t[0];
    double r = (((a_h * t[1] - p) + a_h * t[2] + a_l * t[1]) + a_l * t[2]) + a * t[3];
    double f = __builtin_floor(r);
    *frac = r - f;
    return (int64_t)p + (int64_t)f;
}

int64_t csv_fields(const double *x, int64_t i, int64_t m, int64_t cols, const double *tens,
                   char *out, int64_t *end)
{
    char *o = out + *end, d[32] = {0};
    int64_t col = i % cols, E, N, e;
    uint64_t bits;
    uint32_t hi, lo;
    double a, frac;
    int nd, k;
    for (; i < m; i++) {
        a = __builtin_fabs(x[i]);
        if (!(a >= 1e-200 && a <= 1e200))
            break;
        /* E from the binary exponent and a linear log2 of the mantissa,
           which is at most one too low */
        __builtin_memcpy(&bits, &a, 8);
        E = (int64_t)__builtin_floor(((double)(int64_t)(bits >> 52) - 1023.0
                                      + (double)(bits & 0xfffffffffffffULL) * 0x1p-52)
                                     * 0.30102999566398120);
        N = scaled(a, tens + 4 * (E + 202), &frac);
        if (N < LOW || N >= HIGH) {
            E += N < LOW ? -1 : 1;
            N = scaled(a, tens + 4 * (E + 202), &frac);
        }
        /* a possible tie, or an exponent still off, goes to Python */
        if (N < LOW || N >= HIGH || __builtin_fabs(frac - 0.5) < 1e-7)
            break;
        N += frac > 0.5;
        if (N == HIGH) {
            N = LOW;
            E++;
        }
        hi = (uint32_t)(N / 100000000);
        lo = (uint32_t)(N % 100000000);
        for (k = 15; k >= 9; k -= 2, lo /= 100)
            __builtin_memcpy(d + k, PAIRS + 2 * (lo % 100), 2);
        for (k = 7; k >= 1; k -= 2, hi /= 100)
            __builtin_memcpy(d + k, PAIRS + 2 * (hi % 100), 2);
        d[0] = (char)('0' + hi);
        for (nd = 17; d[nd - 1] == '0'; nd--)
            ;
        /* the 16-byte copies may run past the field: the next one, or the
           caller's slack, takes those bytes */
        *o = '-';
        o += x[i] < 0.0;
        if (E < -4 || E >= 17) {
            *o++ = d[0];
            if (nd > 1) {
                *o++ = '.';
                __builtin_memcpy(o, d + 1, 16);
                o += nd - 1;
            }
            *o++ = 'e';
            *o++ = E < 0 ? '-' : '+';
            e = E < 0 ? -E : E;
            if (e >= 100) {
                *o++ = (char)('0' + e / 100);
                e %= 100;
            }
            __builtin_memcpy(o, PAIRS + 2 * e, 2);
            o += 2;
        }
        else if (E < 0) {
            __builtin_memcpy(o, "0.000", 5);
            o += 1 - E;
            __builtin_memcpy(o, d, 17);
            o += nd;
        }
        else {
            __builtin_memcpy(o, d, 17);
            o += E + 1;
            if (nd > E + 1) {
                *o++ = '.';
                __builtin_memcpy(o, d + E + 1, 16);
                o += nd - E - 1;
            }
        }
        if (++col == cols) {
            *o++ = '\n';
            col = 0;
        }
        else
            *o++ = ',';
    }
    *end = o - out;
    return i;
}
"""


# The extension module native.MODULE, compiled where `native` finds Python's
# headers, which define Py_PYTHON_H: `certify._margin_evaluator` binds a
# system's term tables once, and each call of margins(bound, v) converts v,
# runs `margins_at` and returns the margins as a new list.
_EXTENSION_SOURCE = r"""
#ifdef Py_PYTHON_H
#define BOUND "delaycert.bound"

typedef struct { int64_t n, Q, discrete; const int64_t *span, *first, *var, *odd; const double *coeff, *power;
                 PyObject *keep; } Bound;

static void bound_free(PyObject *capsule)
{
    Bound *b = PyCapsule_GetPointer(capsule, BOUND);
    Py_XDECREF(b->keep);
    PyMem_Free(b);
}

/* bind(keep, n, Q, discrete, span, coeff, first, var, power, odd): a capsule
   of the tables at those addresses, which holds keep, the arrays, alive */
static PyObject *ext_bind(PyObject *self, PyObject *args)
{
    PyObject *keep, *capsule;
    long long n, Q, discrete;
    unsigned long long a[6];
    Bound *b;
    if (!PyArg_ParseTuple(args, "OLLLKKKKKK", &keep, &n, &Q, &discrete, a, a + 1, a + 2, a + 3, a + 4, a + 5))
        return NULL;
    if ((b = PyMem_Malloc(sizeof(Bound))) == NULL)
        return PyErr_NoMemory();
    *b = (Bound){n, Q, discrete, (const int64_t *)(uintptr_t)a[0], (const int64_t *)(uintptr_t)a[2],
                 (const int64_t *)(uintptr_t)a[3], (const int64_t *)(uintptr_t)a[5],
                 (const double *)(uintptr_t)a[1], (const double *)(uintptr_t)a[4], keep};
    if ((capsule = PyCapsule_New(b, BOUND, bound_free)) == NULL) {
        PyMem_Free(b);
        return NULL;
    }
    Py_INCREF(keep);
    return capsule;
}

/* margins(bound, v): the list of margins_at at v; OverflowError where a
   power overflows */
static PyObject *ext_margins(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    const Bound *b;
    PyObject *v, *item, *out;
    Py_ssize_t i;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "margins takes two arguments, (bound, v)");
        return NULL;
    }
    if ((b = PyCapsule_GetPointer(args[0], BOUND)) == NULL)
        return NULL;
    if ((v = PySequence_Fast(args[1], "v must be a sequence")) == NULL)
        return NULL;
    if (PySequence_Fast_GET_SIZE(v) != b->n) {
        PyErr_Format(PyExc_ValueError, "v has length %zd, the system n = %lld",
                     PySequence_Fast_GET_SIZE(v), (long long)b->n);
        Py_DECREF(v);
        return NULL;
    }
    double x[b->n], m[b->n];
    for (i = 0; i < b->n; i++) {
        /* a __float__ may shrink a list: its length is read again */
        if (i >= PySequence_Fast_GET_SIZE(v)) {
            PyErr_SetString(PyExc_ValueError, "v changed length");
            break;
        }
        item = PySequence_Fast_GET_ITEM(v, i);
        if (PyFloat_CheckExact(item))
            x[i] = PyFloat_AS_DOUBLE(item);
        else {
            Py_INCREF(item);
            x[i] = PyFloat_AsDouble(item);
            Py_DECREF(item);
            if (x[i] == -1.0 && PyErr_Occurred())
                break;
        }
    }
    Py_DECREF(v);
    if (i < b->n)
        return NULL;
    if (margins_at(b->n, b->Q, b->discrete, x, m, b->span, b->coeff, b->first, b->var, b->power, b->odd)) {
        PyErr_SetString(PyExc_OverflowError, "a power in the margins overflowed");
        return NULL;
    }
    if ((out = PyList_New(b->n)) == NULL)
        return NULL;
    for (i = 0; i < b->n; i++) {
        if ((item = PyFloat_FromDouble(m[i])) == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, item);
    }
    return out;
}

static PyMethodDef ext_methods[] = {
    {"bind", ext_bind, METH_VARARGS, NULL},
    {"margins", (PyCFunction)(void (*)(void))ext_margins, METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef ext_module = {PyModuleDef_HEAD_INIT, "_native", NULL, -1, ext_methods};

PyMODINIT_FUNC PyInit__native(void)
{
    return PyModule_Create(&ext_module);
}
#endif
"""

# the program's one C source: compiled once per machine into one cached
# object, which serves every run (`_native_rk4`), every export
# (`_csv_kernel`) and, as an extension module, every certificate search
_SOURCE = "\n".join([native.PY_POW, "#include <stdint.h>", _RK4_SOURCE, _CSV_SOURCE, _EXTENSION_SOURCE])


def _tens() -> np.ndarray:
    """The rows (hi, hi_h, hi_l, lo) for E = -202 .. 202: the power
    10**(16 - E) as the double-double hi + lo (hi the nearest double, lo
    the nearest double to the rest), with hi split into two 26-bit halves
    hi_h + hi_l for Dekker's TwoProduct.  Python's int to float conversion
    and int true division round correctly, so hi and lo are exact to the
    last bit."""
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
    return np.column_stack([hi_a, hi_h, hi_a - hi_h, lo_a])


def _no_fields(x, i: int, cols: int, buf: bytearray, at: int) -> tuple[int, int]:
    """The kernel of `_csv_kernel`'s contract that formats nothing, which
    `_csv_lines` takes to mean that Python formats the whole block."""
    return i, at


@functools.cache
def _csv_kernel() -> Callable:
    """fields(x, i, cols, buf, at): the C function `csv_fields` of
    `_SOURCE`, loaded on the first call; `_no_fields` where `native.load`
    cannot build it.

    From the value i of the float array x, the rows of a block with cols
    values each, it writes the bytes of '%.17g' % x[i], x[i + 1], ..., each
    followed by a comma or, at a row's end, a newline, into the bytearray
    buf from byte at.  It returns (i', at'), where i' is len(x) or the first
    value it cannot format, with nothing written for it, and at' ends the
    bytes written.  It may write up to 16 bytes past at'.
    """
    lib = native.load(_SOURCE)
    if lib is None:
        return _no_fields
    import ctypes

    fn = lib.csv_fields
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    fn.restype = i64
    fn.argtypes = [ptr, i64, i64, i64, ptr, ptr, ctypes.POINTER(i64)]
    tens = _tens()

    def fields(x, i, cols, buf, at):
        if not (x.dtype == np.float64 and x.flags.c_contiguous and len(buf) >= at + (x.size - i) * FIELD_BYTES + 16):
            raise ValueError("csv_fields needs contiguous floats and room for each of their fields")
        end = i64(at)
        i = native.call(fn, x.ctypes.data, i, x.size, cols, tens.ctypes.data,
                        ctypes.addressof(ctypes.c_char.from_buffer(buf)), end)
        return i, end.value

    return fields


def _csv_lines(fields: Callable, x: np.ndarray, cols: int, buf: bytearray) -> int:
    """Write the CSV lines of x, the whole rows of a block with cols values
    each, into buf through fields (see `_csv_kernel`), and return their
    length in bytes.  Python formats each value the kernel stops at, and
    the kernel resumes after it.  Where no kernel can be built
    (`_no_fields`), one `%` formats the whole block."""
    if fields is _no_fields:
        text = (b"%.17g," * (cols - 1) + b"%.17g\n") * (len(x) // cols) % tuple(x.tolist())
        buf[: len(text)] = text
        return len(text)
    i, at = fields(x, 0, cols, buf, 0)
    while i < len(x):
        text = b"%.17g" % x[i] + (b"," if (i + 1) % cols else b"\n")
        buf[at : at + len(text)] = text
        i, at = fields(x, i + 1, cols, buf, at + len(text))
    return at


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

    The fields are the bytes of `'%.17g' % x`, written a block of
    PLAN_BLOCK rows at a time into one buffer by the C kernel of
    `_csv_kernel` (see the module docstring), so a trajectory of up to
    PLAN_BLOCK rows is one block.  Python formats the values the kernel
    leaves to it, and every value where no kernel can be built.
    """
    header = ["t"] + [f"x_{i + 1}" for i in range(traj.n)]
    columns = [traj.times, *traj.states.T]
    if v is not None and dilation is not None:
        header.append("V")
        columns.append(traj.lyapunov_values(v, dilation))
    if bound is not None and math.isfinite(bound.rate):
        header.append("bound")
        columns.append(bound.envelope(traj.times))
    fields, cols = _csv_kernel(), len(columns)
    buf = bytearray(min(len(traj.times), PLAN_BLOCK) * cols * FIELD_BYTES + 16)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for j in range(0, len(traj.times), PLAN_BLOCK):
            block = np.column_stack([col[j : j + PLAN_BLOCK] for col in columns])
            fh.write(memoryview(buf)[: _csv_lines(fields, block.ravel(), cols, buf)])
