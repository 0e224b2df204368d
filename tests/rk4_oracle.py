"""Reference loops for the delayed dynamics: RK4 with one call per stage,
and the discrete map with one call per step.

Every stage looks its delayed argument up on its own, evaluates the fields
through `PolyVectorField.evaluate`, and each new state has its roundoff in
[-CLAMP_EPS, 0) snapped to zero and its components below -VIOLATION_EPS
recorded.  Of the simulator's kernels it shares only the monomial kernel
that `evaluate` runs, with the Python one: they take their delayed reads
from a read plan, sum the fields in C over term tables or per field
through `model._sum_monomials`, and leave the violations to the driver;
tests compare the simulator against it bit for bit.

`oracle_discrete` is the per-step map loop: it keeps the states in a
list, looks each delay up at each step, and raises a delay's error at the
step that reads it, where the simulator runs the map as the one-stage
case of its RK4 kernels over a preallocated store.

A positive delay too small to move the delayed argument off the step's
base time (below half an ulp of t) reads the stage state there, as the
read plan does, instead of dividing zero by zero.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from delaycert.delays import as_delay_list, history_depth
from delaycert.simulate import CLAMP_EPS, VIOLATION_EPS, HistoryUnderrunError


def oracle_continuous(model, delay, phi: Callable[[float], Sequence[float]], h: float, horizon: float):
    """(states, positivity violations, diverged_at) of the per-stage loop."""
    delays = as_delay_list(delay, len(model.delayed_terms))
    depth = max(history_depth(d, probe_horizon=max(horizon, 10.0)) for d in delays)
    steps = int(round(horizon / h))
    f = model.f
    gs = model.delayed_terms
    n = model.n
    states = [tuple(float(c) for c in phi(0.0))]
    violations = []
    diverged_at = None
    underrun_slack = depth + 1e-9

    def read_history(s):
        if s < -underrun_slack:
            raise HistoryUnderrunError(
                f"delayed argument {s} reaches below the initial window "
                f"[-{depth}, 0]; delay and history depth are inconsistent"
            )
        return phi(max(s, -depth))

    def delayed_state(q, t_stage, y, t_base, x_base, j_complete):
        tau = delays[q].value(t_stage)
        if tau < 0.0:
            raise ValueError(f"delay became negative at t={t_stage}")
        if tau == 0.0:
            return y
        s = t_stage - tau
        if s <= 0.0:
            return read_history(s)
        if s >= t_base:
            if t_stage == t_base:
                return y
            w = (s - t_base) / (t_stage - t_base)
            return [xb + w * (yi - xb) for xb, yi in zip(x_base, y)]
        idx = int(s / h)
        if idx > j_complete - 1:
            idx = j_complete - 1
        if idx < 0:
            idx = 0
        w = (s - idx * h) / h
        a = states[idx]
        b = states[idx + 1]
        return [ai + w * (bi - ai) for ai, bi in zip(a, b)]

    def rhs(t_stage, y, t_base, x_base, j_complete):
        out = f.evaluate(y)
        for q, g in enumerate(gs):
            gy = g.evaluate(delayed_state(q, t_stage, y, t_base, x_base, j_complete))
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
    return states, violations, diverged_at


def oracle_discrete(model, delay, phi, horizon: int):
    """(states, positivity violations, diverged_at) of the per-step map loop."""
    delays = as_delay_list(delay, len(model.delayed_terms))
    depth = max(int(history_depth(d)) for d in delays)
    lookup = phi if callable(phi) else phi.__getitem__
    seq = [tuple(float(c) for c in lookup(k)) for k in range(-depth, 1)]
    violations = []
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
        xn = model.f.evaluate(seq[k + depth])
        for g, y in zip(model.delayed_terms, delayed):
            gy = g.evaluate(y)
            for i in range(model.n):
                xn[i] += gy[i]
        if not all(math.isfinite(c) for c in xn):
            diverged_at = k + 1
            break
        violations += [(float(k + 1), i, c) for i, c in enumerate(xn) if c < -VIOLATION_EPS]
        seq.append(tuple(xn))
    return seq[depth:], violations, diverged_at
