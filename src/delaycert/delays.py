"""Time-varying delay families for continuous and discrete systems.

Each family exposes the delay value tau(t) (or d(k)), its values over an
array of times (`DelayModel.values`, equal to value bit for bit), together
with its declared structural properties: the delay supremum tau_sup (None if
unbounded), a ratio alpha < 1 with tau(t) <= alpha t for every t >= 0 (None
if the family declares none), and the history depth

    history_depth = max(0, -inf_{0 <= t <= T0} (t - tau(t)))

which is the length of the initial-condition window.  The history depth and
the delay supremum coincide only for constant delays; both are kept.

The admissible regime is t - tau(t) -> +infinity: old state information is
eventually purged.  The decay rates come from these two facts alone: a
bounded delay supports the exponential and polynomial-reciprocal bounds, a
ratio alpha the power-rate bounds.  `delay_limits` combines them over the
delays of one system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class DelayModel:
    """Base: a delay signal plus whatever structure the family declares.

    Declared attributes (None = unknown or absent):
      tau_sup     sup of the delay; None when unbounded or unknown
      alpha       a ratio below 1 with tau(t) <= alpha t for every t >= 0;
                  None when the family declares none, as the bounded
                  families do (`delay_limits` counts them as 0)
      diverges    whether t - tau(t) -> +infinity is known to hold; None
                  forces sampled analysis

    `values(ts)` is the delay at every time of a float array, each element
    equal, bit for bit, to value(t); a discrete family takes an int64 array
    of steps and returns its d(k) as int64.  The base class maps value over
    ts.  A numpy form may replace the scalar formula only with correctly
    rounded + - * / and np.float_power, never with np.exp, np.power or
    np.sin, whose vectorized kernels may differ from libm; a family with a
    transcendental calls its math function once per element.
    """

    is_discrete = False
    tau_sup: float | None = None
    alpha: float | None = None
    diverges: bool | None = None

    def value(self, t: float) -> float:
        raise NotImplementedError

    def values(self, ts: np.ndarray) -> np.ndarray:
        return np.fromiter(map(self.value, ts.tolist()), np.int64 if self.is_discrete else float, len(ts))

    def exact_history_depth(self) -> float | None:
        """Closed-form history depth when the family provides one."""
        return None


@dataclass(frozen=True)
class ConstantDelay(DelayModel):
    tau: float

    def __post_init__(self):
        if not 0.0 <= self.tau < math.inf:
            raise ValueError(f"tau must be finite and nonnegative, got {self.tau!r}")

    diverges = True

    @property
    def tau_sup(self) -> float:
        return self.tau

    def value(self, t: float) -> float:
        return self.tau

    def values(self, ts: np.ndarray) -> np.ndarray:
        return np.full(len(ts), self.tau, dtype=float)

    def exact_history_depth(self) -> float:
        return self.tau


@dataclass(frozen=True)
class SinusoidalDelay(DelayModel):
    """tau(t) = a + b * sin(t), with a >= |b| so the delay stays nonnegative."""

    a: float
    b: float

    def __post_init__(self):
        if not abs(self.b) <= self.a < math.inf:
            raise ValueError(f"need finite a >= |b| for a nonnegative delay, got {self.a!r}, {self.b!r}")

    diverges = True

    @property
    def tau_sup(self) -> float:
        return self.a + abs(self.b)

    def value(self, t: float) -> float:
        return self.a + self.b * math.sin(t)

    def values(self, ts: np.ndarray) -> np.ndarray:
        return self.a + self.b * np.fromiter(map(math.sin, ts.tolist()), float, len(ts))

    def exact_history_depth(self) -> float | None:
        # d/dt (t - a - b sin t) = 1 - b cos t >= 0 when |b| <= 1, so the
        # minimum of t - tau(t) sits at t = 0.
        if abs(self.b) <= 1.0:
            return max(0.0, self.a)
        return None


@dataclass(frozen=True)
class PiecewiseLinearDelay(DelayModel):
    """Delay interpolated linearly through (t, tau) knots, constant outside."""

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        try:
            knots = tuple((float(t), float(tau)) for t, tau in self.knots)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"knots must be [t, tau] number pairs, got {self.knots!r}") from exc
        if len(knots) < 1:
            raise ValueError("need at least one knot")
        ts = [t for t, _ in knots]
        if sorted(ts) != ts or len(set(ts)) != len(ts) or not all(map(math.isfinite, ts)):
            raise ValueError("knot times must be finite and strictly increasing")
        if not all(0.0 <= tau < math.inf for _, tau in knots):
            raise ValueError("delay values must be finite and nonnegative")
        object.__setattr__(self, "knots", knots)

    diverges = True

    @property
    def tau_sup(self) -> float:
        return max(tau for _, tau in self.knots)

    def value(self, t: float) -> float:
        knots = self.knots
        if t <= knots[0][0]:
            return knots[0][1]
        if t >= knots[-1][0]:
            return knots[-1][1]
        for (t0, y0), (t1, y1) in zip(knots, knots[1:]):
            if t <= t1:
                w = (t - t0) / (t1 - t0)
                return y0 + w * (y1 - y0)
        return knots[-1][1]  # unreachable

    def values(self, ts: np.ndarray) -> np.ndarray:
        t_k, y_k = (np.array(c) for c in zip(*self.knots))
        out = np.where(ts <= t_k[0], y_k[0], y_k[-1])
        inner = (ts > t_k[0]) & (ts < t_k[-1])
        t = ts[inner]
        j = np.searchsorted(t_k, t)  # the first knot at or after t ends value's segment
        w = (t - t_k[j - 1]) / (t_k[j] - t_k[j - 1])
        out[inner] = y_k[j - 1] + w * (y_k[j] - y_k[j - 1])
        return out

    def exact_history_depth(self) -> float:
        # t - tau(t) is piecewise linear, so its minimum over [0, last knot]
        # is attained at a knot or at t = 0; beyond the last knot it grows.
        cands = [0.0 - self.value(0.0)]
        cands += [t - tau for t, tau in self.knots if t >= 0.0]
        return max(0.0, -min(cands))


@dataclass(frozen=True)
class ProportionalDelay(DelayModel):
    """tau(t) = alpha * t with 0 <= alpha < 1; unbounded, ratio exactly alpha."""

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha!r}")

    tau_sup = None
    diverges = True

    def value(self, t: float) -> float:
        return self.alpha * t

    def values(self, ts: np.ndarray) -> np.ndarray:
        return self.alpha * ts

    def exact_history_depth(self) -> float:
        return 0.0


@dataclass(frozen=True)
class LogLagDelay(DelayModel):
    """tau(t) = t - ln(t + 1): the delayed argument advances only like ln t.

    t - tau(t) still diverges, but tau(t)/t -> 1, so no proportional ratio
    alpha < 1 exists and power-rate bounds do not apply (alpha is None).
    """

    tau_sup = None
    diverges = True

    def value(self, t: float) -> float:
        return t - math.log1p(t)

    def exact_history_depth(self) -> float:
        return 0.0


@dataclass(frozen=True)
class CustomDelay(DelayModel):
    """Arbitrary delay signal with no declared structure (sampled analysis)."""

    fn: Callable[[float], float]

    def value(self, t: float) -> float:
        return self.fn(t)


# -- discrete families -------------------------------------------------------


@dataclass(frozen=True)
class ConstantStepDelay(DelayModel):
    d: int

    def __post_init__(self):
        if not (0 <= self.d < math.inf and float(self.d).is_integer()):
            raise ValueError(f"d must be a finite nonnegative whole number of steps, got {self.d!r}")
        object.__setattr__(self, "d", int(self.d))

    is_discrete = True
    diverges = True

    @property
    def tau_sup(self) -> float:
        return float(self.d)

    def value(self, k: int) -> int:
        return self.d

    def values(self, ks: np.ndarray) -> np.ndarray:
        return np.full(len(ks), self.d, dtype=np.int64)

    def exact_history_depth(self) -> int:
        return self.d


@dataclass(frozen=True)
class AlternatingParityDelay(DelayModel):
    """d(k) = (1 - (-1)**k) / 2: zero on even steps, one on odd steps."""

    is_discrete = True
    tau_sup = 1.0
    diverges = True

    def value(self, k: int) -> int:
        return k % 2

    def values(self, ks: np.ndarray) -> np.ndarray:
        return ks % 2

    def exact_history_depth(self) -> int:
        # k - d(k) is 0, 0, 2, 2, 4, ... so the infimum is 0.
        return 0


@dataclass(frozen=True)
class ProportionalStepDelay(DelayModel):
    """d(k) = floor(alpha * k) with 0 <= alpha < 1."""

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha!r}")

    is_discrete = True
    tau_sup = None
    diverges = True

    def value(self, k: int) -> int:
        return int(math.floor(self.alpha * k))

    def values(self, ks: np.ndarray) -> np.ndarray:
        # k converts to float exactly below 2**53, so the product rounds as value's does
        return np.floor(self.alpha * ks).astype(np.int64)

    def exact_history_depth(self) -> int:
        return 0


def history_depth(delay: DelayModel, probe_horizon: float = 200.0) -> float:
    """Length of the initial-history window the delay reaches back into.

    Exact for the parametric families; otherwise found by grid minimization
    of t - tau(t) over [0, T0], where T0 is the last observed time with
    t - tau(t) <= 0, refined to float resolution by gridding the bracket
    around the grid minimizer again.
    """
    exact = delay.exact_history_depth()
    if exact is not None:
        return exact
    if probe_horizon <= 0.0:
        raise ValueError("probe horizon must be positive")
    ts = np.linspace(0.0, probe_horizon, 50001)
    w = ts - delay.values(ts)
    if delay.diverges is None and w[-1] <= 0.0:
        raise ValueError(
            "delayed argument never became positive within the probe horizon; "
            "the delay violates the divergence assumption"
        )
    nonpos = np.nonzero(w <= 0.0)[0]
    if len(nonpos) == 0:
        return 0.0
    grid, w = ts, w[: nonpos[-1] + 1]
    lowest = float(w.min())
    # grid the bracket around the grid minimizer again, 1000 times finer,
    # until that finds no lower point (a bracket that stops shrinking at
    # float resolution repeats its grid, so this ends)
    while True:
        j = int(np.argmin(w))
        grid = np.linspace(grid[max(j - 1, 0)], grid[min(j + 1, len(grid) - 1)], 2001)
        w = grid - delay.values(grid)
        if not w.min() < lowest:
            return max(0.0, -lowest)
        lowest = float(w.min())


def delay_limits(delays: Sequence[DelayModel]) -> tuple[float | None, float | None]:
    """(tau_sup, alpha) over a set of delays: the largest tau_sup when every
    delay is bounded, else None, and the largest ratio when every delay has
    one, a bounded delay counting as 0, else None."""
    sups = [d.tau_sup for d in delays]
    ratios = [0.0 if d.tau_sup is not None else d.alpha for d in delays]
    return (
        None if None in sups else max(sups),
        None if None in ratios else max(ratios),
    )


def as_delay_list(
    delay: DelayModel | Sequence[DelayModel], count: int
) -> tuple[DelayModel, ...]:
    """Broadcast a single delay over all delayed terms, or match one each."""
    if isinstance(delay, DelayModel):
        return (delay,) * count
    delays = tuple(delay)
    if len(delays) != count:
        raise ValueError(
            f"got {len(delays)} delay models for {count} delayed terms"
        )
    return delays
