"""Guaranteed decay-rate envelopes for certified systems.

Every bound here controls the scaled state W(t) = max_i (x_i/v_i)**(r_max/r_i)
by a constant multiple of 1/mu(t) for a diverging non-decreasing mu:

  exponential            mu(t) = exp(eta t)         bounded delay, degree 0
  polynomial reciprocal  mu(t) = (theta t + 1)**e   bounded delay, degree > 0
  power rate             mu(t) = t**xi              proportional delay

The rate parameters come from scalar equations that are strictly increasing
in the unknown with a negative value at zero, hence have a unique positive
root; they are solved by bracket doubling plus bisection (monotonicity is
the only structure guaranteed, so no derivative-based methods are used).
The returned rate sits the relative margin DEFAULT_SAFETY inside the open
admissible interval, because the theory guarantees the envelope only
strictly inside it.

The constant multiple depends on the initial history.  For the two
bounded-delay forms a comparison argument fixes it: `theory_constant`
returns M with W(t) <= M / mu(t) at every t >= 0, for any size of delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .delays import DelayModel
from .model import SystemModel
from .certify import verify_certificate

DEFAULT_SAFETY = 1e-6
_MONOTONE_CHECK_POINTS = 33  # samples of solve_monotone's monotonicity check

EXPONENTIAL = "exponential"
POLYNOMIAL_RECIPROCAL = "polynomial_reciprocal"
POWER_RATE = "power_rate"


@dataclass(frozen=True)
class DecayBound:
    """A guaranteed envelope W(t) <= M / mu(t) with its parameters.

    `rate` is eta, theta, or the power exponent of t.  For power-rate
    bounds built from the degree-positive feasibility condition, `beta`
    holds the underlying parameter in (0, 1), `beta_boundary` the exact
    supremum of the feasible set (may exceed 1 or be infinite; it is the
    quantity that decays monotonically in the delay ratio alpha).
    `component_rates` are the per-component roots; infinite entries (from
    vanishing delayed couplings or a degenerate ratio) are excluded from
    the min and listed in `infinite_components`.  `envelope_constant` is a
    post-simulation fit, never the theory's constant M: that one depends on
    the history and comes from `theory_constant`.
    """

    form: str
    rate: float
    per_component_exponents: tuple[float, ...]
    component_rates: tuple[float, ...]
    poly_exponent: float | None = None
    beta: float | None = None
    beta_boundary: float | None = None
    infinite_components: tuple[int, ...] = ()
    envelope_constant: float | None = None

    def __post_init__(self):
        if self.form not in (EXPONENTIAL, POLYNOMIAL_RECIPROCAL, POWER_RATE):
            raise ValueError(f"unknown bound form {self.form!r}")
        if not self.rate > 0.0:
            raise ValueError(f"decay rate must be positive, got {self.rate}")

    def mu(self, t: float) -> float:
        if self.form == EXPONENTIAL:
            return math.exp(self.rate * t)
        if self.form == POLYNOMIAL_RECIPROCAL:
            return (self.rate * t + 1.0) ** self.poly_exponent
        return t ** self.rate if t > 0.0 else 0.0

    def envelope(self, t: float) -> float:
        """M / mu(t) with M defaulting to 1 (infinite at t = 0 for power rates)."""
        M = 1.0 if self.envelope_constant is None else self.envelope_constant
        m = self.mu(t)
        return M / m if m > 0.0 else math.inf

    def to_dict(self) -> dict:
        d = {
            "form": self.form,
            "rate": self.rate,
            "per_component_exponents": list(self.per_component_exponents),
            "component_rates": [r if math.isfinite(r) else "inf" for r in self.component_rates],
        }
        if self.poly_exponent is not None:
            d["poly_exponent"] = self.poly_exponent
        if self.beta is not None:
            d["beta"] = self.beta
        if self.beta_boundary is not None:
            d["beta_boundary"] = self.beta_boundary if math.isfinite(self.beta_boundary) else "inf"
        if self.infinite_components:
            d["infinite_components"] = list(self.infinite_components)
        if self.envelope_constant is not None:
            d["envelope_constant"] = self.envelope_constant
        return d


def solve_monotone(
    fn: Callable[[float], float],
    bracket_hint: float = 1.0,
    tol: float = 1e-12,
) -> float:
    """Unique positive root of a strictly increasing fn with fn(0) < 0.

    Bracket doubling until a sign change, then bisection to |fn(root)| <= tol.
    Monotonicity across the bracket is checked by sampling; a violation, a
    nonnegative value at zero, or no sign change within 2**60 * bracket_hint
    all raise ValueError.
    """
    if bracket_hint <= 0.0 or tol <= 0.0:
        raise ValueError("bracket_hint and tol must be positive")
    f0 = fn(0.0)
    if not f0 < 0.0:
        raise ValueError(f"fn(0) = {f0} is not negative: no positive root regime")
    hi = bracket_hint
    for _ in range(61):
        if fn(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise ValueError("no sign change within 2**60 * bracket_hint")
    prev = f0
    for k in range(1, _MONOTONE_CHECK_POINTS + 1):
        val = fn(hi * k / _MONOTONE_CHECK_POINTS)
        if val <= prev:
            raise ValueError(f"fn is not strictly increasing near {hi * k / _MONOTONE_CHECK_POINTS}")
        prev = val
    lo = 0.0
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if abs(fm) <= tol:
            return mid
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
    raise ArithmeticError("bisection failed to reach the requested residual")


def _rate_data(model: SystemModel, v: Sequence[float]):
    # the only check on v for library callers, who need not verify first
    cert = verify_certificate(model, v)
    if not cert.valid:
        raise ValueError(f"not a valid certificate: margins {cert.margins}")
    fv = model.f.evaluate(v)
    gv = model.delayed_sum_at(v)
    r = model.dilation.r
    rmax = model.dilation.r_max
    return fv, gv, r, rmax


def eta_bound(model: SystemModel, v: Sequence[float], tau_sup: float) -> DecayBound:
    """Exponential decay rate for degree zero under a bounded delay.

    Per component, eta_i solves

        (r_max/r_i) * (f_i(v)/v_i + exp(eta_i * tau_sup * r_i / r_max)
                                     * g_i(v)/v_i) + eta_i = 0,

    with the closed form eta_i = -(r_max/r_i) f_i(v)/v_i when the delayed
    coupling vanishes.  The guaranteed rate is (1 - DEFAULT_SAFETY) * min_i eta_i.
    """
    if model.degree != 0.0:
        raise ValueError("exponential bound needs degree zero; use theta_bound instead")
    if tau_sup < 0.0:
        raise ValueError("tau_sup must be nonnegative")
    fv, gv, r, rmax = _rate_data(model, v)
    etas = []
    for i in range(model.n):
        scale = rmax / r[i]
        fi = fv[i] / v[i]
        gi = gv[i] / v[i]
        if gi == 0.0:
            etas.append(-scale * fi)
            continue
        expo = tau_sup * r[i] / rmax

        def residual(e, _s=scale, _f=fi, _g=gi, _x=expo):
            return _s * (_f + math.exp(e * _x) * _g) + e

        etas.append(solve_monotone(residual, bracket_hint=1.0))
    eta = (1.0 - DEFAULT_SAFETY) * min(etas)
    return DecayBound(
        form=EXPONENTIAL,
        rate=eta,
        per_component_exponents=tuple(rmax / ri for ri in r),
        component_rates=tuple(etas),
    )


def theta_bound(model: SystemModel, v: Sequence[float], tau_sup: float) -> DecayBound:
    """Polynomial-reciprocal envelope for positive degree under a bounded delay.

    theta_i = -(p/r_i) (f_i(v) + g_i(v)) / v_i in closed form (positive by
    certificate validity); the guaranteed rate is

        theta = (1 - DEFAULT_SAFETY) * min(1/tau_sup, min_i theta_i)

    and the envelope is W(t) = O((theta t + 1)**(-r_max/p)).

    The constant in that O comes from an upper solution along the dilation
    orbit of v.  With k**r_max = V(phi), the sup of W over the initial
    window, z(t) = D_lam(t) v = (lam(t)**r_i v_i)_i with

        lam(t) = (theta' t + k**(-p))**(-1/p)

    lies above phi on the window (lam >= k there).  Homogeneity gives
    z_i' = -(theta' r_i/p) lam**(p+r_i) v_i and f_i(z) = lam**(p+r_i) f_i(v),
    and lam(t - tau)/lam(t) is largest at t = 0 and tau = tau_sup, so z is
    an upper solution when theta' tau_sup k**p < 1 and, for every i,

        theta' (r_i/p) v_i + f_i(v)
            + (1 - theta' tau_sup k**p)**(-(p+r_i)/p) g_i(v) <= 0.

    `upper_solution_theta` returns the largest such theta'.  Comparison then
    gives W(t) <= V(phi) (theta' k**p t + 1)**(-r_max/p), and, against this
    bound's mu,

        W(t) mu(t) <= M = V(phi) * max(1, theta / (theta' k**p))**(r_max/p)

    which `theory_constant` returns.  The rate stays history-free; the
    history and the delay size enter through M.
    """
    p = model.degree
    if p <= 0.0:
        raise ValueError("polynomial-reciprocal bound needs positive degree; use eta_bound")
    if tau_sup < 0.0:
        raise ValueError("tau_sup must be nonnegative")
    fv, gv, r, rmax = _rate_data(model, v)
    thetas = [-(p / r[i]) * (fv[i] + gv[i]) / v[i] for i in range(model.n)]
    cap = math.inf if tau_sup == 0.0 else 1.0 / tau_sup
    theta = (1.0 - DEFAULT_SAFETY) * min(cap, min(thetas))
    return DecayBound(
        form=POLYNOMIAL_RECIPROCAL,
        rate=theta,
        per_component_exponents=tuple(rmax / ri for ri in r),
        component_rates=tuple(thetas),
        poly_exponent=rmax / p,
    )


def upper_solution_theta(
    model: SystemModel,
    v: Sequence[float],
    tau_sup: float,
    history_v: float,
) -> float:
    """Rate theta' of the upper solution D_lam(t) v behind theta_bound.

    history_v = V(phi) = k**r_max.  Per component the condition of
    theta_bound's docstring is strictly increasing in theta' on
    [0, 1/(tau_sup k**p)), negative at zero by certificate validity, and
    diverges at the right end when g_i(v) > 0; its root is found with
    solve_monotone.  With g_i(v) = 0 or tau_sup = 0 the root is
    -(p/r_i) (f_i(v) + g_i(v)) / v_i, theta_bound's theta_i.  Returns
    (1 - DEFAULT_SAFETY) * min(1/(tau_sup k**p), min_i root_i).
    """
    p = model.degree
    if p <= 0.0 or model.is_discrete:
        raise ValueError("the upper solution needs a continuous system of positive degree")
    if tau_sup < 0.0:
        raise ValueError("tau_sup must be nonnegative")
    if not history_v > 0.0:
        raise ValueError(f"history_v must be positive, got {history_v}")
    fv, gv, r, rmax = _rate_data(model, v)
    kp = history_v ** (p / rmax)
    cap = math.inf if tau_sup == 0.0 else 1.0 / (tau_sup * kp)
    roots = []
    for i in range(model.n):
        lin = r[i] * v[i] / p
        if gv[i] == 0.0 or tau_sup == 0.0:
            roots.append(-(fv[i] + gv[i]) / lin)
            continue

        def residual(th, _l=lin, _f=fv[i], _g=gv[i], _e=-(p + r[i]) / p):
            gap = 1.0 - th * tau_sup * kp
            return _l * th + _f + gap ** _e * _g if gap > 0.0 else math.inf

        roots.append(solve_monotone(residual, bracket_hint=0.5 * cap))
    return (1.0 - DEFAULT_SAFETY) * min(cap, min(roots))


def theory_constant(
    model: SystemModel,
    v: Sequence[float],
    bound: DecayBound,
    tau_sup: float,
    history_v: float,
) -> float | None:
    """The constant M with W(t) <= M / mu(t) for every t >= 0.

    history_v is V(phi), the sup of W over the initial window; tau_sup
    bounds every delay.  Exponential form, degree zero: M = V(phi) whenever
    the rate satisfies eta_bound's component inequalities, since then
    D_lam(t) v with lam(t) = k exp(-rate t / r_max) is an upper solution.
    Polynomial-reciprocal form: M = V(phi) max(1, theta/(theta' k**p))**e
    with theta' from upper_solution_theta (see theta_bound), valid for an
    exponent e up to r_max/p.  Returns None where the argument derives no
    constant: discrete systems, power-rate forms, or a rate or exponent
    outside those ranges.
    """
    if model.is_discrete or bound.form == POWER_RATE:
        return None
    if history_v == 0.0:
        return 0.0  # the solution stays at zero
    p = model.degree
    if bound.form == EXPONENTIAL:
        if p != 0.0:
            return None
        fv, gv, r, rmax = _rate_data(model, v)
        for i in range(model.n):
            growth = math.exp(bound.rate * tau_sup * r[i] / rmax)
            if bound.rate + (rmax / r[i]) * (fv[i] + growth * gv[i]) / v[i] > 0.0:
                return None
        return history_v
    rmax = model.dilation.r_max
    if p <= 0.0 or bound.poly_exponent > rmax / p:
        return None
    kp = history_v ** (p / rmax)
    theta_p = upper_solution_theta(model, v, tau_sup, history_v)
    return history_v * max(1.0, bound.rate / (theta_p * kp)) ** bound.poly_exponent


def xi_bound(model: SystemModel, v: Sequence[float], alpha: float) -> DecayBound:
    """Power-rate exponent for degree zero under a proportional delay ratio.

    xi_i solves f_i(v)/v_i + (1/(1-alpha))**((r_i/r_max) xi_i) g_i(v)/v_i
    equal to 0 (continuous) or 1 (discrete).  Components with a vanishing
    delayed coupling, or a degenerate alpha = 0, have no finite root: they
    are flagged and excluded from the min (the component decays faster than
    any power).  W(t) = O(t**(-xi)).
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    if model.degree != 0.0:
        raise ValueError("power-rate root bound needs degree zero; use beta_bound")
    fv, gv, r, rmax = _rate_data(model, v)
    target = 1.0 if model.is_discrete else 0.0
    lnK = -math.log1p(-alpha)  # log(1/(1-alpha))
    xis = []
    flagged = []
    for i in range(model.n):
        fi = fv[i] / v[i]
        gi = gv[i] / v[i]
        if gi == 0.0 or lnK == 0.0:
            xis.append(math.inf)
            flagged.append(i)
            continue
        expo = (r[i] / rmax) * lnK

        def residual(x, _f=fi, _g=gi, _e=expo, _t=target):
            return _f + math.exp(_e * x) * _g - _t

        xis.append(solve_monotone(residual, bracket_hint=1.0))
    finite = [x for x in xis if math.isfinite(x)]
    xi = (1.0 - DEFAULT_SAFETY) * min(finite) if finite else math.inf
    return DecayBound(
        form=POWER_RATE,
        rate=xi,
        per_component_exponents=tuple(rmax / ri for ri in r),
        component_rates=tuple(xis),
        infinite_components=tuple(flagged),
    )


def beta_bound(model: SystemModel, v: Sequence[float], alpha: float) -> DecayBound:
    """Power-rate envelope for positive degree under a proportional delay ratio.

    Per component the feasibility boundary is

        beta_i* = ln(-f_i(v)/g_i(v)) / ((1 + r_i/p) ln(1/(1-alpha)))

    (infinite when g_i(v) = 0 or alpha = 0).  The guaranteed parameter is
    beta = (1 - DEFAULT_SAFETY) * min(1, min_i beta_i*) in (0, 1); the envelope is
    W(t) = O(t**(-(r_max/p) beta)).  `beta_boundary` keeps the uncapped
    minimum, which decreases strictly in alpha and tends to zero as the
    delays grow like t.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    p = model.degree
    if p <= 0.0:
        raise ValueError("this power-rate bound needs positive degree; use xi_bound")
    if model.is_discrete:
        raise ValueError("beta bound applies to continuous systems")
    fv, gv, r, rmax = _rate_data(model, v)
    lnK = -math.log1p(-alpha)
    stars = []
    flagged = []
    for i in range(model.n):
        gi = gv[i]
        if gi == 0.0 or lnK == 0.0:
            stars.append(math.inf)
            flagged.append(i)
            continue
        stars.append(math.log(-fv[i] / gi) / ((1.0 + r[i] / p) * lnK))
    boundary = min(stars)
    beta = (1.0 - DEFAULT_SAFETY) * min(1.0, boundary)
    if not beta > 0.0:
        raise ValueError(
            f"no feasible power-rate parameter: boundary {boundary} for alpha={alpha}"
        )
    return DecayBound(
        form=POWER_RATE,
        rate=(rmax / p) * beta,
        per_component_exponents=tuple(rmax / ri for ri in r),
        component_rates=tuple(stars),
        beta=beta,
        beta_boundary=boundary,
        infinite_components=tuple(flagged),
    )


# -- generic mu-stability condition -------------------------------------------


class MissingLimitError(ValueError):
    """The mu family needs an asymptotic limit the delay model cannot supply."""


@dataclass(frozen=True)
class MuSpec:
    """A candidate envelope clock mu together with its declared asymptotics.

    mu must be positive, non-decreasing, and diverging.  The stability
    condition consumes only limits: continuous systems need

        L = lim sup mu(t) / mu(t - tau(t)),
        D = lim mu'(t) / mu(t)**(1 - p/r_max),

    and discrete systems need R1 = lim mu(k+1)/mu(k) and
    R2 = lim sup mu(k+1)/mu(k - d(k)).  The standard families derive these
    from the delay model's declared structure; custom specs must declare
    them explicitly (no symbolic limit computation is attempted).
    """

    kind: str
    param: float | None = None
    exponent: float | None = None
    value: Callable[[float], float] | None = None
    delayed_ratio_limit: float | None = None
    derivative_ratio_limit: float | None = None
    step_ratio_limit: float | None = None

    @classmethod
    def exponential(cls, eta: float) -> "MuSpec":
        if eta <= 0.0:
            raise ValueError("eta must be positive")
        return cls(kind=EXPONENTIAL, param=eta, value=lambda t: math.exp(eta * t))

    @classmethod
    def power(cls, xi: float) -> "MuSpec":
        if xi <= 0.0:
            raise ValueError("xi must be positive")
        return cls(kind=POWER_RATE, param=xi, value=lambda t: t ** xi if t > 0 else 0.0)

    @classmethod
    def polynomial_reciprocal(cls, theta: float, exponent: float) -> "MuSpec":
        if theta <= 0.0 or exponent <= 0.0:
            raise ValueError("theta and exponent must be positive")
        return cls(
            kind=POLYNOMIAL_RECIPROCAL, param=theta, exponent=exponent,
            value=lambda t: (theta * t + 1.0) ** exponent,
        )

    @classmethod
    def custom(
        cls,
        value: Callable[[float], float],
        delayed_ratio_limit: float | None = None,
        derivative_ratio_limit: float | None = None,
        step_ratio_limit: float | None = None,
    ) -> "MuSpec":
        return cls(
            kind="custom", value=value,
            delayed_ratio_limit=delayed_ratio_limit,
            derivative_ratio_limit=derivative_ratio_limit,
            step_ratio_limit=step_ratio_limit,
        )

    # -- limit derivation ---------------------------------------------------

    def _delay_alpha(self, delay: DelayModel) -> float:
        if delay.bounded:
            return 0.0
        alpha = delay.alpha_limit
        if alpha is None or alpha >= 1.0:
            raise MissingLimitError(
                "delay model declares no proportional ratio below 1; "
                "a power-family mu cannot pair with it"
            )
        return alpha

    def limits_continuous(self, delay: DelayModel, p: float, r_max: float) -> tuple[float, float]:
        """(L, D) for the continuous condition; inf encodes a diverging limit."""
        if self.kind == EXPONENTIAL:
            if delay.tau_sup is None:
                raise MissingLimitError("an exponential mu needs a bounded delay (tau_sup)")
            L = math.exp(self.param * delay.tau_sup)
            D = self.param if p == 0.0 else math.inf
            return L, D
        if self.kind == POWER_RATE:
            alpha = self._delay_alpha(delay)
            L = (1.0 / (1.0 - alpha)) ** self.param if alpha > 0.0 else 1.0
            q = self.param * p / r_max
            D = 0.0 if q < 1.0 else (self.param if q == 1.0 else math.inf)
            return L, D
        if self.kind == POLYNOMIAL_RECIPROCAL:
            alpha = self._delay_alpha(delay)
            L = (1.0 / (1.0 - alpha)) ** self.exponent if alpha > 0.0 else 1.0
            q = self.exponent * p / r_max
            eth = self.exponent * self.param
            D = 0.0 if q < 1.0 else (eth if q == 1.0 else math.inf)
            return L, D
        if self.delayed_ratio_limit is None or self.derivative_ratio_limit is None:
            raise MissingLimitError(
                "custom mu must declare delayed_ratio_limit and derivative_ratio_limit"
            )
        return self.delayed_ratio_limit, self.derivative_ratio_limit

    def limits_discrete(self, delay: DelayModel) -> tuple[float, float]:
        """(R1, R2) for the discrete condition."""
        if self.kind == EXPONENTIAL:
            if delay.tau_sup is None:
                raise MissingLimitError("an exponential mu needs a bounded delay (d_sup)")
            return math.exp(self.param), math.exp(self.param * (1.0 + delay.tau_sup))
        if self.kind == POWER_RATE:
            alpha = self._delay_alpha(delay)
            R2 = (1.0 / (1.0 - alpha)) ** self.param if alpha > 0.0 else 1.0
            return 1.0, R2
        if self.step_ratio_limit is None or self.delayed_ratio_limit is None:
            raise MissingLimitError(
                "custom mu must declare step_ratio_limit and delayed_ratio_limit"
            )
        return self.step_ratio_limit, self.delayed_ratio_limit


def _pow_times(base: float, expo: float, factor: float) -> float:
    """base**expo * factor with 0 * inf resolved to 0 (absent coupling)."""
    if factor == 0.0:
        return 0.0
    return base ** expo * factor


def mu_condition_check(
    model: SystemModel,
    v: Sequence[float],
    mu: MuSpec,
    delay: DelayModel,
) -> bool:
    """Decide whether the declared mu clocks a guaranteed envelope.

    Continuous: for every i,
        (r_max/r_i) (f_i(v)/v_i + L**((r_i+p)/r_max) g_i(v)/v_i) + D < 0.
    Discrete:
        R1**(r_i/r_max) f_i(v)/v_i + R2**(r_i/r_max) g_i(v)/v_i < 1.
    """
    fv, gv, r, rmax = _rate_data(model, v)
    p = model.degree
    if model.is_discrete:
        R1, R2 = mu.limits_discrete(delay)
        for i in range(model.n):
            e = r[i] / rmax
            lhs = _pow_times(R1, e, fv[i] / v[i]) + _pow_times(R2, e, gv[i] / v[i])
            if not lhs < 1.0:
                return False
        return True
    L, D = mu.limits_continuous(delay, p, rmax)
    for i in range(model.n):
        scale = rmax / r[i]
        e = (r[i] + p) / rmax
        lhs = scale * (fv[i] / v[i] + _pow_times(L, e, gv[i] / v[i])) + D
        if not lhs < 0.0:
            return False
    return True
