"""Guaranteed decay-rate envelopes for certified systems.

Every bound here controls the scaled state W(t) = max_i (x_i/v_i)**(r_max/r_i)
by a constant multiple of 1/mu(t) for a diverging non-decreasing mu.  One
condition on the certificate v and the clock mu decides that.  With p the
degree and g the sum of the delayed terms, it reads for every component i

  continuous  (r_max/r_i) (f_i(v)/v_i + L**((r_i+p)/r_max) g_i(v)/v_i) + D < 0
  discrete    R1**(r_i/r_max) f_i(v)/v_i + R2**(r_i/r_max) g_i(v)/v_i < 1

with L = lim sup mu(t)/mu(t - tau(t)), D = lim mu'(t)/mu(t)**(1 - p/r_max),
R1 = lim mu(k+1)/mu(k) and R2 = lim sup mu(k+1)/mu(k - d(k)).  `_CertData`
evaluates both left-hand sides, and every rate and check goes through it.
Each bound is the largest rate of one mu family that meets the condition
(K = 1/(1-alpha) for a proportional delay ratio alpha):

  eta_bound    exp(eta t)                bounded delay, p = 0: L = exp(eta tau_sup), D = eta
  theta_bound  (theta t + 1)**(r_max/p)  bounded delay, p > 0: L = 1, D = (r_max/p) theta
  xi_bound     t**xi                     proportional, p = 0: L = K**xi, D = 0
                                         (discrete: R1 = 1, R2 = K**xi)
  beta_bound   t**((r_max/p) beta)       proportional, p > 0: L = K**((r_max/p) beta), D = 0

theta_bound and beta_bound solve it in closed form (theta capped at
1/tau_sup, beta below 1 so that D = 0), as do the others where g_i(v) = 0.
Otherwise the equation is strictly increasing in the rate and negative at
zero; bracket doubling plus bisection finds its unique positive root
(monotonicity is the only structure guaranteed, so no derivative-based
methods).  The returned rate sits the relative margin DEFAULT_SAFETY inside
the open admissible interval: the theory guarantees only its inside.

The constant multiple depends on the initial history.  `upper_envelope`
returns, for every bound, a clock mu_u and a constant M with
W(t) mu_u(t) <= M at every t >= 0, for any size of delay, from the same
condition along an upper solution D_lam(t) v with lam(t)**r_max = M / mu_u(t):

  eta, theta   mu_u = the bound's own mu, M from `theory_constant`
  xi, beta     mu_u = (t+1)**e, M = V(phi): continuous L = K**e,
               D = k**(-p) e with k**r_max = V(phi) and e <= r_max/p;
               discrete R1 = 2**e, R2 = max(2, K)**e

Every delay parameter comes from the delay models, through
`delays.delay_limits`: tau_sup for eta and theta, the ratio alpha with
tau(t) <= alpha t for every t >= 0 for xi, beta and the power clocks.  A
bounded delay shifts the power clock to (t/s + 1)**e with s = 1 + tau_sup
(see `upper_envelope`); a delay with neither gets no clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .delays import DelayModel, delay_limits
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
    the min and listed in `infinite_components`.  The constant M of the
    envelope depends on the history; `upper_envelope` gives it together
    with the clock it holds for.
    """

    form: str
    rate: float
    per_component_exponents: tuple[float, ...]
    component_rates: tuple[float, ...]
    poly_exponent: float | None = None
    beta: float | None = None
    beta_boundary: float | None = None
    infinite_components: tuple[int, ...] = ()

    def __post_init__(self):
        if self.form not in (EXPONENTIAL, POLYNOMIAL_RECIPROCAL, POWER_RATE):
            raise ValueError(f"unknown bound form {self.form!r}")
        if not self.rate > 0.0:
            raise ValueError(f"decay rate must be positive, got {self.rate}")

    def mu(self, t: float) -> float:
        """The clock at t; inf where the exponential form passes the float range."""
        if self.form == EXPONENTIAL:
            try:
                return math.exp(self.rate * t)
            except OverflowError:
                return math.inf
        if self.form == POLYNOMIAL_RECIPROCAL:
            return (self.rate * t + 1.0) ** self.poly_exponent
        return t ** self.rate if t > 0.0 else 0.0

    def envelope(self, t: float) -> float:
        """1 / mu(t) (infinite at t = 0 for power rates, 0 where mu is inf)."""
        m = self.mu(t)
        return 1.0 / m if m > 0.0 else math.inf

    def to_dict(self) -> dict:
        d = {
            "form": self.form,
            "rate": self.rate if math.isfinite(self.rate) else "inf",
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
        return d


def solve_monotone(
    fn: Callable[[float], float],
    bracket_hint: float = 1.0,
    tol: float = 1e-12,
) -> float:
    """Unique positive root of a strictly increasing fn with fn(0) < 0.

    Bracket doubling until a sign change, then bisection to |fn(root)| <= tol.
    An OverflowError from fn counts as a positive value, since fn increases.
    Monotonicity across the bracket is checked by sampling; a violation, a
    nonnegative value at zero, or no sign change within 2**60 * bracket_hint
    all raise ValueError.
    """
    if bracket_hint <= 0.0 or tol <= 0.0:
        raise ValueError("bracket_hint and tol must be positive")

    def value(x: float) -> float:
        try:
            return fn(x)
        except OverflowError:
            return math.inf

    f0 = value(0.0)
    if not f0 < 0.0:
        raise ValueError(f"fn(0) = {f0} is not negative: no positive root regime")
    hi = bracket_hint
    for _ in range(61):
        if value(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise ValueError("no sign change within 2**60 * bracket_hint")
    prev = f0
    for k in range(1, _MONOTONE_CHECK_POINTS + 1):
        val = value(hi * k / _MONOTONE_CHECK_POINTS)
        if val <= prev and val != math.inf:
            raise ValueError(f"fn is not strictly increasing near {hi * k / _MONOTONE_CHECK_POINTS}")
        prev = val
    lo = 0.0
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        fm = value(mid)
        if abs(fm) <= tol:
            return mid
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
    raise ArithmeticError("bisection failed to reach the requested residual")


class _CertData(NamedTuple):
    """A verified certificate v with f(v), g(v) and the dilation data."""

    v: Sequence[float]
    fv: list[float]
    gv: list[float]
    r: tuple[float, ...]
    rmax: float
    p: float

    def continuous(self, i: int, L: float, D: float) -> float:
        """(r_max/r_i) (f_i(v)/v_i + L**((r_i+p)/r_max) g_i(v)/v_i) + D."""
        ri = self.r[i]
        delayed = _pow_times(L, (ri + self.p) / self.rmax, self.gv[i] / self.v[i])
        return (self.rmax / ri) * (self.fv[i] / self.v[i] + delayed) + D

    def discrete(self, i: int, R1: float, R2: float) -> float:
        """R1**(r_i/r_max) f_i(v)/v_i + R2**(r_i/r_max) g_i(v)/v_i."""
        e = self.r[i] / self.rmax
        return _pow_times(R1, e, self.fv[i] / self.v[i]) + _pow_times(R2, e, self.gv[i] / self.v[i])

    def root(self, i: int, discrete: bool, lnR1: float, lnL: float, D: float) -> float:
        """Positive root e of component i's condition for the limits
        R1 = exp(lnR1 e), R2 = exp(lnL e) (discrete) or L = exp(lnL e),
        D e (continuous)."""
        if discrete:
            return solve_monotone(lambda e: self.discrete(i, math.exp(lnR1 * e), math.exp(lnL * e)) - 1.0)
        return solve_monotone(lambda e: self.continuous(i, math.exp(lnL * e), D * e))


def _pow_times(base: float, expo: float, factor: float) -> float:
    """base**expo * factor with 0 * inf resolved to 0 (absent coupling)."""
    if factor == 0.0:
        return 0.0
    return base ** expo * factor


def _rate_data(model: SystemModel, v: Sequence[float]) -> _CertData:
    # the only check on v for library callers, who need not verify first
    cert = verify_certificate(model, v)
    if not cert.valid:
        raise ValueError(f"not a valid certificate: margins {cert.margins}")
    return _CertData(
        v, model.f.evaluate(v), model.delayed_sum_at(v),
        model.dilation.r, model.dilation.r_max, model.degree,
    )


def eta_bound(model: SystemModel, v: Sequence[float], tau_sup: float) -> DecayBound:
    """Exponential decay rate for degree zero under a bounded delay.

    Per component, eta_i zeroes the condition's left-hand side with
    L = exp(eta_i * tau_sup) and D = eta_i,

        (r_max/r_i) * (f_i(v)/v_i + exp(eta_i * tau_sup * r_i / r_max)
                                     * g_i(v)/v_i) + eta_i = 0,

    with the closed form eta_i = -(r_max/r_i) f_i(v)/v_i when the delayed
    coupling vanishes.  The guaranteed rate is (1 - DEFAULT_SAFETY) * min_i eta_i.
    """
    if model.degree != 0.0:
        raise ValueError("exponential bound needs degree zero; use theta_bound instead")
    if tau_sup < 0.0:
        raise ValueError("tau_sup must be nonnegative")
    c = _rate_data(model, v)
    etas = []
    for i in range(model.n):
        if c.gv[i] == 0.0:
            etas.append(-(c.rmax / c.r[i]) * (c.fv[i] / c.v[i]))
        else:
            etas.append(c.root(i, False, 0.0, tau_sup, 1.0))
    eta = (1.0 - DEFAULT_SAFETY) * min(etas)
    return DecayBound(
        form=EXPONENTIAL,
        rate=eta,
        per_component_exponents=tuple(c.rmax / ri for ri in c.r),
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
            + (1 - theta' tau_sup k**p)**(-(p+r_i)/p) g_i(v) <= 0,

    that is, the condition with L = (1 - theta' tau_sup k**p)**(-r_max/p)
    and D = (r_max/p) theta', scaled by r_i v_i / r_max.
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
    c = _rate_data(model, v)
    thetas = [-(p / c.r[i]) * (c.fv[i] + c.gv[i]) / c.v[i] for i in range(model.n)]
    cap = math.inf if tau_sup == 0.0 else 1.0 / tau_sup
    theta = (1.0 - DEFAULT_SAFETY) * min(cap, min(thetas))
    return DecayBound(
        form=POLYNOMIAL_RECIPROCAL,
        rate=theta,
        per_component_exponents=tuple(c.rmax / ri for ri in c.r),
        component_rates=tuple(thetas),
        poly_exponent=c.rmax / p,
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
    c = _rate_data(model, v)
    kp = history_v ** (p / c.rmax)
    cap = math.inf if tau_sup == 0.0 else 1.0 / (tau_sup * kp)
    roots = []
    for i in range(model.n):
        if c.gv[i] == 0.0 or tau_sup == 0.0:
            roots.append(-(c.fv[i] + c.gv[i]) / (c.r[i] * c.v[i] / p))
            continue

        def residual(th, i=i):
            gap = 1.0 - th * tau_sup * kp
            return c.continuous(i, gap ** (-c.rmax / p), c.rmax / p * th) if gap > 0.0 else math.inf

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
    the condition holds, non-strictly, with L = exp(rate tau_sup) and
    D = rate, since then D_lam(t) v with lam(t) = k exp(-rate t / r_max) is
    an upper solution.  Polynomial-reciprocal form:
    M = V(phi) max(1, theta/(theta' k**p))**e with theta' from
    upper_solution_theta (see theta_bound), valid for an exponent e up to
    r_max/p.  Returns None where the argument derives no constant: discrete
    systems, power-rate forms, or a rate or exponent outside those ranges.
    """
    if model.is_discrete or bound.form == POWER_RATE:
        return None
    if history_v == 0.0:
        return 0.0  # the solution stays at zero
    p = model.degree
    if bound.form == EXPONENTIAL:
        if p != 0.0:
            return None
        c = _rate_data(model, v)
        L = math.exp(bound.rate * tau_sup)
        if any(c.continuous(i, L, bound.rate) > 0.0 for i in range(model.n)):
            return None
        return history_v
    rmax = model.dilation.r_max
    if p <= 0.0 or bound.poly_exponent > rmax / p:
        return None
    kp = history_v ** (p / rmax)
    theta_p = upper_solution_theta(model, v, tau_sup, history_v)
    return history_v * max(1.0, bound.rate / (theta_p * kp)) ** bound.poly_exponent


def upper_envelope(
    model: SystemModel,
    v: Sequence[float],
    bound: DecayBound,
    delays: Sequence[DelayModel],
    history_v: float,
) -> tuple[DecayBound, float]:
    """The clock mu_u and constant M with W(t) mu_u(t) <= M for every t >= 0.

    history_v is V(phi) = k**r_max; (tau_sup, alpha) are
    `delay_limits(delays)`.  For the exponential and polynomial-reciprocal
    forms mu_u is the bound's own mu and M is theory_constant's, which
    needs tau_sup.  For the power forms M = V(phi) and mu_u = (t/s + 1)**e,
    returned as the polynomial-reciprocal bound with rate 1/s and exponent
    e.  Every delay must be bounded or have a ratio, so that
    tau(t) <= alpha t + tau0 for every t >= 0 with tau0 the largest
    declared tau_sup (0 if none).  With s = 1 + tau0,
    (t+s)/(t - tau(t) + s) <= max(s, K) for K = 1/(1-alpha), and mu_u is at
    most 1 on the initial window, so D_lam(t) v with
    lam(t) = k mu_u(t)**(-1/r_max) is an upper solution when, for every i,

        continuous  the condition with L = max(s, K)**e, D = k**(-p) e / s,
                    e <= r_max/p
        discrete    the condition with R1 = ((s+1)/s)**e,
                    R2 = max(s+1, K)**e (p = 0)

    holds non-strictly; e is (1 - DEFAULT_SAFETY) times the largest such
    value.  Discrete components with f_i(v) = g_i(v) = 0 are zero after one
    step and constrain no clock.  Raises MissingLimitError where no upper
    solution covers the bound: a power form under a delay that is neither
    bounded nor proportional, or a rate theory_constant derives no
    constant for.
    """
    tau_sup, alpha = delay_limits(delays)
    if bound.form != POWER_RATE:
        M = None if tau_sup is None else theory_constant(model, v, bound, tau_sup, history_v)
        if M is None:
            raise MissingLimitError("no upper solution covers this rate and delay")
        return bound, M
    if alpha is None:
        raise MissingLimitError("a power-rate clock needs every delay bounded or proportional")
    c = _rate_data(model, v)
    if model.is_discrete and c.p != 0.0:
        raise MissingLimitError("a discrete power-rate clock needs degree zero")
    s = 1.0 + max(d.tau_sup or 0.0 for d in delays)
    lnK = -math.log1p(-alpha)
    lnR1 = math.log1p(1.0 / s)  # discrete only
    lnL = max(math.log(s + 1.0 if model.is_discrete else s), lnK)
    # k**(-p); a zero history stays at zero, where any clock holds
    k_p = history_v ** (-c.p / c.rmax) if history_v > 0.0 else 1.0
    roots = [
        c.root(i, model.is_discrete, lnR1, lnL, k_p / s) for i in range(model.n) if c.fv[i] or c.gv[i]
    ]
    cap = c.rmax / c.p if c.p > 0.0 else math.inf
    # no constraining component: every state is zero after one step
    e = (1.0 - DEFAULT_SAFETY) * min(cap, min(roots, default=1.0))
    clock = DecayBound(
        form=POLYNOMIAL_RECIPROCAL,
        rate=1.0 / s,
        per_component_exponents=tuple(c.rmax / ri for ri in c.r),
        component_rates=tuple(roots),
        poly_exponent=e,
    )
    return clock, history_v


def xi_bound(model: SystemModel, v: Sequence[float], alpha: float) -> DecayBound:
    """Power-rate exponent for degree zero under a proportional delay ratio.

    With K = 1/(1-alpha), xi_i makes the condition's left-hand side with
    L = K**xi_i, D = 0 equal 0 (continuous) or with R1 = 1, R2 = K**xi_i
    equal 1 (discrete).  Components with a vanishing delayed coupling, or a
    degenerate alpha = 0, have no finite root: they are flagged and excluded
    from the min (the component decays faster than any power).
    W(t) = O(t**(-xi)).
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    if model.degree != 0.0:
        raise ValueError("power-rate root bound needs degree zero; use beta_bound")
    c = _rate_data(model, v)
    lnK = -math.log1p(-alpha)  # log K
    xis = []
    flagged = []
    for i in range(model.n):
        if c.gv[i] == 0.0 or lnK == 0.0:
            xis.append(math.inf)
            flagged.append(i)
        else:
            xis.append(c.root(i, model.is_discrete, 0.0, lnK, 0.0))
    finite = [x for x in xis if math.isfinite(x)]
    xi = (1.0 - DEFAULT_SAFETY) * min(finite) if finite else math.inf
    return DecayBound(
        form=POWER_RATE,
        rate=xi,
        per_component_exponents=tuple(c.rmax / ri for ri in c.r),
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
    c = _rate_data(model, v)
    lnK = -math.log1p(-alpha)
    stars = []
    flagged = []
    for i in range(model.n):
        gi = c.gv[i]
        if gi == 0.0 or lnK == 0.0:
            stars.append(math.inf)
            flagged.append(i)
            continue
        stars.append(math.log(-c.fv[i] / gi) / ((1.0 + c.r[i] / p) * lnK))
    boundary = min(stars)
    beta = (1.0 - DEFAULT_SAFETY) * min(1.0, boundary)
    if not beta > 0.0:
        raise ValueError(
            f"no feasible power-rate parameter: boundary {boundary} for alpha={alpha}"
        )
    return DecayBound(
        form=POWER_RATE,
        rate=(c.rmax / p) * beta,
        per_component_exponents=tuple(c.rmax / ri for ri in c.r),
        component_rates=tuple(stars),
        beta=beta,
        beta_boundary=boundary,
        infinite_components=tuple(flagged),
    )


# -- generic mu-stability condition -------------------------------------------


class MissingLimitError(ValueError):
    """The mu family needs an asymptotic limit or a delay structure that the
    delay model cannot supply."""


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
        alpha = delay_limits((delay,))[1]
        if alpha is None:
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
        if self.kind in (POWER_RATE, POLYNOMIAL_RECIPROCAL):
            # mu = t**e or (theta t + 1)**e: mu'/mu**(1 - p/r_max) tends to 0,
            # e theta (theta = 1 for t**e) or inf as e p/r_max is <, = or > 1
            e, theta = (self.param, 1.0) if self.kind == POWER_RATE else (self.exponent, self.param)
            L = (1.0 / (1.0 - self._delay_alpha(delay))) ** e
            q = e * p / r_max
            D = 0.0 if q < 1.0 else (e * theta if q == 1.0 else math.inf)
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
            return 1.0, (1.0 / (1.0 - self._delay_alpha(delay))) ** self.param
        if self.step_ratio_limit is None or self.delayed_ratio_limit is None:
            raise MissingLimitError(
                "custom mu must declare step_ratio_limit and delayed_ratio_limit"
            )
        return self.step_ratio_limit, self.delayed_ratio_limit


def mu_condition_check(
    model: SystemModel,
    v: Sequence[float],
    mu: MuSpec,
    delay: DelayModel,
) -> bool:
    """Decide whether the declared mu clocks a guaranteed envelope: the
    module's condition with the limits (L, D) or (R1, R2) of `mu` under
    `delay`, strictly, for every component."""
    c = _rate_data(model, v)
    if model.is_discrete:
        R1, R2 = mu.limits_discrete(delay)
        return all(c.discrete(i, R1, R2) < 1.0 for i in range(model.n))
    L, D = mu.limits_continuous(delay, c.p, c.rmax)
    return all(c.continuous(i, L, D) < 0.0 for i in range(model.n))
