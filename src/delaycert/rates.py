"""Guaranteed decay-rate envelopes for certified systems.

Every bound here controls the scaled state W(t) = max_i (x_i/v_i)**(r_max/r_i)
by a constant multiple of 1/mu(t) for a diverging non-decreasing mu.  One
condition on the certificate v and the clock mu decides that.  With p the
degree and g the sum of the delayed terms, it reads for every component i

  continuous  (r_max/r_i) (f_i(v)/v_i + L**((r_i+p)/r_max) g_i(v)/v_i) + D < 0
  discrete    R1**(r_i/r_max) f_i(v)/v_i + R2**(r_i/r_max) g_i(v)/v_i < 1

with L = lim sup mu(t)/mu(t - tau(t)), D = lim mu'(t)/mu(t)**(1 - p/r_max),
R1 = lim mu(k+1)/mu(k) and R2 = lim sup mu(k+1)/mu(k - d(k)).
`_CertData.condition` evaluates the left-hand side (minus 1 in discrete
time), and `_CertData.limits` is the one table of these limits for the
three clock families (K = 1/(1-alpha) for a delay ratio alpha, d_sup the
largest step delay, q = e p/r_max):

  exp(eta t)            continuous  L = exp(eta tau_sup), D = eta (p = 0)
                        discrete    R1 = exp(eta), R2 = exp(eta (1 + d_sup))
  (theta t + 1)**e,     continuous  L = K**e, D = 0, e theta or inf as q <, = or > 1
  t**e (theta = 1)      discrete    R1 = 1, R2 = K**e

A bounded delay has ratio 0, so L = 1 there.  Each bound is the largest rate
of one family that meets the condition.  FORMS lists them in the order
`auto` tries them, and `why_not` is the one rule for when each applies; the
four functions check their inputs through it, and `decay_bounds` computes
every requested form that applies and gives the reason for each that does
not:

  eta_bound    exp(eta t)                bounded delay, p = 0
  theta_bound  (theta t + 1)**(r_max/p)  bounded delay, p > 0, continuous
  xi_bound     t**xi                     delay ratio, p = 0
  beta_bound   t**((r_max/p) beta)       delay ratio, p > 0, continuous

theta_bound and beta_bound solve it in closed form (theta capped at
1/tau_sup, beta below 1 so that D = 0), as do eta (continuous) and xi where
g_i(v) = 0.  Every other rate, eta, xi, the theta' of `upper_solution_theta`
and the power clock's exponent, comes from one root loop,
`_CertData.roots`: per component, a closed form where one applies, else
the root of the condition with the limits a ratio function gives for the
rate.  The equation is strictly increasing in the rate and negative at
zero; `solve_monotone` finds its unique positive root by bracket doubling
plus bisection (monotonicity is the only structure guaranteed, so no
derivative-based methods).  It stops at a midpoint with residual at most
1e-12 that lies below the root, or above it by at most DEFAULT_SAFETY/2 of
itself, or at the bracket's lower end once the bracket stops shrinking in
floats.  The returned rate sits the relative margin DEFAULT_SAFETY inside
the open admissible interval, so it is always below the root: the theory
guarantees only its inside.  Every bound and clock is built by one
constructor, `_CertData.bound`.  Limits and sup ratios past the float range
are inf, so they cost nothing to a component whose delayed coupling is zero.
`mu_condition_check` decides the condition for any `DecayBound` clock.

The constant multiple depends on the initial history.  `upper_envelope`, the
one envelope entry point, returns for every bound a clock mu_u and a
constant M with W(t) mu_u(t) <= M at every t >= 0, for any size of delay,
from the same condition along an upper solution D_lam(t) v with
lam(t)**r_max = M / mu_u(t), or raises MissingLimitError where none covers
the bound:

  eta          mu_u = the bound's own mu, M = V(phi)
  theta        mu_u = the bound's own mu, M from `upper_solution_theta`
  xi, beta     mu_u = (t+1)**e, M = V(phi): continuous L = K**e,
               D = k**(-p) e with k**r_max = V(phi) and e <= r_max/p;
               discrete R1 = 2**e, R2 = max(2, K)**e

Every function here that takes a certificate vector v also takes a
`Certificate` in its place and trusts its `valid` flag, so a caller that has
verified v once passes that; a bare v is verified on every call.

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

import numpy as np

from .delays import DelayModel, delay_limits
from .model import Certificate, SystemModel
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
    vanishing delayed couplings, a degenerate ratio, or a closed form past
    the float range) are excluded from the min and listed in
    `infinite_components`.  The constant M of the
    envelope depends on the history; `upper_envelope` gives it together
    with the clock it holds for.

    `mu` and `envelope` take one time or an array of times, and each
    element equals, bit for bit, the scalar formula in Python floats
    (math.exp, **).  A numpy form may replace a scalar formula only with
    correctly rounded + - * / and np.float_power, which calls libm pow per
    element, never with np.exp, np.power or np.sin, whose vectorized
    kernels may differ from libm; exp is math.exp per element.
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

    def mu(self, t):
        """The clock at the times t (a float or an array): exp(rate t), with
        exp(inf * 0) = 1 and inf where it passes the float range,
        (rate t + 1)**poly_exponent, or t**rate (0 for t <= 0)."""
        t = np.asarray(t, dtype=float)
        with np.errstate(invalid="ignore"):
            if self.form == EXPONENTIAL:
                x = np.where(t == 0.0, 0.0, self.rate * t)
                m = np.fromiter(map(_exp, x.ravel().tolist()), float, x.size).reshape(t.shape)
            elif self.form == POLYNOMIAL_RECIPROCAL:
                m = np.float_power(self.rate * t + 1.0, self.poly_exponent)
            else:
                m = np.where(t > 0.0, np.float_power(t, self.rate), 0.0)
        return m[()]

    def envelope(self, t):
        """1 / mu(t) (infinite at t = 0 for power rates, 0 where mu is inf)."""
        m = self.mu(t)
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(m > 0.0, 1.0 / m, math.inf)[()]

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

    Bracket doubling until a sign change, then bisection.  The bisection
    stops at a midpoint with |fn| <= tol that lies below the root, or above
    it by at most DEFAULT_SAFETY/2 of itself, so that (1 - DEFAULT_SAFETY)
    times the returned value is always below the root; or, once the bracket
    stops shrinking in floats, at its lower end, where fn < 0.
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
        if mid in (lo, hi):
            return lo
        fm = value(mid)
        if abs(fm) <= tol and (fm <= 0.0 or mid - lo <= 0.5 * DEFAULT_SAFETY * mid):
            return mid
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
    raise ArithmeticError("bisection failed to reach the requested residual")


class MissingLimitError(ValueError):
    """The clock family needs a delay limit (tau_sup or a ratio alpha) that
    the delay models do not declare."""


class _CertData(NamedTuple):
    """A verified certificate v with f(v), g(v) and the dilation data."""

    v: Sequence[float]
    fv: list[float]
    gv: list[float]
    r: tuple[float, ...]
    rmax: float
    p: float
    is_discrete: bool

    def limits(
        self, form: str, rate: float, exponent: float | None, tau_sup: float | None, alpha: float | None
    ) -> tuple[float, float]:
        """(L, D), or (R1, R2) in discrete time, of the clock exp(rate t),
        (rate t + 1)**exponent or t**rate, as `form` says, under delays
        with the limits (tau_sup, alpha): the module docstring's table, with
        inf for a diverging limit.  Raises MissingLimitError where the
        family needs a limit that is None."""
        if form == EXPONENTIAL:
            if tau_sup is None:
                raise MissingLimitError("an exponential clock needs a bounded delay (tau_sup)")
            if self.is_discrete:
                return _exp(rate), _exp(rate * (1.0 + tau_sup))
            return _exp(rate * tau_sup), rate if self.p == 0.0 else math.inf
        if alpha is None:
            raise MissingLimitError("a power clock needs every delay bounded or proportional (alpha)")
        e, theta = (rate, 1.0) if form == POWER_RATE else (exponent, rate)
        K_e = _exp(e * -math.log1p(-alpha))
        if self.is_discrete:
            return 1.0, K_e
        q = e * self.p / self.rmax
        return K_e, 0.0 if q < 1.0 else (e * theta if q == 1.0 else math.inf)

    def condition(self, i: int, limits: tuple[float, float]) -> float:
        """Component i's left-hand side, minus 1 in discrete time, for the
        limits (L, D) or (R1, R2): negative where the condition holds."""
        a, b = limits
        if self.is_discrete:
            e = self.r[i] / self.rmax
            return _pow_times(a, e, self.fv[i] / self.v[i]) + _pow_times(b, e, self.gv[i] / self.v[i]) - 1.0
        ri = self.r[i]
        delayed = _pow_times(a, (ri + self.p) / self.rmax, self.gv[i] / self.v[i])
        return (self.rmax / ri) * (self.fv[i] / self.v[i] + delayed) + b

    def roots(
        self, ratios: Callable[[float], tuple[float, float]], closed: Callable[[int], float | None], hint: float = 1.0
    ) -> list[float]:
        """The rate of every component i: closed(i) where a closed form
        gives it (inf for a component that constrains nothing), otherwise
        the root of the condition with the limits ratios(rate), found by
        solve_monotone from the bracket hint `hint`."""
        rates = [closed(i) for i in range(len(self.r))]
        return [rate if rate is not None else solve_monotone(lambda e, i=i: self.condition(i, ratios(e)), hint)
                for i, rate in enumerate(rates)]

    def bound(self, form: str, rate: float, rates: Sequence[float], **extra) -> DecayBound:
        """The DecayBound of `form` at `rate` with the component rates
        `rates`, the exponents r_max/r_i, the infinite rates (no
        constraint) listed in infinite_components, and the fields `extra`."""
        infinite = tuple(i for i, x in enumerate(rates) if not math.isfinite(x))
        return DecayBound(form, rate, tuple(self.rmax / ri for ri in self.r), tuple(rates), **extra,
                          infinite_components=infinite)


def _exp(x: float) -> float:
    """math.exp(x), inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _pow_times(base: float, expo: float, factor: float) -> float:
    """base**expo * factor with 0 * inf resolved to 0 (absent coupling)."""
    if factor == 0.0:
        return 0.0
    return base ** expo * factor


def _rate_data(model: SystemModel, v: Sequence[float] | Certificate) -> _CertData:
    """The rate data of v: a Certificate is taken as verified, a bare v is
    verified here, the only check on v for library callers.  f(v) and g(v)
    are the certificate's where its verifier kept them."""
    cert = v if isinstance(v, Certificate) else verify_certificate(model, v)
    if not cert.valid:
        raise ValueError(f"not a valid certificate: margins {cert.margins}")
    return _CertData(
        cert.v,
        list(cert.f_v) if cert.f_v is not None else model.f.evaluate(cert.v),
        list(cert.g_v) if cert.g_v is not None else model.delayed_sum_at(cert.v),
        model.dilation.r, model.dilation.r_max, model.degree, model.is_discrete,
    )


FORMS = ("eta", "theta", "xi", "beta")  # auto takes the first that applies


def why_not(form: str, model: SystemModel, param: float | None) -> str:
    """Why the bound `form` does not apply to `model` under its delay
    parameter `param`, tau_sup for eta and theta and the delay ratio alpha
    for xi and beta, or "" where it applies."""
    bounded, positive = form in ("eta", "theta"), form in ("theta", "beta")
    if param is None:
        needs = "a bounded delay" if bounded else "a proportional delay ratio"
        return f"{form} bound needs {needs}"
    if bounded and not param >= 0.0:
        return "tau_sup must be nonnegative"
    if not bounded and not 0.0 <= param < 1.0:
        return f"alpha must lie in [0, 1), got {param}"
    if positive != (model.degree > 0.0):
        return f"{form} bound needs {'positive' if positive else 'zero'} degree, got {model.degree}"
    if positive and model.is_discrete:
        return f"{form} bound applies to continuous systems"
    return ""


def _require(form: str, model: SystemModel, param: float | None) -> None:
    if reason := why_not(form, model, param):
        raise ValueError(reason)


def decay_bounds(
    model: SystemModel,
    v: Sequence[float] | Certificate,
    requested: Sequence[str],
    delays: Sequence[DelayModel],
) -> tuple[list[DecayBound], list[str]]:
    """The requested bounds that apply to `model` under `delays`, and the
    reason for each requested form that does not; `auto` adds the first
    form of FORMS that applies.  tau_sup and the ratio alpha come from
    `delay_limits(delays)` only, as in `upper_envelope` and
    `mu_condition_check`."""
    tau_sup, alpha = delay_limits(delays)
    params = {"eta": tau_sup, "theta": tau_sup, "xi": alpha, "beta": alpha}
    names = [name for name in requested if name != "auto"]
    if "auto" in requested:
        names += [name for name in FORMS if not why_not(name, model, params[name])][:1]
    out, skipped = [], []
    for name in dict.fromkeys(names):
        if reason := why_not(name, model, params[name]):
            skipped.append(reason)
        else:
            # looked up at call time, so wrappers installed on this module see it
            out.append(globals()[f"{name}_bound"](model, v, params[name]))
    return out, skipped


def eta_bound(model: SystemModel, v: Sequence[float] | Certificate, tau_sup: float) -> DecayBound:
    """Exponential decay rate for degree zero under a bounded delay.

    Per component, eta_i zeroes the condition with the exponential limits
    under tau_sup (the largest step delay d_sup in discrete time):

        continuous  (r_max/r_i) (f_i(v)/v_i + exp(eta_i tau_sup r_i/r_max) g_i(v)/v_i) + eta_i = 0
        discrete    exp(eta_i r_i/r_max) f_i(v)/v_i
                        + exp(eta_i (1 + d_sup) r_i/r_max) g_i(v)/v_i = 1

    In continuous time eta_i = -(r_max/r_i) f_i(v)/v_i when the delayed
    coupling vanishes.  A discrete component with f_i(v) = g_i(v) = 0 is
    zero after one step and constrains nothing (eta_i = inf).  The
    guaranteed rate is (1 - DEFAULT_SAFETY) times the smallest finite eta_i.
    """
    _require("eta", model, tau_sup)
    c = _rate_data(model, v)

    def closed(i: int) -> float | None:
        if c.gv[i] != 0.0 or (c.is_discrete and c.fv[i] != 0.0):
            return None
        return math.inf if c.is_discrete else -(c.rmax / c.r[i]) * (c.fv[i] / c.v[i])

    etas = c.roots(lambda e: c.limits(EXPONENTIAL, e, None, tau_sup, None), closed)
    return c.bound(EXPONENTIAL, (1.0 - DEFAULT_SAFETY) * min(etas), etas)


def theta_bound(model: SystemModel, v: Sequence[float] | Certificate, tau_sup: float) -> DecayBound:
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

    which `upper_envelope` returns.  The rate stays history-free; the
    history and the delay size enter through M.
    """
    _require("theta", model, tau_sup)
    p = model.degree
    c = _rate_data(model, v)
    thetas = [-(p / c.r[i]) * (c.fv[i] + c.gv[i]) / c.v[i] for i in range(model.n)]
    cap = math.inf if tau_sup == 0.0 else 1.0 / tau_sup
    theta = (1.0 - DEFAULT_SAFETY) * min(cap, min(thetas))
    return c.bound(POLYNOMIAL_RECIPROCAL, theta, thetas, poly_exponent=c.rmax / p)


def upper_solution_theta(
    model: SystemModel,
    v: Sequence[float] | Certificate,
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
    _require("theta", model, tau_sup)
    p = model.degree
    if not history_v > 0.0:
        raise ValueError(f"history_v must be positive, got {history_v}")
    c = _rate_data(model, v)
    kp = history_v ** (p / c.rmax)
    cap = math.inf if tau_sup == 0.0 else 1.0 / (tau_sup * kp)

    def ratios(th: float) -> tuple[float, float]:
        gap = 1.0 - th * tau_sup * kp
        return gap ** (-c.rmax / p) if gap > 0.0 else math.inf, c.rmax / p * th

    roots = c.roots(
        ratios,
        lambda i: -(c.fv[i] + c.gv[i]) / (c.r[i] * c.v[i] / p) if c.gv[i] == 0.0 or tau_sup == 0.0 else None,
        0.5 * cap,
    )
    return (1.0 - DEFAULT_SAFETY) * min(cap, min(roots))


def upper_envelope(
    model: SystemModel,
    v: Sequence[float] | Certificate,
    bound: DecayBound,
    delays: Sequence[DelayModel],
    history_v: float,
) -> tuple[DecayBound, float]:
    """The clock mu_u and constant M with W(t) mu_u(t) <= M for every t >= 0.

    history_v is V(phi) = k**r_max, the sup of W over the initial window;
    (tau_sup, alpha) are `delay_limits(delays)`.  For the exponential and
    polynomial-reciprocal forms mu_u is the bound's own mu, and the delays
    must be bounded.  Exponential form, degree zero: M = V(phi) whenever
    the condition holds, non-strictly, with the exponential limits of the
    rate under tau_sup, since then D_lam(t) v with
    lam(t) = k exp(-rate t / r_max) is an upper solution: the ratios of
    that clock are at most its limits at every t (every k in discrete
    time), and lam >= k on the initial window.  Polynomial-reciprocal form,
    continuous: M = V(phi) max(1, theta/(theta' k**p))**e with theta' from
    upper_solution_theta (see theta_bound), valid for an exponent e up to
    r_max/p.

    For the power forms M = V(phi) and mu_u = (t/s + 1)**e,
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
    step and constrain no clock.

    An infinite exponential rate is covered only in discrete time, where
    f_i(v) = g_i(v) = 0 for every i: every state is zero from k = 1, and
    mu = exp(inf k) is 1 at k = 0 and inf after, with W mu taken as 0
    where W = 0 (see `simulate.envelope_check`), so M = V(phi).

    Raises MissingLimitError where no upper solution covers the bound: a
    power form under a delay that is neither bounded nor proportional, the
    other forms under an unbounded delay, any other infinite rate, or a
    rate, exponent or time kind outside the ranges above.
    """
    tau_sup, alpha = delay_limits(delays)
    if bound.form != POWER_RATE:
        uncovered = MissingLimitError("no upper solution covers this rate and delay")
        if tau_sup is None:
            raise uncovered
        if history_v == 0.0:
            return bound, 0.0  # the solution stays at zero
        p = model.degree
        if bound.form == EXPONENTIAL:
            if p != 0.0:
                raise uncovered
            c = _rate_data(model, v)
            limits = c.limits(EXPONENTIAL, bound.rate, None, tau_sup, None)
            # an infinite rate passes only where every component vanishes
            # after one step; a NaN left-hand side proves nothing
            if not all(c.condition(i, limits) <= 0.0 for i in range(model.n)):
                raise uncovered
            return bound, history_v
        rmax = model.dilation.r_max
        if p <= 0.0 or model.is_discrete or bound.poly_exponent > rmax / p:
            raise uncovered
        kp = history_v ** (p / rmax)
        theta_p = upper_solution_theta(model, v, tau_sup, history_v)
        return bound, history_v * max(1.0, bound.rate / (theta_p * kp)) ** bound.poly_exponent
    if alpha is None:
        raise MissingLimitError("a power-rate clock needs every delay bounded or proportional")
    c = _rate_data(model, v)
    if model.is_discrete and c.p != 0.0:
        raise MissingLimitError("a discrete power-rate clock needs degree zero")
    s = 1.0 + max(d.tau_sup or 0.0 for d in delays)
    lnK = -math.log1p(-alpha)
    lnR1 = math.log1p(1.0 / s)  # discrete only
    lnL = max(math.log(s + 1.0 if model.is_discrete else s), lnK)
    # D per unit e is k**(-p)/s; a zero history stays at zero, where any clock holds
    D = history_v ** (-c.p / c.rmax) / s if history_v > 0.0 else 1.0 / s

    def sup_ratios(e: float) -> tuple[float, float]:
        # (R1, R2) or (L, D) of (t/s + 1)**e as sups over every t, not limits
        return (_exp(lnR1 * e), _exp(lnL * e)) if c.is_discrete else (_exp(lnL * e), D * e)

    # a component with f_i(v) = g_i(v) = 0 is zero after one step, constrains
    # no clock and is left out; where none is left, e is 1 (below the cap)
    roots = c.roots(sup_ratios, lambda i: None if c.fv[i] or c.gv[i] else math.inf)
    roots = [x for x in roots if x < math.inf]
    cap = c.rmax / c.p if c.p > 0.0 else math.inf
    e = (1.0 - DEFAULT_SAFETY) * min(cap, min(roots, default=1.0))
    return c.bound(POLYNOMIAL_RECIPROCAL, 1.0 / s, roots, poly_exponent=e), history_v


def xi_bound(model: SystemModel, v: Sequence[float] | Certificate, alpha: float) -> DecayBound:
    """Power-rate exponent for degree zero under a proportional delay ratio.

    With K = 1/(1-alpha), xi_i makes the condition's left-hand side with
    L = K**xi_i, D = 0 equal 0 (continuous) or with R1 = 1, R2 = K**xi_i
    equal 1 (discrete).  Components with a vanishing delayed coupling, or a
    degenerate alpha = 0, have no finite root: they are flagged and excluded
    from the min (the component decays faster than any power).
    W(t) = O(t**(-xi)).
    """
    _require("xi", model, alpha)
    c = _rate_data(model, v)
    xis = c.roots(
        lambda e: c.limits(POWER_RATE, e, None, None, alpha),
        lambda i: math.inf if c.gv[i] == 0.0 or alpha == 0.0 else None,
    )
    return c.bound(POWER_RATE, (1.0 - DEFAULT_SAFETY) * min(xis), xis)


def beta_bound(model: SystemModel, v: Sequence[float] | Certificate, alpha: float) -> DecayBound:
    """Power-rate envelope for positive degree under a proportional delay ratio.

    Per component the feasibility boundary is

        beta_i* = ln(-f_i(v)/g_i(v)) / ((1 + r_i/p) ln(1/(1-alpha)))

    (infinite when g_i(v) = 0 or alpha = 0).  The guaranteed parameter is
    beta = (1 - DEFAULT_SAFETY) * min(1, min_i beta_i*) in (0, 1); the envelope is
    W(t) = O(t**(-(r_max/p) beta)).  `beta_boundary` keeps the uncapped
    minimum, which decreases strictly in alpha and tends to zero as the
    delays grow like t.
    """
    _require("beta", model, alpha)
    p = model.degree
    c = _rate_data(model, v)
    lnK = -math.log1p(-alpha)
    stars = [
        math.inf if c.gv[i] == 0.0 or lnK == 0.0 else math.log(-c.fv[i] / c.gv[i]) / ((1.0 + c.r[i] / p) * lnK)
        for i in range(model.n)
    ]
    boundary = min(stars)
    beta = (1.0 - DEFAULT_SAFETY) * min(1.0, boundary)
    if not beta > 0.0:
        raise ValueError(
            f"no feasible power-rate parameter: boundary {boundary} for alpha={alpha}"
        )
    return c.bound(
        POWER_RATE, (c.rmax / p) * beta, stars,
        beta=beta, beta_boundary=boundary,
    )


def mu_condition_check(
    model: SystemModel,
    v: Sequence[float] | Certificate,
    clock: DecayBound,
    delays: Sequence[DelayModel],
) -> bool:
    """Decide whether `clock`'s mu clocks a guaranteed envelope: the
    module's condition, strictly, for every component, with the limits of
    its family under `delay_limits(delays)`.  Raises MissingLimitError where
    the delays do not declare the limit the family needs."""
    c = _rate_data(model, v)
    limits = c.limits(clock.form, clock.rate, clock.poly_exponent, *delay_limits(delays))
    return all(c.condition(i, limits) < 0.0 for i in range(model.n))
