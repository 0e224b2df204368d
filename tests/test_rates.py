import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaycert import (
    ConstantDelay,
    ConstantStepDelay,
    CustomDelay,
    DecayBound,
    Dilation,
    MissingLimitError,
    PolyVectorField,
    ProportionalDelay,
    ProportionalStepDelay,
    SinusoidalDelay,
    SystemModel,
    beta_bound,
    eta_bound,
    mu_condition_check,
    solve_monotone,
    theta_bound,
    upper_envelope,
    upper_solution_theta,
    xi_bound,
)
from delaycert.certify import linear_model, verify_certificate
from delaycert.config import _DELAY_FAMILIES, delay_from
from delaycert.delays import delay_limits
from delaycert.rates import DEFAULT_SAFETY, FORMS, _exp, _rate_data, decay_bounds

SAFETY = 1.0 - 1e-6


# -- solve_monotone ---------------------------------------------------------------

def test_solve_transcendental_root():
    root = solve_monotone(lambda e: -1.0 + 0.5 * math.exp(e) + e, tol=1e-10)
    assert abs(-1.0 + 0.5 * math.exp(root) + root) <= 1e-10
    assert 0.3148 <= root <= 0.3150


def test_solve_linear_root():
    assert solve_monotone(lambda t: -2.0 + t) == pytest.approx(2.0, abs=1e-10)


def test_solve_power_of_two_root():
    assert solve_monotone(lambda x: -1.0 + 0.5 * 2.0 ** x) == pytest.approx(1.0, abs=1e-10)


def test_solve_rejects_nonnegative_at_zero():
    with pytest.raises(ValueError, match="negative"):
        solve_monotone(lambda x: 1.0 + x)


def test_solve_rejects_no_sign_change():
    with pytest.raises(ValueError, match="sign change"):
        solve_monotone(lambda x: -1.0 / (1.0 + x))


def test_solve_rejects_non_monotone():
    # negative at zero, positive at one, but decreasing on (1/3, 2/3)
    wavy = lambda x: -0.5 + 4.0 * x - 9.0 * x ** 2 + 6.0 * x ** 3
    with pytest.raises(ValueError, match="increasing"):
        solve_monotone(wavy)


# -- exponential rate (bounded delay, degree zero) -----------------------------------

def test_eta_scalar_benchmark(scalar_half):
    bound = eta_bound(scalar_half, (1.0,), tau_sup=1.0)
    assert bound.component_rates[0] == pytest.approx(0.314923057845, abs=1e-9)
    assert bound.rate == pytest.approx(SAFETY * bound.component_rates[0], rel=1e-12)
    assert bound.form == "exponential"


def test_eta_no_delayed_term_closed_form():
    model = SystemModel(
        kind="continuous",
        f=PolyVectorField.from_matrix([[-2.0, 0.0], [0.0, -3.0]]),
        delayed_terms=(PolyVectorField.zero(2),),
        dilation=Dilation((1.0, 2.0)),
        degree=0.0,
    )
    bound = eta_bound(model, (1.0, 1.0), tau_sup=7.0)
    # eta_i = -(r_max/r_i) f_i(v)/v_i exactly
    assert bound.component_rates == (4.0, 3.0)


def test_eta_zero_delay_reduction(scalar_half):
    bound = eta_bound(scalar_half, (1.0,), tau_sup=0.0)
    # residual becomes (f + g)/v + eta: root exactly 0.5
    assert bound.component_rates[0] == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("tau", [1.0, 100.0])
def test_eta_meets_its_condition_with_small_coefficients(tau):
    # -1e-8 + 5e-9 exp(eta tau) + eta has its root near 5e-9, where an
    # absolute residual of 1e-12 is far wider than DEFAULT_SAFETY
    model = linear_model([[-1e-8]], [[[5e-9]]], "continuous")
    bound = eta_bound(model, (1.0,), tau_sup=tau)
    assert mu_condition_check(model, (1.0,), exponential(bound.rate), (ConstantDelay(tau),))


def test_eta_decreases_with_delay_bound(scalar_half):
    rates = [eta_bound(scalar_half, (1.0,), tau_sup=s).rate for s in (0.0, 0.5, 1.0, 2.0, 5.0)]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_eta_discrete_zero_component_constrains_nothing():
    # component 2 of x(k+1) = A x(k) + B x(k - 2) is zero after one step
    model = linear_model([[0.3, 0.0], [0.0, 0.0]], [[[0.2, 0.0], [0.0, 0.0]]], "discrete")
    bound = eta_bound(model, (1.0, 1.0), tau_sup=2.0)
    assert bound.infinite_components == (1,)
    assert math.isinf(bound.component_rates[1])
    # 0.3 e**eta + 0.2 e**(3 eta) = 1
    assert bound.component_rates[0] == pytest.approx(0.351282489330, abs=1e-9)
    assert bound.rate == pytest.approx(SAFETY * bound.component_rates[0], rel=1e-12)
    zero = linear_model([[0.0]], [[[0.0]]], "discrete")
    bound = eta_bound(zero, (1.0,), tau_sup=2.0)
    assert math.isinf(bound.rate)
    # every state is zero from k = 1: the clock exp(inf k) is checked with M = V(phi)
    assert upper_envelope(zero, (1.0,), bound, [ConstantStepDelay(2)], history_v=1.0) == (bound, 1.0)
    # a map that does not vanish after one step has no infinite clock
    with pytest.raises(MissingLimitError):
        upper_envelope(model, (1.0, 1.0), dataclasses.replace(bound, rate=math.inf),
                       [ConstantStepDelay(2)], history_v=1.0)


def test_eta_requires_degree_zero(cubic2d):
    with pytest.raises(ValueError, match="degree"):
        eta_bound(cubic2d, (1.0, 1.0), tau_sup=1.0)


def test_eta_rejects_invalid_certificate(scalar_half):
    with pytest.raises(ValueError, match="certificate"):
        # margins are -0.5 v < 0, but v <= 0 is rejected even earlier;
        # use an unstable variant instead
        eta_bound(
            SystemModel(
                kind="continuous",
                f=PolyVectorField(1, (((1.0, (1,)),),)),
                delayed_terms=(PolyVectorField.zero(1),),
                dilation=Dilation((1.0,)),
                degree=0.0,
            ),
            (1.0,),
            tau_sup=1.0,
        )


# -- polynomial-reciprocal rate (bounded delay, positive degree) ----------------------

def test_theta_cubic_benchmark(cubic2d):
    bound = theta_bound(cubic2d, (1.0, 1.0), tau_sup=5.0)
    assert bound.component_rates == (4.0, 1.0)
    assert bound.rate == pytest.approx(0.2 * SAFETY, abs=1e-15)
    assert bound.poly_exponent == 1.0  # r_max / p
    assert bound.per_component_exponents == (2.0, 1.0)


def test_theta_unit_closed_form():
    model = SystemModel(
        kind="continuous",
        f=PolyVectorField(1, (((-1.0, (2,)),),)),
        delayed_terms=(PolyVectorField.zero(1),),
        dilation=Dilation((1.0,)),
        degree=1.0,
    )
    bound = theta_bound(model, (1.0,), tau_sup=0.0)
    # g = 0, f(v)/v = -1, r_i = p: theta_i = 1; zero delay leaves only that cap
    assert bound.component_rates == (1.0,)
    assert bound.rate == pytest.approx(SAFETY * 1.0)


def test_theta_requires_positive_degree(scalar_half):
    with pytest.raises(ValueError, match="degree"):
        theta_bound(scalar_half, (1.0,), tau_sup=1.0)


def test_theta_rejects_discrete(square_map):
    with pytest.raises(ValueError, match="continuous"):
        theta_bound(square_map, (0.5,), tau_sup=1.0)


# -- power rate, degree zero -----------------------------------------------------------

def test_xi_scalar_closed_form(scalar_half):
    bound = xi_bound(scalar_half, (1.0,), alpha=0.5)
    # 0.5 * 2**xi = 1  =>  xi = 1
    assert bound.component_rates[0] == pytest.approx(1.0, abs=1e-10)
    assert bound.rate == pytest.approx(SAFETY, rel=1e-9)


def test_xi_discrete_linear_example():
    A = [[0.3, 0.2], [0.1, 0.4]]
    B = [[0.1, 0.0], [0.2, 0.1]]
    model = linear_model(A, [B], "discrete")
    v = (35.0 / 12.0, 45.0 / 12.0)
    bound = xi_bound(model, v, alpha=0.5)
    Av = np.array(A) @ v
    Bv = np.array(B) @ v
    for i in range(2):
        expect = math.log2((1.0 - Av[i] / v[i]) / (Bv[i] / v[i]))
        assert bound.component_rates[i] == pytest.approx(expect, abs=1e-9)
    assert bound.rate == pytest.approx(SAFETY * min(bound.component_rates), rel=1e-9)


def test_xi_alpha_zero_degenerates(scalar_half):
    bound = xi_bound(scalar_half, (1.0,), alpha=0.0)
    assert bound.infinite_components == (0,)
    assert math.isinf(bound.rate)


def test_xi_vanishing_coupling_flagged():
    model = SystemModel(
        kind="continuous",
        f=PolyVectorField.from_matrix([[-1.0, 0.0], [0.0, -1.0]]),
        delayed_terms=(PolyVectorField.from_matrix([[0.0, 0.0], [0.0, 0.5]]),),
        dilation=Dilation((1.0, 1.0)),
        degree=0.0,
    )
    bound = xi_bound(model, (1.0, 1.0), alpha=0.5)
    assert bound.infinite_components == (0,)
    assert math.isfinite(bound.rate)


def test_xi_monotone_in_alpha(scalar_half):
    rates = [xi_bound(scalar_half, (1.0,), alpha=a).rate for a in np.arange(0.1, 0.95, 0.1)]
    assert all(a > b for a, b in zip(rates, rates[1:]))
    assert xi_bound(scalar_half, (1.0,), alpha=0.99).rate < 0.2


def test_xi_rejects_bad_alpha(scalar_half):
    with pytest.raises(ValueError):
        xi_bound(scalar_half, (1.0,), alpha=1.0)


# -- power rate, positive degree ---------------------------------------------------------

def test_beta_cubic_benchmark(cubic2d):
    bound = beta_bound(cubic2d, (1.0, 1.0), alpha=0.5)
    # boundaries: ln3 / (1.5 ln2) caps at 1; ln1.5 / (2 ln2) binds
    assert bound.component_rates[0] == pytest.approx(math.log(3.0) / (1.5 * math.log(2.0)))
    assert bound.beta_boundary == pytest.approx(math.log(1.5) / (2.0 * math.log(2.0)))
    assert bound.beta == pytest.approx(0.2924812503605781, abs=1e-6)
    # envelope exponent is (r_max/p) * beta
    assert bound.rate == pytest.approx((2.0 / 2.0) * bound.beta)


def test_beta_alpha_zero_everything_feasible(cubic2d):
    bound = beta_bound(cubic2d, (1.0, 1.0), alpha=0.0)
    assert bound.beta == pytest.approx(SAFETY)
    assert math.isinf(bound.beta_boundary)


def test_beta_without_couplings_is_near_one():
    model = SystemModel(
        kind="continuous",
        f=PolyVectorField(1, (((-1.0, (2,)),),)),
        delayed_terms=(PolyVectorField.zero(1),),
        dilation=Dilation((1.0,)),
        degree=1.0,
    )
    bound = beta_bound(model, (1.0,), alpha=0.5)
    assert bound.beta == pytest.approx(SAFETY)
    assert bound.infinite_components == (0,)


def test_beta_monotone_in_alpha_below_cap(cubic2d):
    alphas = np.arange(0.2, 0.95, 0.1)
    betas = [beta_bound(cubic2d, (1.0, 1.0), a).beta for a in alphas]
    assert all(a > b for a, b in zip(betas, betas[1:]))
    assert beta_bound(cubic2d, (1.0, 1.0), 0.99).beta < 0.05


def test_beta_requires_positive_degree(scalar_half):
    with pytest.raises(ValueError, match="degree"):
        beta_bound(scalar_half, (1.0,), alpha=0.5)


# -- which forms apply: decay_bounds against the public functions ----------------------------

BOUND_FNS = {"eta": eta_bound, "theta": theta_bound, "xi": xi_bound, "beta": beta_bound}


def _system(request, kind, positive):
    """A system of the time kind and degree sign with a valid certificate."""
    if kind == "continuous":
        if positive:
            return request.getfixturevalue("cubic2d"), (1.0, 1.0)
        return request.getfixturevalue("scalar_half"), (1.0,)
    if positive:
        return request.getfixturevalue("square_map"), (0.5,)
    return linear_model([[0.3]], [[[0.2]]], "discrete"), (1.0,)


def _delay(kind, family):
    if family == "undeclared":
        return CustomDelay(lambda t: 0.5 * t)  # declares neither tau_sup nor alpha
    if family == "bounded":
        return ConstantDelay(1.0) if kind == "continuous" else ConstantStepDelay(1)
    return ProportionalDelay(0.5) if kind == "continuous" else ProportionalStepDelay(0.5)


def _first_that_applies(model, v, delays):
    tau_sup, alpha = delay_limits(delays)
    for form in FORMS:
        try:
            return BOUND_FNS[form](model, v, tau_sup if form in ("eta", "theta") else alpha)
        except ValueError:
            pass
    return None


@pytest.mark.parametrize("given", [True, False], ids=["param", "no-param"])
@pytest.mark.parametrize("positive", [False, True], ids=["p=0", "p>0"])
@pytest.mark.parametrize("kind", ["continuous", "discrete"])
@pytest.mark.parametrize("form", FORMS)
def test_decay_bounds_skips_exactly_where_the_bound_raises(request, form, kind, positive, given):
    model, v = _system(request, kind, positive)
    bounded = form in ("eta", "theta")
    family = "undeclared" if not given else ("bounded" if bounded else "proportional")
    delays = [_delay(kind, family)]
    tau_sup, alpha = delay_limits(delays)
    bounds, skipped = decay_bounds(model, v, [form], delays)
    try:
        want = BOUND_FNS[form](model, v, tau_sup if bounded else alpha)
    except ValueError as exc:
        assert (bounds, skipped) == ([], [str(exc)])
    else:
        assert (bounds, skipped) == ([want], [])


@pytest.mark.parametrize("family", ["bounded", "proportional", "undeclared"])
@pytest.mark.parametrize("positive", [False, True], ids=["p=0", "p>0"])
@pytest.mark.parametrize("kind", ["continuous", "discrete"])
def test_auto_takes_the_first_form_that_applies(request, kind, positive, family):
    model, v = _system(request, kind, positive)
    delays = [_delay(kind, family)]
    first = _first_that_applies(model, v, delays)
    bounds, skipped = decay_bounds(model, v, ["auto"], delays)
    assert skipped == []
    assert bounds == ([] if first is None else [first])


# one set of parameters per delay family of the config schema
FAMILY_PARAMS = {
    "constant": {"tau": 1.0},
    "sinusoidal": {"a": 2.0, "b": 1.0},
    "piecewise_linear": {"knots": [[0, 0], [1, 0], [2, 1]]},
    "proportional": {"alpha": 0.5},
    "log_lag": {},
    "constant_steps": {"d": 2},
    "alternating_parity": {},
    "proportional_steps": {"alpha": 0.5},
}


def test_family_params_cover_the_schema():
    assert set(FAMILY_PARAMS) == set(_DELAY_FAMILIES)


@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
@pytest.mark.parametrize("positive", [False, True], ids=["p=0", "p>0"])
def test_every_bound_decay_bounds_returns_has_an_envelope(request, positive, family):
    # simulate checks each bound decay_bounds returns against the clock of
    # upper_envelope, with no branch for a bound that has none
    delay = delay_from({"family": family, **FAMILY_PARAMS[family]})
    model, v = _system(request, "discrete" if delay.is_discrete else "continuous", positive)
    bounds, _ = decay_bounds(model, v, FORMS, [delay])
    # no form applies to a discrete system of positive degree, nor without a delay limit
    assert bounds or (positive and delay.is_discrete) or delay_limits([delay]) == (None, None)
    for bound in bounds:
        for history_v in (0.0, 1.0, 100.0):
            _, M = upper_envelope(model, v, bound, [delay], history_v)
            assert M >= 0.0


def test_auto_picks_by_form_order():
    # a bounded delay has ratio 0, so xi applies too; auto takes eta, which comes first
    model = linear_model([[0.3]], [[[0.2]]], "discrete")
    bounds, _ = decay_bounds(model, (1.0,), ["auto"], [ConstantStepDelay(2)])
    assert [b.form for b in bounds] == ["exponential"]
    bounds, skipped = decay_bounds(model, (1.0,), ["xi", "auto", "theta"], [ConstantStepDelay(2)])
    assert [b.form for b in bounds] == ["power_rate", "exponential"]
    assert skipped == ["theta bound needs positive degree, got 0.0"]


# -- generic mu-stability condition --------------------------------------------------------

# clocks for mu_condition_check: DecayBounds without per-component data

def exponential(eta):
    return DecayBound("exponential", eta, (), ())


def power(xi):
    return DecayBound("power_rate", xi, (), ())


def polynomial_reciprocal(theta, exponent):
    return DecayBound("polynomial_reciprocal", theta, (), (), poly_exponent=exponent)


def test_mu_exponential_threshold_matches_root(scalar_half):
    delay = ConstantDelay(1.0)
    assert mu_condition_check(scalar_half, (1.0,), exponential(0.30), (delay,))
    assert not mu_condition_check(scalar_half, (1.0,), exponential(0.35), (delay,))


def test_mu_power_reduces_to_xi_equation(scalar_half):
    delay = ProportionalDelay(0.5)
    assert mu_condition_check(scalar_half, (1.0,), power(0.9), (delay,))
    assert not mu_condition_check(scalar_half, (1.0,), power(1.1), (delay,))


def test_mu_polynomial_reciprocal_reduces_to_theta(cubic2d):
    delay = ConstantDelay(5.0)
    mu_ok = polynomial_reciprocal(0.95, exponent=1.0)
    mu_bad = polynomial_reciprocal(1.05, exponent=1.0)
    assert mu_condition_check(cubic2d, (1.0, 1.0), mu_ok, (delay,))
    assert not mu_condition_check(cubic2d, (1.0, 1.0), mu_bad, (delay,))


def test_mu_discrete_power_matches_xi():
    A = [[0.3, 0.2], [0.1, 0.4]]
    B = [[0.1, 0.0], [0.2, 0.1]]
    model = linear_model(A, [B], "discrete")
    v = (35.0 / 12.0, 45.0 / 12.0)
    delay = ProportionalStepDelay(0.5)
    assert mu_condition_check(model, v, power(1.0), (delay,))
    assert not mu_condition_check(model, v, power(1.1), (delay,))


def test_mu_missing_limit_raises(scalar_half):
    with pytest.raises(MissingLimitError):
        mu_condition_check(scalar_half, (1.0,), exponential(0.1), (ProportionalDelay(0.5),))


# -- corollary consistency: bounds plugged back into the generic condition -------------------

def dilated_model(kind: str) -> SystemModel:
    """Degree zero under r = (1, 2) with an x_1**2 coupling into component 2.

    v = (1, 1) certifies it.  Component 1 binds, so its rate depends on the
    exponent (r_1 + p)/r_max = 1/2 of the delayed term.
    """
    if kind == "continuous":
        f = PolyVectorField.from_matrix([[-1.0, 0.0], [0.0, -1.0]])
        g = PolyVectorField(2, (((0.6, (1, 0)),), ((0.2, (2, 0)),)))
    else:
        f = PolyVectorField.from_matrix([[0.3, 0.0], [0.0, 0.2]])
        g = PolyVectorField(2, (((0.5, (1, 0)),), ((0.3, (2, 0)),)))
    return SystemModel(kind=kind, f=f, delayed_terms=(g,), dilation=Dilation((1.0, 2.0)), degree=0.0)


def test_eta_bound_is_sharp_within_safety(scalar_half):
    delay = (ConstantDelay(1.0),)
    bound = eta_bound(scalar_half, (1.0,), tau_sup=1.0)
    assert mu_condition_check(scalar_half, (1.0,), exponential(bound.rate), delay)
    assert not mu_condition_check(
        scalar_half, (1.0,), exponential(1.05 * bound.rate), delay
    )
    # component 1: 2 (-1 + 0.6 exp(eta/2)) + eta = 0 (continuous) or
    # 0.3 exp(eta/2) + 0.5 exp(eta) = 1 (discrete, R1 = e**eta, R2 = e**(2 eta))
    for kind, delay, eta_1 in (
        ("continuous", (ConstantDelay(1.0),),
         solve_monotone(lambda e: 2.0 * (-1.0 + 0.6 * math.exp(0.5 * e)) + e)),
        ("discrete", (ConstantStepDelay(1),), 2.0 * math.log(math.sqrt(2.09) - 0.3)),
    ):
        model = dilated_model(kind)
        bound = eta_bound(model, (1.0, 1.0), tau_sup=1.0)
        assert bound.component_rates[0] == pytest.approx(eta_1, rel=1e-9)
        assert bound.rate == pytest.approx(SAFETY * eta_1, rel=1e-9)
        assert mu_condition_check(model, (1.0, 1.0), exponential(bound.rate), delay)
        assert not mu_condition_check(
            model, (1.0, 1.0), exponential(1.05 * bound.rate), delay
        )
    assert eta_1 == pytest.approx(0.272002, abs=1e-6)


def test_theta_bound_is_sharp_within_safety(cubic2d):
    # small delay bound so the component equation (not 1/tau_sup) binds
    delay = (ConstantDelay(0.1),)
    bound = theta_bound(cubic2d, (1.0, 1.0), tau_sup=0.1)
    mu = polynomial_reciprocal(bound.rate, exponent=bound.poly_exponent)
    assert mu_condition_check(cubic2d, (1.0, 1.0), mu, delay)
    mu_hot = polynomial_reciprocal(1.05 * bound.rate, exponent=bound.poly_exponent)
    assert not mu_condition_check(cubic2d, (1.0, 1.0), mu_hot, delay)


def test_xi_bound_is_sharp_within_safety(scalar_half):
    delay = (ProportionalDelay(0.5),)
    bound = xi_bound(scalar_half, (1.0,), alpha=0.5)
    assert mu_condition_check(scalar_half, (1.0,), power(bound.rate), delay)
    assert not mu_condition_check(scalar_half, (1.0,), power(1.05 * bound.rate), delay)
    # component 1: 2**(xi/2) g_1 equals -f_1 (continuous) or 1 - f_1 (discrete)
    for kind, delay, xi_1 in (
        ("continuous", (ProportionalDelay(0.5),), 2.0 * math.log2(1.0 / 0.6)),
        ("discrete", (ProportionalStepDelay(0.5),), 2.0 * math.log2(0.7 / 0.5)),
    ):
        model = dilated_model(kind)
        bound = xi_bound(model, (1.0, 1.0), alpha=0.5)
        assert bound.component_rates[0] == pytest.approx(xi_1, rel=1e-9)
        assert bound.rate == pytest.approx(SAFETY * xi_1, rel=1e-9)
        assert mu_condition_check(model, (1.0, 1.0), power(bound.rate), delay)
        assert not mu_condition_check(model, (1.0, 1.0), power(1.05 * bound.rate), delay)


def test_component_equations_strictly_increasing(scalar_half):
    # the solved residual is strictly increasing across the bracket
    fn = lambda e: -1.0 + 0.5 * math.exp(e) + e
    xs = np.linspace(0.0, 2.0, 100)
    vals = [fn(x) for x in xs]
    assert all(a < b for a, b in zip(vals, vals[1:]))


# -- serialization ----------------------------------------------------------------------------

def test_decay_bound_serialization(cubic2d):
    doc = theta_bound(cubic2d, (1.0, 1.0), tau_sup=5.0).to_dict()
    assert doc["form"] == "polynomial_reciprocal"
    assert doc["per_component_exponents"] == [2.0, 1.0]
    xi_doc = xi_bound(
        SystemModel(
            kind="continuous",
            f=PolyVectorField.from_matrix([[-1.0]]),
            delayed_terms=(PolyVectorField.zero(1),),
            dilation=Dilation((1.0,)),
            degree=0.0,
        ),
        (1.0,),
        alpha=0.5,
    ).to_dict()
    assert xi_doc["component_rates"] == ["inf"]


# -- DecayBound.mu on arrays against the scalar formulas, bit for bit ------------------------------


def _mu_reference(bound: DecayBound, t: float) -> float:
    """The clock at one time in Python floats: math.exp and **."""
    if bound.form == "exponential":
        try:
            return math.exp(bound.rate * t)
        except OverflowError:
            return math.inf
    if bound.form == "polynomial_reciprocal":
        return (bound.rate * t + 1.0) ** bound.poly_exponent
    return t ** bound.rate if t > 0.0 else 0.0


def _bits(xs) -> list[str]:
    return [float(x).hex() for x in xs]


@settings(max_examples=300, deadline=None)
@given(
    form=st.sampled_from(["exponential", "polynomial_reciprocal", "power_rate"]),
    rate=st.floats(1e-3, 40.0),
    exponent=st.floats(0.05, 12.0),
    ts=st.lists(st.floats(0.0, 3000.0), max_size=40),
)
def test_mu_array_matches_scalar_formula_bitwise(form, rate, exponent, ts):
    bound = DecayBound(form, rate, (1.0,), (rate,),
                       poly_exponent=exponent if form == "polynomial_reciprocal" else None)
    # t = 0, and the exponential clock past the float range (exp overflows at 709.78)
    ts = np.array(ts + [0.0, 1e-300, 1.0, 700.0 / rate, 720.0 / rate], dtype=float)
    if form != "exponential":
        ts = ts[ts <= 3000.0]  # keep ** in the float range, where it does not raise
    expected = [_mu_reference(bound, t) for t in ts.tolist()]
    assert _bits(bound.mu(ts)) == _bits(expected)
    assert _bits(bound.envelope(ts)) == _bits(1.0 / m if m > 0.0 else math.inf for m in expected)
    assert float(bound.mu(float(ts[-1]))).hex() == float(expected[-1]).hex()
    if form == "exponential":
        assert math.isinf(bound.mu(720.0 / rate))


# -- a verified Certificate is not verified again ----------------------------------------------------


def test_rates_trust_a_certificate_and_verify_a_bare_vector(scalar_half, monkeypatch):
    import delaycert.rates as rates_mod
    from delaycert import verify_certificate

    cert = verify_certificate(scalar_half, (1.0,))
    expected = eta_bound(scalar_half, (1.0,), tau_sup=1.0)
    calls = []
    monkeypatch.setattr(rates_mod, "verify_certificate", lambda *a, **k: calls.append(a) or cert)
    bounds, skipped = decay_bounds(scalar_half, cert, ["eta"], [ConstantDelay(1.0)])
    assert bounds == [expected] and skipped == []
    assert upper_envelope(scalar_half, cert, bounds[0], [ConstantDelay(1.0)], history_v=2.0) == (expected, 2.0)
    assert calls == []
    eta_bound(scalar_half, (1.0,), tau_sup=1.0)
    assert len(calls) == 1
    with pytest.raises(ValueError, match="certificate"):
        eta_bound(scalar_half, dataclasses.replace(cert, valid=False), tau_sup=1.0)


# -- the rate layer against its per-component loops, bit for bit ---------------------

# The four loops below solve the condition one component at a time, as the
# rate functions did before they shared `_CertData.roots`.  They are the
# reference: every rate, component rate, infinite component, clock exponent
# and envelope constant must match them to the last bit.  They take their
# limits and sup ratios from `_exp`, as the rate functions do, so that a
# ratio past the float range is inf rather than an OverflowError charged to
# a component whose delayed coupling is zero.

def _ref_eta(c, tau_sup):
    etas = []
    for i in range(len(c.r)):
        if c.gv[i] == 0.0 and not c.is_discrete:
            etas.append(-(c.rmax / c.r[i]) * (c.fv[i] / c.v[i]))
        elif c.gv[i] == 0.0 and c.fv[i] == 0.0:
            etas.append(math.inf)
        else:
            etas.append(solve_monotone(
                lambda e, i=i: c.condition(i, c.limits("exponential", e, None, tau_sup, None))
            ))
    return _ref_smallest(etas)


def _ref_xi(c, alpha):
    xis = [
        math.inf if c.gv[i] == 0.0 or alpha == 0.0
        else solve_monotone(lambda e, i=i: c.condition(i, c.limits("power_rate", e, None, None, alpha)))
        for i in range(len(c.r))
    ]
    return _ref_smallest(xis)


def _ref_smallest(rates):
    finite = [x for x in rates if math.isfinite(x)]
    rate = (1.0 - DEFAULT_SAFETY) * min(finite) if finite else math.inf
    return rate, rates, [i for i, x in enumerate(rates) if not math.isfinite(x)]


def _ref_theta_prime(c, tau_sup, history_v):
    p = c.p
    kp = history_v ** (p / c.rmax)
    cap = math.inf if tau_sup == 0.0 else 1.0 / (tau_sup * kp)
    roots = []
    for i in range(len(c.r)):
        if c.gv[i] == 0.0 or tau_sup == 0.0:
            roots.append(-(c.fv[i] + c.gv[i]) / (c.r[i] * c.v[i] / p))
            continue

        def residual(th, i=i):
            gap = 1.0 - th * tau_sup * kp
            return c.condition(i, (gap ** (-c.rmax / p), c.rmax / p * th)) if gap > 0.0 else math.inf

        roots.append(solve_monotone(residual, bracket_hint=0.5 * cap))
    return (1.0 - DEFAULT_SAFETY) * min(cap, min(roots))


def _ref_power_clock(c, delays, alpha, history_v):
    s = 1.0 + max(d.tau_sup or 0.0 for d in delays)
    lnK = -math.log1p(-alpha)
    lnR1 = math.log1p(1.0 / s)
    lnL = max(math.log(s + 1.0 if c.is_discrete else s), lnK)
    D = history_v ** (-c.p / c.rmax) / s if history_v > 0.0 else 1.0 / s

    def sup_ratios(e):
        return (_exp(lnR1 * e), _exp(lnL * e)) if c.is_discrete else (_exp(lnL * e), D * e)

    roots = [
        solve_monotone(lambda e, i=i: c.condition(i, sup_ratios(e)))
        for i in range(len(c.r)) if c.fv[i] or c.gv[i]
    ]
    cap = c.rmax / c.p if c.p > 0.0 else math.inf
    e = (1.0 - DEFAULT_SAFETY) * min(cap, min(roots, default=1.0))
    return 1.0 / s, roots, e


def _hex(x):
    if isinstance(x, (list, tuple)):
        return [_hex(y) for y in x]
    return float(x).hex() if isinstance(x, float) else x


def _bound_record(b):
    return _hex([b.rate, list(b.component_rates), list(b.infinite_components), list(b.per_component_exponents)])


def _random_case(seed):
    """A random certified system with its delays and history level.

    Continuous systems are cooperative: each f_i is a negative pure power of
    x_i plus nonnegative monomials, and g has nonnegative coefficients;
    discrete ones have nonnegative coefficients throughout.  Every monomial
    of component i has the weighted degree r_i + p.  The coefficients are
    scaled so that v certifies the system.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    kind = "discrete" if rng.random() < 0.4 else "continuous"
    dilated = rng.random() < 0.4
    r = tuple(float(x) for x in rng.choice([1.0, 2.0], n)) if dilated else (1.0,) * n
    p = 0.0 if kind == "discrete" or rng.random() < 0.5 else (2.0 if dilated else float(rng.choice([1.0, 2.0])))
    v = tuple(float(x) for x in rng.uniform(0.3, 3.0, n))
    two_terms = rng.random() < 0.4
    f_rows, g_rows = [], []
    for i in range(n):
        w = r[i] + p
        pure = tuple(int(w / r[i]) if j == i else 0 for j in range(n))
        monos = [m for m in itertools.product(range(5), repeat=n)
                 if sum(mj * rj for mj, rj in zip(m, r)) == w]
        others = [m for m in monos if m != pure]

        def pick(pool, most):
            k = int(rng.integers(0, min(most, len(pool)) + 1))
            return [(float(rng.uniform(0.1, 2.0)), pool[j]) for j in rng.choice(len(pool), k, replace=False)]

        zero_row = kind == "discrete" and rng.random() < 0.15
        g_row = [] if zero_row or rng.random() < 0.3 else pick(monos, 2)
        f_row = [] if zero_row else pick(monos if kind == "discrete" else others, 2)
        scale = 10.0 ** rng.uniform(-2, 2)
        f_row = [(scale * c, m) for c, m in f_row]
        g_row = [(scale * c, m) for c, m in g_row]
        total = sum(c * math.prod(x ** e for x, e in zip(v, m)) for c, m in f_row + g_row)
        if kind == "discrete":
            if total > 0.0:
                k = float(rng.uniform(0.05, 0.95)) * v[i] / total
                f_row, g_row = [(k * c, m) for c, m in f_row], [(k * c, m) for c, m in g_row]
        else:
            slack = float(rng.uniform(0.1, 1.0)) * (scale + total)
            f_row.append((-(total + slack) / math.prod(x ** e for x, e in zip(v, pure)), pure))
        f_rows.append(tuple(f_row))
        g_rows.append(g_row)
    if two_terms:
        split = [rng.random() < 0.5 for _ in range(n)]
        gs = (PolyVectorField(n, tuple(tuple(row) if s else () for row, s in zip(g_rows, split))),
              PolyVectorField(n, tuple(() if s else tuple(row) for row, s in zip(g_rows, split))))
    else:
        gs = (PolyVectorField(n, tuple(tuple(row) for row in g_rows)),)
    model = SystemModel(kind=kind, f=PolyVectorField(n, tuple(f_rows)), delayed_terms=gs,
                        dilation=Dilation(r), degree=p)
    family = str(rng.choice(["constant", "proportional", "sinusoidal", "mixed"] if kind == "continuous"
                            else ["constant", "proportional", "mixed"]))
    tau = float(rng.choice([0.0, 0.5, 1.0, 5.0]))
    bounded = (ConstantDelay(tau) if kind == "continuous" else ConstantStepDelay(int(tau) + 1))
    ratio = (ProportionalDelay if kind == "continuous" else ProportionalStepDelay)(float(rng.uniform(0.0, 0.9)))
    delays = {
        "constant": [bounded],
        "proportional": [ratio],
        "sinusoidal": [SinusoidalDelay(tau + 1.0, 1.0)],
        "mixed": [bounded, ratio],
    }[family]
    history_v = float(rng.choice([0.0, 0.3, 1.0, 7.0]))
    features = {f"n={n}", kind, f"dilated={dilated}", f"p>0={p > 0}", family, f"terms={len(gs)}",
                f"history_v={history_v}"}
    features |= {"zero delayed row"} if any(not row for row in g_rows) else set()
    features |= {"zero row"} if any(not f and not g for f, g in zip(f_rows, g_rows)) else set()
    return model, v, delays, history_v, features


def _rate_records(model, v, delays, history_v):
    """{check: (code, reference)} of one case; a reference that raises
    leaves its check out."""
    c = _rate_data(model, v)
    cert = verify_certificate(model, v)
    assert cert.valid, cert.margins
    tau_sup, alpha = delay_limits(delays)
    exps = [c.rmax / ri for ri in c.r]
    checks = {}

    def check(name, code, reference):
        try:
            want = reference()
        except (ValueError, ArithmeticError):
            return
        checks[name] = (code(), want)

    def envelope(bound):
        try:
            clock, M = upper_envelope(model, cert, bound, delays, history_v)
        except MissingLimitError:
            return "uncovered"
        return _bound_record(clock) + _hex([clock.poly_exponent, M])

    if c.p == 0.0 and tau_sup is not None:
        eta = eta_bound(model, cert, tau_sup)
        check("eta", lambda: _bound_record(eta), lambda: _hex([*_ref_eta(c, tau_sup), exps]))

        def eta_envelope():
            if history_v == 0.0:
                return _bound_record(eta) + _hex([None, 0.0])
            limits = c.limits("exponential", eta.rate, None, tau_sup, None)
            if not all(c.condition(i, limits) <= 0.0 for i in range(model.n)):
                return "uncovered"
            return _bound_record(eta) + _hex([None, history_v])

        check("eta envelope", lambda: envelope(eta), eta_envelope)
    if c.p > 0.0 and tau_sup is not None:
        theta = theta_bound(model, cert, tau_sup)
        thetas = [-(c.p / c.r[i]) * (c.fv[i] + c.gv[i]) / c.v[i] for i in range(model.n)]
        cap = math.inf if tau_sup == 0.0 else 1.0 / tau_sup
        check("theta", lambda: _bound_record(theta) + _hex([theta.poly_exponent]),
              lambda: _hex([(1.0 - DEFAULT_SAFETY) * min(cap, min(thetas)), thetas,
                            [i for i, x in enumerate(thetas) if x == math.inf], exps, c.rmax / c.p]))
        if history_v > 0.0:
            check("theta'", lambda: _hex(upper_solution_theta(model, cert, tau_sup, history_v)),
                  lambda: _hex(_ref_theta_prime(c, tau_sup, history_v)))

        def theta_envelope():
            if history_v == 0.0:
                return _bound_record(theta) + _hex([theta.poly_exponent, 0.0])
            kp = history_v ** (c.p / c.rmax)
            M = history_v * max(1.0, theta.rate / (_ref_theta_prime(c, tau_sup, history_v) * kp)) ** (c.rmax / c.p)
            return _bound_record(theta) + _hex([theta.poly_exponent, M])

        check("theta envelope", lambda: envelope(theta), theta_envelope)
    if alpha is not None:
        if c.p == 0.0:
            power = xi_bound(model, cert, alpha)
            check("xi", lambda: _bound_record(power), lambda: _hex([*_ref_xi(c, alpha), exps]))
        else:
            try:
                power = beta_bound(model, cert, alpha)
            except ValueError:
                return checks
            lnK = -math.log1p(-alpha)
            stars = [math.inf if c.gv[i] == 0.0 or lnK == 0.0
                     else math.log(-c.fv[i] / c.gv[i]) / ((1.0 + c.r[i] / c.p) * lnK) for i in range(model.n)]
            beta = (1.0 - DEFAULT_SAFETY) * min(1.0, min(stars))
            check("beta", lambda: _bound_record(power) + _hex([power.beta, power.beta_boundary]),
                  lambda: _hex([(c.rmax / c.p) * beta, stars, [i for i, x in enumerate(stars) if x == math.inf],
                                exps, beta, min(stars)]))

        def power_envelope():
            rate, roots, e = _ref_power_clock(c, delays, alpha, history_v)
            return _hex([rate, roots, [], exps, e, history_v])

        check("power clock", lambda: envelope(power), power_envelope)
    return checks


HARNESS_SEEDS = range(240)


@pytest.mark.parametrize("seed", HARNESS_SEEDS)
def test_rates_match_the_per_component_loops_bitwise(seed):
    model, v, delays, history_v, _ = _random_case(seed)
    checks = _rate_records(model, v, delays, history_v)
    assert checks, "every case checks at least one rate"
    for name, (got, want) in checks.items():
        assert got == want, name


def test_the_harness_covers_the_rate_layer():
    seen = set()
    for seed in HARNESS_SEEDS:
        model, v, delays, history_v, features = _random_case(seed)
        seen |= features | set(_rate_records(model, v, delays, history_v))
    want = {"n=1", "n=2", "n=3", "n=4", "continuous", "discrete", "dilated=True", "dilated=False",
            "p>0=True", "p>0=False", "constant", "proportional", "sinusoidal", "mixed", "terms=1", "terms=2",
            "zero delayed row", "zero row", "eta", "eta envelope", "xi", "theta", "theta'", "theta envelope",
            "beta", "power clock", *(f"history_v={h}" for h in (0.0, 0.3, 1.0, 7.0))}
    assert want <= seen, want - seen
