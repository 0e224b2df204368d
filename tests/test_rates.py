import dataclasses
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
    SystemModel,
    beta_bound,
    eta_bound,
    mu_condition_check,
    solve_monotone,
    theta_bound,
    upper_envelope,
    xi_bound,
)
from delaycert.certify import linear_model
from delaycert.config import _DELAY_FAMILIES, delay_from
from delaycert.delays import delay_limits
from delaycert.rates import FORMS, decay_bounds

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
