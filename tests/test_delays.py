import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaycert import (
    AlternatingParityDelay,
    ConstantDelay,
    ConstantStepDelay,
    CustomDelay,
    LogLagDelay,
    PiecewiseLinearDelay,
    ProportionalDelay,
    ProportionalStepDelay,
    SinusoidalDelay,
    history_depth,
)

from delaycert.delays import delay_limits

RAMP = PiecewiseLinearDelay(((0.0, 0.0), (1.0, 0.0), (2.0, 1.0)))


def test_piecewise_ramp_values():
    assert RAMP.value(0.5) == 0.0
    assert RAMP.value(1.5) == pytest.approx(0.5)
    assert RAMP.value(2.0) == 1.0
    assert RAMP.value(10.0) == 1.0
    assert RAMP.tau_sup == 1.0


def test_history_depths_exact():
    assert history_depth(ConstantDelay(5.0)) == 5.0
    # t - 4 - sin t is non-decreasing, minimum -4 at t = 0
    assert history_depth(SinusoidalDelay(4.0, 1.0)) == 4.0
    assert history_depth(RAMP) == 0.0
    assert history_depth(ProportionalDelay(0.5)) == 0.0
    assert history_depth(LogLagDelay()) == 0.0
    assert history_depth(ConstantStepDelay(3)) == 3
    assert history_depth(AlternatingParityDelay()) == 0
    assert history_depth(ProportionalStepDelay(0.7)) == 0


def test_history_depth_grid_fallback_matches_exact():
    sampled = history_depth(CustomDelay(lambda t: 4.0 + math.sin(t)), probe_horizon=50.0)
    assert sampled == pytest.approx(4.0, abs=1e-5)


def test_alternating_parity_values():
    d = AlternatingParityDelay()
    assert [d.value(k) for k in range(6)] == [0, 1, 0, 1, 0, 1]


def test_proportional_step_floor():
    d = ProportionalStepDelay(0.5)
    assert [d.value(k) for k in range(6)] == [0, 0, 1, 1, 2, 2]


def test_loglag_values_nonnegative_and_lagging():
    d = LogLagDelay()
    assert d.value(0.0) == 0.0
    t = 100.0
    assert t - d.value(t) == pytest.approx(math.log(101.0))


def test_delay_validation():
    with pytest.raises(ValueError):
        ConstantDelay(-1.0)
    with pytest.raises(ValueError):
        SinusoidalDelay(0.5, 1.0)  # would dip negative
    with pytest.raises(ValueError):
        ProportionalDelay(1.0)
    with pytest.raises(ValueError):
        PiecewiseLinearDelay(((0.0, 1.0), (0.0, 2.0)))


@pytest.mark.parametrize("make", [
    lambda v: ConstantDelay(v),
    lambda v: SinusoidalDelay(v, 1.0),
    lambda v: SinusoidalDelay(4.0, v),
    lambda v: ProportionalDelay(v),
    lambda v: ConstantStepDelay(v),
    lambda v: ProportionalStepDelay(v),
    lambda v: PiecewiseLinearDelay(((0.0, v),)),
    lambda v: PiecewiseLinearDelay(((0.0, 1.0), (v, 2.0))),
])
@pytest.mark.parametrize("v", [math.inf, -math.inf, math.nan])
def test_delay_families_reject_nonfinite_parameters(make, v):
    with pytest.raises(ValueError, match="finite|lie in"):
        make(v)


def test_custom_delay_without_divergence_is_rejected():
    frozen = CustomDelay(lambda t: t)  # t - tau(t) stuck at zero
    with pytest.raises(ValueError, match="divergence"):
        history_depth(frozen, probe_horizon=100.0)


@pytest.mark.parametrize("delays, limits", [
    ((ConstantDelay(5.0),), (5.0, 0.0)),
    ((SinusoidalDelay(4.0, 1.0),), (5.0, 0.0)),
    ((RAMP,), (1.0, 0.0)),
    ((ProportionalDelay(0.5),), (None, 0.5)),
    ((LogLagDelay(),), (None, None)),
    ((CustomDelay(lambda t: 1.0),), (None, None)),
    ((ConstantStepDelay(3),), (3.0, 0.0)),
    ((AlternatingParityDelay(),), (1.0, 0.0)),
    ((ProportionalStepDelay(0.7),), (None, 0.7)),
    ((ConstantDelay(5.0), ProportionalDelay(0.5)), (None, 0.5)),
    ((ConstantDelay(5.0), SinusoidalDelay(4.0, 2.0)), (6.0, 0.0)),
    ((ProportionalDelay(0.2), ProportionalDelay(0.5)), (None, 0.5)),
    ((ConstantDelay(5.0), LogLagDelay()), (None, None)),
], ids=[
    "constant", "sinusoidal", "piecewise_linear", "proportional", "log_lag", "custom",
    "constant_steps", "alternating_parity", "proportional_steps",
    "constant+proportional", "constant+sinusoidal", "proportional+proportional", "constant+log_lag",
])
def test_delay_limits(delays, limits):
    assert delay_limits(delays) == limits


# -- array forms: values(ts) against value(t), bit for bit ------------------------------------


def _bits(xs) -> list[str]:
    return [float(x).hex() for x in xs]


_continuous_delays = st.one_of(
    st.floats(0.0, 10.0).map(ConstantDelay),
    st.tuples(st.floats(0.0, 2.0), st.floats(-3.0, 3.0)).map(
        lambda ab: SinusoidalDelay(ab[0] + abs(ab[1]), ab[1])
    ),
    st.lists(st.tuples(st.floats(-5.0, 30.0), st.floats(0.0, 5.0)), min_size=1, max_size=5,
             unique_by=lambda k: k[0]).map(lambda ks: PiecewiseLinearDelay(tuple(sorted(ks)))),
    st.floats(0.0, 0.999).map(ProportionalDelay),
    st.just(LogLagDelay()),
    st.just(CustomDelay(lambda t: 0.5 + 0.25 * math.cos(t))),
)


@settings(max_examples=300, deadline=None)
@given(delay=_continuous_delays, ts=st.lists(st.floats(0.0, 40.0), max_size=40))
def test_values_match_value_bitwise(delay, ts):
    if isinstance(delay, PiecewiseLinearDelay):
        # before the first knot, on every knot, next to it, and after the last
        for t, _ in delay.knots:
            ts += [t - 1.0, np.nextafter(t, -math.inf), t, np.nextafter(t, math.inf), t + 1.0]
    ts = np.array(ts, dtype=float)
    assert _bits(delay.values(ts)) == _bits(delay.value(t) for t in ts.tolist())


_discrete_delays = st.one_of(
    st.integers(0, 2**40).map(ConstantStepDelay),
    st.just(AlternatingParityDelay()),
    st.floats(0.0, 1.0, exclude_max=True).map(ProportionalStepDelay),
)


@settings(max_examples=300, deadline=None)
@given(delay=_discrete_delays, ks=st.lists(st.integers(0, 2**40), max_size=40))
def test_discrete_values_match_value_at_every_step(delay, ks):
    # the steps of a run, and steps far past any run that can be stored
    ks = np.array(ks + [0, 1, 2, 2**40 - 1, 2**40], dtype=np.int64)
    got = delay.values(ks)
    assert got.dtype == np.int64
    assert got.tolist() == [delay.value(k) for k in ks.tolist()]


@pytest.mark.parametrize("delay, probe, exact, tol", [
    # the coarse grid misses t = 1/4 by 0.4 and the first refinement by 4e-4
    (CustomDelay(lambda t: t ** 0.5), 40000.0, 0.25, 1e-12),
    # t - 3 - 2 sin t is lowest at t = pi/3
    (SinusoidalDelay(3.0, 2.0), 20000.0, 3.0 + math.sqrt(3.0) - math.pi / 3.0, 1e-11),
], ids=["sqrt", "sinusoidal"])
def test_sampled_history_depth_reaches_float_precision(delay, probe, exact, tol):
    assert history_depth(delay, probe_horizon=probe) == pytest.approx(exact, abs=tol)
