import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaycert import native, simulate as simulate_mod
from delaycert import (
    ConstantDelay,
    CustomDelay,
    ConstantStepDelay,
    AlternatingParityDelay,
    DecayBound,
    Dilation,
    HistoryUnderrunError,
    LevelSetProbe,
    LogLagDelay,
    MissingLimitError,
    PiecewiseLinearDelay,
    PolyVectorField,
    ProportionalDelay,
    ProportionalStepDelay,
    SinusoidalDelay,
    SystemModel,
    Trajectory,
    constant_history,
    envelope_check,
    export_csv,
    level_set_descent,
    simulate_continuous,
    simulate_discrete,
    beta_bound,
    eta_bound,
    solve_monotone,
    tabulated_history,
    theta_bound,
    upper_envelope,
    upper_solution_theta,
    xi_bound,
)
from delaycert.certify import linear_model
from delaycert.delays import DelayModel, history_depth
from conftest import growth2d_closed_form, lyapunov_reference
from rk4_oracle import oracle_continuous, oracle_discrete

RAMP = PiecewiseLinearDelay(((0.0, 0.0), (1.0, 0.0), (2.0, 1.0)))
# the integrator every run takes: the C kernel wherever a compiler is found
INTEGRATOR = "native" if native._compiler() is not None else "python"


# -- closed-form regression --------------------------------------------------------

def test_growth2d_against_closed_form(growth2d):
    traj = simulate_continuous(growth2d, RAMP, constant_history((1.0, 1.0)), 1e-3, 2.0)
    # x_2(1) = 1 + (e - 1)**2
    j1 = int(round(1.0 / 1e-3))
    assert traj.states[j1, 1] == pytest.approx(1.0 + (math.e - 1.0) ** 2, abs=1e-8)
    x1_exact, x2_exact = growth2d_closed_form(2.0)
    assert traj.states[-1, 0] == pytest.approx(x1_exact, abs=1e-8)
    assert traj.states[-1, 1] == pytest.approx(x2_exact, abs=1e-8)


def test_undelayed_scalar_exponential():
    model = SystemModel(
        kind="continuous",
        f=PolyVectorField.from_matrix([[-1.0]]),
        delayed_terms=(PolyVectorField.zero(1),),
        dilation=Dilation((1.0,)),
        degree=0.0,
    )
    traj = simulate_continuous(model, ConstantDelay(0.0), constant_history((1.0,)), 1e-3, 5.0)
    for t, x in zip(traj.times[::500], traj.states[::500]):
        assert x[0] == pytest.approx(math.exp(-t), abs=1e-8)


def test_delay_free_matches_reference_rk4_bitwise():
    f = PolyVectorField.from_matrix([[-1.0]])
    g = PolyVectorField.from_matrix([[0.3]])
    model = SystemModel(
        kind="continuous", f=f, delayed_terms=(g,), dilation=Dilation((1.0,)), degree=0.0
    )
    h, steps = 0.01, 700
    traj = simulate_continuous(model, ConstantDelay(0.0), constant_history((1.0,)), h, steps * h)

    def combined(y):
        out = f.evaluate(y)
        gy = g.evaluate(y)
        for i in range(len(out)):
            out[i] += gy[i]
        return out

    x = (1.0,)
    half, sixth = 0.5 * h, h / 6.0
    reference = [x]
    for _ in range(steps):
        k1 = combined(x)
        y2 = [xi + half * ki for xi, ki in zip(x, k1)]
        k2 = combined(y2)
        y3 = [xi + half * ki for xi, ki in zip(x, k2)]
        k3 = combined(y3)
        y4 = [xi + h * ki for xi, ki in zip(x, k3)]
        k4 = combined(y4)
        x = tuple(
            xi + sixth * (a + 2.0 * b + 2.0 * c + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
        )
        reference.append(x)
    assert np.array_equal(traj.states, np.array(reference))


def test_convergence_order_on_closed_form(growth2d):
    errs = []
    for h in (8e-3, 4e-3, 2e-3):
        traj = simulate_continuous(growth2d, RAMP, constant_history((1.0, 1.0)), h, 2.0)
        err = 0.0
        for t, x in zip(traj.times, traj.states):
            x1, x2 = growth2d_closed_form(float(t))
            err = max(err, abs(x[0] - x1), abs(x[1] - x2))
        errs.append(err)
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[1] >= 8.0
    assert errs[1] / errs[2] >= 8.0


# -- positivity and history handling --------------------------------------------------

def test_positive_orthant_invariance(cubic2d):
    traj = simulate_continuous(
        cubic2d, SinusoidalDelay(4.0, 1.0), constant_history((1.0, 1.0)), 1e-2, 20.0
    )
    assert traj.states.min() >= -1e-9
    assert traj.metadata["positivity_violations"] == []


def test_history_window_matches_delay_depth(scalar_half):
    # ConstantDelay(2) needs history on [-2, 0]; the simulator resolves the
    # depth from the delay and never asks phi for anything deeper
    seen = []

    def phi(t):
        seen.append(t)
        return (1.0,)

    traj = simulate_continuous(scalar_half, ConstantDelay(2.0), phi, 0.01, 1.0)
    assert len(traj.times) == 101
    assert min(seen) >= -2.0 - 1e-12


def test_monotone_history_access():
    # delayed arguments tend upward: last argument exceeds the first and
    # stays at least T/2 for proportional ratios up to one half
    T = 50.0
    for alpha in (0.3, 0.5):
        delay = ProportionalDelay(alpha)
        args = [t - delay.value(t) for t in np.arange(0.0, T + 1e-9, 0.5)]
        assert args[-1] > args[0]
        assert args[-1] >= T / 2.0


def test_tabulated_history_interpolates(scalar_half):
    phi = tabulated_history([-2.0, -1.0, 0.0], [[2.0], [1.5], [1.0]])
    assert phi(-1.5) == (1.75,)
    traj = simulate_continuous(scalar_half, ConstantDelay(2.0), phi, 0.01, 1.0)
    assert traj.states[0, 0] == 1.0


@pytest.mark.parametrize("phi", [
    constant_history((1.0, 0.5)),
    tabulated_history([-12.0, -5.0, -0.5, 0.0], [[0.5, 2.0], [1.5, 0.25], [0.75, 1.0], [1.0, 0.5]]),
], ids=["constant", "tabulated"])
def test_history_reads_take_one_array_call_per_plan_block(cubic2d, monkeypatch, phi):
    # a 12-unit delay reads the history for the first 1,200 of 2,000 steps,
    # in both plan blocks of 1,024: two array calls, and no scalar call but
    # the run's own phi(0.0); the reads are the scalar calls' bits
    monkeypatch.setattr(simulate_mod, "PLAN_BLOCK", 1024)
    calls, rows = [], []

    def counted(t):
        calls.append(t)
        return phi(t)

    counted.rows = lambda ts: rows.append(len(ts)) or phi.rows(ts)
    traj = simulate_continuous(cubic2d, ConstantDelay(12.0), counted, 0.01, 20.0)
    assert calls == [0.0]
    assert len(rows) == 2 and sum(rows) == 3 * 1200 + 1
    states, _, _ = oracle_continuous(cubic2d, ConstantDelay(12.0), phi, 0.01, 20.0)
    assert np.array_equal(traj.states.view(np.uint64), np.array(states).view(np.uint64))


def test_a_history_without_an_array_form_is_called_once_per_read(cubic2d):
    calls = []

    def phi(t):
        calls.append(t)
        return (1.0 + t / 8.0, 0.5)

    traj = simulate_continuous(cubic2d, ConstantDelay(4.0), phi, 0.01, 6.0)
    assert len(calls) == 1 + 3 * 400 + 1  # phi(0.0), then one call per read
    calls.clear()
    states, _, _ = oracle_continuous(cubic2d, ConstantDelay(4.0), phi, 0.01, 6.0)
    assert np.array_equal(traj.states.view(np.uint64), np.array(states).view(np.uint64))


def test_a_store_larger_than_physical_memory_is_refused_before_any_step(monkeypatch, cubic2d,
                                                                       alternating_discrete):
    # with 16,000 bytes of memory, 999 steps of n = 2 (1,000 rows of 16
    # bytes) fit and 1,000 steps do not; a map of n = 1 keeps its 3 history
    # rows in front of its own, so 1,997 steps fit (2,000 rows of 8 bytes)
    monkeypatch.setattr(simulate_mod, "_memory_bytes", lambda: 16_000)
    phi, history = constant_history((1.0, 0.5)), {0: (3.0,), -1: (3.0,), -2: (3.0,)}
    assert len(simulate_continuous(cubic2d, ConstantDelay(1.0), phi, 0.01, 9.99).times) == 1000
    assert len(simulate_discrete(alternating_discrete, ConstantStepDelay(2), history, 1997).times) == 1998

    def refuse(*args, **kwargs):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(simulate_mod, "_drive", refuse)
    with pytest.raises(ValueError, match="cannot be allocated"):
        simulate_continuous(cubic2d, ConstantDelay(1.0), phi, 0.01, 10.0)
    with pytest.raises(ValueError, match="cannot be allocated"):
        simulate_discrete(alternating_discrete, ConstantStepDelay(2), history, 1998)


def test_stage_times_use_stage_delay():
    # tau evaluated at the stage time: with tau(t) = t the delayed argument
    # is frozen at zero, so x' = -x + 0.5 * phi(0) has the affine closed form
    model = SystemModel(
        kind="continuous",
        f=PolyVectorField.from_matrix([[-1.0]]),
        delayed_terms=(PolyVectorField.from_matrix([[0.5]]),),
        dilation=Dilation((1.0,)),
        degree=0.0,
    )
    delay = PiecewiseLinearDelay(((0.0, 0.0), (100.0, 100.0)))
    traj = simulate_continuous(model, delay, constant_history((1.0,)), 1e-3, 3.0)
    for t, x in zip(traj.times[::300], traj.states[::300]):
        assert x[0] == pytest.approx(0.5 + 0.5 * math.exp(-t), abs=1e-9)


# x' = x**3 + 0.5 x(t - tau): from x = 10, x**3 overflows within three steps of 0.01
BLOW_UP = SystemModel(
    kind="continuous",
    f=PolyVectorField(1, (((1.0, (3,)),),)),
    delayed_terms=(PolyVectorField.from_matrix([[0.5]]),),
    dilation=Dilation((1.0,)),
    degree=2.0,
)


def test_power_overflow_truncates_the_run():
    # the power overflows inside the third step, so the run stops there
    # with the last two finite states kept
    traj = simulate_continuous(BLOW_UP, ConstantDelay(0.3), constant_history((10.0,)), 0.01, 1.0)
    assert traj.metadata["diverged_at"] == 0.03
    assert len(traj.times) == 3
    assert np.all(np.isfinite(traj.states))


def test_sub_step_delay_reads_the_in_step_segment():
    # tau = 0.004 < h: the k2..k4 stages read between x(t) and the stage state
    model = linear_model([[-1.0]], [[[0.5]]], "continuous")
    traj = simulate_continuous(model, ConstantDelay(0.004), constant_history((1.0,)), 0.01, 1.0)
    assert traj.states[-1, 0] == 0.6071362804374016


def test_negative_delay_raised_at_its_stage_time():
    model = linear_model([[-1.0]], [[[0.5]]], "continuous")
    with pytest.raises(ValueError, match=r"delay became negative at t=1\.005$"):
        simulate_continuous(model, CustomDelay(lambda t: 1.0 - t), constant_history((1.0,)), 0.01, 2.0)
    # a run that leaves the finite range first never reaches that stage
    traj = simulate_continuous(BLOW_UP, CustomDelay(lambda t: 1.0 - t), constant_history((10.0,)), 0.01, 2.0)
    assert traj.metadata["diverged_at"] == 0.03


def test_continuous_history_underrun(scalar_half, monkeypatch):
    # a history window shorter than the delay is an inconsistency, not a read
    monkeypatch.setattr(simulate_mod, "history_depth", lambda delay, probe_horizon: 0.5)
    with pytest.raises(HistoryUnderrunError, match="below the initial window"):
        simulate_continuous(scalar_half, ConstantDelay(1.0), constant_history((1.0,)), 0.01, 1.0)


def test_delayed_reads_counted_by_source(scalar_half):
    # tau = 2: a stage at t <= 2 reads the history, a later one the grid;
    # k2 and k3 each read at t + h/2
    h = 0.01
    traj = simulate_continuous(scalar_half, ConstantDelay(2.0), constant_history((1.0,)), h, 1.0)
    assert traj.metadata["delayed_reads"] == {"grid": 0, "history": 400, "segment": 0, "current": 0}
    traj = simulate_continuous(scalar_half, ConstantDelay(2.0), constant_history((1.0,)), h, 4.0)
    stage_times = [t for j in range(400) for t in (j * h, j * h + 0.5 * h, j * h + 0.5 * h, j * h + h)]
    history = sum(t - 2.0 <= 0.0 for t in stage_times)
    assert 800 < history < 810
    assert traj.metadata["delayed_reads"] == {
        "grid": 1600 - history, "history": history, "segment": 0, "current": 0,
    }
    # a step that overflows made its reads: 3 steps of 4 stages here
    traj = simulate_continuous(BLOW_UP, ConstantDelay(0.3), constant_history((10.0,)), h, 1.0)
    assert traj.metadata["diverged_at"] == 0.03
    assert traj.metadata["delayed_reads"] == {"grid": 0, "history": 12, "segment": 0, "current": 0}


def test_delay_below_an_ulp_reads_the_current_state(scalar_half):
    # s = t - 1e-140 rounds to t for t > 0: k1 reads x(t) itself (no
    # zero-width segment to divide by) and k2..k4 read the in-step segment
    traj = simulate_continuous(scalar_half, ConstantDelay(1e-140), constant_history((1.0,)), 0.01, 1.0)
    assert traj.metadata["delayed_reads"] == {"grid": 0, "history": 1, "segment": 300, "current": 99}
    zero = simulate_continuous(scalar_half, ConstantDelay(0.0), constant_history((1.0,)), 0.01, 1.0)
    assert np.allclose(traj.states, zero.states, rtol=1e-14, atol=0.0)


# -- bit identity with the per-stage reference loop ------------------------------------

def _assert_matches_oracle(model, delays, phi, h, horizon):
    traj = simulate_continuous(model, delays, phi, h, horizon)
    assert traj.metadata["integrator"] == INTEGRATOR
    states, violations, diverged_at = oracle_continuous(model, delays, phi, h, horizon)
    assert np.array_equal(traj.states, np.array(states))
    assert traj.metadata["diverged_at"] == diverged_at
    assert traj.metadata["positivity_violations"] == violations


@st.composite
def _cooperative_systems(draw):
    """n in 1..4 with 1 or 2 delayed terms: nonnegative monomials, plus a
    negative pure power of x_i in f_i (which keeps f cooperative)."""
    n = draw(st.integers(1, 4))
    exps = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(lambda e: sum(e) >= 1)
    coeffs = st.floats(0.05, 2.0)

    def field(decay: bool) -> PolyVectorField:
        comps = []
        for i in range(n):
            terms = draw(st.lists(st.tuples(coeffs, exps), max_size=3))
            if decay:
                e = draw(st.integers(1, 3))
                terms.append((-draw(st.floats(0.5, 3.0)), tuple(e if j == i else 0 for j in range(n))))
            comps.append(tuple(terms))
        return PolyVectorField(n, tuple(comps))

    gs = tuple(field(False) for _ in range(draw(st.integers(1, 2))))
    return SystemModel(kind="continuous", f=field(True), delayed_terms=gs,
                       dilation=Dilation((1.0,) * n), degree=0.0)


_delays = st.one_of(
    st.sampled_from([0.0, 0.004, 0.01, 0.013]).map(ConstantDelay),
    st.floats(0.0, 1.5).map(ConstantDelay),
    st.tuples(st.floats(0.0, 1.0), st.floats(-1.0, 1.0)).map(
        lambda ab: SinusoidalDelay(ab[0] + abs(ab[1]), ab[1])
    ),
    st.lists(st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 1.2)), min_size=1, max_size=4,
             unique_by=lambda k: k[0]).map(lambda ks: PiecewiseLinearDelay(tuple(sorted(ks)))),
)


@settings(max_examples=80, deadline=None)
@given(
    model=_cooperative_systems(),
    data=st.data(),
    h=st.sampled_from([0.01, 0.02, 0.05]),
    steps=st.integers(1, 150),
    scale=st.sampled_from([0.5, 3.0, 20.0]),
)
def test_matches_per_stage_reference_bitwise(model, data, h, steps, scale):
    n = model.n
    delays = [data.draw(_delays) for _ in model.delayed_terms]
    values = data.draw(st.lists(st.floats(0.0, scale), min_size=2 * n, max_size=2 * n))
    if data.draw(st.booleans()):
        phi = constant_history(values[:n])
    else:
        phi = tabulated_history([-2.0, 0.0], [values[n:], values[:n]])
    _assert_matches_oracle(model, delays, phi, h, steps * h)


def test_matches_reference_across_plan_blocks(cubic2d, monkeypatch):
    # 3,000 steps in blocks of 1,024; the delay ramps below h and back up,
    # so the run passes through history, grid, in-step and current-state reads
    monkeypatch.setattr(simulate_mod, "PLAN_BLOCK", 1024)
    delay = PiecewiseLinearDelay(((0.0, 0.5), (4.0, 0.0), (8.0, 0.0), (12.0, 0.004), (20.0, 2.0)))
    _assert_matches_oracle(cubic2d, delay, constant_history((1.0, 0.5)), 0.01, 30.0)


NEGATIVE_FEEDBACK = SystemModel(
    kind="continuous",
    f=PolyVectorField.from_matrix([[-1.0]]),
    delayed_terms=(PolyVectorField.from_matrix([[-0.8]]),),
    dilation=Dilation((1.0,)),
    degree=0.0,
)


@pytest.mark.parametrize("delay, count", [(ConstantDelay(1.0), 998), (SinusoidalDelay(1.0, 0.5), 985)])
def test_negative_states_are_recorded_as_the_reference_does(delay, count):
    # x' = -x - 0.8 x(t - 1) is not a positive system: it swings through
    # zero, so the run records (and clamps) negative states on every swing
    phi = constant_history((1.0,))
    _assert_matches_oracle(NEGATIVE_FEEDBACK, delay, phi, 0.01, 20.0)
    traj = simulate_continuous(NEGATIVE_FEEDBACK, delay, phi, 0.01, 20.0)
    assert len(traj.metadata["positivity_violations"]) == count
    assert traj.states.min() < 0.0


def _kernel_calls(monkeypatch) -> list:
    """The list that (j, r, r1) of each kernel call of the runs that follow
    is appended to."""
    rk4_run, calls = simulate_mod._rk4_run, []

    def spied(model, h):
        integrator, kernel = rk4_run(model, h)

        def spy(S, j, r, r1, *plan):
            calls.append((j, r, r1))
            return kernel(S, j, r, r1, *plan)

        return integrator, spy

    monkeypatch.setattr(simulate_mod, "_rk4_run", spied)
    return calls


@pytest.mark.parametrize("compiler", [True, False], ids=["compiler", "no-compiler"])
@pytest.mark.parametrize("delay, count", [(ConstantDelay(1.0), 998), (SinusoidalDelay(1.0, 0.5), 985)])
def test_negative_states_take_one_kernel_call_per_plan_block(tmp_path, monkeypatch, compiler, delay, count):
    # each kernel snaps roundoff to zero itself and runs on through a
    # negative state, so 2,000 steps in blocks of 1,024 are two calls, one
    # per plan block
    if compiler and INTEGRATOR == "python":
        pytest.skip("no C compiler")
    monkeypatch.setattr(simulate_mod, "PLAN_BLOCK", 1024)
    if not compiler:
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setenv("PATH", str(tmp_path))
    calls = _kernel_calls(monkeypatch)
    phi = constant_history((1.0,))
    traj = simulate_continuous(NEGATIVE_FEEDBACK, delay, phi, 0.01, 20.0)
    assert traj.metadata["integrator"] == ("native" if compiler else "python")
    block = simulate_mod.PLAN_BLOCK
    assert calls == [(0, 0, block), (block, 0, 2000 - block)]
    states, violations, diverged_at = oracle_continuous(NEGATIVE_FEEDBACK, delay, phi, 0.01, 20.0)
    assert np.array_equal(traj.states.view(np.uint64), np.array(states).view(np.uint64))

    def bits(violations):
        return [(t.hex(), i, c.hex()) for t, i, c in violations]

    assert bits(traj.metadata["positivity_violations"]) == bits(violations)
    assert len(violations) == count and diverged_at is None
    assert not any(tmp_path.iterdir())  # without a compiler nothing is cached


@pytest.mark.parametrize("compiler", [True, False], ids=["compiler", "no-compiler"])
def test_a_5000_step_run_is_one_kernel_call_and_one_csv_block(tmp_path, monkeypatch, cubic2d, compiler):
    # a cubic_ensemble run fits in one plan block: one kernel call, and its
    # export writes all 5,001 rows as one CSV block
    if compiler and INTEGRATOR == "python":
        pytest.skip("no C compiler")
    if not compiler:
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setenv("PATH", str(tmp_path))
    calls, csv_lines, blocks = _kernel_calls(monkeypatch), simulate_mod._csv_lines, []

    def block(fields, x, cols, buf):
        blocks.append((fields is not simulate_mod._no_fields, len(x) // cols))
        return csv_lines(fields, x, cols, buf)

    monkeypatch.setattr(simulate_mod, "_csv_lines", block)
    simulate_mod._csv_kernel.cache_clear()  # load the CSV kernel the environment now offers
    try:
        traj = simulate_continuous(cubic2d, ConstantDelay(1.0), constant_history((1.0, 0.5)), 0.01, 50.0)
        export_csv(traj, tmp_path / "run.csv", v=(1.0, 1.0), dilation=cubic2d.dilation)
    finally:
        simulate_mod._csv_kernel.cache_clear()
    assert traj.metadata["integrator"] == ("native" if compiler else "python")
    assert calls == [(0, 0, 5000)]
    assert blocks == [(compiler, 5001)]


# -- the C kernel against the Python loop ------------------------------------

def _assert_native_matches_python(model, delays, phi, h, horizon):
    """Run once as every run does, and once with no kernel to build, which
    runs the Python loop; the two agree bit for bit."""
    traj = simulate_continuous(model, delays, phi, h, horizon)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate_mod, "_native_rk4", lambda model, h: None)
        ref = simulate_continuous(model, delays, phi, h, horizon)
    assert (traj.metadata["integrator"], ref.metadata["integrator"]) == (INTEGRATOR, "python")
    assert traj.states.shape == ref.states.shape
    assert np.array_equal(traj.states.view(np.uint64), ref.states.view(np.uint64))
    for key in ("diverged_at", "delayed_reads"):
        assert traj.metadata[key] == ref.metadata[key]

    def bits(violations):
        return [(t.hex(), i, c.hex()) for t, i, c in violations]

    assert bits(traj.metadata["positivity_violations"]) == bits(ref.metadata["positivity_violations"])
    return traj


@settings(max_examples=40, deadline=None)
@given(model=_cooperative_systems(), data=st.data(), h=st.sampled_from([0.01, 0.05]),
       steps=st.integers(1, 150), scale=st.sampled_from([0.5, 3.0, 20.0]))
def test_native_matches_the_python_loop_bitwise(model, data, h, steps, scale):
    n = model.n
    delays = [data.draw(_delays) for _ in model.delayed_terms]
    values = data.draw(st.lists(st.floats(0.0, scale), min_size=2 * n, max_size=2 * n))
    phi = tabulated_history([-2.0, 0.0], [values[n:], values[:n]])
    _assert_native_matches_python(model, delays, phi, h, steps * h)


@pytest.mark.parametrize("delays", [
    [PiecewiseLinearDelay(((0.0, 0.5), (1.0, 0.0), (2.0, 0.0), (3.0, 0.004), (5.0, 1.0)))],
    [ConstantDelay(0.004), PiecewiseLinearDelay(((0.0, 1.0), (1.0, 0.0), (2.0, 0.0), (4.0, 1.0)))],
], ids=["one-delay", "two-delays"])
def test_native_reads_every_source_as_the_python_loop_does(cubic2d, delays):
    # below h the stages read the in-step segment, at zero the stage state
    model = dataclasses.replace(cubic2d, delayed_terms=cubic2d.delayed_terms * len(delays))
    traj = _assert_native_matches_python(model, delays, constant_history((1.0, 0.5)), 0.01, 6.0)
    assert all(traj.metadata["delayed_reads"].values())


def test_native_stops_where_a_power_overflows():
    traj = _assert_native_matches_python(BLOW_UP, ConstantDelay(0.3), constant_history((10.0,)), 0.01, 1.0)
    assert traj.metadata["diverged_at"] == 0.03
    # an exponent past the float range: Python's ** raises for every base
    huge = dataclasses.replace(BLOW_UP, f=PolyVectorField(1, (((-1.0, (1,)), (1e-300, (2**1100,))),)))
    traj = _assert_native_matches_python(huge, ConstantDelay(0.3), constant_history((0.5,)), 0.01, 1.0)
    assert traj.metadata["diverged_at"] == 0.01


@pytest.mark.parametrize("delay, count", [(ConstantDelay(1.0), 998), (SinusoidalDelay(1.0, 0.5), 985)])
def test_native_records_negative_states_as_the_python_loop_does(delay, count):
    traj = _assert_native_matches_python(NEGATIVE_FEEDBACK, delay, constant_history((1.0,)), 0.01, 20.0)
    assert len(traj.metadata["positivity_violations"]) == count


def test_native_reads_tabulated_histories(cubic2d):
    phi = tabulated_history([-3.0, -1.0, 0.0], [[0.2, 2.0], [3.0, 0.5], [1.5, 0.1]])
    traj = _assert_native_matches_python(cubic2d, PiecewiseLinearDelay(((0.0, 0.5), (3.0, 2.5))), phi, 0.01, 4.0)
    assert traj.metadata["delayed_reads"]["history"] > 0


def test_native_on_a_dense_linear_system():
    rng = np.random.default_rng(20)
    A, B = rng.random((20, 20)) / 20, rng.random((20, 20)) / 40
    model = linear_model((A - 2.0 * np.eye(20)).tolist(), [B.tolist()], "continuous")
    _assert_native_matches_python(model, SinusoidalDelay(1.0, 0.5), constant_history(rng.random(20)), 0.02, 3.0)


def test_native_powers_of_tiny_and_negative_states():
    # cubes of 1e-105 are subnormal and of 1e-110 underflow to zero; the
    # negative feedback swings x through zero, so odd and even powers of
    # negative bases come up too
    model = SystemModel(
        kind="continuous",
        f=PolyVectorField(2, (((-1.0, (1, 0)), (-1.0, (3, 0)), (0.5, (0, 2))),
                              ((-1.0, (0, 1)), (2.0, (0, 3)), (1.0, (2, 1))))),
        delayed_terms=(PolyVectorField(2, (((-0.8, (1, 0)), (0.1, (0, 4))), ((0.3, (1, 0)),))),),
        dilation=Dilation((1.0, 1.0)),
        degree=0.0,
    )
    for x0 in [(1e-105, 1e-110), (1e-110, 1e-105), (1.0, 1e-110)]:
        _assert_native_matches_python(model, ConstantDelay(0.5), constant_history(x0), 0.01, 10.0)


_POW_EDGES = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 2.0, -2.0, 0.5, -1.5,
              1e-105, -1e-105, 1e-110, 5e-324, -5e-324, 1e103, 1e200, -1e200, 1.7976931348623157e308]


def test_power_helper_is_python_power():
    lib = native.load(native.PY_POW + "double call(double x, double e, int odd, int *ovf)"
                                      "{ return py_pow(x, e, odd, ovf); }")
    if lib is None:
        pytest.skip("no C compiler")
    import ctypes

    lib.call.restype = ctypes.c_double
    lib.call.argtypes = [ctypes.c_double, ctypes.c_double, ctypes.c_int, ctypes.POINTER(ctypes.c_int)]
    for x in _POW_EDGES:
        for e in (2, 3, 4, 7, 1000, 1001):
            ovf = ctypes.c_int(0)
            got = lib.call(x, float(e), e % 2, ctypes.byref(ovf))
            try:
                want = x ** e
            except OverflowError:
                assert ovf.value == 1, (x, e)
                continue
            assert ovf.value == 0, (x, e)
            assert got.hex() == want.hex(), (x, e)


# -- the kernel cache ---------------------------------------------------------------------

_SOURCE = "double twice(double x) { return 2.0 * x; }"


def _twice(lib):
    import ctypes

    lib.twice.restype, lib.twice.argtypes = ctypes.c_double, [ctypes.c_double]
    return lib.twice(1.5)


@pytest.mark.skipif(INTEGRATOR == "python", reason="no C compiler")
def test_kernels_are_compiled_once_into_the_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _twice(native.load(_SOURCE)) == 3.0
    files = list((tmp_path / "delaycert").iterdir())
    assert [f.suffix for f in files] == [".so"]  # no temporary file is left behind
    # a later load reads the file: nothing else could be loaded now
    monkeypatch.setattr(native, "_compile", lambda source, path: False)
    assert _twice(native.load(_SOURCE)) == 3.0
    assert native.load(_SOURCE + "\n") is None


@pytest.mark.skipif(INTEGRATOR == "python", reason="no C compiler")
def test_a_damaged_kernel_file_is_rebuilt_once(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    compile_, calls = native._compile, []
    monkeypatch.setattr(native, "_compile", lambda *a: calls.append(a) or compile_(*a))
    for source in (_SOURCE + "/* a */", _SOURCE + "/* b */"):
        path = native._path(source)
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(b"not a shared object")
    assert _twice(native.load(_SOURCE + "/* a */")) == 3.0
    assert len(calls) == 1
    # a file that still does not load after its rebuild gives no kernel
    monkeypatch.setattr(native, "_compile", lambda *a: calls.append(a) or True)
    assert native.load(_SOURCE + "/* b */") is None
    assert len(calls) == 2


@pytest.mark.skipif(INTEGRATOR == "python", reason="no C compiler")
def test_every_system_step_size_and_export_share_one_compiled_object(tmp_path, monkeypatch, cubic2d,
                                                                    scalar_half):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    simulate_mod._csv_kernel.cache_clear()
    rng = np.random.default_rng(20)
    dense = linear_model((rng.random((20, 20)) / 20 - 2.0 * np.eye(20)).tolist(),
                         [(rng.random((20, 20)) / 40).tolist()], "continuous")
    for h in (0.01, 0.02):
        for model in (cubic2d, dense, scalar_half):
            traj = simulate_continuous(model, ConstantDelay(0.5), constant_history([0.5] * model.n), h, 1.0)
            assert traj.metadata["integrator"] == "native"
            export_csv(traj, tmp_path / "run.csv")
    simulate_mod._csv_kernel.cache_clear()
    assert [f.suffix for f in (tmp_path / "delaycert").iterdir()] == [".so"]


def test_no_kernel_without_compiler_compilable_source_or_cache(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    assert native.load("this is not C") is None
    blocked = tmp_path / "file"
    blocked.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))  # the cache would be under a file
    assert native.load(_SOURCE + "/* b */") is None
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    monkeypatch.setenv("PATH", str(tmp_path))
    assert native._compiler() is None
    assert native.load(_SOURCE + "/* b */") is None


def test_without_compiler_the_python_loop_runs(tmp_path, monkeypatch, cubic2d):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setenv("PATH", str(tmp_path))
    phi, delay = constant_history((1.0, 0.5)), SinusoidalDelay(2.0, 1.0)
    traj = simulate_continuous(cubic2d, delay, phi, 0.01, 4.0)
    assert traj.metadata["integrator"] == "python"
    states, violations, diverged_at = oracle_continuous(cubic2d, delay, phi, 0.01, 4.0)
    assert np.array_equal(traj.states, np.array(states))


@pytest.mark.skipif(INTEGRATOR == "python", reason="no C compiler")
def test_a_runs_integrator_follows_the_compiler_present_at_that_run(tmp_path, monkeypatch, cubic2d):
    # nothing of the first run is kept: the second, in the same process,
    # finds no compiler and no compiled object, so it runs the Python loop
    phi, delay = constant_history((1.0, 0.5)), SinusoidalDelay(2.0, 1.0)
    assert simulate_continuous(cubic2d, delay, phi, 0.01, 4.0).metadata["integrator"] == "native"
    (tmp_path / "bin").mkdir()
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    traj = simulate_continuous(cubic2d, delay, phi, 0.01, 4.0)
    assert traj.metadata["integrator"] == "python"
    states, _, _ = oracle_continuous(cubic2d, delay, phi, 0.01, 4.0)
    assert np.array_equal(traj.states.view(np.uint64), np.array(states).view(np.uint64))


@pytest.mark.skipif(INTEGRATOR == "python", reason="no C compiler")
def test_with_a_compiler_no_python_loop_is_built(monkeypatch, cubic2d):
    def refuse(model, h):
        raise AssertionError("the Python loop was built")

    monkeypatch.setattr(simulate_mod, "_python_rk4", refuse)
    for h in (0.01, 0.02):
        traj = simulate_continuous(cubic2d, SinusoidalDelay(2.0, 1.0), constant_history((1.0, 0.5)), h, 2.0)
        assert traj.metadata["integrator"] == "native"


# x' = 1e300 x: the product passes the float range without an OverflowError
LINEAR_BLOW_UP = dataclasses.replace(BLOW_UP, f=PolyVectorField.from_matrix([[1e300]]), degree=0.0)


@pytest.mark.skipif(INTEGRATOR == "python", reason="no C compiler")
@pytest.mark.parametrize("model, x0, delay, ends", [
    (NEGATIVE_FEEDBACK, 1.0, ConstantDelay(1.0), "negative"),
    (BLOW_UP, 10.0, ConstantDelay(0.3), "overflow"),
    (LINEAR_BLOW_UP, 1e10, ConstantDelay(0.3), "not finite"),
], ids=["negative", "overflow", "not-finite"])
def test_both_kernels_return_the_same_codes_and_rows_on_a_block(model, x0, delay, ends):
    # one plan block through the one driver, once per kernel: every code a
    # kernel returns and every row it stores agree bit for bit
    h, steps = 0.01, 300
    plan = simulate_mod._read_plan([delay], 0, steps, h, history_depth(delay, probe_horizon=10.0))
    runs = []
    for kernel in (simulate_mod._native_rk4(model, h), simulate_mod._python_rk4(model, h)):
        codes, S = [], np.empty((steps + 1, 1))

        def spy(*args):
            codes.append(kernel(*args))
            return codes[-1]

        S[0] = (x0,)
        code, w, idx, stop, _ = (a.copy() if isinstance(a, np.ndarray) else a for a in plan)
        stored, finished = simulate_mod._run_block(spy, S, 0, stop, code, w, idx, constant_history((x0,)))
        runs.append((codes, stored, finished, S[:stored].view(np.uint64)))
    (codes, stored, finished, rows), python = runs
    assert (codes, stored, finished) == python[:3]
    assert np.array_equal(rows, python[3])
    if ends == "negative":
        # the kernel keeps going through negative states: one call, every step
        assert finished and codes == [steps] and (rows.view(float) < 0.0).any()
    else:
        assert not finished and codes[-1] < 0 and stored == -codes[-1]


# -- discrete simulation ----------------------------------------------------------------

def test_alternating_delay_identity(alternating_discrete):
    traj = simulate_discrete(
        alternating_discrete, AlternatingParityDelay(), {0: (3.0,), -1: (3.0,)}, 100
    )
    assert all(x[0] == 3.0 for x in traj.states)


def test_squaring_map_decay(square_map):
    traj = simulate_discrete(square_map, ConstantStepDelay(0), {0: (0.5,)}, 8)
    expect = [0.5 ** (2 ** k) for k in range(9)]
    assert traj.states[:, 0] == pytest.approx(expect)


def test_squaring_map_divergence_reported(square_map):
    traj = simulate_discrete(square_map, ConstantStepDelay(0), {0: (1.5,)}, 40)
    assert traj.metadata["diverged_at"] is not None
    assert traj.metadata["diverged_at"] <= 12
    assert np.all(np.isfinite(traj.states))


def test_discrete_rejects_underrun(alternating_discrete):
    with pytest.raises(HistoryUnderrunError):
        simulate_discrete(
            alternating_discrete, ConstantStepDelay(3), {0: (1.0,)}, 5
        )


def test_discrete_records_negative_states():
    # x(k+1) = 0.5 x(k) - 0.8 x(k - 1): negative states are kept and listed
    model = SystemModel(
        kind="discrete",
        f=PolyVectorField.from_matrix([[0.5]]),
        delayed_terms=(PolyVectorField.from_matrix([[-0.8]]),),
        dilation=Dilation((1.0,)),
        degree=0.0,
    )
    traj = simulate_discrete(model, ConstantStepDelay(1), {0: (1.0,), -1: (1.0,)}, 12)
    xs = [1.0, 1.0]
    for _ in range(12):
        xs.append(0.5 * xs[-1] + -0.8 * xs[-2])
    assert traj.states[:, 0].tolist() == xs[1:]
    want = [(float(k), 0, x) for k, x in enumerate(xs[1:]) if x < 0.0]
    assert want and traj.metadata["positivity_violations"] == want


def test_discrete_exactly_nonnegative(square_map):
    traj = simulate_discrete(square_map, ConstantStepDelay(0), {0: (0.9,)}, 30)
    assert np.all(traj.states >= 0.0)


# -- the discrete map against the per-step reference loop ------------------------------

def _bits(violations):
    return [(t.hex(), i, c.hex()) for t, i, c in violations]


def _assert_discrete_matches_oracle(model, delays, phi, horizon):
    """Run as every run does, and once with no C kernel to build, which runs
    the Python loop: both agree with the per-step loop bit for bit, and
    raise its error where it raises one."""
    try:
        want = oracle_discrete(model, delays, phi, horizon)
    except ValueError as exc:
        want = exc
    for integrator in dict.fromkeys([INTEGRATOR, "python"]):
        with pytest.MonkeyPatch.context() as mp:
            if integrator == "python":
                mp.setattr(simulate_mod, "_native_rk4", lambda model, h: None)
            if isinstance(want, ValueError):
                with pytest.raises(ValueError) as raised:
                    simulate_discrete(model, delays, phi, horizon)
                assert (type(raised.value), str(raised.value)) == (type(want), str(want))
                continue
            traj = simulate_discrete(model, delays, phi, horizon)
        states, violations, diverged_at = want
        assert traj.metadata["integrator"] == integrator
        assert np.array_equal(traj.states.view(np.uint64), np.array(states).view(np.uint64))
        assert traj.times.tolist() == [float(k) for k in range(len(states))]
        assert traj.metadata["diverged_at"] == diverged_at
        assert _bits(traj.metadata["positivity_violations"]) == _bits(violations)
    return want


@dataclasses.dataclass(frozen=True)
class _StepTable(DelayModel):
    """d(k) from the pairs (k, d) of steps, and 1 at every other step."""

    steps: tuple = ()
    is_discrete = True

    def value(self, k: int) -> int:
        return dict(self.steps).get(k, 1)

    def exact_history_depth(self) -> int:
        return 1


DISCRETE_2D = linear_model([[0.3, 0.1], [0.05, 0.2]], [[[0.2, 0.1], [0.1, 0.3]], [[0.1, 0.0], [0.05, 0.1]]],
                           "discrete")
QUADRATIC_MAP = SystemModel(
    kind="discrete",
    f=PolyVectorField(1, (((0.5, (2,)),),)),
    delayed_terms=(PolyVectorField(1, (((0.25, (2,)),),)),),
    dilation=Dilation((1.0,)),
    degree=1.0,
)


@pytest.mark.parametrize("delay", [ConstantStepDelay(3), AlternatingParityDelay(), ProportionalStepDelay(0.5)],
                         ids=["constant-steps", "alternating-parity", "proportional-steps"])
def test_discrete_matches_the_per_step_loop(delay, monkeypatch):
    # 3,000 steps: three plan blocks of 1,024; the parity delay reads the state itself
    monkeypatch.setattr(simulate_mod, "PLAN_BLOCK", 1024)
    model = dataclasses.replace(DISCRETE_2D, delayed_terms=DISCRETE_2D.delayed_terms[:1])
    _assert_discrete_matches_oracle(model, delay, constant_history((1.0, 0.5)), 3000)


def test_discrete_two_delayed_terms_with_their_own_delays():
    for delays in ([ConstantStepDelay(5), AlternatingParityDelay()],
                   [ProportionalStepDelay(0.3), ConstantStepDelay(2)]):
        _assert_discrete_matches_oracle(DISCRETE_2D, delays, constant_history((1.0, 0.5)), 1500)


def test_discrete_table_history_is_read_row_by_row():
    table = {0: (1.0, 0.5), -1: (2.0, 0.1), -2: (0.3, 3.0), -3: (5.0, 0.0)}
    states, _, _ = _assert_discrete_matches_oracle(DISCRETE_2D, [ConstantStepDelay(3), ConstantStepDelay(1)], table, 50)
    assert states[0] == table[0]


@pytest.mark.parametrize("f, g, x0", [(0.5, -0.8, 1.0), (-0.5, 0.0, 1e-12)], ids=["negative", "tiny-negative"])
def test_discrete_keeps_negative_states_as_they_are(f, g, x0):
    # a map is not an RK4 step: no roundoff is snapped to zero, and every
    # state below -VIOLATION_EPS is recorded
    model = linear_model([[f]], [[[g]]], "discrete")
    states, violations, _ = _assert_discrete_matches_oracle(model, ConstantStepDelay(1), constant_history((x0,)), 40)
    assert min(states)[0] < 0.0
    assert (len(violations) > 0) == (x0 == 1.0)


def test_discrete_quadratic_map_blows_up_at_k_21():
    # x(k+1) = 0.5 x(k)**2 + 0.25 x(k - 2)**2 from 1.34, just above its basin edge 4/3
    states, _, diverged_at = _assert_discrete_matches_oracle(QUADRATIC_MAP, ConstantStepDelay(2),
                                                            constant_history((1.34,)), 100)
    assert diverged_at == len(states) == 21


@pytest.mark.parametrize("steps, error", [(((1500, -1),), ValueError), (((2000, 2002),), HistoryUnderrunError)],
                         ids=["negative-delay", "underrun"])
def test_discrete_delay_errors_are_raised_at_their_own_step(steps, error):
    raised = _assert_discrete_matches_oracle(DISCRETE_2D, _StepTable(steps), constant_history((1.0, 0.5)), 3000)
    assert type(raised) is error
    assert str(raised) == ("delay became negative at k=1500" if error is ValueError else
                           "delayed index -2 reaches below the initial window {-1, ..., 0}")
    # before it the run stops where the map blows up, and raises nothing
    _, _, diverged_at = _assert_discrete_matches_oracle(QUADRATIC_MAP, _StepTable(((30,) + steps[0][1:],)),
                                                       constant_history((1.34,)), 100)
    assert diverged_at is not None


@settings(max_examples=40, deadline=None)
@given(model=_cooperative_systems(), data=st.data(), steps=st.integers(1, 150),
       scale=st.sampled_from([0.5, 3.0, 20.0]))
def test_discrete_matches_the_per_step_loop_on_random_maps(model, data, steps, scale):
    model = dataclasses.replace(model, kind="discrete")
    delays = [data.draw(st.sampled_from([ConstantStepDelay(0), ConstantStepDelay(4), AlternatingParityDelay(),
                                         ProportionalStepDelay(0.6)])) for _ in model.delayed_terms]
    values = data.draw(st.lists(st.floats(0.0, scale), min_size=5 * model.n, max_size=5 * model.n))
    table = {-k: tuple(values[k * model.n:(k + 1) * model.n]) for k in range(5)}
    _assert_discrete_matches_oracle(model, delays, table, steps)


# -- envelope check ------------------------------------------------------------------------

def _decaying_exponential_traj():
    model = SystemModel(
        kind="continuous",
        f=PolyVectorField.from_matrix([[-1.0]]),
        delayed_terms=(PolyVectorField.zero(1),),
        dilation=Dilation((1.0,)),
        degree=0.0,
    )
    return simulate_continuous(model, ConstantDelay(0.0), constant_history((1.0,)), 0.01, 20.0)


def test_envelope_holds_for_slower_rate():
    traj = _decaying_exponential_traj()
    bound = DecayBound("exponential", 0.9, (1.0,), (0.9,))
    rep = envelope_check(traj, bound, (1.0,), Dilation((1.0,)), M_theory=1.0)
    assert rep.holds
    assert rep.M_fit == pytest.approx(1.0)


def test_envelope_fails_for_faster_rate():
    traj = _decaying_exponential_traj()
    bound = DecayBound("exponential", 1.1, (1.0,), (1.1,))
    rep = envelope_check(traj, bound, (1.0,), Dilation((1.0,)), M_theory=1.0)
    assert not rep.holds


def test_envelope_cubic_benchmark(cubic2d, cubic_run_t50):
    bound = theta_bound(cubic2d, (1.0, 1.0), tau_sup=5.0)
    _, M = upper_envelope(cubic2d, (1.0, 1.0), bound, [ConstantDelay(5.0)], history_v=1.0)
    rep = envelope_check(cubic_run_t50, bound, (1.0, 1.0), cubic2d.dilation, M)
    assert rep.holds


def test_theory_constant_cubic_holds_pointwise(cubic2d, cubic_run_t50):
    v = (1.0, 1.0)
    bound = theta_bound(cubic2d, v, tau_sup=5.0)
    theta_p = upper_solution_theta(cubic2d, v, 5.0, history_v=1.0)
    _, M = upper_envelope(cubic2d, v, bound, [ConstantDelay(5.0)], history_v=1.0)
    assert theta_p == pytest.approx(0.035720, abs=1e-6)
    assert M == pytest.approx(bound.rate / theta_p)
    assert M == pytest.approx(5.599, abs=1e-3)
    steeper = DecayBound("polynomial_reciprocal", bound.rate, (2.0, 1.0), (4.0, 1.0), poly_exponent=2.0)
    with pytest.raises(MissingLimitError):
        upper_envelope(cubic2d, v, steeper, [ConstantDelay(5.0)], history_v=1.0)
    # V(phi) = 1, so the upper solution bounds W by (theta' t + 1)**(-r_max/p)
    W = cubic_run_t50.lyapunov_values(v, cubic2d.dilation)
    times = cubic_run_t50.times
    assert np.all(W <= (theta_p * times + 1.0) ** -1.0)
    assert np.all(W * (bound.rate * times + 1.0) <= M)
    rep = envelope_check(cubic_run_t50, bound, v, cubic2d.dilation, M_theory=M)
    assert rep.holds
    assert rep.M_fit == pytest.approx(1.343, abs=1e-3)
    # the pointwise verdict holds on a run shorter than one delay too
    j = int(round(5.0 / 0.01)) + 1
    short = Trajectory(times=times[:j], states=cubic_run_t50.states[:j])
    assert envelope_check(short, bound, v, cubic2d.dilation, M_theory=M).holds


@pytest.mark.parametrize("c", [0.3, 2.0, 4.0])
def test_upper_solution_bounds_scaled_histories(cubic2d, c):
    v, x0 = (1.0, 1.0), (c, 0.7 * c * c)
    traj = simulate_continuous(cubic2d, SinusoidalDelay(4.0, 1.0), constant_history(x0), 0.01, 20.0)
    history_v = max(c * c, 0.7 * c * c)  # V = max(x_1**2, x_2) for r = (1, 2)
    theta_p = upper_solution_theta(cubic2d, v, 5.0, history_v)
    W = traj.lyapunov_values(v, cubic2d.dilation)
    # k**p = V(phi) here, since p = r_max = 2
    assert np.all(W <= history_v * (theta_p * history_v * traj.times + 1.0) ** -1.0)


def test_theory_constant_eta_is_history_sup(scalar_half):
    bound = eta_bound(scalar_half, (1.0,), tau_sup=1.0)
    assert upper_envelope(scalar_half, (1.0,), bound, [ConstantDelay(1.0)], history_v=2.0)[1] == 2.0
    traj = simulate_continuous(scalar_half, ConstantDelay(1.0), constant_history((2.0,)), 0.01, 20.0)
    rep = envelope_check(traj, bound, (1.0,), Dilation((1.0,)), M_theory=2.0)
    assert rep.holds
    assert rep.M_fit == pytest.approx(2.0)
    # a rate above the eta root has no constant
    faster = DecayBound("exponential", 1.05 * bound.rate, (1.0,), (1.05 * bound.rate,))
    with pytest.raises(MissingLimitError):
        upper_envelope(scalar_half, (1.0,), faster, [ConstantDelay(1.0)], history_v=2.0)


def test_envelope_check_past_the_float_range_of_the_clock():
    # exp(0.36 t) overflows from t = 1972 on; W mu = 2 exp(-0.36 t) exp(0.36 t)
    # stays 2 there, computed as exp(log W + rate t)
    times = np.arange(0.0, 2001.0)
    traj = Trajectory(times=times, states=2.0 * np.exp(-0.36 * times)[:, None])
    clock = DecayBound("exponential", 0.36, (1.0,), (0.36,))
    assert clock.mu(2000.0) == math.inf and clock.envelope(2000.0) == 0.0
    rep = envelope_check(traj, clock, (1.0,), Dilation((1.0,)), M_theory=2.0)
    assert rep.holds
    assert rep.M_fit == pytest.approx(2.0, rel=1e-9)
    faster = dataclasses.replace(clock, rate=0.37)
    rep = envelope_check(traj, faster, (1.0,), Dilation((1.0,)), M_theory=2.0)
    assert not rep.holds
    assert rep.M_fit == pytest.approx(2.0 * math.exp(0.01 * 2000.0), rel=1e-9)
    # W mu past the float range as well: the report writes it as "inf"
    runaway = Trajectory(times=times, states=np.ones((len(times), 1)))
    rep = envelope_check(runaway, faster, (1.0,), Dilation((1.0,)), M_theory=2.0)
    assert rep.M_fit == math.inf and not rep.holds
    assert rep.to_dict()["M_fit"] == "inf"


def test_envelope_check_past_the_float_range_computes_per_element():
    # W mu past the clock's float range is exp(log W + rate t) with math.log
    # and math.exp per element, never numpy's vectorized exp and log, whose
    # last bits may differ from libm's: M_fit equals that form exactly
    rng = np.random.default_rng(12)
    clock = DecayBound("exponential", 0.37, (1.0,), (0.37,))
    for _ in range(200):
        t = float(rng.uniform(1920.0, 2000.0))
        w = float(np.exp(-0.37 * t + rng.uniform(-5.0, 5.0)))
        traj = Trajectory(times=np.array([0.0, t]), states=np.array([[1e-300], [w]]))
        assert clock.mu(t) == math.inf
        rep = envelope_check(traj, clock, (1.0,), Dilation((1.0,)), M_theory=1.0)
        assert rep.M_fit == math.exp(math.log(w) + 0.37 * t)


def test_envelope_check_infinite_rate_of_a_vanishing_map():
    # the clock exp(inf k) is 1 at k = 0 and inf after: W mu is W(0) at
    # k = 0, 0 where W = 0, and inf where W is still positive
    times = np.arange(6.0)
    clock = DecayBound("exponential", math.inf, (1.0,), (math.inf,), infinite_components=(0,))
    vanished = Trajectory(times=times, states=np.array([[0.5], [0.0], [0.0], [0.0], [0.0], [0.0]]))
    rep = envelope_check(vanished, clock, (1.0,), Dilation((1.0,)), M_theory=1.0)
    assert rep.holds and rep.M_fit == 0.5
    lingering = Trajectory(times=times, states=np.array([[0.5], [1e-300], [0.0], [0.0], [0.0], [0.0]]))
    rep = envelope_check(lingering, clock, (1.0,), Dilation((1.0,)), M_theory=1.0)
    assert not rep.holds and rep.M_fit == math.inf


def test_envelope_rejects_empty():
    traj = Trajectory(times=np.array([]), states=np.empty((0, 1)))
    bound = DecayBound("exponential", 1.0, (1.0,), (1.0,))
    with pytest.raises(ValueError):
        envelope_check(traj, bound, (1.0,), Dilation((1.0,)), M_theory=1.0)


# -- upper-solution clocks of the power-rate bounds ------------------------------------------

def test_xi_clock_holds_pointwise_and_mutated_clocks_fail(scalar_half):
    # x' = -x + 0.5 x(t/2): the clock exponent solves -1 + 0.5 * 2**e + e = 0
    v, delay = (1.0,), ProportionalDelay(0.5)
    bound = xi_bound(scalar_half, v, 0.5)
    clock, M = upper_envelope(scalar_half, v, bound, (delay,), 1.0)
    assert M == 1.0
    assert (clock.form, clock.rate) == ("polynomial_reciprocal", 1.0)
    assert clock.poly_exponent == pytest.approx(0.358814, abs=1e-6)
    traj = simulate_continuous(scalar_half, delay, constant_history((1.0,)), 0.01, 20.0)
    W = traj.lyapunov_values(v, Dilation((1.0,)))
    assert np.all(W <= (traj.times + 1.0) ** -clock.poly_exponent)
    rep = envelope_check(traj, clock, v, Dilation((1.0,)), M)
    assert rep.holds
    assert rep.M_fit == 1.0
    steeper = dataclasses.replace(clock, poly_exponent=1.5 * clock.poly_exponent)
    assert not envelope_check(traj, steeper, v, Dilation((1.0,)), M).holds
    # without the clock's own term D = k**(-p) e the root would be e = 1
    e_no_D = (1.0 - 1e-6) * solve_monotone(lambda e: -1.0 + 0.5 * 2.0 ** e)
    no_D = dataclasses.replace(clock, poly_exponent=e_no_D)
    assert not envelope_check(traj, no_D, v, Dilation((1.0,)), M).holds


def test_beta_clock_on_cubic_holds_pointwise(cubic2d):
    v, delay = (1.0, 1.0), ProportionalDelay(0.5)
    bound = beta_bound(cubic2d, v, 0.5)
    clock, M = upper_envelope(cubic2d, v, bound, (delay,), 1.0)
    e = clock.poly_exponent
    # component 2 binds: (f_2(v) + K**(e (r_2+p)/r_max) g_2(v)) + k**(-p) e = 0, K = 2
    assert -3.0 + 2.0 * 4.0 ** e + e == pytest.approx(0.0, abs=1e-5)
    assert e == pytest.approx(0.233921, abs=1e-6)
    assert M == 1.0
    traj = simulate_continuous(cubic2d, delay, constant_history((1.0, 1.0)), 0.01, 50.0)
    W = traj.lyapunov_values(v, cubic2d.dilation)
    assert np.all(W <= (traj.times + 1.0) ** -e)
    assert envelope_check(traj, clock, v, cubic2d.dilation, M).holds
    # a zero history stays at zero: M = 0 under any clock
    assert upper_envelope(cubic2d, v, bound, (delay,), 0.0)[1] == 0.0


def test_power_clock_exponent_capped_at_r_max_over_p(cubic2d):
    # without delayed coupling the root grows with V(phi); the clock keeps
    # e <= r_max/p = 1, where its D term is bounded
    model = dataclasses.replace(cubic2d, delayed_terms=(PolyVectorField.zero(2),))
    bound = beta_bound(model, (1.0, 1.0), 0.5)
    clock, M = upper_envelope(model, (1.0, 1.0), bound, (ProportionalDelay(0.5),), 100.0)
    assert clock.poly_exponent == pytest.approx(1.0 - 1e-6, rel=1e-12)
    assert M == 100.0


@pytest.mark.parametrize("alpha", [0.5, 0.25])
def test_discrete_xi_clock_holds_pointwise(alpha):
    # x(k+1) = 0.3 x(k) + 0.2 x(k - floor(alpha k)): with R1 = 2**e and
    # R2 = max(2, K)**e = 2**e, 0.3 * 2**e + 0.2 * 2**e = 1 at e = 1; the
    # first step x(1) = 0.5 x(0) meets the clock with equality
    model = linear_model([[0.3]], [[[0.2]]], "discrete")
    delay = ProportionalStepDelay(alpha)
    bound = xi_bound(model, (1.0,), alpha)
    clock, M = upper_envelope(model, (1.0,), bound, (delay,), 1.0)
    assert clock.poly_exponent == pytest.approx(1.0, abs=1e-5)
    traj = simulate_discrete(model, delay, constant_history((1.0,)), 2000)
    W = traj.lyapunov_values((1.0,), model.dilation)
    assert np.all(W <= (traj.times + 1.0) ** -clock.poly_exponent)
    assert envelope_check(traj, clock, (1.0,), model.dilation, M).holds
    steeper = dataclasses.replace(clock, poly_exponent=1.5 * clock.poly_exponent)
    assert not envelope_check(traj, steeper, (1.0,), model.dilation, M).holds


def test_discrete_clock_skips_components_that_vanish():
    # component 2 maps every state to zero, so component 1 alone sets e:
    # (0.5 + 0.2) * 2**e = 1
    model = linear_model([[0.3, 0.2], [0.0, 0.0]], [[[0.2, 0.0], [0.0, 0.0]]], "discrete")
    delay = ProportionalStepDelay(0.5)
    bound = xi_bound(model, (1.0, 1.0), 0.5)
    clock, M = upper_envelope(model, (1.0, 1.0), bound, (delay,), 1.0)
    assert clock.poly_exponent == pytest.approx(math.log2(1.0 / 0.7), abs=1e-5)
    traj = simulate_discrete(model, delay, constant_history((1.0, 1.0)), 500)
    assert envelope_check(traj, clock, (1.0, 1.0), model.dilation, M).holds


def test_power_clock_shifts_by_a_bounded_delay(scalar_half):
    # a power-rate bound under tau = 5: the clock ((t + 6)/6)**e, with
    # -1 + 0.5 * 6**e + e/6 = 0, dominates the history window [-5, 0]
    v, delay = (1.0,), ConstantDelay(5.0)
    bound = xi_bound(scalar_half, v, 0.5)
    clock, M = upper_envelope(scalar_half, v, bound, (delay,), 1.0)
    e = clock.poly_exponent
    assert clock.rate == pytest.approx(1.0 / 6.0)
    assert -1.0 + 0.5 * 6.0 ** e + e / 6.0 == pytest.approx(0.0, abs=1e-5)
    traj = simulate_continuous(scalar_half, delay, constant_history((1.0,)), 0.01, 20.0)
    assert envelope_check(traj, clock, v, Dilation((1.0,)), M).holds
    # the unshifted clock (t + 1)**0.5 of a zero delay ratio fails near t = 5
    unshifted, _ = upper_envelope(scalar_half, v, bound, (ProportionalDelay(0.0),), 1.0)
    assert not envelope_check(traj, unshifted, v, Dilation((1.0,)), M).holds


@pytest.mark.parametrize("alpha", [0.5, 0.9])
def test_power_clock_over_mixed_delays(alpha):
    # x' = -x + 0.25 x(t - 5) + 0.25 x(alpha t): s = 1 + 5 = 6 from the
    # bounded delay, K = 1/(1 - alpha) from the proportional one, and the
    # clock exponent solves -1 + 0.5 max(6, K)**e + e/6 = 0
    model = linear_model([[-1.0]], [[[0.25]], [[0.25]]], "continuous")
    delays = (ConstantDelay(5.0), ProportionalDelay(alpha))
    bound = xi_bound(model, (1.0,), alpha)
    clock, M = upper_envelope(model, (1.0,), bound, delays, 1.0)
    e = clock.poly_exponent
    L = max(6.0, 1.0 / (1.0 - alpha)) ** e
    assert clock.rate == pytest.approx(1.0 / 6.0)
    assert -1.0 + 0.5 * L + e / 6.0 == pytest.approx(0.0, abs=1e-5)
    assert M == 1.0
    traj = simulate_continuous(model, delays, constant_history((1.0,)), 0.01, 30.0)
    assert envelope_check(traj, clock, (1.0,), model.dilation, M).holds


def test_power_clock_needs_bounded_or_proportional_delay(scalar_half):
    bound = xi_bound(scalar_half, (1.0,), 0.5)
    with pytest.raises(MissingLimitError, match="bounded or proportional"):
        upper_envelope(scalar_half, (1.0,), bound, (LogLagDelay(),), 1.0)


# -- level-set descent ------------------------------------------------------------------------

def test_level_set_descent_cubic(cubic2d, cubic_run_t50):
    entries = level_set_descent(cubic_run_t50, (1.0, 1.0), cubic2d.dilation, 0.9, 1.0)
    assert len(entries) >= 10
    assert all(a <= b for a, b in zip(entries, entries[1:]))


def test_level_set_gamma_zero_degenerate(cubic2d, cubic_run_t50):
    entries = level_set_descent(cubic_run_t50, (1.0, 1.0), cubic2d.dilation, 0.0, 1.0)
    assert entries == [0.0]


def test_level_set_unstable_trajectory_stops_at_first_threshold(growth2d):
    traj = simulate_continuous(growth2d, RAMP, constant_history((1.0, 1.0)), 0.01, 3.0)
    entries = level_set_descent(traj, (1.0, 1.0), growth2d.dilation, 0.9, 1.0)
    assert entries == []


def _level_set_walk(times, V, gamma, phi_norm):
    """The entry times by the per-threshold walk level_set_descent used to
    take: advance one index at a time while the suffix maximum of V is
    above the threshold."""
    probe = LevelSetProbe(gamma, phi_norm)
    suffix_max = np.maximum.accumulate(V[::-1])[::-1]
    entries, idx = [], 0
    for m in range(simulate_mod.LEVEL_SETS):
        thr = probe.threshold(m)
        while idx < len(V) and suffix_max[idx] > thr:
            idx += 1
        if idx >= len(V):
            break
        entries.append(float(times[idx]))
        if thr == 0.0:
            break
    return entries


_V_values = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]), st.floats(0.0, 3.0))


@settings(max_examples=400, deadline=None)
@given(
    V=st.lists(_V_values, min_size=1, max_size=80),
    gamma=st.one_of(st.sampled_from([0.0, 0.5, 0.9]), st.floats(0.0, 0.999)),
    phi_norm=st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.0, 3.0)),
)
def test_level_set_descent_matches_the_walk(V, gamma, phi_norm):
    # plateaus and exact zeros come from the sampled values; with v = 1 and
    # r = 1, V is the state itself
    times = np.arange(len(V)) * 0.5
    traj = Trajectory(times=times, states=np.array(V)[:, None])
    entries = level_set_descent(traj, (1.0,), Dilation((1.0,)), gamma, phi_norm)
    assert entries == _level_set_walk(times, np.array(V), gamma, phi_norm)


# -- CSV export ---------------------------------------------------------------------------------

def test_csv_format_and_determinism(tmp_path, cubic2d):
    traj = simulate_continuous(
        cubic2d, SinusoidalDelay(4.0, 1.0), constant_history((1.0, 1.0)), 0.01, 2.0
    )
    bound = theta_bound(cubic2d, (1.0, 1.0), tau_sup=5.0)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_csv(traj, p1, v=(1.0, 1.0), dilation=cubic2d.dilation, bound=bound)
    export_csv(traj, p2, v=(1.0, 1.0), dilation=cubic2d.dilation, bound=bound)
    data = p1.read_bytes()
    assert data == p2.read_bytes()
    lines = data.decode().splitlines()
    assert lines[0] == "t,x_1,x_2,V,bound"
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[3]) == 1.0 and float(first[4]) == 1.0
    # 17 significant digits round-trip
    val = float(lines[2].split(",")[1])
    assert f"{val:.17g}" == lines[2].split(",")[1]


def test_csv_matches_cellwise_rendering(tmp_path, cubic2d, cubic_run_t50):
    v = (1.0, 1.0)
    bound = theta_bound(cubic2d, v, tau_sup=5.0)
    path = tmp_path / "run.csv"
    export_csv(cubic_run_t50, path, v=v, dilation=cubic2d.dilation, bound=bound)
    lines = ["t,x_1,x_2,V,bound"]
    for t, x in zip(cubic_run_t50.times, cubic_run_t50.states):
        V = lyapunov_reference(v, cubic2d.dilation.r, np.clip(x, 0.0, None))
        cells = [t, *x, V, bound.envelope(float(t))]
        lines.append(",".join(f"{c:.17g}" for c in cells))
    assert path.read_text() == "\n".join(lines) + "\n"


def test_csv_leaves_out_an_infinite_rate(tmp_path, scalar_half):
    # alpha = 0 gives xi = inf: faster than any power, no envelope to write
    traj = simulate_continuous(scalar_half, ConstantDelay(1.0), constant_history((1.0,)), 0.1, 2.0)
    bound = xi_bound(scalar_half, (1.0,), 0.0)
    assert bound.rate == math.inf
    path = tmp_path / "xi.csv"
    export_csv(traj, path, v=(1.0,), dilation=scalar_half.dilation, bound=bound)
    assert path.read_text().splitlines()[0] == "t,x_1,V"


def test_csv_without_analysis_columns(tmp_path, cubic2d):
    traj = simulate_continuous(
        cubic2d, ConstantDelay(1.0), constant_history((1.0, 1.0)), 0.01, 1.0
    )
    path = tmp_path / "bare.csv"
    export_csv(traj, path)
    assert path.read_text().splitlines()[0] == "t,x_1,x_2"


def _g17_reference(x: np.ndarray, cols: int = 1) -> str:
    return "".join("%.17g" % f + ("," if (i + 1) % cols else "\n") for i, f in enumerate(x.tolist()))


def _csv_text(fields, x: np.ndarray, cols: int = 1) -> str:
    buf = bytearray(len(x) * simulate_mod.FIELD_BYTES + 16)
    return bytes(buf[: simulate_mod._csv_lines(fields, x, cols, buf)]).decode()


def _assert_same_lines(got: str, want: str, kind: str) -> None:
    """got == want, reporting the first line that differs: a diff of two
    texts of 100,000 lines takes minutes to render."""
    if got != want:
        a, b = got.splitlines(keepends=True), want.splitlines(keepends=True)
        k = next((k for k, pair in enumerate(zip(a, b)) if pair[0] != pair[1]), min(len(a), len(b)))
        pytest.fail(f"{kind}: line {k} is {a[k:k + 1]}, not {b[k:k + 1]} ({len(a)} lines, not {len(b)})")


@pytest.fixture
def csv_kernels(tmp_path, monkeypatch):
    """{kind: fields} of the CSV kernels, each loaded afresh: "native", the C
    function (where a compiler is found), and "python", what loads with no
    compiler and an empty cache, which formats nothing."""
    load, kernels = simulate_mod._csv_kernel, {}
    load.cache_clear()
    if INTEGRATOR == "native":
        kernels["native"] = load()
        assert kernels["native"] is not simulate_mod._no_fields
        load.cache_clear()
    with monkeypatch.context() as mp:
        mp.setattr(native, "_compiler", lambda: None)
        mp.setenv("XDG_CACHE_HOME", str(tmp_path))
        kernels["python"] = load()
        load.cache_clear()
    assert kernels["python"] is simulate_mod._no_fields
    assert not any(tmp_path.iterdir())
    return kernels


def test_csv_kernel_matches_python_on_random_bit_patterns(csv_kernels):
    # every exponent, both signs, subnormals, infinities and NaNs
    bits = np.random.default_rng(15).integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False)
    x = bits.view(np.float64)
    for kind, fields in csv_kernels.items():
        _assert_same_lines(_csv_text(fields, x), _g17_reference(x), kind)


def test_csv_kernel_matches_python_on_edge_values(csv_kernels):
    powers = np.array([10.0**k for k in range(-300, 301)])
    lo, hi = np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)
    # 1e-14 is a double just below 10**-14 that rounds up to it at 17 digits
    assert Fraction(1e-14) < Fraction(1, 10**14) and "%.17g" % 1e-14 == "1e-14"
    x = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, np.finfo(float).max, 1e-14],
        powers, lo, hi, -powers, -lo, -hi,
        np.arange(-4000, 4000) / 8,
        np.arange(-2000, 2000) + 0.5,
    ])
    for kind, fields in csv_kernels.items():
        _assert_same_lines(_csv_text(fields, x), _g17_reference(x), kind)


# 18 significant digits ending in 5: a tie at 17 digits, which %g rounds to even
TIES = np.concatenate([
    [1000000000000000.25, 1000000000000000.75, -2000000000000000.25, 123456789012345.125],
    1e15 + np.arange(1, 2000, 2) / 4,
    -(1e14 + np.arange(1, 2000, 2) / 8),
])


def test_csv_kernel_leaves_ties_to_python(csv_kernels):
    assert "%.17g" % 1000000000000000.25 == "1000000000000000.2"
    assert "%.17g" % 1000000000000000.75 == "1000000000000000.8"
    assert Fraction(float(TIES[-1])) == -(10**14 + Fraction(1999, 8))  # every tie is exact
    for kind, fields in csv_kernels.items():
        buf = bytearray(len(TIES) * simulate_mod.FIELD_BYTES + 16)
        assert fields(TIES, 0, 1, buf, 0) == (0, 0), kind  # the first value stops the kernel
        _assert_same_lines(_csv_text(fields, TIES), _g17_reference(TIES), kind)


@pytest.mark.skipif(INTEGRATOR == "python", reason="no C compiler")
def test_csv_kernel_refuses_arrays_and_buffers_it_cannot_write_safely(csv_kernels):
    fields, x, room = csv_kernels["native"], np.arange(1.0, 11.0), 10 * simulate_mod.FIELD_BYTES + 16
    for args in [(x[::2], 0, 1, bytearray(room), 0), (x.astype(np.float32), 0, 1, bytearray(room), 0),
                 (x, 0, 1, bytearray(room - 1), 0), (x, 0, 1, bytearray(room), 1)]:
        with pytest.raises(ValueError):
            fields(*args)
    buf = bytearray(room)
    assert fields(x, 0, 1, buf, 0) == (10, 21) and buf[:21] == b"1\n2\n3\n4\n5\n6\n7\n8\n9\n10\n"


@pytest.mark.parametrize("cols", [2, 3, 5])
def test_csv_kernel_resumes_with_the_right_separator(csv_kernels, cols):
    # values Python formats at the start, middle and end of rows, one after
    # another and across row ends, and a block of nothing else
    rng = np.random.default_rng(cols)
    x = np.exp(rng.normal(0.0, 30.0, 300 * cols))
    slow = np.array([0.0, -0.0, np.nan, np.inf, 1e-250, -1e250, *TIES[:4]])
    for start in (0, 1, cols - 1, 7 * cols - 1, 8 * cols - 2, len(x) - 3):
        x[start : start + 3] = rng.choice(slow, 3)
    x[40 * cols : 50 * cols] = rng.choice(slow, 10 * cols)
    everything_slow = rng.choice(slow, 20 * cols)
    for kind, fields in csv_kernels.items():
        for y in (x, everything_slow):
            _assert_same_lines(_csv_text(fields, y, cols), _g17_reference(y, cols), kind)


def test_csv_spans_several_blocks(tmp_path, monkeypatch, csv_kernels):
    rows = 3 * simulate_mod.PLAN_BLOCK + 7
    rng = np.random.default_rng(3)
    times = np.arange(rows) * 0.01
    states = np.exp(rng.normal(0.0, 30.0, (rows, 2)))
    states[::97] = 0.0
    states[5::89, 1] = TIES[: len(states[5::89])]
    traj = Trajectory(times=times, states=states)
    lines = ["t,x_1,x_2"] + ["%.17g,%.17g,%.17g" % (t, *x) for t, x in zip(times.tolist(), states.tolist())]
    for kind, fields in csv_kernels.items():
        monkeypatch.setattr(simulate_mod, "_csv_kernel", lambda: fields)
        path = tmp_path / f"{kind}.csv"
        export_csv(traj, path)
        _assert_same_lines(path.read_bytes().decode(), "\n".join(lines) + "\n", kind)


# -- trajectory validation ------------------------------------------------------------------------

def test_lyapunov_values_computed_once_per_key():
    traj = Trajectory(
        times=np.array([0.0, 1.0, 2.0]),
        states=np.array([[1.0, 1.0], [0.5, 0.2], [0.1, -1e-13]]),
    )
    d = Dilation((1.0, 2.0))
    W = traj.lyapunov_values((1.0, 1.0), d)
    assert W.tolist() == [1.0, 0.25, 0.010000000000000002]
    assert not W.flags.writeable
    assert traj.lyapunov_values([1.0, 1.0], d) is W
    assert traj.v_values[0] == ((1.0, 1.0), d)
    W2 = traj.lyapunov_values((2.0, 1.0), d)
    assert W2 is not W
    assert W2.tolist() == [1.0, 0.2, 0.0025000000000000005]
    assert traj.lyapunov_values((2.0, 1.0), Dilation((1.0, 1.0))).tolist() == [1.0, 0.25, 0.05]


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.0]), states=np.zeros((2, 1)))


# -- runs of one system -------------------------------------------------------------------------


def test_one_compiled_run_serves_every_history_and_delay(cubic2d):
    runs = [
        (constant_history((1.0, 0.5)), SinusoidalDelay(2.0, 1.0)),
        (tabulated_history([-3.0, 0.0], [[0.2, 2.0], [1.5, 0.1]]), PiecewiseLinearDelay(((0.0, 0.5), (3.0, 2.5)))),
    ]
    for phi, delay in runs + [(runs[0][0], runs[1][1]), (runs[1][0], runs[0][1])]:
        _assert_matches_oracle(cubic2d, delay, phi, 0.01, 4.0)


def test_a_diverging_run_leaves_nothing_to_the_next(scalar_half):
    blow_up = simulate_continuous(BLOW_UP, ConstantDelay(0.3), constant_history((10.0,)), 0.01, 1.0)
    assert blow_up.diverged
    for x0 in (0.5, 1.0):
        _assert_matches_oracle(BLOW_UP, ConstantDelay(0.3), constant_history((x0,)), 0.01, 1.0)
    _assert_matches_oracle(scalar_half, ConstantDelay(0.3), constant_history((1.0,)), 0.01, 1.0)


def test_runs_are_not_shared_across_signed_zeros_or_step_sizes(scalar_half):

    def with_coeff(c):
        return dataclasses.replace(scalar_half, f=PolyVectorField(1, (((-1.0, (1,)), (c, (1,))),)))

    # a sum starts at 0.0, so a zero coefficient's sign cannot move a state:
    # the signed zeros show in their own runs, and two nonzero coefficients
    # show that each run steps with its own system's coefficients
    models = [with_coeff(c) for c in (0.0, -0.0, 0.25, 0.3)]
    phi, delay = constant_history((1.0,)), ConstantDelay(0.3)
    for h in (0.01, 0.02):
        trajs = [simulate_continuous(m, delay, phi, h, 1.0) for m in models]
        for m, traj in zip(models, trajs):
            states, _, _ = oracle_continuous(m, delay, phi, h, 1.0)
            assert np.array_equal(traj.states.view(np.uint64), np.array(states).view(np.uint64))
        assert not np.array_equal(trajs[2].states, trajs[3].states)
