import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaycert import (
    ConstantDelay,
    CustomDelay,
    Dilation,
    LogLagDelay,
    PolyVectorField,
    ProportionalDelay,
    SinusoidalDelay,
    SystemModel,
    check_cooperative,
    check_delay_assumption,
    check_homogeneity,
    check_model,
    check_nondecreasing,
    check_positivity_condition,
)
from conftest import CUBIC_F, CUBIC_G


# -- homogeneity -----------------------------------------------------------------

def test_homogeneity_cubic_passes_exactly(cubic2d):
    res = check_homogeneity(CUBIC_F, cubic2d.dilation, 2.0)
    assert res.verdict == "pass" and res.mode == "proof"


def test_homogeneity_linear_standard_degree_zero():
    F = PolyVectorField.from_matrix([[1.0, 2.0], [3.0, 4.0]])
    res = check_homogeneity(F, Dilation((1.0, 1.0)), 0.0)
    assert res.verdict == "pass"


def test_homogeneity_square_map_degree_one():
    F = PolyVectorField(1, (((1.0, (2,)),),))
    res = check_homogeneity(F, Dilation((1.0,)), 1.0)
    assert res.verdict == "pass"
    res = check_homogeneity(F, Dilation((1.0,)), 0.0)
    assert res.verdict == "fail"
    assert res.witness["term"]["exp"] == [2]


# -- cooperativity / monotonicity ---------------------------------------------------

def test_cooperative_cubic_proof():
    res = check_cooperative(CUBIC_F)
    assert res.verdict == "pass" and res.mode == "proof"


def test_cooperative_metzler_matrix_field():
    res = check_cooperative(PolyVectorField.from_matrix([[-3.0, 2.0], [0.5, -1.0]]))
    assert res.verdict == "pass"


def test_cooperative_fails_with_witness(growth2d):
    res = check_cooperative(growth2d.f)
    assert res.verdict == "fail"
    assert res.witness["entry"] == [1, 0]
    assert res.witness["value"] < 0


def test_nondecreasing_cubic_g_proof():
    res = check_nondecreasing(CUBIC_G)
    assert res.verdict == "pass" and res.mode == "proof"


def test_nondecreasing_nonnegative_matrix():
    res = check_nondecreasing(PolyVectorField.from_matrix([[0.1, 0.2], [0.0, 0.3]]))
    assert res.verdict == "pass"


def test_nondecreasing_negation_fails_at_one():
    res = check_nondecreasing(PolyVectorField(1, (((-1.0, (1,)),),)))
    assert res.verdict == "fail"
    assert res.witness["point"] == [1.0]


def test_mixed_sign_but_nonnegative_stays_undetermined():
    # g(x) = x**3 - x**2 + x has g'(x) = 3x**2 - 2x + 1 > 0 everywhere, but
    # the mixed coefficients rule out the proof path: sampling must neither
    # claim a proof nor fabricate a witness
    g = PolyVectorField(1, (((1.0, (3,)), (-1.0, (2,)), (1.0, (1,))),))
    res = check_nondecreasing(g)
    assert res.verdict == "undetermined"
    assert res.mode == "sampled"


def test_cooperative_mixed_sign_off_diagonal_stays_undetermined():
    # df_0/dx_1 = 3 x_1**2 - 2 x_1 + 1 > 0 with mixed coefficients; the
    # negative diagonal entry does not count for cooperativity
    F = PolyVectorField(2, (
        ((-1.0, (1, 0)), (1.0, (0, 3)), (-1.0, (0, 2)), (1.0, (0, 1))),
        ((-1.0, (0, 1)),),
    ))
    res = check_cooperative(F)
    assert res.verdict == "undetermined"
    assert res.mode == "sampled"
    assert res.witness is None


# -- positivity condition ------------------------------------------------------------

def test_positivity_cubic_passes(cubic2d):
    res = check_positivity_condition(cubic2d)
    assert res.verdict == "pass" and res.mode == "proof"


def test_positivity_growth2d_fails_on_face(growth2d):
    res = check_positivity_condition(growth2d)
    assert res.verdict == "fail"
    assert res.witness["component"] == 1
    assert res.witness["point"] == [1.0, 0.0]
    assert res.witness["value"] == pytest.approx(-1.0)
    assert res.witness["field"] == "f"
    assert res.witness["face"] == 1


def test_positivity_linear_metzler_nonnegative_passes():
    model = SystemModel(
        kind="continuous",
        f=PolyVectorField.from_matrix([[-2.0, 1.0], [0.0, -2.0]]),
        delayed_terms=(PolyVectorField.from_matrix([[0.0, 0.5], [0.5, 0.0]]),),
        dilation=Dilation((1.0, 1.0)),
        degree=0.0,
    )
    assert check_positivity_condition(model).verdict == "pass"


def test_positivity_discrete_requires_nonnegative_fields(alternating_discrete):
    res = check_positivity_condition(alternating_discrete)
    assert res.verdict == "fail"
    assert res.witness["field"] == "g_0"


def test_positivity_discrete_negative_f_fails_on_orthant():
    # discrete fields are tested on the whole orthant, not on a face
    model = SystemModel(
        kind="discrete",
        f=PolyVectorField(1, (((-0.5, (1,)),),)),
        delayed_terms=(PolyVectorField(1, (((0.25, (1,)),),)),),
        dilation=Dilation((1.0,)),
        degree=0.0,
    )
    res = check_positivity_condition(model)
    assert res.verdict == "fail"
    assert res.witness["field"] == "f"
    assert res.witness["component"] == 0
    assert res.witness["point"] == [1.0]
    assert "face" not in res.witness


def test_positivity_mixed_sign_nonnegative_g_stays_undetermined():
    # g(x) = x**3 - x**2 + x = x (x**2 - x + 1) >= 0 on the orthant
    model = SystemModel(
        kind="continuous",
        f=PolyVectorField(1, (((-1.0, (1,)),),)),
        delayed_terms=(PolyVectorField(1, (((1.0, (3,)), (-1.0, (2,)), (1.0, (1,))),)),),
        dilation=Dilation((1.0,)),
        degree=0.0,
    )
    res = check_positivity_condition(model)
    assert res.verdict == "undetermined"
    assert res.mode == "sampled"
    assert res.witness is None


# -- whole-model report ----------------------------------------------------------------

def test_check_model_cubic_all_pass(cubic2d):
    report = check_model(cubic2d)
    assert report.verdict == "pass"
    assert set(report.checks) == {
        "homogeneity:f", "homogeneity:g_0", "cooperative:f",
        "nondecreasing:g_0", "positivity-condition",
    }
    doc = report.to_dict()
    assert doc["verdict"] == "pass"


def test_check_model_growth2d_fails(growth2d):
    assert check_model(growth2d).verdict == "fail"


# -- rescaling stability and order monotonicity properties ------------------------------

@settings(max_examples=40)
@given(c=st.floats(1e-3, 1e3))
def test_exact_passes_stable_under_positive_rescaling(c):
    assert check_cooperative(CUBIC_F.scaled(c)).verdict == "pass"
    assert check_nondecreasing(CUBIC_G.scaled(c)).verdict == "pass"
    ok_res = check_homogeneity(CUBIC_F.scaled(c), Dilation((1.0, 2.0)), 2.0)
    assert ok_res.verdict == "pass"


@settings(max_examples=60)
@given(
    y=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
    bump=st.floats(0.0, 5.0),
    idx=st.integers(0, 1),
)
def test_cooperative_pass_implies_quasimonotone_samples(y, bump, idx):
    # raise one off-component: f_i must not decrease when x_j (j != i) grows
    x = list(y)
    x[1 - idx] += bump
    fx = CUBIC_F.evaluate(x)
    fy = CUBIC_F.evaluate(y)
    assert fx[idx] >= fy[idx] - 1e-9


# -- delay admissibility -----------------------------------------------------------------

def test_delay_assumption_loglag():
    rep = check_delay_assumption(LogLagDelay(), horizon=1e4)
    assert rep.a5 == "pass"
    assert rep.a51 == "fail"
    assert rep.alpha is None and rep.tau_sup is None


def test_delay_assumption_proportional():
    rep = check_delay_assumption(ProportionalDelay(0.5), horizon=1e4)
    assert rep.a5 == "pass" and rep.a51 == "pass"
    assert rep.alpha == 0.5
    assert rep.tau_sup is None and rep.history_depth == 0.0


def test_delay_assumption_sinusoidal():
    rep = check_delay_assumption(SinusoidalDelay(4.0, 1.0), horizon=1e3)
    assert rep.a5 == "pass" and rep.a51 == "pass"
    assert rep.tau_sup == 5.0
    assert rep.history_depth == 4.0


def test_delay_assumption_alpha_vanishes_with_horizon():
    a_small = check_delay_assumption(ConstantDelay(5.0), horizon=1e3).alpha
    a_large = check_delay_assumption(ConstantDelay(5.0), horizon=1e6).alpha
    assert 0.0 <= a_large < a_small < 1.0


def test_delay_assumption_sampled_path():
    rep = check_delay_assumption(CustomDelay(lambda t: 3.0 + math.cos(t)), horizon=1e3)
    assert rep.mode == "sampled"
    assert rep.a5 == "pass"
    frozen = check_delay_assumption(CustomDelay(lambda t: t - math.sin(t)), horizon=1e3)
    assert frozen.a5 == "fail"


def test_delay_assumption_rejects_bad_horizon():
    with pytest.raises(ValueError):
        check_delay_assumption(ConstantDelay(1.0), horizon=0.0)
