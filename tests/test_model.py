import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaycert import (
    Dilation,
    LevelSetProbe,
    PolyVectorField,
    ScalarPoly,
    dilate,
    is_homogeneous,
    jacobian,
    lyapunov_v,
)
from conftest import CUBIC_F, CUBIC_G, lyapunov_reference


# -- PolyVectorField.evaluate --------------------------------------------------

def test_eval_cubic_at_ones():
    assert CUBIC_F.evaluate((1.0, 1.0)) == [-3.0, -3.0]
    assert CUBIC_G.evaluate((1.0, 1.0)) == [1.0, 2.0]


def test_eval_cubic_at_2_4():
    # hand evaluation: -5*8 + 2*2*4 = -24; 4*4 - 4*16 = -48
    assert CUBIC_F.evaluate((2.0, 4.0)) == [-24.0, -48.0]


def test_eval_zero_at_origin():
    for F in (CUBIC_F, CUBIC_G):
        assert F.evaluate((0.0, 0.0)) == [0.0, 0.0]


def test_eval_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        CUBIC_F.evaluate((1.0,))


def test_eval_overflow_reports_infinite():
    F = PolyVectorField(1, (((1.0, (2,)),),))
    big = 1e200
    assert math.isinf(F.evaluate((big,))[0])
    # the sign follows the coefficient and the odd powers of negative entries
    G = PolyVectorField(2, (((1.0, (3, 0)),), ((-2.0, (3, 1)), (1.0, (0, 1)))))
    assert G.evaluate((-big, 1.0)) == [-math.inf, math.inf]
    assert G.evaluate((big, 1.0)) == [math.inf, -math.inf]


def _dense_sum(terms, x):
    """The monomial loop over every exponent, zero ones skipped."""
    acc = 0.0
    for coeff, exps in terms:
        val = coeff
        for xi, e in zip(x, exps):
            if e == 1:
                val *= xi
            elif e:
                val *= xi ** e
        acc += val
    return acc


@st.composite
def _fields_and_points(draw):
    n = draw(st.integers(1, 4))
    term = st.tuples(
        st.floats(-10.0, 10.0), st.tuples(*[st.integers(0, 4)] * n)
    )
    comps = draw(st.tuples(*[st.lists(term, max_size=5)] * n))
    x = draw(st.tuples(*[st.floats(-5.0, 5.0)] * n))
    return PolyVectorField(n, comps), x


@given(_fields_and_points())
def test_eval_matches_dense_loop_bitwise(field_and_point):
    F, x = field_and_point
    got = F.evaluate(x)
    want = [_dense_sum(terms, x) for terms in F.components]
    assert [g.hex() for g in got] == [w.hex() for w in want]
    for i, terms in enumerate(F.components):
        poly = ScalarPoly(F.n, terms)
        assert poly.evaluate(x).hex() == want[i].hex()


@given(
    x=st.tuples(st.floats(0.01, 100.0), st.floats(0.01, 100.0)),
    a=st.floats(-3.0, 3.0),
    b=st.floats(-3.0, 3.0),
)
def test_eval_linear_in_coefficients(x, a, b):
    F1 = CUBIC_F.scaled(a)
    F2 = CUBIC_G.scaled(b)
    # the sum of the two fields: each component holds the terms of both
    left = PolyVectorField(2, tuple(p + q for p, q in zip(F1.components, F2.components))).evaluate(x)
    f1 = F1.evaluate(x)
    f2 = F2.evaluate(x)
    for l, u, w in zip(left, f1, f2):
        assert l == pytest.approx(u + w, rel=1e-12, abs=1e-12)


# -- dilation ------------------------------------------------------------------

def test_dilate_basic():
    d = Dilation((1.0, 2.0))
    assert dilate(d, 2.0, (1.0, 1.0)) == (2.0, 4.0)


def test_dilate_identity_and_standard():
    d = Dilation((1.0, 2.0))
    assert dilate(d, 1.0, (0.3, 7.0)) == (0.3, 7.0)
    std = Dilation((1.0, 1.0))
    assert dilate(std, 3.0, (1.0, 2.0)) == (3.0, 6.0)


def test_dilate_rejects_nonpositive_lambda():
    d = Dilation((1.0,))
    with pytest.raises(ValueError):
        dilate(d, 0.0, (1.0,))
    with pytest.raises(ValueError):
        dilate(d, -2.0, (1.0,))


def test_dilation_validation():
    with pytest.raises(ValueError):
        Dilation((1.0, 0.0))
    with pytest.raises(ValueError):
        Dilation(())
    assert Dilation((1.0, 2.0)).r_max == 2.0


@pytest.mark.parametrize("r", [math.inf, math.nan])
def test_dilation_rejects_nonfinite_exponents(r):
    with pytest.raises(ValueError, match="finite and positive"):
        Dilation((1.0, r))


# -- homogeneity identity (exact test and the sampled functional identity) ------

def test_cubic_fields_homogeneous_degree_two():
    d = Dilation((1.0, 2.0))
    for F in (CUBIC_F, CUBIC_G):
        ok, witness = is_homogeneous(F, d, 2.0)
        assert ok and witness is None
    ok, witness = is_homogeneous(CUBIC_F, d, 1.0)
    assert not ok and witness is not None


@pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
def test_homogeneity_functional_identity(lam):
    d = Dilation((1.0, 2.0))
    p = 2.0
    grid = [(x, y) for x in (0.05, 0.7, 3.0) for y in (0.1, 1.0, 8.0)]
    for F in (CUBIC_F, CUBIC_G):
        for x in grid:
            left = F.evaluate(dilate(d, lam, x))
            right = [lam ** p * z for z in dilate(d, lam, F.evaluate(x))]
            for l, r in zip(left, right):
                assert l == pytest.approx(r, rel=1e-10)


# -- Lyapunov function -----------------------------------------------------------

def test_lyapunov_values():
    d = Dilation((1.0, 2.0))
    assert lyapunov_v((1.0, 1.0), d, (1.0, 1.0)) == 1.0
    assert lyapunov_v((1.0, 1.0), d, (0.5, 0.3)) == pytest.approx(0.3)
    assert lyapunov_v((1.0, 1.0), d, (0.0, 0.0)) == 0.0


def test_lyapunov_rejects_negative_state():
    d = Dilation((1.0, 2.0))
    with pytest.raises(ValueError, match="negative"):
        lyapunov_v((1.0, 1.0), d, (-0.1, 0.5))


def test_lyapunov_is_weighted_linf_for_standard_dilation():
    d = Dilation((1.0, 1.0, 1.0))
    v = (2.0, 4.0, 0.5)
    x = (1.0, 1.0, 1.0)
    assert lyapunov_v(v, d, x) == pytest.approx(max(xi / vi for xi, vi in zip(x, v)))


@settings(max_examples=60)
@given(
    rows=st.lists(st.tuples(*[st.floats(0.0, 50.0)] * 3), min_size=1, max_size=20),
    v=st.tuples(*[st.floats(0.1, 10.0)] * 3),
    r=st.tuples(*[st.floats(0.5, 3.0)] * 3),
)
def test_lyapunov_array_matches_rows_exactly(rows, v, r):
    d = Dilation(r)
    X = np.array(rows)
    W = lyapunov_v(v, d, X)
    assert W.shape == (len(rows),)
    assert W.tolist() == [lyapunov_v(v, d, row) for row in X]
    assert W.tolist() == [lyapunov_reference(v, r, row) for row in rows]


def test_lyapunov_array_checks_inputs():
    d = Dilation((1.0, 2.0))
    X = np.array([[1.0, 0.5], [0.2, -0.1]])
    with pytest.raises(ValueError, match="negative"):
        lyapunov_v((1.0, 1.0), d, X)
    with pytest.raises(ValueError, match="positive"):
        lyapunov_v((1.0, 0.0), d, np.abs(X))
    with pytest.raises(ValueError, match="dimension"):
        lyapunov_v((1.0, 1.0), d, np.ones((3, 3)))
    assert lyapunov_v((1.0, 1.0), d, np.empty((0, 2))).shape == (0,)


@settings(max_examples=60)
@given(
    lam=st.floats(0.1, 10.0),
    x=st.tuples(st.floats(0.0, 50.0), st.floats(0.0, 50.0)),
    r2=st.floats(0.5, 3.0),
)
def test_lyapunov_dilation_scaling(lam, x, r2):
    d = Dilation((1.0, r2))
    v = (1.0, 1.0)
    scaled = lyapunov_v(v, d, dilate(d, lam, x))
    assert scaled == pytest.approx(lam ** d.r_max * lyapunov_v(v, d, x), rel=1e-9, abs=1e-12)


# -- jacobian --------------------------------------------------------------------

def _dense_field(n, seed):
    """n components of n terms each, each term with about n/10 variables
    raised to powers 1 or 2."""
    rng = np.random.default_rng(seed)
    return PolyVectorField(n, tuple(
        tuple((float(c), tuple(int(e) for e in exps)) for c, exps in zip(
            rng.uniform(-2.0, 2.0, n), rng.integers(1, 3, (n, n)) * (rng.random((n, n)) < 0.1)))
        for _ in range(n)
    ))


def test_field_keeps_its_rows_and_differentiates_them():
    n = 50
    F = _dense_field(n, 5)
    J = jacobian(F)
    for i in range(n):
        assert F.component_poly(i) is F.component_poly(i)
        assert F.component_poly(i).terms == F.components[i]
        row = ScalarPoly(n, F.components[i])
        for j in range(n):
            want = row.diff(j).terms
            assert [(c.hex(), e) for c, e in J[i][j].terms] == [(c.hex(), e) for c, e in want]
    assert F._sparse == tuple(F.component_poly(i)._sparse for i in range(n))


@pytest.mark.parametrize("exps, match", [
    ((1, 0), "does not match n=1"),
    ((-1,), "nonnegative integers"),
    ((1.5,), "nonnegative integers"),
    (("1",), "nonnegative integers"),
])
def test_terms_with_malformed_exponents_are_rejected(exps, match):
    with pytest.raises(ValueError, match=match):
        ScalarPoly(1, ((1.0, exps),))
    with pytest.raises(ValueError, match=match):
        PolyVectorField(1, (((1.0, exps),),))


def test_terms_are_normalised_once():
    F = PolyVectorField(2, (((1, [2.0, np.int64(1)]),), ((-3, (0, 1)),)))
    assert F.components == (((1.0, (2, 1)),), ((-3.0, (0, 1)),))
    assert all(type(e) is int for terms in F.components for _, exps in terms for e in exps)
    assert F == PolyVectorField(2, F.components)


def test_jacobian_cubic_entries():
    J = jacobian(CUBIC_F)
    # d f_1 / d x_2 = 2 x_1
    assert J[0][1].terms == ((2.0, (1, 0)),)
    # d f_2 / d x_1 = 2 x_1 x_2
    assert J[1][0].terms == ((2.0, (1, 1)),)


def test_jacobian_linear_field_is_constant_matrix():
    A = [[1.5, -2.0], [0.0, 3.0]]
    J = jacobian(PolyVectorField.from_matrix(A))
    for i in range(2):
        for j in range(2):
            assert J[i][j].evaluate((10.0, -3.0)) == pytest.approx(A[i][j])


def test_jacobian_power_rule():
    F = PolyVectorField(1, (((-5.0, (3,)),),))
    J = jacobian(F)
    assert J[0][0].terms == ((-15.0, (2,)),)


@settings(max_examples=40, deadline=None)
@given(x=st.tuples(st.floats(0.05, 20.0), st.floats(0.05, 20.0)))
def test_jacobian_matches_finite_differences(x):
    J = jacobian(CUBIC_F)
    h = 1e-6
    for j in range(2):
        xp = list(x)
        xm = list(x)
        xp[j] += h
        xm[j] -= h
        fd = [(a - b) / (2 * h) for a, b in zip(CUBIC_F.evaluate(xp), CUBIC_F.evaluate(xm))]
        for i in range(2):
            sym = J[i][j].evaluate(x)
            assert fd[i] == pytest.approx(sym, rel=1e-5, abs=1e-4)


# -- serialization ----------------------------------------------------------------

def test_field_json_schema_round_trip():
    doc = CUBIC_F.to_dict()
    assert doc["n"] == 2
    assert doc["components"][0][0] == {"coeff": -5.0, "exp": [3, 0]}
    again = PolyVectorField.from_dict(CUBIC_F.to_dict())
    assert again == CUBIC_F


def test_field_from_documented_schema_example():
    doc = {
        "n": 2,
        "components": [
            [{"coeff": -5, "exp": [3, 0]}, {"coeff": 2, "exp": [1, 1]}],
            [{"coeff": 1, "exp": [2, 1]}, {"coeff": -4, "exp": [0, 2]}],
        ],
    }
    assert PolyVectorField.from_dict(doc) == CUBIC_F
    with pytest.raises(ValueError):
        PolyVectorField.from_dict({"n": 2, "parts": []})


def test_linear_field_matrix_round_trip():
    A = [[0.3, 0.2], [0.1, 0.4]]
    F = PolyVectorField.from_matrix(A)
    assert F.is_linear
    assert F.to_matrix() == A
    assert not CUBIC_F.is_linear
    with pytest.raises(ValueError):
        CUBIC_F.to_matrix()


# -- level-set probe ----------------------------------------------------------------

def test_level_set_probe_thresholds():
    probe = LevelSetProbe(gamma=0.9, phi_norm=2.0)
    ths = [probe.threshold(m) for m in range(6)]
    assert ths[0] == 2.0
    assert all(a > b for a, b in zip(ths, ths[1:]))
    assert probe.threshold(3) == pytest.approx(2.0 * 0.9 ** 3)


def test_level_set_probe_validation():
    with pytest.raises(ValueError):
        LevelSetProbe(gamma=1.0, phi_norm=1.0)
    with pytest.raises(ValueError):
        LevelSetProbe(gamma=0.5, phi_norm=-1.0)
