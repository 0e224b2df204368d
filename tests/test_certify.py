import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaycert import (
    Dilation,
    PolyVectorField,
    SystemModel,
    dilate,
    find_certificate_linear,
    find_certificate_nonlinear,
    hurwitz_metzler,
    margins,
    spectral_radius,
    verify_certificate,
)
from delaycert.certify import linear_model


# -- verify_certificate ----------------------------------------------------------

def test_verify_cubic_ones(cubic2d):
    cert = verify_certificate(cubic2d, (1.0, 1.0))
    assert cert.margins == (-2.0, -1.0)
    assert cert.valid
    assert cert.claim == "global"


def test_verify_discrete_square_local(square_map):
    cert = verify_certificate(square_map, (0.5,))
    assert cert.margins == (-0.25,)
    assert cert.valid
    assert cert.claim == "local"


def test_verify_zero_margin_is_invalid():
    # f(v) + g(v) = 0 exactly in one component: strictness must reject it
    model = SystemModel(
        kind="continuous",
        f=PolyVectorField.from_matrix([[-1.0, 0.0], [0.0, -2.0]]),
        delayed_terms=(PolyVectorField.from_matrix([[1.0, 0.0], [0.0, 1.0]]),),
        dilation=Dilation((1.0, 1.0)),
        degree=0.0,
    )
    cert = verify_certificate(model, (1.0, 1.0))
    assert cert.margins[0] == 0.0
    assert not cert.valid


def test_verify_rejects_nonpositive_vector(cubic2d):
    with pytest.raises(ValueError):
        verify_certificate(cubic2d, (1.0, 0.0))
    with pytest.raises(ValueError):
        verify_certificate(cubic2d, (1.0, -1.0))


def test_certificate_serializes(cubic2d):
    doc = verify_certificate(cubic2d, (1.0, 1.0)).to_dict()
    assert doc["valid"] is True
    assert doc["provenance"] == "user-supplied"
    assert doc["margins"] == [-2.0, -1.0]


# -- linear certificates -----------------------------------------------------------

def test_linear_discrete_closed_form():
    A = [[0.3, 0.2], [0.1, 0.4]]
    B = [[0.1, 0.0], [0.2, 0.1]]
    M = np.array(A) + np.array(B)
    assert spectral_radius(M) == pytest.approx(0.7)
    v = find_certificate_linear(A, [B], "discrete")
    assert v == pytest.approx([35.0 / 12.0, 45.0 / 12.0])
    assert np.all(M @ v < v)
    assert M @ v == pytest.approx([23.0 / 12.0, 33.0 / 12.0])


def test_linear_continuous_closed_form():
    A = [[-2.0, 1.0], [0.0, -2.0]]
    B = [[0.0, 0.5], [0.5, 0.0]]
    v = find_certificate_linear(A, [B], "continuous")
    assert v == pytest.approx([14.0 / 13.0, 10.0 / 13.0])
    cert = verify_certificate(linear_model(A, [B], "continuous"), v)
    assert cert.valid


def test_linear_absent_when_not_hurwitz():
    assert find_certificate_linear([[0.0]], [[[0.0]]], "continuous") is None
    assert find_certificate_linear([[0.6]], [[[0.6]]], "discrete") is None


def test_linear_rejects_structural_violations():
    with pytest.raises(ValueError, match="Metzler"):
        find_certificate_linear([[-1.0, -0.5], [0.0, -1.0]], [], "continuous")
    with pytest.raises(ValueError, match="nonnegative"):
        find_certificate_linear([[-1.0, 0.0], [0.0, -1.0]], [[[-0.1, 0.0], [0.0, 0.0]]], "continuous")


# -- hurwitz_metzler -----------------------------------------------------------------

def test_hurwitz_examples():
    assert hurwitz_metzler([[-1.0, 0.0], [0.0, -1.0]])
    assert not hurwitz_metzler([[0.0, 1.0], [1.0, 0.0]])  # spectrum {-1, +1}
    assert hurwitz_metzler([[-2.0, 1.5], [0.5, -2.0]])  # eigenvalues -2 +- sqrt(0.75)
    assert not hurwitz_metzler([[0.0]])


def test_hurwitz_rejects_non_metzler():
    with pytest.raises(ValueError):
        hurwitz_metzler([[-1.0, -0.1], [0.0, -1.0]])


# -- random-instance equivalences ------------------------------------------------------

def _random_continuous_pair(rng):
    n = int(rng.integers(1, 6))
    A = rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(A, rng.uniform(-4.0, 0.5, n))
    B = rng.uniform(0.0, 0.4, (n, n)) * (rng.random((n, n)) < 0.7)
    return A, B


def _random_discrete_pair(rng):
    n = int(rng.integers(1, 6))
    A = rng.uniform(0.0, 0.8 / n, (n, n))
    B = rng.uniform(0.0, 0.6 / n, (n, n))
    rho = spectral_radius(A + B)
    scale = float(rng.uniform(0.3, 1.6))
    if rho > 0.0:
        A *= scale / rho
        B *= scale / rho
    return A, B


def test_continuous_presence_iff_hurwitz_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        A, B = _random_continuous_pair(rng)
        v = find_certificate_linear(A, [B], "continuous")
        assert (v is not None) == hurwitz_metzler(A + B)
        if v is not None:
            assert verify_certificate(linear_model(A, [B], "continuous"), v).valid


def test_discrete_presence_iff_schur_on_random_instances():
    rng = np.random.default_rng(2025)
    for _ in range(100):
        A, B = _random_discrete_pair(rng)
        v = find_certificate_linear(A, [B], "discrete")
        assert (v is not None) == (spectral_radius(A + B) < 1.0)
        if v is not None:
            assert verify_certificate(linear_model(A, [B], "discrete"), v).valid


def test_nonlinear_search_agrees_with_linear_route():
    # boundary-excluded random instances: the ray search is best-effort, so
    # instances within 0.05 of the stability boundary are skipped
    rng = np.random.default_rng(99)
    checked = 0
    trial = 0
    while checked < 100:
        trial += 1
        if checked % 2 == 0:
            A, B = _random_continuous_pair(rng)
            gap = float(np.max(np.linalg.eigvals(A + B).real))
            kind = "continuous"
            feasible = gap < 0.0
        else:
            A, B = _random_discrete_pair(rng)
            gap = spectral_radius(A + B) - 1.0
            kind = "discrete"
            feasible = gap < 0.0
        if abs(gap) < 0.05:
            continue
        checked += 1
        model = linear_model(A, [B], kind)
        v = find_certificate_nonlinear(model, seed=trial)
        assert (v is not None) == feasible, f"{kind} instance, gap {gap}"
        if v is not None:
            assert verify_certificate(model, v).valid


# -- nonlinear search behaviour ----------------------------------------------------------

def test_nonlinear_search_finds_cubic_certificate(cubic2d):
    v = find_certificate_nonlinear(cubic2d)
    assert v is not None
    assert verify_certificate(cubic2d, v).valid


def test_nonlinear_search_unstable_scalar_absent():
    # f(v) + g(v) = 1.5 v > 0 on every ray: no certificate can exist
    model = SystemModel(
        kind="continuous",
        f=PolyVectorField(1, (((1.0, (1,)),),)),
        delayed_terms=(PolyVectorField(1, (((0.5, (1,)),),)),),
        dilation=Dilation((1.0,)),
        degree=0.0,
    )
    assert find_certificate_nonlinear(model) is None


def test_nonlinear_search_discrete_positive_degree_scales_down(square_map):
    v = find_certificate_nonlinear(square_map)
    assert v is not None
    cert = verify_certificate(square_map, v)
    assert cert.valid and cert.claim == "local"


def test_nonlinear_search_requires_homogeneity():
    lopsided = SystemModel(
        kind="continuous",
        f=PolyVectorField(1, (((-1.0, (1,)), (-1.0, (2,))),)),
        delayed_terms=(PolyVectorField.zero(1),),
        dilation=Dilation((1.0,)),
        degree=0.0,
    )
    with pytest.raises(ValueError, match="homogeneity"):
        find_certificate_nonlinear(lopsided)


# -- dilation-ray invariance -----------------------------------------------------------

@settings(max_examples=60)
@given(
    lam=st.floats(0.05, 20.0),
    v1=st.floats(0.1, 5.0),
    v2=st.floats(0.1, 5.0),
)
def test_validity_invariant_along_dilation_orbits(cubic2d, lam, v1, v2):
    from hypothesis import assume

    v = (v1, v2)
    base = verify_certificate(cubic2d, v)
    # stay off the strictness boundary, where the float tolerance (not the
    # mathematics) decides validity
    fv = cubic2d.f.evaluate(v)
    assume(all(abs(m) > 1e-6 * (1.0 + abs(f)) for m, f in zip(base.margins, fv)))
    moved = verify_certificate(cubic2d, dilate(cubic2d.dilation, lam, v))
    assert base.valid == moved.valid
    # margins rescale componentwise by lam**(p + r_i): signs are preserved
    p, r = cubic2d.degree, cubic2d.dilation.r
    for i, (m0, m1) in enumerate(zip(base.margins, moved.margins)):
        assert m1 == pytest.approx(lam ** (p + r[i]) * m0, rel=1e-8, abs=1e-12)
