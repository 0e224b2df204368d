import dataclasses
import dis
import math
import warnings
from operator import truediv

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
from delaycert import ConstantDelay, constant_history, simulate_continuous
from delaycert import certify as certify_mod, native, simulate as simulate_mod
from delaycert.certify import linear_model
from delaycert.model import _sum_monomials

# the margin evaluator is C: without a compiler `margins` takes the kernel path
needs_compiler = pytest.mark.skipif(native._compiler() is None, reason="no C compiler")


# -- verify_certificate ----------------------------------------------------------

def test_verify_cubic_ones(cubic2d):
    cert = verify_certificate(cubic2d, (1.0, 1.0))
    assert cert.margins == (-2.0, -1.0)
    assert cert.valid
    assert cert.claim == "global"


def test_a_valid_certificate_carries_f_and_g_at_v_and_an_invalid_one_does_not(cubic2d):
    cert = verify_certificate(cubic2d, (1.0, 1.0))
    assert cert.f_v == tuple(cubic2d.f.evaluate((1.0, 1.0)))
    assert cert.g_v == tuple(cubic2d.delayed_sum_at((1.0, 1.0)))
    assert cert == dataclasses.replace(cert, f_v=None, g_v=None)  # not part of its value
    assert "f_v" not in cert.to_dict()
    bad = verify_certificate(dataclasses.replace(cubic2d, f=cubic2d.f.scaled(-1.0)), (1.0, 1.0))
    assert not bad.valid and bad.f_v is None and bad.g_v is None


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


@pytest.mark.parametrize("kind, f, m, negative", [
    ("discrete", 0.5, -1.0, True),        # far below rounding: the float sign stands
    ("discrete", 0.5, -1e-9, False),      # 0.5 + 0.5 - 1 is exactly 0
    ("continuous", 0.5, -1e-9, False),    # 0.5 + 0.5 is positive
    ("continuous", -2.0, -1e-9, True),    # -2 + 0.5 is negative
    ("continuous", math.inf, -1e-9, True),  # no exact value: the float rule decides
])
def test_exact_pass_decides_margins_near_rounding(kind, f, m, negative):
    model = SystemModel(
        kind=kind,
        f=PolyVectorField(1, (((f, (1,)),),)),
        delayed_terms=(PolyVectorField(1, (((0.5, (1,)),),)),),
        dilation=Dilation((1.0,)),
        degree=0.0,
    )
    assert certify_mod._exactly_negative(model, (1.0,), [m]) is negative


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


@pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
@pytest.mark.parametrize("where", ["A", "B_1"])
def test_linear_rejects_non_finite_entries_naming_the_matrix(where, bad):
    A = [[-1.0, 0.0], [0.0, -1.0]]
    Bs = [[[0.1, 0.0], [0.0, 0.1]], [[0.0, 0.2], [0.0, 0.0]]]
    if where == "A":
        A[1][1] = bad
    else:
        Bs[1][0][1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning comes first
        with pytest.raises(ValueError, match=rf"^{where} has a non-finite entry \(\d,\d\)"):
            find_certificate_linear(A, Bs, "continuous")


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


# -- the search's compiled margin evaluator ----------------------------------------------

_COEFFS = st.one_of(st.sampled_from([-0.0, 0.0, math.inf]), st.floats(-10.0, 10.0))


@st.composite
def _models_and_points(draw):
    n = draw(st.integers(1, 4))
    term = st.tuples(_COEFFS, st.lists(st.integers(0, 4), min_size=n, max_size=n))

    def field():
        comps = draw(st.lists(st.lists(term, max_size=4), min_size=n, max_size=n))
        # a nonzero term needs an exponent, so that the field vanishes at 0
        return PolyVectorField(n, tuple(
            tuple((c, [e[0] + (c != 0.0 and not any(e)), *e[1:]]) for c, e in comp) for comp in comps
        ))

    model = SystemModel(
        kind=draw(st.sampled_from(["continuous", "discrete"])),
        f=field(),
        delayed_terms=tuple(field() for _ in range(draw(st.integers(1, 2)))),
        dilation=Dilation((1.0,) * n),
        degree=0.0,
    )
    # 10**-150 .. 10**150: cubes and fourth powers of the large ones overflow
    v = draw(st.lists(st.floats(-150.0, 150.0).map(lambda e: 10.0 ** e), min_size=n, max_size=n))
    return model, v


@needs_compiler
@settings(max_examples=200, deadline=None)
@given(_models_and_points())
def test_margin_evaluator_matches_kernel_bitwise(model_and_point):
    model, v = model_and_point
    evaluator = certify_mod._margin_evaluator(model)
    got, want = margins(model, v, evaluator), margins(model, v)
    assert [m.hex() for m in got] == [m.hex() for m in want]
    # verification forms the margins from its own f(v) and g(v)
    assert [m.hex() for m in verify_certificate(model, v).margins] == [m.hex() for m in want]
    try:
        direct = evaluator(v)
    except OverflowError:
        return  # margins fell back to the kernel
    assert [m.hex() for m in direct] == [m.hex() for m in want]


@needs_compiler
def test_margin_evaluator_sums_delayed_terms_before_adding_f():
    # f + (g_0 + g_1), as the kernel path does: 1 + (1e16 - 1e16) is 1,
    # while (1 + 1e16) - 1e16 is 0
    model = SystemModel(
        kind="continuous",
        f=PolyVectorField(1, (((1.0, (1,)),),)),
        delayed_terms=(PolyVectorField(1, (((1e16, (1,)),),)), PolyVectorField(1, (((-1e16, (1,)),),))),
        dilation=Dilation((1.0,)),
        degree=0.0,
    )
    assert certify_mod._margin_evaluator(model)([1.0]) == margins(model, [1.0]) == [1.0]


@needs_compiler
def test_margin_evaluator_overflow_falls_back_to_signed_infinity():
    model = SystemModel(
        kind="discrete",
        f=PolyVectorField(2, (((-1.0, (3, 0)),), ((0.5, (0, 1)),))),
        delayed_terms=(PolyVectorField(2, ((), ((2.0, (1, 0)),))),),
        dilation=Dilation((1.0, 3.0)),
        degree=2.0,
    )
    evaluator = certify_mod._margin_evaluator(model)
    with pytest.raises(OverflowError):
        evaluator([1e200, 1.0])
    assert margins(model, [1e200, 1.0], evaluator) == [-math.inf, 2e200 - 0.5]


@needs_compiler
def test_margin_evaluator_of_ten_thousand_terms_matches_kernel_bitwise():
    rng = np.random.default_rng(7)
    exps = rng.integers(0, 4, size=(10_000, 3))
    exps[:, 0] += ~exps.any(axis=1)  # every term vanishes at the origin
    coeffs = rng.normal(size=10_000)
    big = tuple((float(c), tuple(int(e) for e in es)) for c, es in zip(coeffs, exps))
    f = PolyVectorField(3, (big, ((math.inf, (1, 0, 0)), (-0.0, (0, 2, 0))), ()))
    g = PolyVectorField(3, (big[:5000], (), ((-1.0, (0, 0, 1)),)))
    for kind in ("continuous", "discrete"):
        model = SystemModel(kind=kind, f=f, delayed_terms=(g, g), dilation=Dilation((1.0,) * 3), degree=0.0)
        evaluator = certify_mod._margin_evaluator(model)
        for x in ([0.5, 1.5, 0.75], [1.0, 0.0, 2.0], [1.25, 0.3, 0.9]):
            fx, gx = _sum_monomials(f._sparse, x), _sum_monomials(g._sparse, x)
            want = [a + (0.0 + b + b) - (xi if kind == "discrete" else 0.0) for a, b, xi in zip(fx, gx, x)]
            assert [m.hex() for m in evaluator(x)] == [m.hex() for m in want]


@needs_compiler
def test_margins_builtin_takes_exactly_n_numbers(cubic2d):
    evaluator = certify_mod._margin_evaluator(cubic2d)
    assert evaluator((1, np.float64(1.0))) == evaluator([1.0, 1.0]) == [-2.0, -1.0]
    for v in ([1.0], [1.0, 1.0, 1.0], []):
        with pytest.raises(ValueError, match="length"):
            evaluator(v)
    for v in ([1.0, "1"], [None, 1.0], 1.0):
        with pytest.raises(TypeError):
            evaluator(v)

    class Shrinks:  # a number that takes the list's last item away
        def __float__(self):
            del v[-1]
            return 1.0

    v = [Shrinks(), 1.0]
    with pytest.raises(ValueError, match="changed length"):
        evaluator(v)
    module = native.extension(simulate_mod._SOURCE)
    with pytest.raises(ValueError, match="PyCapsule"):
        module.margins(object(), [1.0, 1.0])
    with pytest.raises(TypeError):
        module.margins([1.0, 1.0])


def _random_cooperative_system(rng, n, kind, n_delayed):
    """Degree 0 under r = (1, 2, 1, ...): linear couplings between components
    of equal weight, quadratic ones from weight-1 into weight-2 components,
    and a diagonal that makes every margin at the all-ones vector -slack
    (a discrete diagonal stops at 0), so some systems are not stable."""
    r = [1.0 if i % 2 == 0 else 2.0 for i in range(n)]
    light = [i for i in range(n) if r[i] == 1.0]

    def unit(*js):
        e = [0] * n
        for j in js:
            e[j] += 1
        return tuple(e)

    def coupling(diagonal):
        comps = []
        for i in range(n):
            terms = [(float(rng.uniform(0.1, 0.5)), unit(j)) for j in range(n)
                     if r[j] == r[i] and (diagonal or j != i) and rng.random() < 0.6]
            if r[i] == 2.0:
                terms += [(float(rng.uniform(0.1, 0.5)), unit(*rng.choice(light, size=2))) for _ in range(2)]
            comps.append(terms)
        return comps

    f, gs = coupling(False), [coupling(True) for _ in range(n_delayed)]
    push = [sum(c for c, _ in f[i]) + sum(c for g in gs for c, _ in g[i]) for i in range(n)]
    slack = rng.uniform(-0.3, 1.0)
    for i in range(n):
        d = push[i] - (1.0 - slack if kind == "discrete" else -slack)
        f[i].insert(0, (-d if kind == "continuous" else max(-d, 0.0), unit(i)))
    return SystemModel(
        kind=kind,
        f=PolyVectorField(n, tuple(tuple(c) for c in f)),
        delayed_terms=tuple(PolyVectorField(n, tuple(tuple(c) for c in g)) for g in gs),
        dilation=Dilation(tuple(r)),
        degree=0.0,
    )


def test_search_returns_the_same_v_with_and_without_the_evaluator(monkeypatch):
    rng = np.random.default_rng(2024)
    systems = [
        _random_cooperative_system(rng, int(rng.integers(2, 5)), kind, int(rng.integers(1, 3)))
        for kind in ("continuous", "discrete") for _ in range(30)
    ]
    with_evaluator = [find_certificate_nonlinear(m, seed=k) for k, m in enumerate(systems)]
    monkeypatch.setattr(certify_mod, "_margin_evaluator", lambda model: None)  # the kernel path
    kernel = [find_certificate_nonlinear(m, seed=k) for k, m in enumerate(systems)]
    found = 0
    for a, b in zip(with_evaluator, kernel):
        assert (a is None) == (b is None)
        if a is not None:
            found += 1
            assert [x.hex() for x in a] == [x.hex() for x in b]
    assert 20 <= found < len(systems)  # both verdicts are covered


@needs_compiler
@pytest.mark.parametrize("kind", ["continuous", "discrete"])
def test_margins_builtin_matches_the_kernel_bitwise_at_n_300(kind):
    rng = np.random.default_rng(300)

    def field():  # five terms per component, with powers up to 4 of any variable
        exps = rng.integers(0, 5, size=(300, 5, 300)) * (rng.random((300, 5, 300)) < 0.01)
        exps[np.arange(300)[:, None], np.arange(5), rng.integers(0, 300, (300, 5))] += 1  # none is constant
        return PolyVectorField(300, tuple(
            tuple((float(c), tuple(int(e) for e in es)) for c, es in zip(rng.normal(size=5), comp)) for comp in exps
        ))

    model = SystemModel(kind=kind, f=field(), delayed_terms=(field(), field()),
                        dilation=Dilation((1.0,) * 300), degree=0.0)
    evaluator = certify_mod._margin_evaluator(model)
    for v in ([1.0] * 300, [float(x) for x in rng.uniform(0.5, 2.0, 300)]):
        assert [m.hex() for m in evaluator(v)] == [m.hex() for m in margins(model, v)]


def test_without_python_headers_the_search_takes_the_kernel_and_runs_stay_native(tmp_path, monkeypatch, cubic2d):
    # the same v bit for bit, with the C runs of the object compiled
    # without the extension section
    want = find_certificate_nonlinear(cubic2d, seed=3)
    (tmp_path / "include").mkdir()
    monkeypatch.setattr(native, "_include", lambda: str(tmp_path / "include"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    assert certify_mod._margin_evaluator(cubic2d) is None
    got = find_certificate_nonlinear(cubic2d, seed=3)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    traj = simulate_continuous(cubic2d, ConstantDelay(1.0), constant_history((1.0, 0.5)), 0.01, 1.0)
    assert traj.metadata["integrator"] == ("native" if native._compiler() is not None else "python")


def test_the_cache_path_follows_the_interpreters_extension_suffix(monkeypatch):
    import sysconfig

    path, get = native._path("int x;"), sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: ".cpython-399-x.so" if name == "EXT_SUFFIX" else get(name))
    assert native._path("int x;") != path
    assert native._path("int x;").parent == path.parent


def _count_margins(monkeypatch, model):
    calls = [0]
    kernel_margins = certify_mod.margins

    def counted(*args, **kwargs):
        calls[0] += 1
        return kernel_margins(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(certify_mod, "margins", counted)
        v = find_certificate_nonlinear(model, seed=3)
    return calls[0], v


def test_search_counts_margins_once_per_scored_direction(monkeypatch, cubic2d):
    # one call per scored direction, with the evaluator or without: 931 on
    # this search (verifying the result calls no `margins`)
    compiled = _count_margins(monkeypatch, cubic2d)
    monkeypatch.setattr(certify_mod, "_margin_evaluator", lambda model: None)
    assert compiled[0] == _count_margins(monkeypatch, cubic2d)[0] == 931


# -- the generated coordinate-descent sweep -------------------------------------------


def _reference_ray_score(model, u, evaluator):
    return max(map(truediv, margins(model, u, evaluator), u))


def _reference_refine_ray(model, u, iters, evaluator):
    """The sweep as a plain Python loop: the generated one must match it bit for bit."""
    score = _reference_ray_score(model, u, evaluator)
    delta = 0.5
    for _ in range(iters):
        improved = False
        factors = (1.0 + delta, 1.0 / (1.0 + delta))
        for j in range(len(u)):
            for factor in factors:
                w = u.copy()
                w[j] *= factor
                total = sum(w)
                w = [wi / total for wi in w]
                s = _reference_ray_score(model, w, evaluator)
                if s < score:
                    u, score = w, s
                    improved = True
        if not improved:
            delta *= 0.5
            if delta < 1e-9:
                break
    return u, score


def _assert_sweep_matches_reference(model, u):
    evaluator = certify_mod._margin_evaluator(model)
    want = _reference_refine_ray(model, list(u), certify_mod.REFINE_ITERS, evaluator)
    got = certify_mod._refine_sweep(model.n)(model, list(u), certify_mod.REFINE_ITERS, evaluator)
    assert [x.hex() for x in got[0]] == [x.hex() for x in want[0]]
    assert got[1].hex() == want[1].hex()


@pytest.mark.parametrize("kind", ["continuous", "discrete"])
@pytest.mark.parametrize("n", range(2, 9))
def test_sweep_matches_the_python_loop_bitwise(n, kind):
    rng = np.random.default_rng([n, kind == "discrete"])
    for n_delayed in (1, 2):
        model = _random_cooperative_system(rng, n, kind, n_delayed)
        for u in ([1.0 / n] * n, [float(x) for x in rng.dirichlet(np.ones(n))]):
            _assert_sweep_matches_reference(model, u)


def test_sweep_matches_the_python_loop_where_a_power_overflows():
    # the first ray's x0**3 overflows, so its margins are the kernel's
    # [-inf, 2e200 - 0.5]; the renormalized candidates stay finite
    model = SystemModel(
        kind="discrete",
        f=PolyVectorField(2, (((-1.0, (3, 0)),), ((0.5, (0, 1)),))),
        delayed_terms=(PolyVectorField(2, ((), ((2.0, (1, 0)),))),),
        dilation=Dilation((1.0, 3.0)),
        degree=2.0,
    )
    _assert_sweep_matches_reference(model, [1e200, 1.0])


def test_sweep_source_grows_linearly_in_n():
    def lines(n):  # the generated function's last line number is its line count
        return max(line for _, line in dis.findlinestarts(certify_mod._refine_sweep(n).__code__))

    assert lines(50) - lines(8) == 7 * (lines(8) - lines(2)) > 0
