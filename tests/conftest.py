import math
import tempfile

import pytest

from delaycert import (
    Dilation,
    PolyVectorField,
    SinusoidalDelay,
    SystemModel,
    constant_history,
    simulate_continuous,
)

E = math.e


def pytest_addoption(parser):
    parser.addoption("--no-compiler", action="store_true",
                     help="run with PATH set to an empty directory, so that no C kernel is built")


def pytest_configure(config):
    """With --no-compiler, PATH is an empty directory before any test
    module is imported, so tests/test_simulate.py's INTEGRATOR reads
    "python" and every run takes the Python kernels."""
    if config.getoption("no_compiler"):
        empty = tempfile.TemporaryDirectory(prefix="no-compiler-")
        mp = pytest.MonkeyPatch()
        mp.setenv("PATH", empty.name)
        config.add_cleanup(empty.cleanup)
        config.add_cleanup(mp.undo)


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Compiled kernels go to a directory of the session, not to the user's
    cache; a test that sets XDG_CACHE_HOME itself overrides it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield

# 2-d cubic benchmark: cooperative f, non-decreasing g, degree 2 under r=(1,2)
CUBIC_F = PolyVectorField(
    2,
    (
        ((-5.0, (3, 0)), (2.0, (1, 1))),
        ((1.0, (2, 1)), (-4.0, (0, 2))),
    ),
)
CUBIC_G = PolyVectorField(
    2,
    (
        ((1.0, (1, 1)),),
        ((2.0, (4, 0)),),
    ),
)


@pytest.fixture(scope="session")
def cubic2d() -> SystemModel:
    return SystemModel(
        kind="continuous",
        f=CUBIC_F,
        delayed_terms=(CUBIC_G,),
        dilation=Dilation((1.0, 2.0)),
        degree=2.0,
    )


@pytest.fixture(scope="session")
def growth2d() -> SystemModel:
    """Linear system with x_1 growing like e^t and a delayed feed into x_2.

    Positive for nonnegative initial data under the piecewise delay used in
    the tests, yet it violates the face-positivity sufficient condition
    (f_2(1, 0) = -1): positivity of time-varying-delay systems is not
    captured by that condition alone.
    """
    return SystemModel(
        kind="continuous",
        f=PolyVectorField.from_matrix([[1.0, 0.0], [-1.0, 0.0]]),
        delayed_terms=(PolyVectorField.from_matrix([[0.0, 0.0], [E, 0.0]]),),
        dilation=Dilation((1.0, 1.0)),
        degree=0.0,
    )


def lyapunov_reference(v, r, x) -> float:
    """V(x) = max_i (x_i/v_i)**(r_max/r_i), one Python float at a time."""
    rmax = max(r)
    best = 0.0
    for xi, vi, ri in zip(x, v, r):
        best = max(best, (float(xi) / vi) ** (rmax / ri))
    return best


def growth2d_closed_form(t: float, x10: float = 1.0, x20: float = 1.0) -> tuple[float, float]:
    """Exact solution of the growth2d system under the ramp delay below."""
    x1 = x10 * math.exp(t)
    if t <= 1.0:
        x2 = x20 + (E - 1.0) * (math.exp(t) - 1.0) * x10
    elif t <= 2.0:
        x2 = x20 + (E ** 2 * t - math.exp(t) + 1.0 - E) * x10
    else:
        x2 = x20 + (E ** 2 - E + 1.0) * x10
    return x1, x2


@pytest.fixture(scope="session")
def scalar_half() -> SystemModel:
    """x'(t) = -x(t) + 0.5 x(t - tau): the scalar workhorse for rate tests."""
    return SystemModel(
        kind="continuous",
        f=PolyVectorField(1, (((-1.0, (1,)),),)),
        delayed_terms=(PolyVectorField(1, (((0.5, (1,)),),)),),
        dilation=Dilation((1.0,)),
        degree=0.0,
    )


@pytest.fixture(scope="session")
def alternating_discrete() -> SystemModel:
    """x(k+1) = 2 x(k) - x(k - d(k)): constant under the parity delay."""
    return SystemModel(
        kind="discrete",
        f=PolyVectorField(1, (((2.0, (1,)),),)),
        delayed_terms=(PolyVectorField(1, (((-1.0, (1,)),),)),),
        dilation=Dilation((1.0,)),
        degree=0.0,
    )


@pytest.fixture(scope="session")
def square_map() -> SystemModel:
    """x(k+1) = x(k)**2: degree one, so only locally stable below x = 1."""
    return SystemModel(
        kind="discrete",
        f=PolyVectorField(1, (((1.0, (2,)),),)),
        delayed_terms=(PolyVectorField.zero(1),),
        dilation=Dilation((1.0,)),
        degree=1.0,
    )


@pytest.fixture(scope="session")
def cubic_run_t50(cubic2d):
    """The decay benchmark run shared by the envelope and level-set tests."""
    return simulate_continuous(
        cubic2d, SinusoidalDelay(4.0, 1.0), constant_history((1.0, 1.0)), 0.01, 50.0
    )
