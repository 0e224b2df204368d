"""Stability certificates for delayed positive systems.

A certificate is a positive vector v with

    continuous:  f(v) + sum_q g_q(v) < 0
    discrete:    f(v) + sum_q g_q(v) < v

Existence is equivalent to delay-independent global asymptotic stability
(continuous any degree, discrete degree zero; discrete positive degree gets
a local claim).  For linear systems the condition is an LP feasibility in v
solved here directly: for a Hurwitz Metzler matrix M, the solution of
M v = -1 is automatically positive, which makes the linear route
deterministic and solver-free.

For nonlinear homogeneous fields the sign pattern of the margins is
constant along each dilation orbit, so the best-effort search explores only
direction space (rays of the positive simplex), scores each ray by its
worst normalized margin, and refines the best rays by multiplicative
coordinate descent.  A failed search is NOT a proof of infeasibility and is
reported as plain absence.

The search scores about ten thousand directions, each with one `margins`
call, and neither of its hot loops runs the monomial kernel:

- The margins come from `margins_at`, a C function of the one compiled
  source of `simulate`, which walks the system's term tables as the RK4
  kernel does; each search binds it to its system once
  (`_margin_evaluator`), and nothing keeps it after the search.
  Verification evaluates one point: it takes f(v) and g(v) from the
  monomial kernel, once each, and forms the margins as `margins`' kernel
  path does.  That path also stands in wherever no C compiler is found
  and wherever a power in the C walk overflows.  Both paths give the same
  margins bit for bit.
- The coordinate descent is one function per dimension n, generated from
  n alone, built once and cached (`_refine_sweep`); it is the one piece of
  generated code in the program.  Its iterations and candidates stay
  loops; the renormalization and the worst-margin score are spelled out
  over the n components, so its source grows linearly in n.  It gives the
  same ray and score bit for bit as the plain loop: totals come from the
  builtin `sum`, and the score makes the comparisons `max` makes.  It
  looks `margins` up in this module at each call, one per candidate, so a
  wrapper put in its place (a call counter) sees every call, and an
  overflow falls back to the kernel inside `margins` as before.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable, Sequence

import numpy as np

from .model import (
    CONTINUOUS,
    DISCRETE,
    Certificate,
    PolyVectorField,
    SystemModel,
    _sum_monomials,
    dilate,
    field_tables,
    is_homogeneous,
)

DEFAULT_TOLERANCE = 1e-9
# a float margin below -EXACT_SKIP times the sum of its terms' absolute
# values has the sign of its exact value: rounding moves it far less
EXACT_SKIP = 2.0 ** -20
RAY_SAMPLES = 256  # random simplex directions scored by the nonlinear search
REFINE_ITERS = 200  # coordinate-descent sweeps on each refined ray


class HypothesisError(ValueError):
    """The system violates a standing hypothesis of the theory (a field that
    is not Metzler, nonnegative or homogeneous), so no certificate exists on
    this route: a negative verdict, not malformed input."""


def margins(
    model: SystemModel, v: Sequence[float], evaluator: Callable | None = None
) -> list[float]:
    """Per-component certificate residuals at v (negative means stable).

    evaluator, the model's `_margin_evaluator`, computes the same list
    in C.  Without one, or where one of its powers overflows, the monomial
    kernel computes the list and counts that monomial as a signed
    infinity.
    """
    if evaluator is not None:
        try:
            return evaluator(v)
        except OverflowError:
            pass
    out = model.f.evaluate(v)
    gs = model.delayed_sum_at(v)
    for i in range(model.n):
        out[i] += gs[i]
        if model.is_discrete:
            out[i] -= v[i]
    return out


def stability_claim(model: SystemModel) -> str:
    """What a valid certificate buys: global, except discrete positive degree."""
    if model.is_discrete and model.degree > 0.0:
        return "local"
    return "global"


def verify_certificate(
    model: SystemModel,
    v: Sequence[float],
    provenance: str = "user-supplied",
) -> Certificate:
    """Evaluate the margins at v and decide validity.

    Validity requires margin_i < -DEFAULT_TOLERANCE * (1 + |f_i(v)|) for
    all i, so a margin that is merely zero up to rounding is rejected (the
    theory needs strict inequality), and every margin negative in exact
    arithmetic (`_exactly_negative`): where large terms cancel, rounding
    can move a margin by more than that cushion.
    """
    v = tuple(float(x) for x in v)
    if len(v) != model.n:
        raise ValueError(f"certificate vector has length {len(v)}, model n={model.n}")
    if min(v) <= 0.0:
        raise ValueError("certificate vector must be strictly positive")
    fv, gv = model.f.evaluate(v), model.delayed_sum_at(v)
    # `margins`' kernel path, from the one evaluation of f(v) and g(v)
    m = [fi + gi - vi if model.is_discrete else fi + gi for fi, gi, vi in zip(fv, gv, v)]
    valid = all(mi < -DEFAULT_TOLERANCE * (1.0 + abs(fi)) for mi, fi in zip(m, fv))
    valid = valid and _exactly_negative(model, v, m)
    return Certificate(
        v=v, margins=tuple(m), valid=valid,
        provenance=provenance, claim=stability_claim(model),
        f_v=tuple(fv) if valid else None, g_v=tuple(gv) if valid else None,
    )


def _exactly_negative(model: SystemModel, v: tuple[float, ...], m: Sequence[float]) -> bool:
    """Whether every margin at v is negative in exact arithmetic, given
    the float margins m.

    A float margin below -EXACT_SKIP times the sum of its terms' absolute
    values (v_i among them in discrete time) keeps its sign.  Every other
    margin is summed in Fraction: the coefficients and v are floats, so
    dyadic rationals, and the exponents are whole numbers, so the sum is
    exact.  A margin with a coefficient that is not finite has no exact
    value; its float rule stands.
    """
    for i, mi in enumerate(m):
        terms = [term for F in (model.f, *model.delayed_terms) for term in F._sparse[i]]
        own = v[i] if model.is_discrete else 0.0
        size = _sum_monomials((tuple((abs(c), e, fs) for c, e, fs in terms),), v)[0] + own
        if mi < -EXACT_SKIP * size or not all(math.isfinite(c) for c, _, _ in terms):
            continue
        from fractions import Fraction  # here: a margin this close to zero is rare

        exact = sum(Fraction(c) * math.prod(Fraction(v[j]) ** e for j, e in fs) for c, _, fs in terms)
        if exact - Fraction(own) >= 0:
            return False
    return True


# -- linear route -------------------------------------------------------------


def _as_matrix(M, name: str = "matrix") -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.isfinite(A).all():
        i, j = np.argwhere(~np.isfinite(A))[0]
        raise ValueError(f"{name} has a non-finite entry ({i},{j}) = {A[i, j]}")
    return A


def _require_metzler(A: np.ndarray) -> None:
    off = A - np.diag(np.diag(A))
    if off.min(initial=0.0) < 0.0:
        i, j = np.unravel_index(np.argmin(off), off.shape)
        raise HypothesisError(f"matrix is not Metzler: entry ({i},{j}) = {A[i, j]}")


def _require_nonnegative(A: np.ndarray, what: str) -> None:
    if A.min(initial=0.0) < 0.0:
        i, j = np.unravel_index(np.argmin(A), A.shape)
        raise HypothesisError(f"{what} is not nonnegative: entry ({i},{j}) = {A[i, j]}")


def spectral_radius(M) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(_as_matrix(M)))))


def hurwitz_metzler(M) -> bool:
    """Stability test for a Metzler matrix.

    Primary route: M v = -1 has a strictly positive solution exactly when M
    is Hurwitz (Metzler theory).  The eigenvalue spectral abscissa is
    computed as a cross-check and the two must agree.
    """
    A = _as_matrix(M)
    _require_metzler(A)
    try:
        v = np.linalg.solve(A, -np.ones(A.shape[0]))
        solve_says = bool(np.all(v > 0.0))
    except np.linalg.LinAlgError:
        solve_says = False
    eig_says = bool(np.max(np.linalg.eigvals(A).real) < 0.0)
    return solve_says and eig_says


def find_certificate_linear(A, B_list, kind: str) -> np.ndarray | None:
    """Certificate for a linear system from the matrix condition.

    Continuous (A Metzler, B_q nonnegative): feasible iff M = A + sum B_q is
    Hurwitz; then v solving M v = -1 is positive with margins exactly -1.
    Discrete (A, B_q nonnegative): feasible iff the spectral radius of M is
    below one; then v = (I - M)^(-1) 1 >= 1 with (M v) = v - 1 < v.
    Returns None when the spectral condition fails (the corollary is also
    necessary, so absence is conclusive on this route); raises
    HypothesisError when A or a B_q breaks its sign pattern.
    """
    A = _as_matrix(A, "A")
    Bs = [_as_matrix(B, f"B_{q}") for q, B in enumerate(B_list)]
    if any(B.shape != A.shape for B in Bs):
        raise ValueError("A and every B must share one shape")
    for q, B in enumerate(Bs):
        _require_nonnegative(B, f"B_{q}")
    M = A + sum(Bs) if Bs else A.copy()
    if kind == CONTINUOUS:
        _require_metzler(A)
        if not hurwitz_metzler(M):
            return None
        v = np.linalg.solve(M, -np.ones(A.shape[0]))
    elif kind == DISCRETE:
        _require_nonnegative(A, "A")
        if spectral_radius(M) >= 1.0:
            return None
        v = np.linalg.solve(np.eye(A.shape[0]) - M, np.ones(A.shape[0]))
    else:
        raise ValueError(f"kind must be {CONTINUOUS!r} or {DISCRETE!r}")
    if np.min(v) <= 0.0:  # cannot happen for a stable Metzler/nonnegative M
        return None
    return v


def linear_model(A, B_list, kind: str) -> SystemModel:
    """Wrap matrices as a SystemModel (standard dilation, degree zero)."""
    from .model import Dilation

    A = _as_matrix(A, "A")
    fields = tuple(PolyVectorField.from_matrix(B) for B in B_list)
    if not fields:
        fields = (PolyVectorField.zero(A.shape[0]),)
    return SystemModel(
        kind=kind,
        f=PolyVectorField.from_matrix(A),
        delayed_terms=fields,
        dilation=Dilation((1.0,) * A.shape[0]),
        degree=0.0,
    )


# -- nonlinear route ----------------------------------------------------------


def _margin_evaluator(model: SystemModel) -> Callable[[Sequence[float]], list[float]] | None:
    """margins(v): `margins(model, v)` from the C function `margins_at`
    (see the module docstring), bound to the system's term tables once;
    None where `native.load` cannot build its source.

    It sums, bit for bit, as the kernel path does: f_i(v) + (g_0,i(v) +
    g_1,i(v) + ...), minus v_i in discrete time.  A power that overflows
    raises OverflowError.  The arguments are ctypes values built here, so
    a call converts nothing but v, and `margins_at` returns a C int,
    ctypes' default result type.  Binding costs more than a few dozen
    kernel calls, so only the search, which scores thousands of rays,
    builds one.
    """
    import ctypes

    from . import native, simulate

    lib = native.load(simulate._SOURCE)
    if lib is None:
        return None
    fn, i64 = lib.margins_at, ctypes.c_int64
    tables = field_tables((model.f, *model.delayed_terms))
    x, out = (ctypes.c_double * model.n)(), (ctypes.c_double * model.n)()
    args = (i64(model.n), i64(len(model.delayed_terms)), i64(model.is_discrete), x, out,
            *(ctypes.c_void_p(a.ctypes.data) for a in tables))

    def evaluate(v: Sequence[float], tables=tables) -> list[float]:  # tables: kept alive for args
        x[:] = v
        if fn(*args):
            raise OverflowError("a power in the margins overflowed")
        return out[:]

    return evaluate


def _names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def _define(name: str, args: str, body: list[str], ns: dict) -> Callable:
    """The function name(args) with the statements body.  Every name in ns
    that body reads is bound as a keyword default, a local, which is
    faster to read than a global."""
    defaults = "".join(f", {k}={k}" for k in ns)
    defined: dict = {}
    exec("\n    ".join([f"def {name}({args}{defaults}):", *body]), ns, defined)
    return defined[name]


@functools.cache
def _refine_sweep(n: int) -> Callable:
    """refine(model, u, iters, evaluator) -> (u, score): multiplicative
    coordinate descent on a simplex direction of dimension n.  Each
    candidate scales one u_j by 1 + delta or 1 / (1 + delta), is
    renormalized and is scored by its worst normalized margin, the largest
    m_i / u_i (lower is better).  With iters = 0 it scores u alone."""
    X, M = _names("x", n), _names("m", n)

    def score(vec: str, dest: str) -> list[str]:
        lines = [f"{', '.join(M)}, = certify.margins(model, {vec}, evaluator)", f"{dest} = m0 / x0"]
        for m, x in zip(M[1:], X[1:]):
            lines += [f"t = {m} / {x}", f"if t > {dest}: {dest} = t"]
        return lines

    body = [f"{', '.join(X)}, = u", *score("u", "score"), "delta = 0.5", "for _ in range(iters):"]
    body += [
        "    improved = False",
        "    factors = (1.0 + delta, 1.0 / (1.0 + delta))",
        f"    for j in range({n}):",
        "        for factor in factors:",
        "            w = u.copy()",
        "            w[j] *= factor",
        "            total = sum(w)",
        f"            {', '.join(X)}, = w",
        f"            {', '.join(X)}, = w = [{', '.join(f'{x} / total' for x in X)}]",
        *(f"            {line}" for line in score("w", "s")),
        "            if s < score:",
        "                u, score = w, s",
        "                improved = True",
        "    if not improved:",
        "        delta *= 0.5",
        "        if delta < 1e-9:",
        "            break",
        "return u, score",
    ]
    return _define("refine", "model, u, iters, evaluator", body, {"certify": sys.modules[__name__]})


def find_certificate_nonlinear(model: SystemModel, seed: int = 0) -> np.ndarray | None:
    """Best-effort certificate search for a homogeneous model.

    Homogeneity makes the margin signs constant along dilation orbits, so
    only simplex directions are sampled; the most promising rays are then
    refined by coordinate descent.  For discrete systems of positive degree
    every direction admits a certificate after shrinking along its orbit,
    so a feasible scale is computed directly.

    `seed` seeds the random directions.  Returns a verified certificate
    vector, or None once the budget is exhausted.  None does NOT prove that
    no certificate exists.  A field that fails the exact homogeneity check
    raises HypothesisError.
    """
    n = model.n
    if RAY_SAMPLES < n:
        raise ValueError(f"RAY_SAMPLES={RAY_SAMPLES} must be at least n={n}")
    for field_ in (model.f, *model.delayed_terms):
        ok, witness = is_homogeneous(field_, model.dilation, model.degree)
        if not ok:
            raise HypothesisError(f"model failed the exact homogeneity check: {witness}")
    evaluator = _margin_evaluator(model)

    rng = np.random.default_rng(seed)
    rays: list[list[float]] = [[1.0 / n] * n]
    for i in range(n):
        corner = [0.1 / max(n - 1, 1)] * n
        corner[i] = 0.9
        total = sum(corner)
        rays.append([c / total for c in corner])
    for row in rng.dirichlet(np.ones(n), size=RAY_SAMPLES):
        rays.append([max(float(x), 1e-12) for x in row])

    refine = _refine_sweep(n)
    scored = sorted(((refine(model, u, 0, evaluator)[1], k) for k, u in enumerate(rays)))
    best_u, best_score = None, math.inf
    for s0, k in scored[: max(4, n)]:
        u, s = refine(model, list(rays[k]), REFINE_ITERS, evaluator)
        if s < best_score:
            best_u, best_score = u, s

    if best_u is None:
        return None

    if model.is_discrete and model.degree > 0.0:
        # pick a point far enough down the dilation orbit of the best ray:
        # f + g scales by lam**(p + r_i) against the identity's lam**r_i,
        # so any lam**p below min_i u_i / h_i(u) gives strict margins
        h = model.f.evaluate(best_u)
        gsum = model.delayed_sum_at(best_u)
        ratios = []
        for ui, hi, gi in zip(best_u, h, gsum):
            total = hi + gi
            if total > 0.0:
                ratios.append(ui / total)
            elif total < 0.0:
                return None  # violates the non-decreasing regime; give up
        lam_p = 0.5 * min(ratios) if ratios else 0.5
        lam = lam_p ** (1.0 / model.degree)
        candidate = dilate(model.dilation, lam, best_u)
    else:
        if best_score >= 0.0:
            return None
        candidate = tuple(best_u)

    cert = verify_certificate(model, candidate, provenance="ray-search")
    return np.array(cert.v) if cert.valid else None
