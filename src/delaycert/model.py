"""Core data types for positive-system stability analysis.

Polynomial vector fields with anisotropic dilations, system descriptions
(continuous or discrete, with one or more delayed coupling terms), stability
certificates, and the weighted max-type Lyapunov function

    V(x) = max_i (x_i / v_i) ** (r_max / r_i)

which reduces to the weighted l-infinity norm under the standard dilation.

`ScalarPoly` is the one store of polynomial terms: it checks and
normalises a term list and builds its sparse form, which lists only the
nonzero exponents, once, on first use.  A `PolyVectorField` builds one
`ScalarPoly` per component when it is constructed and keeps it; its
`components`, its sparse form, `component_poly` and `jacobian` all read
those stored rows, so no row is checked or built twice.

Every polynomial, scalar or vector, is evaluated by one monomial kernel,
`_sum_monomials`, over that sparse form.  `field_tables` lists the same
terms, in the same order, as the arrays that the one fixed C source in
`simulate` reads: its term walk serves the RK4 kernel, the discrete map
and the certificate search's margins, so no code is generated from a
system.  The kernel stays the reference, the path of every one-shot
evaluation and of every run where no C compiler is found, and the path
of a power that overflows, which it counts as a signed infinity.  The
kernel and the C walk must agree bit for bit, so a change to the order or
form of the arithmetic in one is made in the other.  Nothing built from a
system is kept: the simulator binds the C walk to a system's tables once
per run and the search once per search.  `lyapunov_v` evaluates V at one
point or at every row of an array in one numpy expression.

All types are immutable values after construction; every operation in this
module is pure and safe to call concurrently (two threads that build the
same sparse form at once build equal values).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

Term = tuple[float, tuple[int, ...]]
# a term with its nonzero exponents as (variable, exponent) pairs
SparseTerm = tuple[float, tuple[int, ...], tuple[tuple[int, int], ...]]

CONTINUOUS = "continuous"
DISCRETE = "discrete"


def _overflow_value(coeff: float, x: Sequence[float], exps: tuple[int, ...]) -> float:
    """Signed infinity for a monomial whose magnitude overflowed float range."""
    sign = 1.0 if coeff >= 0.0 else -1.0
    for xi, e in zip(x, exps):
        if xi < 0.0 and e % 2:
            sign = -sign
    return sign * math.inf


def _sum_monomials(
    polys: tuple[tuple[SparseTerm, ...], ...], x: Sequence[float]
) -> list[float]:
    """Each polynomial's sum of coeff * prod_j x_j**e_j over its sparse terms.

    Factors are multiplied in variable order and x_j**1 is taken as x_j, so
    each sum equals, bit for bit, a loop over every exponent that skips the
    zero ones.  A monomial whose power overflows counts as a signed
    infinity.
    """
    out = []
    for terms in polys:
        acc = 0.0
        for coeff, exps, factors in terms:
            try:
                val = coeff
                for j, e in factors:
                    if e == 1:
                        val *= x[j]
                    else:
                        val *= x[j] ** e
            except OverflowError:
                val = _overflow_value(coeff, x, exps)
            acc += val
        out.append(acc)
    return out


def field_tables(fields: Sequence[PolyVectorField]) -> tuple[np.ndarray, ...]:
    """(span, coeff, first, var, power, odd): the sparse terms of
    fields[0] + fields[1] + ..., in the order `_sum_monomials` sums them,
    as arrays for the C term walk of `simulate`.

    The terms of component i of fields[q] are span[s] .. span[s + 1] - 1,
    s = i * len(fields) + q.  Term t is coeff[t] times its factors
    first[t] .. first[t + 1] - 1, in variable order; factor f is variable
    var[f] to the power power[f], the exponent as the float that Python's
    float ** int takes, or inf where it does not fit a float and ** raises
    OverflowError; odd[f] is 1 where that float is odd.  The coefficients
    keep their bits, so one kernel serves every system.
    """
    groups = [F._sparse[i] for i in range(fields[0].n) for F in fields]
    terms = [term for group in groups for term in group]
    var, power = [], []
    for _, _, factors in terms:
        for j, e in factors:
            var.append(j)
            try:
                power.append(float(e))
            except OverflowError:  # so does x ** e
                power.append(math.inf)
    i64 = np.int64
    return (np.cumsum([0, *map(len, groups)], dtype=i64),
            np.array([c for c, _, _ in terms], dtype=float),
            np.cumsum([0, *(len(factors) for _, _, factors in terms)], dtype=i64),
            np.array(var, dtype=i64),
            np.array(power, dtype=float),
            np.array([w % 2.0 == 1.0 for w in power], dtype=i64))


@dataclass(frozen=True)
class Dilation:
    """Positive scaling exponents (r_1, ..., r_n) of an anisotropic dilation.

    The associated map sends x to (lam**r_1 * x_1, ..., lam**r_n * x_n) for
    lam > 0.  All exponents equal to 1 gives the standard dilation (plain
    scalar multiplication).
    """

    r: tuple[float, ...]

    def __post_init__(self):
        rs = tuple(float(ri) for ri in self.r)
        if not rs:
            raise ValueError("dilation needs at least one exponent")
        if not all(0.0 < ri < math.inf for ri in rs):
            raise ValueError(f"dilation exponents must be finite and positive, got {rs}")
        object.__setattr__(self, "r", rs)

    @property
    def n(self) -> int:
        return len(self.r)

    @cached_property
    def r_max(self) -> float:
        return max(self.r)


def dilate(d: Dilation, lam: float, x: Sequence[float]) -> tuple[float, ...]:
    """Apply the dilation map: (lam**r_1 * x_1, ..., lam**r_n * x_n)."""
    if lam <= 0.0:
        raise ValueError(f"dilation parameter must be positive, got {lam}")
    if len(x) != d.n:
        raise ValueError(f"dimension mismatch: dilation has n={d.n}, point has {len(x)}")
    return tuple(lam ** ri * xi for ri, xi in zip(d.r, x))


@dataclass(frozen=True)
class ScalarPoly:
    """Polynomial in n variables, stored as monomial terms (coeff, exponents).

    The one place where a term list is checked and normalised: each
    exponent tuple must have n nonnegative integer entries (1.0 counts as
    1, 1.5 is an error), and terms are kept as (float, tuple of ints).
    """

    n: int
    terms: tuple[Term, ...]

    def __post_init__(self):
        norm = []
        for coeff, given in self.terms:
            exps = tuple(int(e) for e in given)
            if len(exps) != self.n:
                raise ValueError(f"term exponent tuple {exps} does not match n={self.n}")
            if exps != tuple(given) or any(e < 0 for e in exps):
                raise ValueError(f"exponents must be nonnegative integers, got {tuple(given)}")
            norm.append((float(coeff), exps))
        object.__setattr__(self, "terms", tuple(norm))

    @cached_property
    def _sparse(self) -> tuple[SparseTerm, ...]:
        return tuple(
            (coeff, exps, tuple((j, e) for j, e in enumerate(exps) if e))
            for coeff, exps in self.terms
        )

    def evaluate(self, x: Sequence[float]) -> float:
        if len(x) != self.n:
            raise ValueError(f"dimension mismatch: poly has n={self.n}, point has {len(x)}")
        return _sum_monomials((self._sparse,), x)[0]

    def diff(self, j: int) -> "ScalarPoly":
        """Exact partial derivative with respect to variable j (power rule)."""
        out = []
        for coeff, exps in self.terms:
            e = exps[j]
            if e == 0:
                continue
            new = list(exps)
            new[j] = e - 1
            out.append((coeff * e, tuple(new)))
        return ScalarPoly(self.n, tuple(out))

    def restrict_zero(self, j: int) -> "ScalarPoly":
        """Substitute x_j = 0, dropping every term that contains x_j."""
        return ScalarPoly(self.n, tuple(t for t in self.terms if t[1][j] == 0))

    @property
    def has_nonnegative_coefficients(self) -> bool:
        return all(c >= 0.0 for c, _ in self.terms)


@dataclass(frozen=True)
class PolyVectorField:
    """Vector field R^n -> R^n with polynomial components.

    Component i holds monomial terms (coeff, exponents); exponents are
    nonnegative integers, so evaluation, differentiation, homogeneity and
    sign-of-coefficient checks are all exact.
    """

    n: int
    components: tuple[tuple[Term, ...], ...]
    _rows: tuple[ScalarPoly, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.components) != self.n:
            raise ValueError(
                f"field must have one component per dimension: n={self.n}, "
                f"got {len(self.components)} components"
            )
        rows = tuple(ScalarPoly(self.n, comp) for comp in self.components)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "components", tuple(row.terms for row in rows))

    # -- evaluation ---------------------------------------------------------

    @cached_property
    def _sparse(self) -> tuple[tuple[SparseTerm, ...], ...]:
        return tuple(row._sparse for row in self._rows)

    def evaluate(self, x: Sequence[float]) -> list[float]:
        if len(x) != self.n:
            raise ValueError(f"dimension mismatch: field has n={self.n}, point has {len(x)}")
        return _sum_monomials(self._sparse, x)

    def component_poly(self, i: int) -> ScalarPoly:
        return self._rows[i]

    # -- algebra ------------------------------------------------------------

    def scaled(self, c: float) -> "PolyVectorField":
        comps = tuple(
            tuple((c * coeff, exps) for coeff, exps in terms) for terms in self.components
        )
        return PolyVectorField(self.n, comps)

    # -- structure ----------------------------------------------------------

    @property
    def is_linear(self) -> bool:
        return all(
            sum(exps) == 1 for terms in self.components for _, exps in terms
        )

    @property
    def vanishes_at_origin(self) -> bool:
        """True when every (nonzero) monomial has total degree >= 1."""
        return all(
            sum(exps) >= 1
            for terms in self.components
            for coeff, exps in terms
            if coeff != 0.0
        )

    def to_matrix(self) -> list[list[float]]:
        """Extract the matrix A of a linear field x -> A x."""
        if not self.is_linear:
            raise ValueError("field is not linear")
        A = [[0.0] * self.n for _ in range(self.n)]
        for i, terms in enumerate(self.components):
            for coeff, exps in terms:
                j = exps.index(1)
                A[i][j] += coeff
        return A

    @classmethod
    def zero(cls, n: int) -> "PolyVectorField":
        return cls(n, tuple(() for _ in range(n)))

    @classmethod
    def from_matrix(cls, A) -> "PolyVectorField":
        """Linear field x -> A x from a square matrix (rows = components)."""
        rows = [list(map(float, row)) for row in A]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        comps = []
        for row in rows:
            terms = []
            for j, a in enumerate(row):
                if a != 0.0:
                    exps = [0] * n
                    exps[j] = 1
                    terms.append((a, tuple(exps)))
            comps.append(tuple(terms))
        return cls(n, tuple(comps))

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "components": [
                [{"coeff": coeff, "exp": list(exps)} for coeff, exps in terms]
                for terms in self.components
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PolyVectorField":
        if set(d) != {"n", "components"}:
            raise ValueError(f"vector field document must have keys n, components; got {sorted(d)}")
        comps = tuple(
            tuple((term["coeff"], tuple(term["exp"])) for term in comp)
            for comp in d["components"]
        )
        return cls(int(d["n"]), comps)


def jacobian(F: PolyVectorField) -> tuple[tuple[ScalarPoly, ...], ...]:
    """Exact symbolic Jacobian: entry (i, j) is d F_i / d x_j (power rule)."""
    return tuple(tuple(row.diff(j) for j in range(F.n)) for row in F._rows)


def is_homogeneous(
    F: PolyVectorField, d: Dilation, p: float, tol: float = 1e-12
) -> tuple[bool, dict | None]:
    """Exact homogeneity test against a dilation.

    F is homogeneous of degree p with respect to exponents r exactly when
    every monomial of component i has weighted degree sum_l e_l * r_l equal
    to p + r_i.  Returns (ok, witness); the witness names the offending
    component and term.
    """
    if F.n != d.n:
        raise ValueError("dimension mismatch between field and dilation")
    for i, terms in enumerate(F.components):
        expected = p + d.r[i]
        for coeff, exps in terms:
            if coeff == 0.0:
                continue
            wdeg = sum(e * ri for e, ri in zip(exps, d.r))
            if abs(wdeg - expected) > tol:
                return False, {
                    "component": i,
                    "term": {"coeff": coeff, "exp": list(exps)},
                    "weighted_degree": wdeg,
                    "expected": expected,
                }
    return True, None


@dataclass(frozen=True)
class SystemModel:
    """Delayed dynamical system description.

    Continuous:  x'(t)   = f(x(t)) + sum_q g_q(x(t - tau_q(t)))
    Discrete:    x(k+1)  = f(x(k)) + sum_q g_q(x(k - d_q(k)))

    All fields share dimension n and are declared homogeneous of `degree`
    with respect to `dilation` (verified by the hypothesis checks, not by
    this constructor).  For discrete systems, global stability claims need
    degree 0; positive degree supports local claims only.
    """

    kind: str
    f: PolyVectorField
    delayed_terms: tuple[PolyVectorField, ...]
    dilation: Dilation
    degree: float

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, DISCRETE):
            raise ValueError(f"kind must be {CONTINUOUS!r} or {DISCRETE!r}, got {self.kind!r}")
        gs = tuple(self.delayed_terms)
        if not gs:
            raise ValueError("at least one delayed term is required (use a zero field if none)")
        object.__setattr__(self, "delayed_terms", gs)
        n = self.f.n
        if any(g.n != n for g in gs) or self.dilation.n != n:
            raise ValueError("all fields and the dilation must share one dimension")
        if float(self.degree) < 0.0:
            raise ValueError(f"degree must be nonnegative, got {self.degree}")
        object.__setattr__(self, "degree", float(self.degree))
        for name, field_ in (("f", self.f), *((f"g_{q}", g) for q, g in enumerate(gs))):
            if not field_.vanishes_at_origin:
                raise ValueError(f"field {name} must vanish at the origin (no constant terms)")

    @property
    def n(self) -> int:
        return self.f.n

    @property
    def is_discrete(self) -> bool:
        return self.kind == DISCRETE

    def delayed_sum_at(self, x: Sequence[float]) -> list[float]:
        """sum_q g_q(x), the total delayed coupling evaluated at one point."""
        total = [0.0] * self.n
        for g in self.delayed_terms:
            gx = g.evaluate(x)
            for i in range(self.n):
                total[i] += gx[i]
        return total


def lyapunov_v(v: Sequence[float], d: Dilation, x) -> float | np.ndarray:
    """Weighted max-type Lyapunov function max_i (x_i/v_i)**(r_max/r_i).

    x is one point of shape (n,), giving a float, or an array of points of
    shape (m, n), giving V at every row as an array of shape (m,).
    Requires x >= 0 and v > 0.  Under the standard dilation this is the
    weighted l-infinity norm max_i x_i / v_i.
    """
    w = np.asarray(v, dtype=float)
    pts = np.asarray(x, dtype=float)
    if w.shape != (d.n,) or pts.ndim not in (1, 2) or pts.shape[-1] != d.n:
        raise ValueError("dimension mismatch in lyapunov_v")
    if w.min() <= 0.0:
        raise ValueError(f"weight vector must be positive, got {w.min()}")
    if pts.size and pts.min() < 0.0:
        raise ValueError(f"negative state component {pts.min()} outside the positive orthant")
    # float_power, unlike np.power, keeps the C library's pow on every
    # element, so V is the same bit for bit whether it is computed at one
    # point or over a whole trajectory (np.power may dispatch to a SIMD
    # approximation that differs in the last bit)
    vals = np.float_power(pts / w, np.divide(d.r_max, d.r)).max(axis=-1, initial=0.0)
    return float(vals) if pts.ndim == 1 else vals


@dataclass(frozen=True)
class Certificate:
    """Positive vector v with the per-component stability margins.

    Continuous margins: f_i(v) + sum_q g_{q,i}(v); discrete margins subtract
    v_i.  The certificate is valid when every margin is strictly negative
    (strictness enforced with a relative tolerance by the verifier).

    f_v and g_v are f(v) and sum_q g_q(v) of the model that verified a
    valid certificate, kept so that the rate bounds do not evaluate them
    again; they are not part of its value.
    """

    v: tuple[float, ...]
    margins: tuple[float, ...]
    valid: bool
    provenance: str = "user-supplied"
    claim: str = "global"
    f_v: tuple[float, ...] | None = field(default=None, compare=False, repr=False)
    g_v: tuple[float, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "v", tuple(float(x) for x in self.v))
        object.__setattr__(self, "margins", tuple(float(x) for x in self.margins))
        if min(self.v) <= 0.0:
            raise ValueError("certificate vector must be strictly positive")

    def to_dict(self) -> dict:
        return {
            "v": list(self.v),
            "margins": list(self.margins),
            "valid": self.valid,
            "provenance": self.provenance,
            "claim": self.claim,
        }


@dataclass(frozen=True)
class LevelSetProbe:
    """Geometric ladder of Lyapunov thresholds gamma**m * phi_norm.

    phi_norm is the sup of V over the initial history; the sublevel sets of
    V at these thresholds are nested, and a converging trajectory enters
    each one at some finite time and stays inside.
    """

    gamma: float
    phi_norm: float

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        if self.phi_norm < 0.0:
            raise ValueError(f"phi_norm must be nonnegative, got {self.phi_norm}")

    def threshold(self, m: int) -> float:
        if m < 0:
            raise ValueError("threshold index must be nonnegative")
        return self.gamma ** m * self.phi_norm if m else self.phi_norm
