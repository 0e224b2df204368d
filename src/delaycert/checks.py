"""Standing-hypothesis checks for delayed positive systems.

Decides whether a system model and a delay model satisfy the regime the
stability theory needs: cooperativity of the undelayed field, monotonicity
of the delayed couplings, exact homogeneity against the declared dilation,
the sufficient positivity condition, and the delay admissibility conditions.

Verdicts are three-valued.  Cooperativity, monotonicity and positivity all
reduce to "this polynomial is >= 0 on the positive orthant (or on one of
its faces)", and one sign test decides every such claim.  A polynomial
whose monomials all have nonnegative coefficients is nonnegative there, so
that case is a proof.  With mixed coefficients the test samples a fixed
set of orthant points (`orthant_samples`), which can only refute (a
witness) or leave the verdict undetermined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .delays import DelayModel, history_depth
from .model import Dilation, PolyVectorField, ScalarPoly, SystemModel, is_homogeneous, jacobian

PASS = "pass"
FAIL = "fail"
UNDETERMINED = "undetermined"

MODE_PROOF = "proof"
MODE_SAMPLED = "sampled"
MODE_DECLARED = "declared"

_NEG_TOL = 1e-12  # sampled values below this count as genuinely negative

# Positive-orthant sample set of the sign test: log-uniform points over
# [SAMPLE_LO, SAMPLE_HI]**n (seeded, deterministic)
SAMPLE_POINTS = 200
SAMPLE_LO = 1e-3
SAMPLE_HI = 1e3
SAMPLE_SEED = 31415


def orthant_samples(n: int) -> list[tuple[float, ...]]:
    """The sample points in R^n: the all-ones point, the standard basis rays
    and the diagonal first, so that witnesses come out in a recognizable
    form, then SAMPLE_POINTS log-uniform points."""
    pts: list[tuple[float, ...]] = [(1.0,) * n]
    mags = np.geomspace(SAMPLE_LO, SAMPLE_HI, 9)
    for i in range(n):
        for m in [1.0, *mags]:
            ray = [0.0] * n
            ray[i] = float(m)
            pts.append(tuple(ray))
    pts += [(float(m),) * n for m in mags]
    u = np.random.default_rng(SAMPLE_SEED).random((SAMPLE_POINTS, n))
    span = math.log(SAMPLE_HI / SAMPLE_LO)
    pts += [tuple(SAMPLE_LO * math.exp(span * ui) for ui in row) for row in u]
    return pts


@dataclass(frozen=True)
class CheckResult:
    name: str
    verdict: str
    mode: str = ""
    witness: dict | None = None
    note: str = ""

    def to_dict(self) -> dict:
        d = {"verdict": self.verdict, "mode": self.mode}
        if self.witness is not None:
            d["witness"] = self.witness
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class HypothesisReport:
    """Named check results with an aggregate verdict (fail > undetermined > pass)."""

    checks: dict[str, CheckResult] = field(default_factory=dict)

    def add(self, result: CheckResult) -> None:
        self.checks[result.name] = result

    @property
    def verdict(self) -> str:
        verdicts = [c.verdict for c in self.checks.values()]
        if FAIL in verdicts:
            return FAIL
        if UNDETERMINED in verdicts:
            return UNDETERMINED
        return PASS

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "checks": {name: c.to_dict() for name, c in self.checks.items()},
        }


def check_homogeneity(
    F: PolyVectorField, d: Dilation, p: float, name: str = "homogeneity"
) -> CheckResult:
    """Exact test: every monomial of component i must have weighted degree
    p + r_i.  A pass is a proof, never a sampled verdict."""
    ok, witness = is_homogeneous(F, d, p)
    if ok:
        return CheckResult(name, PASS, MODE_PROOF)
    return CheckResult(name, FAIL, MODE_PROOF, witness)


def _sign_check(
    name: str, entries: Iterable[tuple[ScalarPoly, int | None, dict]], note: str
) -> CheckResult:
    """The orthant sign test behind every cooperativity, monotonicity and
    positivity check.

    Each entry (poly, face, labels) claims poly >= 0 on the positive
    orthant, or on its face x_face = 0 when face is not None.  Entries are
    walked in order.  One with nonnegative coefficients (after x_face = 0)
    is proven; otherwise the first sample point where poly < -_NEG_TOL is
    the witness, with the labels and the face.  Sampled entries without a
    witness leave the verdict undetermined.
    """
    samples = None
    for poly, face, labels in entries:
        if face is not None:
            poly = poly.restrict_zero(face)
        if poly.has_nonnegative_coefficients:
            continue
        if samples is None:
            samples = orthant_samples(poly.n)
        for raw in samples:
            x = raw if face is None else (*raw[:face], 0.0, *raw[face + 1:])
            val = poly.evaluate(x)
            if val < -_NEG_TOL:
                witness = {"point": list(x), "value": val, **labels}
                if face is not None:
                    witness["face"] = face
                return CheckResult(name, FAIL, MODE_SAMPLED, witness)
    if samples is None:
        return CheckResult(name, PASS, MODE_PROOF)
    return CheckResult(
        name, UNDETERMINED, MODE_SAMPLED,
        note=f"{note}; no violation found on {len(samples)} samples",
    )


def _jacobian_sign_check(F: PolyVectorField, name: str, diagonal: bool) -> CheckResult:
    J = jacobian(F)
    entries = (
        (J[i][j], None, {"entry": [i, j]})
        for i in range(F.n) for j in range(F.n) if diagonal or i != j
    )
    note = "mixed-sign entries" if diagonal else "mixed-sign off-diagonal entries"
    return _sign_check(name, entries, note)


def check_cooperative(F: PolyVectorField, name: str = "cooperative") -> CheckResult:
    """Off-diagonal Jacobian entries must be nonnegative on the orthant."""
    return _jacobian_sign_check(F, name, diagonal=False)


def check_nondecreasing(G: PolyVectorField, name: str = "nondecreasing") -> CheckResult:
    """All Jacobian entries (diagonal included) nonnegative on the orthant."""
    return _jacobian_sign_check(G, name, diagonal=True)


def check_positivity_condition(
    model: SystemModel, name: str = "positivity-condition"
) -> CheckResult:
    """Sufficient condition for forward invariance of the positive orthant.

    Continuous: every delayed coupling g_q >= 0 on the orthant, and each
    f_i >= 0 on the boundary face {x >= 0 : x_i = 0}.  Discrete: f >= 0 and
    every g_q >= 0 on the orthant.  The condition is sufficient only; with
    time-varying delays a system can be positive without it.
    """
    n = model.n
    entries = [
        (g.component_poly(i), None, {"field": f"g_{q}", "component": i})
        for q, g in enumerate(model.delayed_terms)
        for i in range(n)
    ]
    faces = [None] * n if model.is_discrete else range(n)
    entries += [
        (model.f.component_poly(i), face, {"field": "f", "component": i})
        for i, face in enumerate(faces)
    ]
    return _sign_check(name, entries, "some components have mixed-sign coefficients")


@dataclass(frozen=True)
class DelayAssumptionReport:
    """Delay admissibility: divergence of t - tau(t), proportional ratio,
    delay supremum when bounded, and the initial-history depth."""

    a5: str
    a51: str
    alpha: float | None
    tau_sup: float | None
    history_depth: float
    mode: str
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "divergence(a5)": self.a5,
            "proportional_ratio(a51)": self.a51,
            "alpha": self.alpha,
            "tau_sup": self.tau_sup,
            "history_depth": self.history_depth,
            "mode": self.mode,
            **({"note": self.note} if self.note else {}),
        }


def check_delay_assumption(delay: DelayModel, horizon: float) -> DelayAssumptionReport:
    """Assess a delay model up to `horizon`.

    Families with declared structure get exact verdicts.  The reported
    alpha is a certified ratio bound sup_{T < t <= horizon} tau(t)/t with
    T = horizon / 10; for bounded delays it shrinks toward zero as the
    horizon grows, for proportional delays it equals the exact ratio.
    Unknown (custom) delays are sampled on a log-spaced grid and the
    verdicts are empirical.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    depth = float(history_depth(delay, probe_horizon=max(horizon, 10.0)))

    if delay.diverges is not None:
        a5 = PASS if delay.diverges else FAIL
        note = ""
        if delay.tau_sup is not None:
            a51 = PASS
            T = horizon / 10.0
            # certified ratio bound over (T, horizon]; exact sup for a
            # constant delay, a safe upper bound otherwise
            alpha = delay.tau_sup / T
            if alpha >= 1.0:
                alpha = None
                note = "horizon too short to certify a ratio bound below 1"
        elif delay.alpha is not None:
            a51 = PASS
            alpha = delay.alpha
        else:
            a51 = FAIL
            alpha = None
        return DelayAssumptionReport(
            a5=a5, a51=a51, alpha=alpha, tau_sup=delay.tau_sup,
            history_depth=depth, mode=MODE_DECLARED, note=note,
        )

    # sampled path for structurally unknown delays
    ts = np.geomspace(1e-3, horizon, 4096)
    w = ts - delay.values(ts)
    head = w[: max(8, len(w) // 20)]
    tail = w[-max(8, len(w) // 20):]
    a5 = PASS if (tail.min() > max(0.0, head.max())) else FAIL
    T = horizon / 10.0
    mask = ts > T
    ratios = delay.values(ts[mask]) / ts[mask]
    rmax = float(ratios.max()) if ratios.size else None
    if rmax is None or rmax >= 0.98:
        a51 = UNDETERMINED
        alpha = None
        note = "ratio too close to 1 within the horizon to certify a proportional bound"
    else:
        a51 = PASS
        alpha = rmax
        note = ""
    return DelayAssumptionReport(
        a5=a5, a51=a51, alpha=alpha, tau_sup=None,
        history_depth=depth, mode=MODE_SAMPLED, note=note,
    )


def check_model(model: SystemModel) -> HypothesisReport:
    """Run every structural hypothesis check the model's kind requires."""
    report = HypothesisReport()
    report.add(check_homogeneity(model.f, model.dilation, model.degree, name="homogeneity:f"))
    for q, g in enumerate(model.delayed_terms):
        report.add(check_homogeneity(g, model.dilation, model.degree, name=f"homogeneity:g_{q}"))
    if model.is_discrete:
        report.add(check_nondecreasing(model.f, name="nondecreasing:f"))
    else:
        report.add(check_cooperative(model.f, name="cooperative:f"))
    for q, g in enumerate(model.delayed_terms):
        report.add(check_nondecreasing(g, name=f"nondecreasing:g_{q}"))
    report.add(check_positivity_condition(model))
    return report
