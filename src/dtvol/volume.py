"""Longitude eigenvalue, Schlafli integrand, and cone-manifold volumes.

Vol(alpha) = integral over [alpha, pi] of log|L|, where L is the longitude
eigenvalue evaluated along the geometric branch and log|L| vanishes
identically on [alpha_K, pi] (real characters there force |L| = 1).  Below
alpha_K, log|L| grows like sqrt(alpha_K - omega) (the branch leaves the real
axis in a square-root fold), so the integral is taken in u = sqrt(alpha_K -
omega), where the integrand 2u log|L|(alpha_K - u^2) is smooth at both ends:
Vol(alpha) = integral over [0, sqrt(alpha_K - alpha)] of that, for every
alpha >= 0.  The branch is tracked in the same u (``solver.geometric_branch``)
and evaluated between its samples by interpolation in u plus structured
Newton.  Adaptive Gauss-Kronrod panels evaluate the integral; an adaptive
Simpson rule is available as an independent cross-check.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .chebyshev import eval_pair
from .solver import (
    DEFAULT_STEP,
    Branch,
    BranchPoint,
    ContinuationAmbiguousError,
    SeedCandidate,
    _struct_root,
    geometric_branch,
    imcond_value,
    omega_to_M,
    roots_of_coeffs,  # unused here; perfbench/tracing.py wraps this binding
)
from .words import KnotParam

class DegenerateLongitudeError(ArithmeticError):
    """Longitude denominator vanished at the requested point."""


class NegativeIntegrandError(ArithmeticError):
    """|L| < 1 along the branch: the selected branch is not geometric."""


class QuadratureNotConvergedError(ArithmeticError):
    """Adaptive quadrature exhausted its budget; carries the best estimate."""

    def __init__(self, message: str, best: float, err: float):
        super().__init__(message)
        self.best = best
        self.err = err


def longitude_L(knot: KnotParam, z: complex, M: complex) -> complex:
    """Longitude eigenvalue (upper-left entry of rho(lambda)).

    odd  k = 2m+1: L = -M^{-4n} (S_m/M - M S_{m-1}) / (M S_m - S_{m-1}/M)
    even k = 2m:   L = -(A/M - M B) / (M A - B/M),
                   A = S_m - S_{m-1}, B = S_{m-1} - S_{m-2}.
    """
    pair = eval_pair(knot.m, z)
    sm, sm1 = pair.s_j, pair.s_jm1
    Minv = 1.0 / M
    if knot.odd:
        num = Minv * sm - M * sm1
        den = M * sm - Minv * sm1
        factor = M ** (-4 * knot.n)
    else:
        a = sm - sm1
        b = sm1 - (z * sm1 - sm)  # S_{m-1} - S_{m-2}
        num = Minv * a - M * b
        den = M * a - Minv * b
        factor = 1.0
    scale = max(abs(num), abs(den), 1.0)
    if abs(den) <= 1e-14 * scale:
        raise DegenerateLongitudeError(
            f"{knot}: longitude denominator vanished at z = {z}"
        )
    return -factor * num / den


def integrand(knot: KnotParam, bp: BranchPoint) -> float:
    """log|L| >= 0 at a branch point (half the real longitude length).

    The branch condition imcond <= 0 makes |L| >= 1; a value below
    1 - 1e-8 means the branch upstream is not the geometric one.
    """
    if bp.z.imag == 0.0:
        return 0.0
    L = longitude_L(knot, bp.z, bp.M)
    mag = abs(L)
    if mag < 1.0 - 1e-8:
        raise NegativeIntegrandError(
            f"{knot}: |L| = {mag:.12f} < 1 at omega = {bp.omega:.6f}; "
            "branch selection failed upstream"
        )
    return max(math.log(mag), 0.0)


# ---------------------------------------------------------------------------
# branch evaluation at arbitrary omega
# ---------------------------------------------------------------------------


class _BranchEvaluator:
    """z(omega) below alpha_K: the branch samples interpolated linearly in
    u = sqrt(alpha_K - omega), where the root is analytic, then Newton on the
    structured evaluation of Phi.  The twin of the root is its exact
    conjugate (Phi has real coefficients), so the result is kept on the
    branch's side of the real axis."""

    def __init__(self, branch: Branch):
        self.branch = branch
        self.knot = branch.knot
        below = [bp for bp in reversed(branch.points) if bp.omega <= branch.alpha_K]
        self.us = [math.sqrt(branch.alpha_K - bp.omega) for bp in below]
        self.zs = [bp.z for bp in below]

    def z_at(self, omega: float) -> complex:
        us, zs = self.us, self.zs
        u = math.sqrt(self.branch.alpha_K - omega)
        i = min(max(bisect_left(us, u), 1), len(us) - 1)
        z_pred = zs[i - 1] + (u - us[i - 1]) / (us[i] - us[i - 1]) * (zs[i] - zs[i - 1])
        z, ok = _struct_root(self.knot, omega, z_pred, form=self.branch.form)
        if z.imag * zs[-1].imag < 0:
            z = z.conjugate()
        if not ok or abs(z - z_pred) > abs(zs[i] - zs[i - 1]) + 1e-9 * (1.0 + abs(z)):
            raise ContinuationAmbiguousError(
                f"{self.knot}: Newton from the branch samples did not settle on "
                f"the branch at omega = {omega:.6f}"
            )
        return z

    def point_at(self, omega: float) -> BranchPoint:
        z = self.z_at(omega)
        return BranchPoint(omega, omega_to_M(omega), z, imcond_value(self.knot, z))

    def logL(self, omega: float) -> float:
        return integrand(self.knot, self.point_at(omega))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

# 7-point Gauss / 15-point Kronrod nodes and weights (QUADPACK dqk15)
_XGK = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.000000000000000000000000000000000,
    ]
)
_WGK = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
_WG = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    ]
)


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod panel: (integral, error estimate)."""
    hl = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fc = f(mid)
    resg = _WG[3] * fc
    resk = _WGK[7] * fc
    resabs = _WGK[7] * abs(fc)
    fv = np.empty(14)
    for j in range(7):
        x = hl * _XGK[j]
        f1, f2 = f(mid - x), f(mid + x)
        fv[j], fv[7 + j] = f1, f2
        resk += _WGK[j] * (f1 + f2)
        resabs += _WGK[j] * (abs(f1) + abs(f2))
        if j % 2 == 1:
            resg += _WG[(j - 1) // 2] * (f1 + f2)
    reskh = 0.5 * resk
    resasc = _WGK[7] * abs(fc - reskh)
    for j in range(7):
        resasc += _WGK[j] * (abs(fv[j] - reskh) + abs(fv[7 + j] - reskh))
    result = resk * hl
    resasc *= abs(hl)
    resabs *= abs(hl)
    err = abs((resk - resg) * hl)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    eps = np.finfo(float).eps
    if resabs > np.finfo(float).tiny / (50.0 * eps):
        err = max(err, 50.0 * eps * resabs)
    return result, err


def _adaptive_gk(f, a: float, b: float, tol: float,
                 max_panels: int = 4000) -> tuple[float, float]:
    """Globally adaptive bisection on Gauss-Kronrod panels."""
    if b <= a:
        return 0.0, 0.0
    panels = [(a, b, *_gk15(f, a, b))]
    min_width = 1e-13 * (b - a)
    while True:
        total = sum(p[2] for p in panels)
        err = sum(p[3] for p in panels)
        if err <= tol:
            return total, err
        if len(panels) >= max_panels:
            raise QuadratureNotConvergedError(
                f"quadrature did not reach tol={tol:.1e} within {max_panels} panels "
                f"(best {total!r} +- {err:.2e})",
                best=total,
                err=err,
            )
        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        lo, hi, _, _ = panels[worst]
        if hi - lo <= min_width:
            # cannot refine further; accept the current estimate
            return total, err
        del panels[worst]
        mid = 0.5 * (lo + hi)
        panels.append((lo, mid, *_gk15(f, lo, mid)))
        panels.append((mid, hi, *_gk15(f, mid, hi)))


def _adaptive_simpson(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Independent cross-check rule (recursive Simpson with Richardson)."""
    if b <= a:
        return 0.0, 0.0

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def rec(x0, x2, f0, f1, f2, whole, eps, depth):
        xm = 0.5 * (x0 + x2)
        lm, rm = 0.5 * (x0 + xm), 0.5 * (xm + x2)
        flm, frm = f(lm), f(rm)
        left = simpson(x0, xm, f0, flm, f1)
        right = simpson(xm, x2, f1, frm, f2)
        delta = left + right - whole
        if depth <= 0 or abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0, abs(delta) / 15.0
        lv, le = rec(x0, xm, f0, flm, f1, left, 0.5 * eps, depth - 1)
        rv, re = rec(xm, x2, f1, frm, f2, right, 0.5 * eps, depth - 1)
        return lv + rv, le + re

    f0, f1, f2 = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(a, b, f0, f1, f2)
    return rec(a, b, f0, f1, f2, whole, tol, 48)


# ---------------------------------------------------------------------------
# volumes
# ---------------------------------------------------------------------------


@dataclass
class VolumeResult:
    """Cone volume at one angle, with the detected Euclidean angle and the
    quadrature error estimate."""

    knot: KnotParam
    alpha: float
    alpha_K: float
    volume: float
    quad_error: float
    branch_diagnostics: list[SeedCandidate] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "k": self.knot.k,
            "n": self.knot.n,
            "alpha": self.alpha,
            "alpha_K": self.alpha_K,
            "volume": self.volume,
            "quad_error": self.quad_error,
            "candidates": [
                {
                    "z": [c.z.real, c.z.imag],
                    "imcond": c.imcond,
                    "selected": c.selected,
                }
                for c in self.branch_diagnostics
            ],
        }


def _spot_check_real_regime(ev: _BranchEvaluator, alpha_K: float) -> None:
    """|log|L|| must stay below 1e-7 on (alpha_K, pi] (unit-modulus regime)."""
    knot = ev.branch.knot
    for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
        om = alpha_K + frac * (math.pi - alpha_K)
        bp = ev.branch.point_at_or_below(om)
        if bp.omega <= alpha_K:
            continue
        try:
            mag = abs(longitude_L(knot, bp.z, bp.M))
        except DegenerateLongitudeError:
            continue
        if mag <= 0 or abs(math.log(mag)) > 1e-7:
            raise NegativeIntegrandError(
                f"{knot}: |log|L|| = {abs(math.log(mag)):.2e} above alpha_K "
                f"at omega = {bp.omega:.4f}"
            )


def _integrate_volume(
    ev: _BranchEvaluator,
    alpha: float,
    alpha_K: float,
    tol: float,
    rule: str,
) -> tuple[float, float]:
    """Vol(alpha) in u = sqrt(alpha_K - omega).

    The integrand is 0 at u = 0 by its factor u; it is not evaluated there,
    because at the fold the root is double and its side undecided."""

    def g(u: float) -> float:
        return 2.0 * u * ev.logL(alpha_K - u * u) if u > 0.0 else 0.0

    if rule == "gk":
        return _adaptive_gk(g, 0.0, math.sqrt(alpha_K - alpha), tol)
    if rule == "simpson":
        return _adaptive_simpson(g, 0.0, math.sqrt(alpha_K - alpha), tol)
    raise ValueError(f"unknown quadrature rule {rule!r}")


def seed_angle(alpha: float) -> float:
    """Seed angle of the branch that serves volumes at angles >= alpha."""
    return max(min(alpha, 0.1), 1e-4)


def cone_volume(
    knot: KnotParam,
    alpha: float,
    tol: float = 1e-9,
    *,
    step: float = DEFAULT_STEP,
    rule: str = "gk",
    form: str = "closed",
    branch: Branch | None = None,
) -> VolumeResult:
    """Vol(X_{J(k,2n)}(alpha)) by Schlafli integration along the geometric branch.

    alpha in [0, pi]; alpha = 0 is the complete structure.  The integral is
    taken over u = sqrt(alpha_K - omega) in [0, sqrt(alpha_K - alpha)], with
    alpha_K the fold where the branch lands on the real axis.  tol is the
    absolute quadrature tolerance.  step/rule/form select the continuation
    step in u, the quadrature rule ("gk" or "simpson"), and the Riley construction
    route ("closed" or "recursive") for cross-validation runs.
    """
    if not (0.0 <= alpha <= math.pi):
        raise ValueError(f"alpha must lie in [0, pi], got {alpha}")
    if tol < 1e-12:
        raise ValueError(f"tol must be >= 1e-12, got {tol}")
    if branch is None:
        branch = geometric_branch(knot, seed_angle(alpha), step=step, form=form)
    alpha_K = branch.alpha_K
    ev = _BranchEvaluator(branch)
    _spot_check_real_regime(ev, alpha_K)
    if alpha >= alpha_K:
        vol, err = 0.0, 0.0
    else:
        vol, err = _integrate_volume(ev, alpha, alpha_K, tol, rule)
    return VolumeResult(
        knot=knot,
        alpha=alpha,
        alpha_K=alpha_K,
        volume=vol,
        quad_error=err,
        branch_diagnostics=list(branch.candidates),
    )


def volume_curve(
    knot: KnotParam,
    alphas,
    tol: float = 1e-9,
    *,
    step: float = DEFAULT_STEP,
    rule: str = "gk",
    form: str = "closed",
) -> list[VolumeResult]:
    """Volumes at several angles, sharing one branch continuation."""
    alphas = list(alphas)
    if any(alphas[i] > alphas[i + 1] for i in range(len(alphas) - 1)):
        raise ValueError("alphas must be sorted ascending")
    if not alphas:
        return []
    if any(not (0.0 <= a <= math.pi) for a in alphas):
        raise ValueError("each alpha must lie in [0, pi]")
    branch = geometric_branch(knot, seed_angle(alphas[0]), step=step, form=form)
    return [
        cone_volume(knot, a, tol, step=step, rule=rule, form=form, branch=branch)
        for a in alphas
    ]


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def branch_csv_rows(branch: Branch):
    """Rows (omega, re_z, im_z, re_L, im_L, logabsL) for the branch CSV."""
    rows = []
    for bp in branch.points:
        try:
            L = longitude_L(branch.knot, bp.z, bp.M)
        except DegenerateLongitudeError:
            L = complex("nan")
        mag = abs(L)
        rows.append(
            (
                bp.omega,
                bp.z.real,
                bp.z.imag,
                L.real,
                L.imag,
                math.log(mag) if mag > 0 else float("nan"),
            )
        )
    return rows
