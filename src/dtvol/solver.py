"""Root finding for the Riley polynomial at fixed cone angle and continuation
of the geometric root across cone angles.

The geometric branch is seeded near the complete structure (small omega),
where the geometric root is a nonreal root obeying the branch inequality
imcond <= 0, and continued to pi by predictor-corrector stepping with
adaptive step halving (the corrector is Newton on the structured closed-form
evaluation of Phi, which keeps full accuracy inside root clusters where the
expanded coefficients do not).  The cone angle at which the branch lands on
the real axis is the Euclidean angle alpha_K: the landing is a square-root
collision of the root with its conjugate, i.e. a fold Phi = dPhi/dz = 0 at
real (z, omega), which is solved for directly by Newton on that 2x2 real
system once the secant of Im(z)^2 (linear in omega across the collision)
reaches the axis.  Above alpha_K all characters on the branch are real and
tracking reduces to following the nearest real root.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .chebyshev import eval_pair
from .riley import riley_zpoly
from .words import KnotParam
from .zpoly import ZPoly

DEFAULT_STEP = 0.005
MIN_STEP = 1e-6
REAL_IM_TOL = 1e-9  # |Im z| below this counts as a real character
BACKWARD_ERROR_TOL = 1e-10
_CROSSING_IM_WINDOW = 0.02  # |Im z| below this arms the fold solve


class NonHyperbolicError(ValueError):
    """Seed polynomial has only real roots (trefoil or non-hyperbolic parameters)."""

    def __init__(self, knot: KnotParam, message: str | None = None, branch=None):
        self.knot = knot
        self.branch = branch  # diagnostic Branch with hyperbolic=False
        super().__init__(
            message
            or f"{knot}: no nonreal root at the seed angle "
            "(trefoil or non-hyperbolic parameters)"
        )


class ContinuationAmbiguousError(RuntimeError):
    """Nearest-root matching stayed ambiguous at the minimum step."""


# ---------------------------------------------------------------------------
# polynomial roots
# ---------------------------------------------------------------------------


def _eval_pair_many(c_asc, x):
    """(p(x), p'(x)) at many points via a cumulative power matrix.

    Two BLAS matvecs instead of a coefficient-length Python loop; the error
    bound is the same eps * sum |c_j||x|^j class as Horner."""
    x = np.asarray(x, dtype=complex)
    n = c_asc.size
    powers = np.empty((n, x.size), dtype=complex)
    powers[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        if n > 1:
            np.multiply.accumulate(
                np.broadcast_to(x, (n - 1, x.size)), axis=0, out=powers[1:]
            )
        p = c_asc @ powers
        dp = (c_asc[1:] * np.arange(1, n)) @ powers[:-1]
    return p, dp


def _residuals_ok(c_asc, x, factor: float = 64.0) -> bool:
    """True when every |p(x_i)| is at the evaluation roundoff floor
    eps * sum_j |c_j||x_i|^j, i.e. the points are roots to working precision."""
    x = np.asarray(x, dtype=complex)
    n = c_asc.size
    powers = np.empty((n, x.size), dtype=complex)
    powers[0] = 1.0
    if n > 1:
        np.multiply.accumulate(
            np.broadcast_to(x, (n - 1, x.size)), axis=0, out=powers[1:]
        )
    p = np.abs(c_asc @ powers)
    scale = np.abs(c_asc) @ np.abs(powers)
    eps = np.finfo(float).eps
    return bool(np.all(p <= factor * eps * np.maximum(scale, np.finfo(float).tiny)))


def _symmetrize_conjugate_pairs(roots: np.ndarray) -> np.ndarray:
    """Enforce the root symmetry of real-coefficient polynomials.

    Greedily pairs each root with its best conjugate partner: self-paired
    roots are snapped onto the real axis, mutual pairs are averaged into an
    exact conjugate pair.  This recovers the structurally exact realness
    decision that a real companion-matrix eigensolver would give."""
    n = roots.size
    if n == 0:
        return roots
    D = np.abs(roots[:, None] - np.conj(roots)[None, :])
    out = roots.copy()
    unused = np.ones(n, dtype=bool)
    big = np.inf
    for _ in range(n):
        if not unused.any():
            break
        M = np.where(unused[:, None] & unused[None, :], D, big)
        i, j = np.unravel_index(int(np.argmin(M)), M.shape)
        if not np.isfinite(M[i, j]):
            break
        if i == j:
            out[i] = complex(roots[i].real, 0.0)
            unused[i] = False
        else:
            c = 0.5 * (roots[i] + np.conj(roots[j]))
            out[i] = c
            out[j] = np.conj(c)
            unused[i] = unused[j] = False
    return out


def _newton_polish(c_asc, x, iters=2):
    """Guarded Newton steps; keeps an update only if it shrinks |p|."""
    x = np.array(x, dtype=complex)
    pv, _ = _eval_pair_many(c_asc, x)
    for _ in range(iters):
        _, dv = _eval_pair_many(c_asc, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = pv / dv
        step[~np.isfinite(step)] = 0.0
        x_new = x - step
        pv_new, _ = _eval_pair_many(c_asc, x_new)
        better = np.abs(pv_new) < np.abs(pv)
        x = np.where(better, x_new, x)
        pv = np.where(better, pv_new, pv)
    return x


def _aberth(c_asc, x0, max_iter=60, tol=1e-14):
    """Simultaneous Aberth-Ehrlich iteration from the guesses x0."""
    x = np.array(x0, dtype=complex)
    n = x.size
    # all roots lie within the Fujiwara bound; clamp strays so powers of
    # diverging iterates cannot overflow
    clamp = 4.0 * float(np.max(np.abs(x0))) + 16.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_iter):
            pv, dv = _eval_pair_many(c_asc, x)
            newton = pv / dv
            newton[~np.isfinite(newton)] = 0.0
            diff = x[:, None] - x[None, :]
            np.fill_diagonal(diff, np.inf)
            repel = np.sum(1.0 / diff, axis=1)
            denom = 1.0 - newton * repel
            step = newton / denom
            fallback = ~np.isfinite(step)
            step[fallback] = newton[fallback]
            step[~np.isfinite(step)] = 0.0
            x = x - step
            far = np.abs(x) > clamp
            if far.any():
                x[far] = clamp * x[far] / np.abs(x[far])
            if n == 0 or np.max(np.abs(step) / (1.0 + np.abs(x))) < tol:
                return x, True
    return x, False


def _initial_circle(c_asc):
    """Fujiwara-bound radius, angles offset to avoid symmetry stalls."""
    deg = c_asc.size - 1
    lead = abs(c_asc[-1])
    mags = np.abs(c_asc[-2::-1]) / lead  # |c_{deg-i}/c_deg| for i = 1..deg
    mags[-1] *= 0.5
    with np.errstate(divide="ignore"):
        radii = mags ** (1.0 / np.arange(1, deg + 1))
    radius = 2.0 * float(np.max(radii)) if np.any(mags > 0) else 1.0
    radius = max(radius, 1e-8)
    angles = 2.0 * np.pi * (np.arange(deg) + 0.25) / deg + 0.43
    return radius * np.exp(1j * angles)


def max_backward_error(coeffs, roots) -> float:
    """max |p(root)| / (max|coeff| * max(1,|root|)^deg); constant-first coeffs."""
    if len(roots) == 0:
        return 0.0
    c = np.asarray(coeffs, dtype=complex)
    vals = np.abs(_eval_pair_many(c, np.asarray(roots, dtype=complex))[0])
    deg = c.size - 1
    bound = np.maximum(1.0, np.abs(roots)) ** deg
    return float(np.max(vals / (np.max(np.abs(c)) * bound)))


def roots_of_coeffs(coeffs, warm=None) -> np.ndarray:
    """All roots of the polynomial given constant-first coefficients.

    warm, if given and of matching length, seeds the Aberth iteration (used
    for continuation along omega); a warm result is accepted on backward
    error, so clustered roots do not force full restarts.  Falls back to
    companion-matrix eigenvalues if the iteration stalls.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.size < 2:
        raise ValueError("polynomial must have degree >= 1")
    if c[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")

    # exact zero constant terms peel off roots at the origin
    nzeros = 0
    while c[nzeros] == 0:
        nzeros += 1
    c = c[nzeros:]
    deg = c.size - 1

    if deg == 0:
        roots = np.empty(0, dtype=complex)
    elif deg == 1:
        roots = np.array([-c[0] / c[1]])
    elif deg == 2:
        a, b, cc = c[2], c[1], c[0]
        disc = b * b - 4.0 * a * cc
        sq = np.sqrt(disc)
        if (np.conj(b) * sq).real < 0:
            sq = -sq
        q = -0.5 * (b + sq)
        r1 = q / a
        r2 = cc / q if q != 0 else r1
        roots = np.array([r1, r2])
    else:
        roots = None
        if warm is not None and len(warm) == deg:
            cand, _ = _aberth(c, warm, max_iter=8)
            cand = _newton_polish(c, cand, iters=1)
            if not _residuals_ok(c, cand):
                cand, _ = _aberth(c, cand, max_iter=16)
                cand = _newton_polish(c, cand, iters=1)
            if _residuals_ok(c, cand) and np.all(np.isfinite(cand)):
                roots = cand
        if roots is None:
            cand, _ = _aberth(c, _initial_circle(c))
            cand = _newton_polish(c, cand)
            if _residuals_ok(c, cand) and np.all(np.isfinite(cand)):
                roots = cand
        if roots is None:
            roots = _newton_polish(c, np.roots(c[::-1]))

    if nzeros:
        roots = np.concatenate([roots, np.zeros(nzeros, dtype=complex)])
    return roots


def poly_roots(p: ZPoly) -> np.ndarray:
    """All complex roots (with multiplicity) of a nonconstant polynomial."""
    if p.is_zero():
        raise ValueError("zero polynomial has no well-defined roots")
    if p.degree < 1:
        raise ValueError("constant polynomial has no roots")
    roots = roots_of_coeffs(p.coeffs)
    err = max_backward_error(p.coeffs, roots)
    if err > BACKWARD_ERROR_TOL:
        raise ArithmeticError(
            f"root refinement failed: backward error {err:.2e} exceeds "
            f"{BACKWARD_ERROR_TOL:.0e}"
        )
    return roots


# ---------------------------------------------------------------------------
# branch tracking
# ---------------------------------------------------------------------------


def omega_to_M(omega: float) -> complex:
    return complex(math.cos(0.5 * omega), math.sin(0.5 * omega))


def phi_coeffs(knot: KnotParam, omega: float, form: str = "closed") -> np.ndarray:
    """Constant-first coefficients of Phi(e^{i omega/2}, .), with the
    numerically-real case snapped to exactly real coefficients."""
    poly = riley_zpoly(knot.k, knot.n, omega_to_M(omega), form=form)
    c = poly.coeffs
    scale = np.max(np.abs(c))
    if scale > 0 and np.max(np.abs(c.imag)) <= 1e-12 * scale:
        c = c.real.astype(complex)
    return c


def imcond_value(knot: KnotParam, z: complex) -> float:
    """Branch-selection quantity; the geometric root satisfies imcond <= 0.

    odd family:  Im(S_m(z) conj(S_{m-1}(z)))
    even family: Im((S_m - S_{m-1}) conj(S_{m-1} - S_{m-2}))
    """
    pair = eval_pair(knot.m, z)
    sm, sm1 = pair.s_j, pair.s_jm1
    if knot.odd:
        return (sm * sm1.conjugate()).imag
    sm2 = z * sm1 - sm
    return ((sm - sm1) * (sm1 - sm2).conjugate()).imag


@dataclass(frozen=True)
class BranchPoint:
    """One sample of the tracked root: omega, M = e^{i omega/2}, z, imcond."""

    omega: float
    M: complex
    z: complex
    imcond: float


@dataclass(frozen=True)
class SeedCandidate:
    """A seed root satisfying the branch inequality, with its coarse volume score."""

    z: complex
    imcond: float
    coarse_volume: float
    selected: bool


@dataclass
class Branch:
    """Continuous root path over [omega_0, pi] for one knot."""

    knot: KnotParam
    points: list[BranchPoint] = field(default_factory=list)
    alpha_K: float | None = None
    hyperbolic: bool = True
    candidates: list[SeedCandidate] = field(default_factory=list)
    step: float = DEFAULT_STEP
    form: str = "closed"

    @property
    def omegas(self) -> list[float]:
        return [p.omega for p in self.points]

    def point_at_or_below(self, omega: float) -> BranchPoint:
        idx = bisect_left(self.omegas, omega + 1e-300)
        return self.points[max(0, min(idx, len(self.points)) - 1)]

    def bracket(self, omega: float) -> tuple[BranchPoint, BranchPoint]:
        oms = self.omegas
        idx = bisect_left(oms, omega)
        if idx <= 0:
            return self.points[0], self.points[min(1, len(self.points) - 1)]
        if idx >= len(oms):
            return self.points[-2], self.points[-1]
        return self.points[idx - 1], self.points[idx]


def _is_real(z: complex, scale: float = 1.0) -> bool:
    return abs(z.imag) <= REAL_IM_TOL * scale


def _snap_real(z: complex) -> complex:
    return complex(z.real, 0.0) if abs(z.imag) <= 1e-7 * (1.0 + abs(z)) else z


def _nearest(roots: np.ndarray, z: complex) -> complex:
    return complex(roots[int(np.argmin(np.abs(roots - z)))])


def structured_polish(
    knot: KnotParam, omega: float, z, iters: int = 3
):
    """Newton-refine roots against the structured closed-form evaluation of
    Phi, which stays accurate where the expanded coefficients are
    ill-conditioned (large-degree root clusters)."""
    from .riley import riley_phi_dphi

    M = omega_to_M(omega)
    x = np.atleast_1d(np.asarray(z, dtype=complex)).copy()
    for _ in range(iters):
        phi, dphi, _ = riley_phi_dphi(knot.k, knot.n, M, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = phi / dphi
        step[~np.isfinite(step)] = 0.0
        x_new = x - step
        phi_new, _, _ = riley_phi_dphi(knot.k, knot.n, M, x_new)
        better = np.abs(phi_new) <= np.abs(phi)
        x = np.where(better, x_new, x)
    return x


class _Tracker:
    """Solves Phi roots along omega with warm starts and a per-angle cache.

    Root sets are refined against the structured evaluation of Phi and then
    conjugate-symmetrized, so positions and realness remain meaningful even
    inside clusters where the expanded coefficients lose them."""

    def __init__(self, knot: KnotParam, form: str = "closed"):
        self.knot = knot
        self.form = form
        self._warm: np.ndarray | None = None
        self._cache: dict[float, np.ndarray] = {}

    def roots(self, omega: float) -> np.ndarray:
        hit = self._cache.get(omega)
        if hit is not None:
            self._warm = hit
            return hit
        c = phi_coeffs(self.knot, omega, self.form)
        warm = (
            self._warm
            if (self._warm is not None and self._warm.size == c.size - 1)
            else None
        )
        r = roots_of_coeffs(c, warm=warm)
        r = structured_polish(self.knot, omega, r, iters=2)
        if np.all(c.imag == 0.0):
            r = _symmetrize_conjugate_pairs(r)
        self._warm = r
        self._cache[omega] = r
        return r


def _struct_root(
    knot: KnotParam, omega: float, z0: complex, max_iter: int = 24
) -> tuple[complex, bool]:
    """Scalar Newton on the structured evaluation of Phi from the guess z0.

    Converges when the step reaches relative 1e-13 or |Phi| reaches its
    evaluation roundoff floor (which is how near-double roots close to the
    real-axis landing terminate)."""
    from .riley import riley_phi_dphi_scalar

    M = omega_to_M(omega)
    z = complex(z0)
    for _ in range(max_iter):
        phi, dphi, scale = riley_phi_dphi_scalar(knot.k, knot.n, M, z)
        if abs(phi) <= 64.0 * 2.220446049250313e-16 * scale:
            return z, True
        if dphi == 0:
            return z, False
        step = phi / dphi
        z_new = z - step
        if not (
            math.isfinite(z_new.real) and math.isfinite(z_new.imag)
        ):
            return z, False
        z = z_new
        if abs(step) <= 1e-13 * (1.0 + abs(z)):
            return z, True
    return z, False


def _fold_point(knot: KnotParam, omega: float, x: float) -> tuple[float, float] | None:
    """The fold Phi = dPhi/dz = 0 near (omega, x), with x real.

    At the landing the tracked root meets its conjugate in a double real
    root.  Phi(e^{i omega/2}, x) is real for real (omega, x) (M enters only
    through M^2 + M^-2 = 2 cos omega), so the fold is a regular root of a
    real 2x2 system in (x, omega), solved by Newton with a forward-difference
    Jacobian.  Returns (omega, x), or None when Newton does not converge."""
    from .riley import riley_phi_dphi_scalar

    def residual(om: float, xr: float) -> tuple[float, float]:
        M = omega_to_M(om)
        phi, dphi, _ = riley_phi_dphi_scalar(knot.k, knot.n, M, complex(xr))
        return phi.real, dphi.real

    for _ in range(12):
        hx, hw = 1e-7 * (1.0 + abs(x)), 1e-7
        f0, f1 = residual(omega, x)
        a0, a1 = residual(omega, x + hx)
        b0, b1 = residual(omega + hw, x)
        j00, j10 = (a0 - f0) / hx, (a1 - f1) / hx
        j01, j11 = (b0 - f0) / hw, (b1 - f1) / hw
        det = j00 * j11 - j01 * j10
        if det == 0.0 or not math.isfinite(det):
            return None
        dx = (j01 * f1 - j11 * f0) / det
        dw = (j10 * f0 - j00 * f1) / det
        x, omega = x + dx, omega + dw
        if abs(dw) <= 1e-10 and abs(dx) <= 1e-10 * (1.0 + abs(x)):
            return float(omega), float(x)
    return None


def _track_complex(
    knot: KnotParam,
    omega0: float,
    z0: complex,
    step: float,
    emit,
) -> tuple[float, float] | None:
    """March the nonreal branch from (omega0, z0) toward pi, emitting samples.

    Predictor-corrector: linear extrapolation from the last two samples,
    corrected by Newton on the structured evaluation of Phi (the expanded
    coefficients lose the roots inside large-degree clusters, the structured
    form does not).  A corrected point far from its prediction means the
    Newton basin changed, so the step is halved.  Close to the real axis,
    Im(z)^2 is linear in omega across the square-root collision; when its
    secant reaches 0 within the step, or the corrector fails there, the
    landing is solved for as a fold and returned as (alpha_K, real z).  None
    means the branch stayed nonreal all the way to pi."""
    om, z = omega0, z0
    om_prev: float | None = None
    z_prev: complex | None = None
    h = step
    while om < math.pi - 1e-12:
        om_try = min(om + h, math.pi)
        dom = om_try - om
        scale = 1.0 + abs(z)
        near_axis = abs(z.imag) < _CROSSING_IM_WINDOW * scale
        om_cross = None  # where the Im(z)^2 secant reaches 0
        if om_prev is not None and om > om_prev:
            slope = (z - z_prev) / (om - om_prev)
            pred = z + slope * dom
            tol_move = max(5.0 * abs(slope) * dom, 2e-3 * scale)
            d_im2 = z.imag * z.imag - z_prev.imag * z_prev.imag
            if d_im2 < 0:
                om_cross = om - z.imag * z.imag * (om - om_prev) / d_im2
        else:
            pred = z
            tol_move = 0.05 * scale
        crossing = near_axis and om_cross is not None and om_cross <= om_try
        if crossing:
            fold = _fold_point(knot, om_cross, (z + slope * (om_cross - om)).real)
            if fold is not None and om < fold[0] <= om_try:
                return fold
        z_new, ok = _struct_root(knot, om_try, pred)
        if ok and z.imag != 0 and z_new.imag * z.imag < 0:
            # real coefficients: the conjugate is also a root; off the axis
            # Im z cannot change sign, so stay on the incoming side
            z_conj = z_new.conjugate()
            if abs(z_conj - pred) <= abs(z_new - pred):
                z_new = z_conj
        # a corrected point on the real axis has passed the landing
        if (
            ok
            and abs(z_new - pred) <= tol_move
            and abs(z_new.imag) > REAL_IM_TOL * scale
            and (z_new.imag * z.imag > 0 or imcond_value(knot, z_new) <= REAL_IM_TOL)
        ):
            om_prev, z_prev = om, z
            om, z = om_try, z_new
            emit(om, z)
            h = min(step, 1.6 * h)
            continue
        # trouble: corrector jumped basins, diverged, or flipped branches
        if near_axis and not crossing:
            fold = _fold_point(knot, om_try, pred.real)
            if fold is not None and om < fold[0] <= om_try:
                return fold
        if h > MIN_STEP:
            h = max(0.25 * h, MIN_STEP)
            continue
        raise ContinuationAmbiguousError(
            f"{knot}: continuation lost the branch near omega = {om_try:.6f} "
            f"at the minimum step {MIN_STEP}"
        )
    return None


def _nearest_real(roots: np.ndarray, z: complex, scale: float) -> complex | None:
    reals = [complex(r) for r in roots if abs(r.imag) <= 1e-7 * scale]
    if not reals:
        return None
    return min(reals, key=lambda r: (abs(r - z), r.real))


def _liftoff_pick(knot: KnotParam, roots: np.ndarray, zn: complex) -> complex:
    """The member of the lifted conjugate pair satisfying the branch
    inequality (pairs are exact conjugates since the coefficients are real)."""
    if imcond_value(knot, zn) <= REAL_IM_TOL:
        return zn
    twin = _nearest(roots, zn.conjugate())
    return twin if imcond_value(knot, twin) <= imcond_value(knot, zn) else zn


def _track_real(
    tracker: _Tracker, omega0: float, z0: complex, step: float, emit
) -> tuple[float, complex] | None:
    """Follow the real branch from (omega0, z0) toward pi.

    The step ramps up from small (the real twins separate like a square root
    just above a landing) to the base step.  Returns None when pi is reached
    with the branch still real; returns (omega, complex z) when the followed
    root collides with a real partner and lifts off the axis again (the
    landing below was a kiss, not the Euclidean transition)."""
    knot = tracker.knot
    om, z = omega0, z0
    h = step / 16.0
    while om < math.pi - 1e-12:
        om_try = min(om + h, math.pi)
        roots = tracker.roots(om_try)
        scale = 1.0 + abs(z)
        zr = _nearest_real(roots, z, scale)
        zn = _nearest(roots, z)
        lifted = zr is None or (
            abs(zn.imag) > 1e-7 * scale and abs(zn - z) < 0.4 * abs(zr - z)
        )
        if lifted:
            if h > max(step / 64.0, MIN_STEP):
                h = 0.5 * h
                continue
            # verify against the structured evaluation before believing a
            # liftoff seen in the (noisier) expanded root set; one that does
            # not verify is believed only when no real root is left to follow
            z_cand = _liftoff_pick(knot, roots, zn)
            z_ver, ok = _struct_root(knot, om_try, z_cand)
            if ok and abs(z_ver.imag) > 1e-6 * scale:
                if imcond_value(knot, z_ver) > REAL_IM_TOL and z_ver.imag > 0:
                    z_ver = z_ver.conjugate()
                return om_try, z_ver
            if ok:
                om, z = om_try, _snap_real(z_ver)
                emit(om, z)
                h = min(step, 1.5 * h)
                continue
            if zr is None:
                return om_try, z_cand
        om, z = om_try, _snap_real(zr)
        emit(om, z)
        h = min(step, 1.5 * h)
    return None


def _grid(omega0: float, step: float) -> np.ndarray:
    n = max(1, int(math.ceil((math.pi - omega0) / step)))
    omegas = omega0 + step * np.arange(n + 1)
    omegas[-1] = math.pi
    if omegas.size >= 2 and omegas[-1] - omegas[-2] < 0.25 * step:
        omegas = np.delete(omegas, omegas.size - 2)
    return omegas


def _log_abs_L(knot: KnotParam, z: complex, M: complex) -> float:
    from .volume import longitude_L  # deferred: volume imports solver

    try:
        L = longitude_L(knot, z, M)
    except ArithmeticError:
        return 0.0
    mag = abs(L)
    return math.log(mag) if mag > 0 else 0.0


def _seed_candidates(knot: KnotParam, seed_roots: np.ndarray) -> list[tuple[complex, float]]:
    """Nonreal seed roots obeying imcond <= 0 (ties resolved by Im z < 0)."""
    zscale = 1.0 + float(np.max(np.abs(seed_roots)))
    cands: list[tuple[complex, float]] = []
    for zr in seed_roots:
        zc = complex(zr)
        if abs(zc.imag) <= 1e-7 * zscale:
            continue
        ic = imcond_value(knot, zc)
        if ic < -1e-12 or (abs(ic) <= 1e-12 and zc.imag < 0):
            if all(abs(zc - zprev) > 1e-9 for zprev, _ in cands):
                cands.append((zc, ic))
    return cands


def geometric_branch(
    knot: KnotParam,
    alpha: float,
    step: float = DEFAULT_STEP,
    form: str = "closed",
) -> Branch:
    """Track the geometric root of Phi(e^{i omega/2}, .) over [alpha, pi].

    Seeds at omega_0 = min(alpha, 0.1) among nonreal roots with imcond <= 0;
    when several qualify, each is walked over a shared coarse grid and the
    one with the largest trapezoid volume score is kept (all candidates are
    reported in Branch.candidates).  Raises NonHyperbolicError when the seed
    polynomial has no nonreal root.
    """
    if not (0.0 < alpha <= math.pi):
        raise ValueError(f"alpha must lie in (0, pi], got {alpha}")
    omega0 = min(alpha, 0.1)
    omegas = _grid(omega0, step)

    tracker = _Tracker(knot, form)
    roots_list = [tracker.roots(float(w)) for w in omegas]

    cands = _seed_candidates(knot, roots_list[0])
    if not cands:
        raise NonHyperbolicError(
            knot, branch=Branch(knot=knot, hyperbolic=False, step=step, form=form)
        )

    # coarse score: trapezoid of max(log|L|, 0) along a guard-free walk
    scores = []
    for z0, _ in cands:
        z_cur = z0
        vals = []
        for i, roots in enumerate(roots_list):
            if i > 0:
                z_cur = _nearest(roots, z_cur)
            if abs(z_cur.imag) <= REAL_IM_TOL * (1.0 + abs(z_cur)):
                vals.append(0.0)
            else:
                vals.append(
                    max(_log_abs_L(knot, z_cur, omega_to_M(float(omegas[i]))), 0.0)
                )
        scores.append(float(np.trapezoid(vals, omegas)))

    order = sorted(
        range(len(cands)),
        key=lambda i: (-scores[i], cands[i][1], cands[i][0].real, cands[i][0].imag),
    )
    winner = order[0]
    candidates = [
        SeedCandidate(
            z=cands[i][0],
            imcond=cands[i][1],
            coarse_volume=scores[i],
            selected=(i == winner),
        )
        for i in range(len(cands))
    ]

    branch = Branch(knot=knot, step=step, form=form, candidates=candidates)

    def emit(om: float, z: complex) -> None:
        branch.points.append(
            BranchPoint(om, omega_to_M(om), z, imcond_value(knot, z))
        )

    z_seed = cands[winner][0]
    emit(float(omegas[0]), z_seed)

    # alternate complex and real tracking: a landing followed by a liftoff
    # was a kiss of the real axis, not the Euclidean transition
    om_cur, z_cur = float(omegas[0]), z_seed
    alpha_K: float | None = None
    for _ in range(64):
        if om_cur >= math.pi - 1e-12:
            break
        if abs(z_cur.imag) > 1e-7 * (1.0 + abs(z_cur)):
            landing = _track_complex(knot, om_cur, z_cur, step, emit)
            if landing is None:
                alpha_K = None
                break
            alpha_K, x = landing
            om_cur, z_cur = alpha_K, complex(x, 0.0)
            emit(om_cur, z_cur)
        else:
            lift = _track_real(tracker, om_cur, z_cur, step, emit)
            if lift is None:
                break
            om_cur, z_cur = lift
            alpha_K = None
            emit(om_cur, z_cur)
    branch.alpha_K = alpha_K
    return branch


def find_alpha_K(
    knot: KnotParam, step: float = 0.02, branch: Branch | None = None
) -> float:
    """Euclidean transition angle: the angle at which the tracked geometric
    root becomes real.  Expected in [2pi/3 - eps, pi) for hyperbolic knots."""
    if branch is None:
        branch = geometric_branch(knot, alpha=0.1, step=step)
    if branch.alpha_K is None:
        raise ArithmeticError(
            f"{knot}: tracked branch never reached the real axis below pi"
        )
    return branch.alpha_K
