"""The roots of the Riley polynomial: the geometric branch across cone
angles, and every root at one M (``riley_roots``, behind ``dtvol roots``).

At omega = pi (M = i, c2 = -2) the roots of Phi are known in closed form:
the dihedral characters z_j = 2 cos(2 pi j/|p|), p = 2kn - 1 (Klassen,
Trans. AMS 326, 1991), all real and simple, as many as the degree of Phi in
z.  Phi is real for real (omega, z), so these roots stay real as omega falls
until two neighbours collide in a fold Phi = dPhi/dz = 0 and leave the axis
as a conjugate pair.  ``largest_fold`` sweeps all of them down from pi to
the first collision, the Euclidean angle alpha_K, and solves the fold as a
real 2x2 system.  Below alpha_K the colliding pair separates like
sqrt(alpha_K - omega), so ``geometric_branch`` follows the root that obeys
the branch inequality imcond <= 0 in u = sqrt(alpha_K - omega), where it is
analytic, from the fold down to the seed angle; above alpha_K the branch is
the swept real root.  Every Newton step runs on the structured evaluation of
Phi (``riley.riley_phi_dphi``), which keeps full relative accuracy inside
the root clusters where the expanded coefficients do not.  ``riley_roots``
tracks all the characters in c2 = M^2 + M^-2, off the real axis, to any M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .chebyshev import eval_pair
from .riley import riley_zpoly, warn_outside_envelope
from .words import KnotParam

DEFAULT_STEP = 0.005
MIN_STEP = 1e-6


class NonHyperbolicError(ValueError):
    """No fold of the real roots, so no geometric branch (the trefoil)."""

    def __init__(self, knot: KnotParam, message: str):
        self.knot = knot
        super().__init__(message)


class ContinuationAmbiguousError(RuntimeError):
    """A sweep or continuation step could not be verified at the minimum step."""


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


def roots_of_coeffs(coeffs) -> np.ndarray:
    """Roots of constant-first coefficients by ``np.roots``: the tests' oracle
    over the expanded polynomial, kept by name for perfbench/tracing.py."""
    return np.roots(np.asarray(coeffs)[::-1])


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
    """The tracked root at the seed angle, with its branch inequality value."""

    z: complex
    imcond: float
    selected: bool


@dataclass
class Branch:
    """Continuous root path over [omega_0, pi] for one knot."""

    knot: KnotParam
    points: list[BranchPoint] = field(default_factory=list)
    alpha_K: float | None = None
    candidates: list[SeedCandidate] = field(default_factory=list)
    step: float = DEFAULT_STEP
    form: str = "closed"

    @property
    def omegas(self) -> list[float]:
        return [p.omega for p in self.points]


class Fold(NamedTuple):
    """The first collision of the real roots swept down from pi."""

    alpha_K: float
    x_K: float
    j: int  # the colliding pair is z_j, z_{j+1} (``dihedral_characters``)
    path: list[tuple[float, float]]  # (omega, z_j) on (alpha_K, pi], descending


def structured_polish(
    knot: KnotParam, omega: float, z, iters: int = 3, form: str = "closed"
):
    """Newton-refine roots against the structured closed-form evaluation of
    Phi, which stays accurate where the expanded coefficients are
    ill-conditioned (large-degree root clusters)."""
    from .riley import riley_phi_dphi

    M = omega_to_M(omega)
    x = np.atleast_1d(np.asarray(z, dtype=complex)).copy()
    for _ in range(iters):
        phi, dphi, _ = riley_phi_dphi(knot.k, knot.n, M, x, form)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = phi / dphi
        step[~np.isfinite(step)] = 0.0
        x_new = x - step
        phi_new, _, _ = riley_phi_dphi(knot.k, knot.n, M, x_new, form)
        better = np.abs(phi_new) <= np.abs(phi)
        x = np.where(better, x_new, x)
    return x


def _struct_root(
    knot: KnotParam, omega: float, z0: complex, max_iter: int = 24,
    form: str = "closed",
) -> tuple[complex, bool]:
    """Scalar Newton on the structured evaluation of Phi from the guess z0.

    Converges when the step reaches relative 1e-13, when |Phi| reaches its
    evaluation roundoff floor, or when a step below relative 1e-9 is no
    shorter than the one before: next to the fold the root is nearly double,
    and the steps stall at the evaluation noise above both other tests."""
    from .riley import riley_phi_dphi_scalar

    M = omega_to_M(omega)
    z = complex(z0)
    last = math.inf
    for _ in range(max_iter):
        phi, dphi, scale = riley_phi_dphi_scalar(knot.k, knot.n, M, z, form)
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
        size = abs(step) / (1.0 + abs(z))
        if size <= 1e-13 or last <= size <= 1e-9:
            return z, True
        last = size
    return z, False


def _omega_jet(knot: KnotParam, omega: float, x, form: str):
    """(Phi, Phi_z, Phi_zz, Phi_omega, Phi_z omega) at real omega and real x
    (scalar or array), all real there; dc2/domega = -2 sin omega."""
    from .riley import riley_phi_jet

    phi, phi_z, phi_zz, phi_c, phi_zc = riley_phi_jet(
        knot.k, knot.n, 2.0 * math.cos(omega), x, form
    )
    dc = -2.0 * math.sin(omega)
    return phi.real, phi_z.real, phi_zz.real, dc * phi_c.real, dc * phi_zc.real


def _fold_point(
    knot: KnotParam, omega: float, x: float, form: str = "closed"
) -> tuple[float, float] | None:
    """The fold Phi = dPhi/dz = 0 near (omega, x), with x real.

    Where two real roots collide they form a double real root.
    Phi(e^{i omega/2}, x) is real for real (omega, x) (M enters only through
    M^2 + M^-2 = 2 cos omega), so the fold is a regular root of a real 2x2
    system in (x, omega), solved by Newton with the analytic Jacobian of
    ``_omega_jet``.  Returns (omega, x), or None when Newton does not
    converge."""
    for _ in range(12):
        f0, f1, j10, j01, j11 = map(float, _omega_jet(knot, omega, x, form))
        det = f1 * j11 - j01 * j10  # the Jacobian is [[f1, j01], [j10, j11]]
        if det == 0.0 or not math.isfinite(det):
            return None
        dx = (j01 * f1 - j11 * f0) / det
        dw = (j10 * f0 - f1 * f1) / det
        x, omega = x + dx, omega + dw
        if abs(dw) <= 1e-10 and abs(dx) <= 1e-10 * (1.0 + abs(x)):
            return float(omega), float(x)
    return None


def dihedral_characters(knot: KnotParam) -> np.ndarray:
    """The roots of Phi at omega = pi, ascending: z_j = 2 cos(2 pi j/|p|) for
    j = (|p| - 1)/2, ..., 1, with p = 2kn - 1 (Klassen, Trans. AMS 326,
    1991).  There are k|n| - [n > 0] of them, the degree of Phi in z."""
    p = abs(2 * knot.k * knot.n - 1)
    return 2.0 * np.cos(2.0 * np.pi * np.arange((p - 1) // 2, 0, -1) / p)


_FOLD_REACH = 2e-3  # a gap predicted to close within this omega arms the fold solve
_SWEEP_MAX_STEP = 0.1


def largest_fold(knot: KnotParam, form: str = "closed") -> Fold:
    """alpha_K: the first collision of the real roots swept down from pi.

    At pi the roots are the dihedral characters, all real and simple; Phi is
    real for real (omega, z), so they stay real until two neighbours collide
    in a fold and leave the axis as a conjugate pair.  Each step is an Euler
    predictor dx/domega = -Phi_omega/Phi_z, at most a quarter of the omega
    at which the fastest-closing gap reaches zero by linear extrapolation,
    corrected by ``structured_polish``; it is accepted only if every root's
    correction is below 0.1 of its distance to its neighbours and the order
    is kept, and halved otherwise.  Once a gap is predicted to close within
    ``_FOLD_REACH``, the fold is solved by ``_fold_point``.  Raises
    NonHyperbolicError when there is a single character (the trefoil):
    nothing can collide with it."""
    if form not in ("closed", "recursive"):
        raise ValueError(f"unknown form {form!r}")
    warn_outside_envelope(knot.k, knot.n)
    x = dihedral_characters(knot)
    if x.size < 2:
        raise NonHyperbolicError(
            knot, f"{knot}: a single real root at omega = pi never folds "
            "(trefoil or non-hyperbolic parameters)"
        )
    om = math.pi
    path = [(om, x)]
    while om > 0.0:
        _, phi_z, _, phi_om, _ = _omega_jet(knot, om, x, form)
        v = -phi_om / phi_z  # dx/domega
        gap = np.diff(x)
        closing = v[1:] - v[:-1]  # rate at which a gap shrinks as omega falls
        reach = np.full(gap.shape, np.inf)
        np.divide(gap, closing, out=reach, where=closing > 0)
        i = int(np.argmin(reach))
        if reach[i] < _FOLD_REACH:
            mid = 0.5 * (x[i] + x[i + 1] - reach[i] * (v[i] + v[i + 1]))
            fold = _fold_point(knot, om - 0.5 * reach[i], mid, form)
            if fold is not None and fold[0] < om and abs(fold[1] - mid) < gap[i]:
                path = [(w, float(xs[i + 1])) for w, xs in path]
                return Fold(*fold, x.size - 1 - i, path)
        h = min(0.25 * reach[i], _SWEEP_MAX_STEP)
        room = np.minimum(np.diff(x, prepend=-np.inf), np.diff(x, append=np.inf))
        while True:
            x_pred = x - h * v
            x_new = structured_polish(knot, om - h, x_pred, form=form).real
            if np.all(np.diff(x_new) > 0) and np.all(np.abs(x_new - x_pred) < 0.1 * room):
                break
            h *= 0.5
            if h < MIN_STEP:
                raise ContinuationAmbiguousError(
                    f"{knot}: the sweep of the real roots stalled near omega = {om:.6f}"
                )
        om, x = om - h, x_new
        path.append((om, x))
    raise ContinuationAmbiguousError(f"{knot}: the real roots did not fold above omega = 0")


# gamma of the path in ``riley_roots``: fixed, non-real and otherwise generic
_HOMOTOPY_GAMMA = complex(0.7346, 1.2219)
_HOMOTOPY_MAX_STEP = 0.2
# below MIN_STEP: the path can pass within ~1e-7 of a double root of Phi (it
# does for J(10,16) at omega = 2.9), and must then take steps near 1e-8
_HOMOTOPY_MIN_STEP = 1e-9
_HOMOTOPY_BUDGET = 4000  # steps tried, accepted or not


def _nearest(x: np.ndarray) -> np.ndarray:
    """Each point's distance to the nearest other point (inf if alone)."""
    dist = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(dist, np.inf)
    return dist.min(axis=1)


def riley_roots(knot: KnotParam, M: complex) -> np.ndarray:
    """All k|n| - [n > 0] roots of Phi(M, .), tracked from the dihedral
    characters (the roots at c2 = M^2 + M^-2 = -2) along c2(s) = -2 +
    s (c2* + 2) + gamma s (1 - s), s in [0, 1].  A generic gamma keeps the
    path off the finitely many c2 where Phi has a double root (the gamma
    trick; Sommese & Wampler, The Numerical Solution of Systems of
    Polynomials, 2005).  A step is accepted only if every root's Newton
    correction is below 0.1 of its distance to the nearest other root, and
    the result only if every relative Newton step |Phi/Phi'|/(1 + |z|) is at
    most 1e-10.  Raises ContinuationAmbiguousError otherwise: a double root
    at the target, as at a fold, stalls the step below its floor, and a
    crowded path can run out the step budget."""
    from .riley import _eval_parts, _phi_dphi, riley_phi_jet

    M = complex(M)
    if M == 0 or not np.isfinite(M):
        raise ValueError(f"M must be finite and nonzero, got {M}")
    warn_outside_envelope(knot.k, knot.n)
    parts = _eval_parts(knot.k)
    c2_end = M * M + 1.0 / (M * M)
    span = c2_end + 2.0

    def c2_at(s: float) -> complex:
        return -2.0 + s * span + _HOMOTOPY_GAMMA * s * (1.0 - s)

    def newton(c2, x, iters):
        with np.errstate(all="ignore"):  # a failed step shows up as NaN
            for _ in range(iters):
                phi, dphi, _ = _phi_dphi(parts, knot.n, c2, x)
                dx = phi / dphi
                x = x - dx
        return x, dx

    z = dihedral_characters(knot).astype(complex)
    s, h, slope = 0.0, _HOMOTOPY_MAX_STEP, None
    last, curve = None, 0.0  # (s, slope) at the last point; d2z/ds2
    for _ in range(_HOMOTOPY_BUDGET):
        if slope is None:  # at a new point: dz/ds = -Phi_c2 c2'(s)/Phi_z
            _, phi_z, _, phi_c, _ = riley_phi_jet(knot.k, knot.n, c2_at(s), z)
            slope = -phi_c * (span + _HOMOTOPY_GAMMA * (1.0 - 2.0 * s)) / phi_z
            if last is not None:
                curve = (slope - last[1]) / (s - last[0])
            last, room = (s, slope), _nearest(z)
        s_new = min(s + h, 1.0)
        pred = z + (s_new - s) * (slope + 0.5 * (s_new - s) * curve)
        x, _ = newton(c2_at(s_new), pred, 4)
        if np.all(np.abs(x - pred) < 0.1 * room):
            s, z, slope = s_new, x, None
            if s == 1.0:
                break
            h = min(2.0 * h, _HOMOTOPY_MAX_STEP)
            continue
        h *= 0.5
        if h < _HOMOTOPY_MIN_STEP:
            break
    z, dz = newton(c2_end, z, 2)
    rel = np.abs(dz) / (1.0 + np.abs(z))
    if s == 1.0 and np.all(rel <= 1e-10) and np.all(np.abs(dz) < 0.1 * _nearest(z)):
        return z
    raise ContinuationAmbiguousError(
        f"{knot} at M = {M.real:.15g},{M.imag:.15g}: no certified roots; the "
        f"tracking reached s = {s:.9f} of 1, relative Newton step {rel.max():.1e} "
        "(roots meet or crowd at or near the target)"
    )


def _track_down(
    knot: KnotParam, alpha_K: float, x_K: float, omega_end: float, step: float, form: str
) -> list[tuple[float, complex]]:
    """The root leaving the fold (alpha_K, x_K), on the side with imcond <= 0,
    followed in u = sqrt(alpha_K - omega) from the fold down to omega_end:
    [(omega, z)] with omega descending.

    Next to the fold Phi ~ Phi_omega (omega - alpha_K) + Phi_zz (z - x_K)^2/2,
    so z ~ x_K +- i a u with a^2 = -2 Phi_omega/Phi_zz: the root is analytic
    in u, and a linear predictor in u with step halving follows it.  Its
    twin is the exact conjugate (Phi has real coefficients), so a corrected
    point on the other side of the axis is conjugated back."""
    _, _, phi_zz, phi_om, _ = _omega_jet(knot, alpha_K, x_K, form)
    slope = 1j * math.sqrt(abs(2.0 * phi_om / phi_zz))  # dz/du at the fold
    u_end = math.sqrt(alpha_K - omega_end)
    u, z, h = 0.0, complex(x_K), step
    samples = [(alpha_K, z)]
    while u < u_end:
        u_try = u_end if u_end - u < 1.5 * h else u + h  # no sliver of a last step
        om = omega_end if u_try == u_end else alpha_K - u_try * u_try
        pred = z + slope * (u_try - u)
        z_new, ok = _struct_root(knot, om, pred, form=form)
        if z_new.imag * pred.imag < 0:
            z_new = z_new.conjugate()
        # the correction must be small beside the predicted move, or at
        # Newton's own accuracy where the root barely moves (omega -> 0)
        if ok and abs(z_new - pred) <= 0.25 * abs(pred - z) + 1e-9 * (1.0 + abs(z)):
            if len(samples) == 1 and imcond_value(knot, z_new) > 0:
                z_new = z_new.conjugate()  # the first step picks the side
            slope = (z_new - z) / (u_try - u)
            u, z = u_try, z_new
            samples.append((om, z))
            h = min(step, 2.0 * h)
            continue
        h *= 0.5
        if h < MIN_STEP:
            raise ContinuationAmbiguousError(
                f"{knot}: continuation lost the branch near omega = {om:.6f} "
                f"at the minimum step {MIN_STEP}"
            )
    return samples


def geometric_branch(
    knot: KnotParam,
    alpha: float,
    step: float = DEFAULT_STEP,
    form: str = "closed",
) -> Branch:
    """The geometric root of Phi(e^{i omega/2}, .) over [min(alpha, 0.1), pi].

    alpha_K and the real branch above it are the fold of ``largest_fold``;
    below alpha_K the root leaving that fold on the side with imcond <= 0 is
    tracked in u = sqrt(alpha_K - omega) down to the seed angle
    min(alpha, 0.1), in u-steps of at most ``step``.  Branch.candidates holds
    the tracked root at the seed angle.  Raises NonHyperbolicError for the
    trefoil.
    """
    if not (0.0 < alpha <= math.pi):
        raise ValueError(f"alpha must lie in (0, pi], got {alpha}")
    fold = largest_fold(knot, form)
    below = _track_down(knot, fold.alpha_K, fold.x_K, min(alpha, 0.1), step, form)
    samples = below[::-1] + [(om, complex(x)) for om, x in reversed(fold.path)]
    points = [
        BranchPoint(om, omega_to_M(om), z, imcond_value(knot, z)) for om, z in samples
    ]
    seed = SeedCandidate(points[0].z, points[0].imcond, selected=True)
    return Branch(
        knot=knot, points=points, alpha_K=fold.alpha_K, candidates=[seed],
        step=step, form=form,
    )


def find_alpha_K(knot: KnotParam, branch: Branch | None = None) -> float:
    """Euclidean transition angle: the largest fold of the real roots below
    pi (``largest_fold``), or the fold of ``branch``.  Expected in
    [2pi/3 - eps, pi) for hyperbolic knots."""
    if branch is None:
        return largest_fold(knot).alpha_K
    if branch.alpha_K is None:
        raise ArithmeticError(f"{knot}: branch has no fold below pi")
    return branch.alpha_K
