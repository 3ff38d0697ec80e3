"""Riley polynomials Phi_{J(k,2n)}(M, z) of double twist knots.

Both families are expressed through the Chebyshev values S_m(z), S_{m-1}(z):

  odd  k = 2m+1:  Phi = S_n(t) - d S_{n-1}(t),
      t = M^2 + M^-2 + 2 - z - (z-2)(z - M^2 - M^-2) S_m S_{m-1}
      d = 1 - (z - M^2 - M^-2) S_m (S_m - S_{m-1})

  even k = 2m:    Phi = S_n(t) - d S_{n-1}(t),
      t = 2 + (z-2)(z - M^2 - M^-2) S_{m-1}^2
      d = 1 + (z - M^2 - M^-2) S_{m-1} (S_m - S_{m-1})

The same value is produced by a two-term recurrence in n (P_n = t P_{n-1} -
P_{n-2} with P_0 = 1 and an explicit P_1), which serves as an independent
second construction route; and by coefficient-vector arithmetic yielding the
polynomial in z at fixed M for the root solver.

M enters only through c2 = M^2 + M^-2, and t, d and P_1 are affine in it:
t = t0 + c2 t1, d = d0 + c2 d1, P_1 = p0 + c2 p1, with

  odd  k = 2m+1:  q = S_m S_{m-1},  r = S_m (S_m - S_{m-1}),
                  s = S_{m-1} (S_m - S_{m-1})
      t0 = 2 - z - z(z-2) q,  t1 = 1 + (z-2) q
      d0 = 1 - z r,           d1 = r
      p0 = 1 + z s,           p1 = -s

  even k = 2m:    q = S_{m-1}^2,  r = S_{m-1} (S_m - S_{m-1}),
                  s = S_{m-1} (S_{m-1} - S_{m-2})
      t0 = 2 + z(z-2) q,      t1 = -(z-2) q
      d0 = 1 + z r,           d1 = -r
      p0 = 1 - z s,           p1 = s

These six polynomials in z are built once per k (``_affine_polys``); every
evaluation of Phi and every coefficient polynomial at fixed M is assembled
from them, so no angle rebuilds a polynomial.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chebyshev import coeffs_S, eval_pair
from .slrep import Mat2C, RepPoint
from .words import KnotParam
from .zpoly import X, ZPoly, const

# Validated envelope: beyond it every route still runs, but its results have
# not been checked; ``warn_outside_envelope`` emits a ConditioningWarning.
DESK_MAX_K = 19
DESK_MAX_ABS_N = 10


class ConditioningWarning(UserWarning):
    """Requested (k, n) lies outside the validated conditioning envelope."""


@dataclass(frozen=True)
class RileyCoefficients:
    """Trace t = tr rho(w) and the S_{n-1} multiplier d for one family."""

    t: complex
    d: complex
    family: str


def _m2_sum(M: complex) -> complex:
    m2 = M * M
    return m2 + 1.0 / m2


def riley_coefficients(k: int, pt: RepPoint) -> RileyCoefficients:
    """(t, d) for the family of k at the point (M, z)."""
    knot_m = (k - 1) // 2 if k % 2 else k // 2
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    c2 = _m2_sum(pt.M)
    z = pt.z
    pair = eval_pair(knot_m, z)
    sm, sm1 = pair.s_j, pair.s_jm1
    if k % 2:
        t = c2 + 2.0 - z - (z - 2.0) * (z - c2) * sm * sm1
        d = 1.0 - (z - c2) * sm * (sm - sm1)
        return RileyCoefficients(t=t, d=d, family="odd")
    t = 2.0 + (z - 2.0) * (z - c2) * sm1 * sm1
    d = 1.0 + (z - c2) * sm1 * (sm - sm1)
    return RileyCoefficients(t=t, d=d, family="even")


def _closed_value(t: complex, d: complex, n: int) -> complex:
    pair = eval_pair(n, t)
    return pair.s_j - d * pair.s_jm1


def riley_odd(m: int, n: int, pt: RepPoint) -> complex:
    """Phi_{J(2m+1, 2n)}(M, z), closed Chebyshev form."""
    if m < 1:
        raise ValueError(f"odd family needs m >= 1, got {m}")
    rc = riley_coefficients(2 * m + 1, pt)
    return _closed_value(rc.t, rc.d, n)


def riley_even(m: int, n: int, pt: RepPoint) -> complex:
    """Phi_{J(2m, 2n)}(M, z), closed Chebyshev form."""
    if m < 1:
        raise ValueError(f"even family needs m >= 1, got {m}")
    rc = riley_coefficients(2 * m, pt)
    return _closed_value(rc.t, rc.d, n)


def riley_closed(knot: KnotParam, pt: RepPoint) -> complex:
    return (riley_odd if knot.odd else riley_even)(knot.m, knot.n, pt)


def _p1_value(k: int, pt: RepPoint) -> complex:
    """Initial value P_1 of the two-term recurrence (distinct arithmetic from
    the closed form's d; equality of the two routes is a theorem)."""
    m = (k - 1) // 2 if k % 2 else k // 2
    c2 = _m2_sum(pt.M)
    z = pt.z
    if k % 2:
        pair = eval_pair(m, z)
        return 1.0 + (z - c2) * pair.s_jm1 * (pair.s_j - pair.s_jm1)
    pair = eval_pair(m - 1, z)
    return 1.0 - (z - c2) * pair.s_j * (pair.s_j - pair.s_jm1)


def riley_recursive(k: int, n: int, pt: RepPoint) -> complex:
    """Phi_{J(k,2n)}(M, z) by running P_j = t P_{j-1} - P_{j-2} from
    (P_0, P_1), stepping toward n (inverted recurrence for n < 0)."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    t = riley_coefficients(k, pt).t
    p0 = 1.0 + 0.0j
    if n == 0:
        return p0
    p1 = _p1_value(k, pt)
    if n > 0:
        prev, cur = p0, p1
        for _ in range(n - 1):
            prev, cur = cur, t * cur - prev
        return cur
    # downward: P_{j-1} from (P_j, P_{j+1})
    cur, nxt = p0, p1
    for _ in range(-n):
        cur, nxt = t * cur - nxt, cur
    return cur


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _affine_polys(k: int) -> tuple[ZPoly, ...]:
    """(t0, t1, d0, d1, p0, p1) in z, with t = t0 + c2 t1, d = d0 + c2 d1 and
    P_1 = p0 + c2 p1 (c2 = M^2 + M^-2); built once per k, read-only."""
    m = (k - 1) // 2 if k % 2 else k // 2
    sm = coeffs_S(m)
    sm1 = coeffs_S(m - 1)
    one = const(1.0)
    z_m_2 = X - const(2.0)
    if k % 2:
        q, r, s = sm * sm1, sm * (sm - sm1), sm1 * (sm - sm1)
        t0 = const(2.0) - X - X * z_m_2 * q
        t1 = one + z_m_2 * q
        d0, d1 = one - X * r, r
        p0, p1 = one + X * s, -s
    else:
        sm2 = coeffs_S(m - 2)
        q, r, s = sm1 * sm1, sm1 * (sm - sm1), sm1 * (sm1 - sm2)
        t0 = const(2.0) + X * z_m_2 * q
        t1 = -(z_m_2 * q)
        d0, d1 = one + X * r, -r
        p0, p1 = one - X * s, s
    pieces = (t0, t1, d0, d1, p0, p1)
    for p in pieces:
        _read_only(p.coeffs)
    return pieces


def _coeff_polys(k: int, M: complex) -> tuple[ZPoly, ZPoly, ZPoly]:
    """(t(z), d(z), p1(z)) as coefficient polynomials at fixed M."""
    c2 = _m2_sum(M)
    t0, t1, d0, d1, p0, p1 = _affine_polys(k)
    return t0 + c2 * t1, d0 + c2 * d1, p0 + c2 * p1


def riley_zpoly(k: int, n: int, M: complex, form: str = "closed") -> ZPoly:
    """Coefficients of Phi_{J(k,2n)}(M, .) in z.

    form="closed" runs the Chebyshev recurrence S_j(t(z)) over coefficient
    vectors and returns S_n(t) - d S_{n-1}(t); form="recursive" runs the
    Remark-style recurrence from (P_0, P_1).  Both avoid interpolation, which
    is ill-conditioned at the degrees reached here.
    """
    if M == 0:
        raise ValueError("M must be nonzero")
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    t, d, p1 = _coeff_polys(k, M)
    one = const(1.0)
    zero = const(0.0)
    if form == "closed":
        # (A_j, A_{j-1}) = (S_j(t), S_{j-1}(t)) as polynomials in z
        a, am = one, zero
        if n >= 0:
            for _ in range(n):
                a, am = t * a - am, a
        else:
            for _ in range(-n):
                a, am = am, t * am - a
        phi = a - d * am
    elif form == "recursive":
        if n == 0:
            phi = one
        elif n > 0:
            prev, cur = one, p1
            for _ in range(n - 1):
                prev, cur = cur, t * cur - prev
            phi = cur
        else:
            cur, nxt = one, p1
            for _ in range(-n):
                cur, nxt = t * cur - nxt, cur
            phi = cur
    else:
        raise ValueError(f"unknown form {form!r}")

    warn_outside_envelope(k, n)
    return phi


def warn_outside_envelope(k: int, n: int) -> None:
    """ConditioningWarning when J(k,2n) lies outside the validated envelope;
    every numeric route (coefficients, roots, alpha_K and volumes) calls this
    once per request."""
    if k > DESK_MAX_K or abs(n) > DESK_MAX_ABS_N:
        warnings.warn(
            f"(k={k}, n={n}) is outside the validated envelope "
            f"(k <= {DESK_MAX_K}, |n| <= {DESK_MAX_ABS_N}); results there "
            "are not checked",
            ConditioningWarning,
            stacklevel=3,
        )


@lru_cache(maxsize=None)
def _eval_parts(k: int):
    """Descending coefficient arrays of t0, t1, d0, d1, p0, p1, then of their
    first z-derivatives, then of their second (read-only: the cache lives for
    the whole process)."""
    pieces = list(_affine_polys(k))
    pieces += [p.deriv() for p in pieces]
    pieces += [p.deriv() for p in pieces[6:]]
    return tuple(_read_only(p.coeffs[::-1].copy()) for p in pieces)


@lru_cache(maxsize=None)
def _eval_parts_py(k: int):
    """_eval_parts as tuples of Python complex numbers, for the scalar path."""
    return tuple(tuple(a.tolist()) for a in _eval_parts(k))


def _horner(coeffs, z):
    acc = 0j
    for c in coeffs:
        acc = acc * z + c
    return acc


def _walk(t, dt, a, da, am, dam, steps: int):
    """``steps`` turns of (a, am) -> (t a - am, a), carrying d/dz along."""
    for _ in range(steps):
        a, am, da, dam = t * a - am, a, dt * a + t * da - dam, da
    return a, da, am, dam


def _phi_dphi(parts, n: int, c2: complex, z, form: str = "closed"):
    """(Phi, dPhi/dz, scale) at (c2, z) from one knot's pieces
    (``_eval_parts``): t = t0(z) + c2 t1(z) and d, P_1 likewise.
    form="closed" gives Phi = S_n(t) - d S_{n-1}(t) from (S_0, S_-1) =
    (1, 0); form="recursive" runs P_j = t P_{j-1} - P_{j-2} from
    (P_0, P_1) = (1, P_1), an independent route to the same value.  Runs
    unchanged on a Python complex z and on a numpy array of z."""
    t0, t1, d0, d1, p0, p1, dt0, dt1, dd0, dd1, dp0, dp1 = parts[:12]
    t = _horner(t0, z) + c2 * _horner(t1, z)
    dt = _horner(dt0, z) + c2 * _horner(dt1, z)
    if form == "recursive":
        p = _horner(p0, z) + c2 * _horner(p1, z)
        dp = _horner(dp0, z) + c2 * _horner(dp1, z)
        if n > 0:
            a, da, am, _ = _walk(t, dt, p, dp, 1.0 + 0j, 0j, n - 1)
        else:  # the same turn walks down from (P_0, P_1)
            a, da, am, _ = _walk(t, dt, 1.0 + 0j, 0j, p, dp, -n)
        return a, da, abs(a) + abs(t) * abs(am) + 1e-300
    d = _horner(d0, z) + c2 * _horner(d1, z)
    dd = _horner(dd0, z) + c2 * _horner(dd1, z)
    # (a, am) = (S_n(t), S_{n-1}(t)); for n < 0 walk (S_-1, S_0) down
    if n >= 0:
        a, da, am, dam = _walk(t, dt, 1.0 + 0j, 0j, 0j, 0j, n)
    else:
        am, dam, a, da = _walk(t, dt, 0j, 0j, 1.0 + 0j, 0j, -n)
    phi = a - d * am
    dphi = da - dd * am - d * dam
    scale = abs(a) + abs(d) * abs(am) + 1e-300
    return phi, dphi, scale


def riley_phi_dphi_scalar(
    k: int, n: int, M: complex, z: complex, form: str = "closed"
) -> tuple[complex, complex, float]:
    """Scalar version of riley_phi_dphi (pure Python, no array overhead)."""
    return _phi_dphi(_eval_parts_py(k), n, _m2_sum(complex(M)), complex(z), form)


def riley_phi_dphi(k: int, n: int, M: complex, z, form: str = "closed"):
    """(Phi, dPhi/dz, magnitude scale) at z, scalar or array.

    Evaluates through the structured closed form (t(z), d(z) and the
    Chebyshev recurrence in n) instead of expanded monomial coefficients,
    which keeps full relative accuracy where the expanded form is
    ill-conditioned; form="recursive" runs the recurrence from (P_0, P_1)
    instead.  The scale output is the natural magnitude of the expression,
    for roundoff-floor tests on |Phi|.
    """
    return _phi_dphi(
        _eval_parts(k), n, _m2_sum(complex(M)), np.asarray(z, dtype=complex), form
    )


def _jmul(f, g):
    """Product of two jets (value, d/dz, d2/dz2, d/dc2, d2/dz dc2)."""
    f0, fz, fzz, fc, fzc = f
    g0, gz, gzz, gc, gzc = g
    return (
        f0 * g0,
        fz * g0 + f0 * gz,
        fzz * g0 + 2.0 * fz * gz + f0 * gzz,
        fc * g0 + f0 * gc,
        fzc * g0 + fz * gc + fc * gz + f0 * gzc,
    )


def _jsub(f, g):
    return tuple(a - b for a, b in zip(f, g))


def riley_phi_jet(k: int, n: int, c2, z, form: str = "closed"):
    """(Phi, Phi_z, Phi_zz, Phi_c2, Phi_z c2) at (c2, z), scalar or array.

    The recurrence of ``riley_phi_dphi`` carried on second-order jets; the
    c2-derivatives use dt/dc2 = t1, dd/dc2 = d1 and dP_1/dc2 = p1.  With
    c2 = 2 cos omega, dPhi/domega = Phi_c2 * (-2 sin omega)."""
    parts = _eval_parts(k)
    z = np.asarray(z, dtype=complex)

    def piece(i):  # jet of f0 + c2 f1 for the pair i (0: t, 1: d, 2: P_1)
        f1, df1 = _horner(parts[2 * i + 1], z), _horner(parts[2 * i + 7], z)
        return (
            _horner(parts[2 * i], z) + c2 * f1,
            _horner(parts[2 * i + 6], z) + c2 * df1,
            _horner(parts[2 * i + 12], z) + c2 * _horner(parts[2 * i + 13], z),
            f1,
            df1,
        )

    one, zero = (1.0 + 0j, 0j, 0j, 0j, 0j), (0j,) * 5
    t = piece(0)

    def walk(a, am, steps):
        for _ in range(steps):
            a, am = _jsub(_jmul(t, a), am), a
        return a, am

    if form == "recursive":
        p = piece(2)
        return walk(p, one, n - 1)[0] if n > 0 else walk(one, p, -n)[0]
    if n >= 0:
        a, am = walk(one, zero, n)
    else:
        am, a = walk(zero, one, -n)
    return _jsub(a, _jmul(piece(1), am))


def prop_w_matrix(k: int, pt: RepPoint) -> Mat2C:
    """rho(w) for the J(k, *) relator word, from the closed-form entries
    (w21 = (2-z) w12 in both families)."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    M, z = pt.M, pt.z
    Minv = 1.0 / M
    m2, mm2 = M * M, 1.0 / (M * M)
    m = (k - 1) // 2 if k % 2 else k // 2
    pair = eval_pair(m, z)
    sm, sm1 = pair.s_j, pair.s_jm1
    if k % 2:
        w11 = m2 * sm * sm - 2.0 * m2 * sm * sm1 + (2.0 + m2 - z) * sm1 * sm1
        w12 = (sm - sm1) * (M * sm - Minv * sm1)
        w22 = (mm2 + 2.0 - z) * sm * sm - 2.0 * mm2 * sm * sm1 + mm2 * sm1 * sm1
    else:
        w11 = (
            sm * sm
            + (2.0 - 2.0 * z) * sm * sm1
            + (1.0 + 2.0 * m2 - 2.0 * z - m2 * z + z * z) * sm1 * sm1
        )
        w12 = (Minv - M) * sm * sm1 + (Minv + M - Minv * z) * sm1 * sm1
        w22 = sm * sm - 2.0 * sm * sm1 + (1.0 + 2.0 * mm2 - mm2 * z) * sm1 * sm1
    return Mat2C(w11, w12, (2.0 - z) * w12, w22)
