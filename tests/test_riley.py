import warnings

import numpy as np
import pytest

from dtvol import riley
from dtvol.riley import (
    ConditioningWarning,
    prop_w_matrix,
    riley_closed,
    riley_coefficients,
    riley_even,
    riley_odd,
    riley_phi_dphi,
    riley_phi_dphi_scalar,
    riley_phi_jet,
    riley_recursive,
    riley_zpoly,
)
from dtvol.slrep import RepPoint, rho_word, riley_poly_value
from dtvol.words import KnotParam, jk_word

from oracles import random_reppoint


def test_odd_m1_figure_eight_at_M1():
    # t1 = 4 - z - z(z-2)^2, d1 = 1 - z(z-2)(z-1); Phi = z^2 - 3z + 3
    for z in (0.2, 1.5 - 0.7j, -2.0 + 1.0j):
        pt = RepPoint(1.0, z)
        rc = riley_coefficients(3, pt)
        assert rc.t == pytest.approx(4 - z - z * (z - 2) ** 2)
        assert rc.d == pytest.approx(1 - z * (z - 2) * (z - 1))
        assert riley_odd(1, 1, pt) == pytest.approx(z * z - 3 * z + 3)


def test_odd_m1_symbolic_general_M():
    rng = np.random.default_rng(13)
    for _ in range(20):
        pt = random_reppoint(rng)
        M, z = pt.M, pt.z
        c2 = M**2 + M**-2
        want = 1 + c2 - z + z * z - z * c2
        assert riley_odd(1, 1, pt) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_odd_n0_is_one():
    rng = np.random.default_rng(14)
    for _ in range(10):
        pt = random_reppoint(rng)
        assert riley_odd(2, 0, pt) == pytest.approx(1)
        assert riley_recursive(5, 0, pt) == pytest.approx(1)


def test_even_m1_examples():
    for z in (0.3, 2.2 - 0.4j):
        pt = RepPoint(1.0, z)
        assert riley_even(1, 1, pt) == pytest.approx(3 - z)
        assert riley_even(1, -1, pt) == pytest.approx(z * z - 3 * z + 3)
    rng = np.random.default_rng(15)
    for _ in range(20):
        pt = random_reppoint(rng)
        M, z = pt.M, pt.z
        want = 1 + (z - M**2 - M**-2) * (z - 1)
        assert riley_even(1, -1, pt) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_figure_eight_presentation_coincidence():
    # Phi_{J(3,2)} == Phi_{J(2,-2)} identically
    rng = np.random.default_rng(16)
    for _ in range(50):
        pt = random_reppoint(rng)
        a = riley_odd(1, 1, pt)
        b = riley_even(1, -1, pt)
        assert abs(a - b) < 1e-12 * max(1.0, abs(a))


def test_closed_equals_recursive():
    rng = np.random.default_rng(17)
    for k in range(2, 10):
        for n in range(-5, 6):
            if n == 0:
                continue
            for _ in range(4):
                pt = random_reppoint(rng, spread=3.0)
                a = riley_closed(KnotParam(k, n), pt)
                b = riley_recursive(k, n, pt)
                assert abs(a - b) / max(1.0, abs(a)) < 1e-10, (k, n)


def test_closed_equals_general_word_form():
    rng = np.random.default_rng(18)
    for k in range(2, 10):
        for n in (-3, -1, 1, 2, 4):
            w = jk_word(k) ** n
            for _ in range(3):
                pt = random_reppoint(rng)
                a = riley_closed(KnotParam(k, n), pt)
                b = riley_poly_value(w, pt)
                assert abs(a - b) / max(1.0, abs(a)) < 1e-9, (k, n)


def test_zpoly_coefficients():
    assert np.allclose(riley_zpoly(2, -1, 1.0).coeffs, [3, -3, 1])
    assert np.allclose(riley_zpoly(2, 1, 1.0).coeffs, [3, -1])
    assert riley_zpoly(3, 1, 0.7 + 0.4j).degree == 2


def test_zpoly_matches_recursive_evaluation():
    # agreement to 1e-9 relative, or to the roundoff floor of evaluating the
    # expanded coefficients (eps * sum |c_j||z|^j), whichever is looser
    rng = np.random.default_rng(19)
    eps = np.finfo(float).eps
    for k, n in [(2, -1), (3, 2), (4, -3), (5, 2), (7, -2), (9, 5)]:
        M = complex(rng.uniform(0.5, 1.4), rng.uniform(-0.6, 0.6))
        for form in ("closed", "recursive"):
            p = riley_zpoly(k, n, M, form=form)
            mags = np.abs(p.coeffs)
            for _ in range(50):
                z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                a = p(z)
                b = riley_recursive(k, n, RepPoint(M, z))
                floor = 64 * eps * float(mags @ (abs(z) ** np.arange(mags.size)))
                assert abs(a - b) < max(1e-9 * max(1.0, abs(b)), floor), (k, n, form)


def test_phi_dphi_structured_evaluation():
    rng = np.random.default_rng(20)
    for k, n in [(2, -1), (5, 3), (8, -4)]:
        M = complex(rng.uniform(0.6, 1.2), rng.uniform(-0.4, 0.4))
        zs = rng.uniform(-2, 2, 8) + 1j * rng.uniform(-2, 2, 8)
        p = riley_zpoly(k, n, M)
        dp = p.deriv()
        for form in ("closed", "recursive"):
            phi, dphi, _ = riley_phi_dphi(k, n, M, zs, form)
            for z, f, df in zip(zs, phi, dphi):
                assert f == pytest.approx(p(complex(z)), rel=1e-8, abs=1e-9)
                assert df == pytest.approx(dp(complex(z)), rel=1e-7, abs=1e-8)
                fs, dfs, _ = riley_phi_dphi_scalar(k, n, M, complex(z), form)
                assert fs == pytest.approx(f, rel=1e-13, abs=1e-13)
                assert dfs == pytest.approx(df, rel=1e-13, abs=1e-13)


def test_affine_pieces_match_closed_form():
    # t0 + c2 t1, d0 + c2 d1 and p0 + c2 p1 against the Chebyshev-value routes,
    # which never expand coefficients in z
    rng = np.random.default_rng(31)
    for k in range(2, 20):
        t0, t1, d0, d1, p0, p1 = riley._affine_polys(k)
        for _ in range(10):
            pt = random_reppoint(rng)
            c2 = pt.M**2 + pt.M**-2
            z = pt.z
            rc = riley_coefficients(k, pt)
            p = riley._p1_value(k, pt)
            assert abs(t0(z) + c2 * t1(z) - rc.t) <= 1e-10 * abs(rc.t), k
            assert abs(d0(z) + c2 * d1(z) - rc.d) <= 1e-10 * abs(rc.d), k
            assert abs(p0(z) + c2 * p1(z) - p) <= 1e-10 * abs(p), k


def test_phi_dphi_scalar_matches_recursive():
    # both routes of the structured kernel: the closed form, and the
    # recurrence from (P_0, P_1) with P_1 = p0 + c2 p1
    rng = np.random.default_rng(32)
    for k in range(2, 20):
        for _ in range(3):
            pt = random_reppoint(rng)
            for M in (pt.M, pt.M / abs(pt.M)):
                for n in range(-10, 11):
                    phi, _, scale = riley_phi_dphi_scalar(k, n, M, pt.z)
                    rec, _, _ = riley_phi_dphi_scalar(k, n, M, pt.z, form="recursive")
                    ref = riley_recursive(k, n, RepPoint(M, pt.z))
                    assert abs(phi - ref) <= 1e-9 * scale, (k, n, M)
                    assert abs(rec - ref) <= 1e-9 * scale, (k, n, M)


def test_omega_column_matches_central_difference():
    # dPhi/domega = dPhi/dc2 * (-2 sin omega), c2 = 2 cos omega, from
    # riley_phi_jet, against a central difference of riley_phi_dphi in omega;
    # likewise the mixed and second z-derivatives against differences of
    # dPhi/dz
    rng = np.random.default_rng(34)
    h = 1e-6
    for k in range(2, 20, 3):
        for n in (-7, -2, 1, 4, 10):
            for form in ("closed", "recursive"):
                om = rng.uniform(0.2, 3.0)
                z = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
                jet = riley_phi_jet(k, n, 2 * np.cos(om), z, form)
                phi, dphi, scale = riley_phi_dphi(k, n, np.exp(0.5j * om), z, form)
                assert abs(jet[0] - phi) <= 1e-12 * scale
                assert abs(jet[1] - dphi) <= 1e-12 * (abs(dphi) + scale)
                up = riley_phi_dphi(k, n, np.exp(0.5j * (om + h)), z, form)
                down = riley_phi_dphi(k, n, np.exp(0.5j * (om - h)), z, form)
                col = jet[3] * (-2 * np.sin(om))
                fd = (up[0] - down[0]) / (2 * h)
                assert abs(fd - col) <= 1e-5 * (abs(col) + scale), (k, n, form)
                fd = (up[1] - down[1]) / (2 * h)
                col = jet[4] * (-2 * np.sin(om))
                assert abs(fd - col) <= 1e-5 * (abs(col) + abs(dphi) + scale), (k, n, form)
                right = riley_phi_dphi(k, n, np.exp(0.5j * om), z + h, form)
                left = riley_phi_dphi(k, n, np.exp(0.5j * om), z - h, form)
                fd = (right[1] - left[1]) / (2 * h)
                assert abs(fd - jet[2]) <= 1e-5 * (abs(jet[2]) + abs(dphi) + scale), (k, n, form)


def test_kernel_built_once_per_knot():
    riley._eval_parts.cache_clear()
    riley._eval_parts_py.cache_clear()
    zs = np.array([0.3 + 0.7j, -1.1 + 0.2j])
    for omega in np.linspace(0.01, np.pi, 200):
        M = complex(np.exp(0.5j * omega))
        riley_phi_dphi_scalar(7, 5, M, zs[0])
        riley_phi_dphi(7, 5, M, zs)
    assert riley._eval_parts_py.cache_info().misses == 1
    assert riley._eval_parts.cache_info().misses == 1


def test_cached_kernel_is_read_only():
    with pytest.raises(ValueError):
        riley._eval_parts(5)[0][0] = 0.0
    with pytest.raises(ValueError):
        riley._affine_polys(5)[0].coeffs[0] = 0.0


def test_prop_w_matrix_against_product():
    rng = np.random.default_rng(21)
    for k in range(2, 10):
        w = jk_word(k)
        for _ in range(5):
            pt = random_reppoint(rng)
            closed = prop_w_matrix(k, pt)
            direct = rho_word(w, pt)
            norm = 1 + max(abs(closed.e11), abs(closed.e12), abs(closed.e22))
            assert closed.max_abs_diff(direct) < 1e-10 * norm
            assert closed.det() == pytest.approx(1, abs=1e-12 * norm**2)
            # w21 = (2 - z) w12 built in; trace equals the family t
            assert closed.e21 == pytest.approx((2 - pt.z) * closed.e12, rel=1e-12, abs=1e-12)
            t = riley_coefficients(k, pt).t
            assert abs(closed.trace() - t) < 1e-12 * max(1.0, abs(t))


def test_prop_w_example_entries():
    pt = RepPoint(0.9 - 0.2j, 1.3 + 0.5j)
    M, z = pt.M, pt.z
    m = prop_w_matrix(3, pt)
    assert m.e12 == pytest.approx((z - 1) * (M * z - 1 / M))
    m = prop_w_matrix(2, pt)
    assert m.e22 == pytest.approx(z * z - 2 * z + 1 + 2 * M**-2 - M**-2 * z)


def test_conditioning_warning_outside_envelope():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        riley_zpoly(9, 5, 1.1)  # inside the envelope: silent
    with pytest.warns(ConditioningWarning):
        riley_zpoly(21, 1, 1.1)
    with pytest.warns(ConditioningWarning):
        riley_zpoly(3, 11, 1.1)


def test_validation():
    with pytest.raises(ValueError):
        riley_zpoly(1, 1, 1.0)
    with pytest.raises(ValueError):
        riley_zpoly(2, 1, 0.0)
    with pytest.raises(ValueError):
        riley_odd(0, 1, RepPoint(1.0, 0.5))
    with pytest.raises(ValueError):
        riley_zpoly(2, 1, 1.0, form="nope")
