import math

import numpy as np
import pytest

from dtvol.riley import riley_phi_dphi_scalar
from dtvol.solver import (
    NonHyperbolicError,
    geometric_branch,
    find_alpha_K,
    imcond_value,
    max_backward_error,
    omega_to_M,
    phi_coeffs,
    poly_roots,
    roots_of_coeffs,
)
from dtvol.words import KnotParam
from dtvol.zpoly import ZPoly

FIG8 = KnotParam(2, -1)
TWO_PI_3 = 2 * math.pi / 3


def test_poly_roots_quadratic():
    roots = sorted(poly_roots(ZPoly([3, -3, 1])), key=lambda z: z.imag)
    assert roots[0] == pytest.approx((3 - math.sqrt(3) * 1j) / 2)
    assert roots[1] == pytest.approx((3 + math.sqrt(3) * 1j) / 2)


def test_poly_roots_linear_and_simple():
    assert poly_roots(ZPoly([3, -1]))[0] == pytest.approx(3)
    roots = sorted(poly_roots(ZPoly([-1, 0, 1])), key=lambda z: z.real)
    assert roots[0] == pytest.approx(-1)
    assert roots[1] == pytest.approx(1)


def test_poly_roots_rejects_degenerate():
    with pytest.raises(ValueError):
        poly_roots(ZPoly([0]))
    with pytest.raises(ValueError):
        poly_roots(ZPoly([5]))


def test_poly_roots_matches_companion_matrix():
    # the Aberth solver against numpy's companion-matrix eigenvalues
    rng = np.random.default_rng(22)
    for deg in (3, 5, 8, 13, 21, 34):
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        got = np.array(sorted(poly_roots(ZPoly(c)), key=lambda z: (z.real, z.imag)))
        want = np.array(sorted(np.roots(c[::-1]), key=lambda z: (z.real, z.imag)))
        assert np.max(np.abs(got - want)) < 1e-7
        assert max_backward_error(c, got) < 1e-10


def test_poly_roots_backward_error_bound():
    rng = np.random.default_rng(23)
    for _ in range(20):
        deg = int(rng.integers(2, 40))
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        p = ZPoly(c)
        roots = poly_roots(p)
        assert len(roots) == p.degree
        assert max_backward_error(p.coeffs, roots) <= 1e-10


def test_roots_at_origin_peeled():
    # z^2 (z - 2): exact zero constant terms
    roots = sorted(poly_roots(ZPoly([0, 0, -2, 1])), key=lambda z: z.real)
    assert roots[0] == pytest.approx(0)
    assert roots[1] == pytest.approx(0)
    assert roots[2] == pytest.approx(2)


def test_imcond_examples():
    # even family m=1: imcond = Im((S1-S0) conj(S0-S_-1)) = Im(z - 1)
    z = 1.5 - 0.8660254j
    assert imcond_value(FIG8, z) == pytest.approx(-0.8660254)
    # odd family m=1: imcond = Im(S1 conj(S0)) = Im z
    assert imcond_value(KnotParam(3, 1), z) == pytest.approx(-0.8660254)
    # conjugation flips the sign
    assert imcond_value(FIG8, z.conjugate()) == pytest.approx(0.8660254)


def test_branch_figure_eight_seed():
    br = geometric_branch(FIG8, alpha=1e-4)
    assert len(br.candidates) == 1
    cand = br.candidates[0]
    assert cand.selected
    # z(0.0001) ~ root of z^2 - 3z + 3 with Im z < 0
    assert cand.z == pytest.approx((3 - math.sqrt(3) * 1j) / 2, abs=1e-5)
    assert cand.imcond < 0


def test_branch_alpha_K_figure_eight():
    assert find_alpha_K(FIG8) == pytest.approx(TWO_PI_3, abs=1e-6)
    # J(3,2) has the identical Riley polynomial
    assert find_alpha_K(KnotParam(3, 1)) == pytest.approx(TWO_PI_3, abs=1e-6)


def test_trefoil_not_hyperbolic():
    with pytest.raises(NonHyperbolicError):
        geometric_branch(KnotParam(2, 1), alpha=0.5)
    with pytest.raises(NonHyperbolicError):
        find_alpha_K(KnotParam(2, 1))


def test_branch_point_invariants():
    br = geometric_branch(FIG8, alpha=1e-4)
    eps = np.finfo(float).eps
    for bp in br.points:
        # |Phi| residual against the expanded coefficients, relative to the
        # evaluation scale
        c = phi_coeffs(FIG8, bp.omega)
        mags = np.abs(c)
        scale = float(mags @ (abs(bp.z) ** np.arange(mags.size)))
        assert abs(np.polyval(c[::-1], bp.z)) < 1e-9 * max(1.0, scale)
        # branch inequality
        assert bp.imcond <= 1e-9
        assert bp.M == pytest.approx(omega_to_M(bp.omega))
    omegas = br.omegas
    assert all(b > a for a, b in zip(omegas, omegas[1:]))
    assert omegas[-1] == pytest.approx(math.pi)


def test_real_characters_above_alpha_K():
    for knot in (FIG8, KnotParam(4, 1)):
        br = geometric_branch(knot, alpha=1e-4)
        assert br.alpha_K is not None
        for bp in br.points:
            if bp.omega > br.alpha_K + 1e-9:
                assert abs(bp.z.imag) < 1e-7


def test_no_branch_jumps_against_full_root_sets():
    # spot-check the spec's no-jump bound on a subsample of steps
    br = geometric_branch(KnotParam(4, 1), alpha=1e-4)
    pts = [p for p in br.points if p.omega < br.alpha_K - 0.05]
    for prev, cur in list(zip(pts, pts[1:]))[:: max(1, len(pts) // 40)]:
        roots = roots_of_coeffs(phi_coeffs(KnotParam(4, 1), cur.omega))
        d = np.abs(roots - cur.z)
        i0 = int(np.argmin(d))
        others = np.delete(roots, i0)
        sep = float(np.min(np.abs(others - roots[i0])))
        move = abs(cur.z - prev.z)
        assert move < 0.5 * sep


def test_half_step_endpoint_agreement():
    for kn in [(2, -1), (4, 1), (5, -1)]:
        knot = KnotParam(*kn)
        b1 = geometric_branch(knot, 0.1, step=0.005)
        b2 = geometric_branch(knot, 0.1, step=0.0025)
        assert abs(b1.points[-1].z - b2.points[-1].z) < 1e-8
        assert abs(b1.alpha_K - b2.alpha_K) < 1e-8


def test_conjugate_symmetry_of_root_sets():
    for knot in (FIG8, KnotParam(5, 2)):
        for om in (0.3, 1.1, 2.2, 3.0):
            roots = roots_of_coeffs(phi_coeffs(knot, om))
            for z in roots:
                assert np.min(np.abs(roots - np.conj(z))) < 1e-9


def test_structured_newton_agrees_with_roots():
    knot = KnotParam(5, 2)
    for om in (0.5, 1.5, 2.0):
        roots = roots_of_coeffs(phi_coeffs(knot, om))
        M = omega_to_M(om)
        for z in roots[:6]:
            phi, _, scale = riley_phi_dphi_scalar(knot.k, knot.n, M, complex(z))
            assert abs(phi) < 1e-7 * scale


def test_alpha_K_symmetric_pairs():
    # J(k,l) ~ J(l,k), with the mirror partner J(-l,-k) for l < 0; these
    # pairs disagreed by up to 1.3e-6 under a realness-threshold landing
    for a, b in [((2, 4), (8, 1)), ((2, -2), (4, -1)), ((2, -3), (6, -1)),
                 ((2, -4), (8, -1))]:
        assert abs(find_alpha_K(KnotParam(*a)) - find_alpha_K(KnotParam(*b))) < 1e-10


def test_alpha_K_in_theoretical_range():
    for kn in [(2, -1), (2, 2), (3, -1), (4, -2), (5, 1)]:
        aK = find_alpha_K(KnotParam(*kn))
        assert TWO_PI_3 - 1e-4 <= aK < math.pi


def test_branch_rejects_bad_alpha():
    with pytest.raises(ValueError):
        geometric_branch(FIG8, alpha=0.0)
    with pytest.raises(ValueError):
        geometric_branch(FIG8, alpha=3.5)
