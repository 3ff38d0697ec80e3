import math
import warnings

import numpy as np
import pytest

from dtvol.riley import (
    ConditioningWarning,
    riley_phi_dphi,
    riley_phi_dphi_scalar,
    riley_zpoly,
)
from dtvol.solver import (
    ContinuationAmbiguousError,
    NonHyperbolicError,
    geometric_branch,
    find_alpha_K,
    imcond_value,
    omega_to_M,
    phi_coeffs,
    riley_roots,
    roots_of_coeffs,
)
from dtvol.words import KnotParam

FIG8 = KnotParam(2, -1)
TWO_PI_3 = 2 * math.pi / 3


def _assert_certified(knot, M, z):
    """The degree's count of roots, each a root to a relative Newton step
    of 1e-10 on the structured evaluation, all distinct."""
    assert z.size == knot.k * abs(knot.n) - (knot.n > 0)
    phi, dphi, _ = riley_phi_dphi(knot.k, knot.n, M, z)
    assert np.max(np.abs(phi / dphi) / (1.0 + np.abs(z))) <= 1e-10
    gaps = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(gaps, np.inf)
    assert np.min(gaps) > 0.0


# where the expanded-coefficient solve printed truncated or inaccurate sets;
# J(10,16)'s path passes within ~1e-7 of a double root of Phi
@pytest.mark.parametrize(
    "kn, omega",
    [
        pytest.param(kn, om, id=f"{KnotParam(*kn)}-{om}")
        for kn, om in [((2, 8), 0.1), ((2, 10), 0.1), ((19, -4), 0.1), ((13, 7), 0.1),
                       ((19, 10), 2.9), ((10, 8), 2.9)]
    ],
)
def test_riley_roots_certified_over_the_envelope(kn, omega):
    knot, M = KnotParam(*kn), omega_to_M(omega)
    z = riley_roots(knot, M)
    _assert_certified(knot, M, z)
    # Phi has real coefficients at real c2, so the set is conjugate-closed
    assert max(np.min(np.abs(z - np.conj(w))) for w in z) <= 1e-9


def test_riley_roots_trefoil():
    # degree 1: Phi = 3 - z at M = 1, and the one character -1 at M = i
    trefoil = KnotParam(2, 1)
    assert riley_roots(trefoil, 1.0) == pytest.approx([3.0], abs=1e-14)
    assert riley_roots(trefoil, 1j) == pytest.approx([-1.0], abs=1e-14)


@pytest.mark.parametrize("kn", [(4, 1), (7, 5)])
@pytest.mark.parametrize("M", [0.7 + 0.4j, 1.3 - 0.2j])
def test_riley_roots_off_the_unit_circle(kn, M):
    knot = KnotParam(*kn)
    z = riley_roots(knot, M)
    _assert_certified(knot, M, z)
    if knot.k * abs(knot.n) < 10:  # well-conditioned: the companion matrix agrees
        want = roots_of_coeffs(riley_zpoly(knot.k, knot.n, M).coeffs)
        assert np.max(np.min(np.abs(z[:, None] - want[None, :]), axis=1)) < 1e-10


def test_riley_roots_raises_at_a_double_root():
    # the fig-8's two roots meet at its fold, omega = 2 pi/3
    with pytest.raises(ContinuationAmbiguousError, match="M = 0.5"):
        riley_roots(FIG8, omega_to_M(TWO_PI_3))


def test_envelope_warning_on_every_route():
    inside, outside, M = KnotParam(9, 5), KnotParam(21, 1), omega_to_M(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        find_alpha_K(inside)
        riley_roots(inside, M)
    with pytest.warns(ConditioningWarning):
        find_alpha_K(outside)
    with pytest.warns(ConditioningWarning):
        riley_roots(outside, M)


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
