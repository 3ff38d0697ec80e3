"""alpha_K as the largest fold of the dihedral characters swept down from pi,
and the complete volumes of the branch tracked down from it, checked over
the envelope by invariants that need no outside data."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from dtvol.riley import riley_phi_dphi, riley_phi_dphi_scalar
from dtvol.solver import dihedral_characters, find_alpha_K, largest_fold
from dtvol.volume import cone_volume, volume_curve
from dtvol.words import KnotParam

BORROMEAN = 7.327724753  # every J(k,2n) lies below the Borromean rings' volume


def grid(k_max, n_max):
    """(k, n) of J(k,2n) for 2 <= k <= k_max, 1 <= |n| <= n_max, trefoil aside."""
    return [
        (k, n)
        for k in range(2, k_max + 1)
        for n in range(-n_max, n_max + 1)
        if n != 0 and (k, n) != (2, 1)
    ]


ENVELOPE = grid(19, 10)


def partner(k, n):
    """J(l,k) for J(k,l) = J(k,2n) when both twists are even (the mirror
    J(-l,-k) when l < 0, with the same volume and alpha_K), or None."""
    if k % 2:
        return None
    other = (2 * n, k // 2) if n > 0 else (-2 * n, -(k // 2))
    return None if other == (k, n) else other


def check_invariants(values, tol):
    """J(k,l) = J(l,k) to tol, and no decrease in k or in |n| for either sign
    of n."""
    pairs = [
        (kn, partner(*kn))
        for kn in values
        if partner(*kn) in values and abs(values[kn] - values[partner(*kn)]) > tol
    ]
    assert not pairs, pairs
    drops = [
        (kn, nxt)
        for kn in values
        for nxt in ((kn[0] + 1, kn[1]), (kn[0], kn[1] + (1 if kn[1] > 0 else -1)))
        if nxt in values and values[nxt] < values[kn]
    ]
    assert not drops, drops


def test_dihedral_characters_are_the_roots_at_pi():
    # at omega = pi (M = i) the roots are z_j = 2 cos(2 pi j/|p|), p = 2kn - 1,
    # as many as the degree k|n| - [n > 0]
    for k, n in ENVELOPE + [(2, 1)]:
        x = dihedral_characters(KnotParam(k, n))
        assert x.size == k * abs(n) - (n > 0), (k, n)
        assert np.all(np.diff(x) > 0)
        phi, dphi, _ = riley_phi_dphi(k, n, 1j, x)
        assert np.max(np.abs(phi / dphi) / (1.0 + np.abs(x))) <= 1e-9, (k, n)
        for z in x:
            phi, dphi, _ = riley_phi_dphi_scalar(k, n, 1j, z)
            assert abs(phi / dphi) / (1.0 + abs(z)) <= 1e-9, (k, n, z)


def test_phi_at_pi_closed_form():
    # Phi(i, 2 cos theta) = (-1)^(kn+1) sin(p theta/2) / sin(theta/2)
    theta = np.linspace(0.05, 3.1, 7)
    for k, n in ENVELOPE:
        p = 2 * k * n - 1
        phi, _, scale = riley_phi_dphi(k, n, 1j, 2.0 * np.cos(theta))
        want = (-1) ** (k * n + 1) * np.sin(p * theta / 2) / np.sin(theta / 2)
        assert np.all(np.abs(phi - want) <= 1e-6 * scale), (k, n)


def test_largest_fold_over_the_envelope():
    alpha = {kn: largest_fold(KnotParam(*kn)).alpha_K for kn in ENVELOPE}
    assert all(2 * math.pi / 3 - 1e-4 <= a < math.pi for a in alpha.values())
    check_invariants(alpha, 1e-10)
    # the exact largest folds of the resultant Res_z(Phi, dPhi/dz)
    assert alpha[(10, 5)] == pytest.approx(3.0916552885, abs=1e-10)
    assert alpha[(12, 4)] == pytest.approx(3.0895404303, abs=1e-10)
    assert alpha[(8, 7)] == pytest.approx(3.0970512779, abs=1e-10)


def test_find_alpha_K_is_the_fold_of_cone_volume():
    for kn in [(2, -1), (4, 1), (7, 5), (10, 5), (13, 7)]:
        knot = KnotParam(*kn)
        assert find_alpha_K(knot) == cone_volume(knot, 0.0, 1e-9).alpha_K


def test_complete_volumes_over_the_census_grid():
    vols, alphas = {}, {}
    for kn in grid(14, 7):
        res = cone_volume(KnotParam(*kn), 0.0, 1e-9)
        vols[kn], alphas[kn] = res.volume, res.alpha_K
    check_invariants(vols, 1e-8)
    check_invariants(alphas, 1e-8)
    assert all(0.0 < v < BORROMEAN for v in vols.values())
    assert vols[(13, 7)] == pytest.approx(7.11322931777, abs=1e-9)


def test_figure_eight_curve_closed_form():
    # Vol(alpha) = int_alpha^{2 pi/3} arccosh(1 + cos t - cos 2t) dt
    # (Mednykh-Rasskazov), integrated by scipy in s = sqrt(2 pi/3 - t)
    def closed(alpha):
        top = 2 * math.pi / 3

        def f(s):
            t = top - s * s
            return 2 * s * math.acosh(max(1 + math.cos(t) - math.cos(2 * t), 1.0))

        return quad(f, 0.0, math.sqrt(top - alpha), epsabs=1e-15, limit=200)[0]

    alphas = [0.0, 0.5, 1.0, 1.5, 2.0]
    for res in volume_curve(KnotParam(2, -1), alphas, 1e-9):
        assert res.volume == pytest.approx(closed(res.alpha), abs=1e-12)
