import math

import numpy as np
import pytest
from scipy.integrate import quad

from dtvol.riley import prop_w_matrix
from dtvol.slrep import RepPoint
from dtvol.solver import BranchPoint, geometric_branch, imcond_value, omega_to_M
from dtvol.volume import (
    DegenerateLongitudeError,
    NegativeIntegrandError,
    _adaptive_gk,
    _adaptive_simpson,
    branch_csv_rows,
    cone_volume,
    integrand,
    longitude_L,
    volume_curve,
)
from dtvol.words import KnotParam

from oracles import FIG8_VOLUME

FIG8 = KnotParam(2, -1)


def test_longitude_closed_form_odd_m1():
    # k=3, m=1: L = -M^{-4n} (z/M - M)/(Mz - 1/M)
    knot = KnotParam(3, 1)
    M, z = 0.8 + 0.4j, 1.1 - 0.6j
    want = -(M ** (-4)) * (z / M - M) / (M * z - 1 / M)
    assert longitude_L(knot, z, M) == pytest.approx(want)


def test_longitude_unit_modulus_for_real_characters():
    # real z and |M| = 1 force |L| = 1 (both families)
    for knot in (KnotParam(2, 2), KnotParam(4, -1), KnotParam(5, 2)):
        for om in (0.7, 1.9, 2.8):
            M = omega_to_M(om)
            for z in (-1.3, 0.4, 2.7):
                assert abs(longitude_L(knot, z, M)) == pytest.approx(1, abs=1e-12)


def test_longitude_matches_w12_tilde_ratio():
    # L = -w12(M^-1)/w12(M), times M^{-4n} for odd k
    rng = np.random.default_rng(24)
    for kn in [(2, -1), (3, 2), (4, 1), (5, -2), (6, 3), (7, 1)]:
        knot = KnotParam(*kn)
        for _ in range(10):
            M = complex(rng.uniform(0.5, 1.4), rng.uniform(-0.6, 0.6))
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            w12 = prop_w_matrix(knot.k, RepPoint(M, z)).e12
            w12_tilde = prop_w_matrix(knot.k, RepPoint(1 / M, z)).e12
            if abs(w12) < 1e-8:
                continue
            want = -w12_tilde / w12
            if knot.odd:
                want *= M ** (-4 * knot.n)
            got = longitude_L(knot, z, M)
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_longitude_w12_consistency_on_branch_points():
    for knot in (FIG8, KnotParam(4, 1)):
        br = geometric_branch(knot, alpha=0.3)
        for bp in br.points[:: max(1, len(br.points) // 25)]:
            w12 = prop_w_matrix(knot.k, RepPoint(bp.M, bp.z)).e12
            w12_tilde = prop_w_matrix(knot.k, RepPoint(1 / bp.M, bp.z)).e12
            if abs(w12) < 1e-10:
                continue
            want = -w12_tilde / w12
            if knot.odd:
                want *= bp.M ** (-4 * knot.n)
            got = longitude_L(knot, bp.z, bp.M)
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_integrand_zero_for_real_z():
    bp = BranchPoint(2.5, omega_to_M(2.5), complex(1.7, 0.0), 0.0)
    assert integrand(KnotParam(2, 2), bp) == 0.0


def test_integrand_positive_on_geometric_branch():
    br = geometric_branch(FIG8, alpha=1e-4)
    vals = [
        integrand(FIG8, bp)
        for bp in br.points
        if 0.1 <= bp.omega <= br.alpha_K - 0.05
    ]
    assert all(v > 0 for v in vals)
    # known value at omega = 0.1 from the quadratic-formula branch point
    om = 0.1
    c = 1 + 2 * math.cos(om)
    z = (c - 1j * math.sqrt(4 * c - c * c)) / 2
    bp = BranchPoint(om, omega_to_M(om), z, imcond_value(FIG8, z))
    assert integrand(FIG8, bp) == pytest.approx(0.1726299295, abs=1e-8)


def test_integrand_flags_wrong_branch():
    # conjugate root has |L| < 1
    z = (3 + math.sqrt(3) * 1j) / 2
    bp = BranchPoint(0.5, omega_to_M(0.5), z, imcond_value(FIG8, z))
    with pytest.raises(NegativeIntegrandError):
        integrand(FIG8, bp)


def test_degenerate_longitude_raises():
    # even family m=1: denominator M(z-1) - 1/M vanishes at z = 1 + M^-2
    M = omega_to_M(1.0)
    z = 1 + M ** (-2)
    with pytest.raises(DegenerateLongitudeError):
        longitude_L(FIG8, z, M)


def test_quadrature_rules_on_known_integrals():
    val, err = _adaptive_gk(math.sin, 0.0, math.pi, 1e-12)
    assert val == pytest.approx(2.0, abs=1e-12)
    assert err <= 1e-12
    val_s, _ = _adaptive_simpson(math.sin, 0.0, math.pi, 1e-10)
    assert val_s == pytest.approx(2.0, abs=1e-9)
    # oscillatory integrand with an endpoint square root, like the Schlafli
    # integrand near alpha_K
    f = lambda x: math.sqrt(max(1.0 - x, 0.0)) * math.cos(7 * x) ** 2
    want = quad(f, 0.0, 1.0, limit=300, epsabs=1e-13)[0]
    val, err = _adaptive_gk(f, 0.0, 1.0, 1e-11)
    assert val == pytest.approx(want, abs=5e-11)
    val_s, _ = _adaptive_simpson(f, 0.0, 1.0, 1e-10)
    assert val_s == pytest.approx(want, abs=5e-9)


def test_cone_volume_figure_eight_complete():
    res = cone_volume(FIG8, 1e-4, 1e-9)
    assert res.volume == pytest.approx(FIG8_VOLUME, abs=1e-6)
    assert res.quad_error < 1e-9
    assert res.alpha_K == pytest.approx(2 * math.pi / 3, abs=1e-6)
    assert res.branch_diagnostics and res.branch_diagnostics[0].selected


def test_cone_volume_alpha_zero_extension():
    res = cone_volume(FIG8, 0.0, 1e-9)
    assert res.volume == pytest.approx(FIG8_VOLUME, abs=1e-12)


def test_cone_volume_zero_at_and_above_alpha_K():
    res = cone_volume(FIG8, 2 * math.pi / 3, 1e-9)
    assert abs(res.volume) < 1e-6
    res = cone_volume(FIG8, 2.8, 1e-9)
    assert res.volume == 0.0


def test_volume_curve_monotone_and_consistent():
    alphas = list(np.linspace(0.1, math.pi, 10))
    curve = volume_curve(FIG8, alphas, 1e-9)
    vols = [r.volume for r in curve]
    assert all(a >= b - 1e-12 for a, b in zip(vols, vols[1:]))
    assert vols[-1] == 0.0
    # strictly decreasing below alpha_K
    below = [v for r, v in zip(curve, vols) if r.alpha < r.alpha_K - 1e-6]
    assert all(a > b for a, b in zip(below, below[1:]))
    # single-point curve equals cone_volume
    single = volume_curve(FIG8, [1.0], 1e-9)[0]
    direct = cone_volume(FIG8, 1.0, 1e-9)
    assert single.volume == pytest.approx(direct.volume, abs=1e-10)


def test_volume_curve_validates_input():
    with pytest.raises(ValueError):
        volume_curve(FIG8, [1.0, 0.5], 1e-9)
    with pytest.raises(ValueError):
        volume_curve(FIG8, [-0.1, 0.5], 1e-9)
    assert volume_curve(FIG8, [], 1e-9) == []


def test_cone_volume_validates_input():
    with pytest.raises(ValueError):
        cone_volume(FIG8, -0.2, 1e-9)
    with pytest.raises(ValueError):
        cone_volume(FIG8, 1.0, 1e-13)
    with pytest.raises(ValueError):
        cone_volume(FIG8, 1.0, 1e-9, form="nope")


def test_volume_result_json_shape():
    res = cone_volume(FIG8, 1.0, 1e-9)
    d = res.to_dict()
    assert set(d) == {"k", "n", "alpha", "alpha_K", "volume", "quad_error", "candidates"}
    assert d["k"] == 2 and d["n"] == -1
    assert isinstance(d["candidates"], list) and d["candidates"][0]["selected"]


def test_branch_csv_rows():
    br = geometric_branch(FIG8, alpha=0.5)
    rows = branch_csv_rows(br)
    assert len(rows) == len(br.points)
    om, re_z, im_z, re_L, im_L, logabsL = rows[0]
    assert om == br.points[0].omega
    L = longitude_L(FIG8, br.points[0].z, br.points[0].M)
    assert re_L == pytest.approx(L.real) and im_L == pytest.approx(L.imag)
    assert logabsL == pytest.approx(math.log(abs(L)))
