"""Granular force law tests: stress table, wedge geometry, calibration."""

import copy
import math
import struct

import numpy as np
import pytest

from sandwalk import terrain as tr
from sandwalk.terrain import (
    CalibrationError,
    PenetrationRecord,
    TerrainParams,
    bulldozing_stress,
    calibrate,
    lateral_force,
    local_stress,
    sagittal_forces,
)

DOWN = -math.pi / 2  # straight-down motion direction


def stress_oracle(beta, gamma_me):
    """Second, independently coded evaluation of the same coefficient table."""
    vx = math.cos(gamma_me)
    vz = math.sin(gamma_me)
    sign = 1.0
    if vx < 0.0:
        vx, beta, sign = -vx, -beta, -1.0
    g = math.atan2(-vz, vx)
    terms = [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 1)]
    a_tab = {(0, 0): tr._A00, (1, 0): tr._A10, (0, 1): 0.0, (1, 1): 0.0, (-1, 1): 0.0}
    b_tab = {(0, 0): 0.0, (1, 0): 0.0, (0, 1): tr._B01, (1, 1): tr._B11, (-1, 1): tr._BM11}
    c_tab = {(0, 0): 0.0, (1, 0): 0.0, (0, 1): tr._C01, (1, 1): tr._C11, (-1, 1): tr._CM11}
    d_tab = {(0, 0): 0.0, (1, 0): tr._D10, (0, 1): 0.0, (1, 1): 0.0, (-1, 1): 0.0}
    az = sum(
        a_tab[mn] * math.cos(2 * mn[0] * beta + mn[1] * g)
        + b_tab[mn] * math.sin(2 * mn[0] * beta + mn[1] * g)
        for mn in terms
    )
    ax = sum(
        c_tab[mn] * math.cos(2 * mn[0] * beta + mn[1] * g)
        + d_tab[mn] * math.sin(2 * mn[0] * beta + mn[1] * g)
        for mn in terms
    )
    return sign * ax * 1e6, az * 1e6


def test_zero_scaling():
    assert local_stress(0.3, -0.5, zeta=0.0) == (0.0, 0.0)


def test_vertical_intrusion_symmetric_element():
    a_x, a_z = local_stress(0.0, DOWN, zeta=1.0)
    assert a_x == pytest.approx(0.0, abs=1e-6)
    assert a_z > 0.0


def test_stress_matches_independent_evaluation():
    for beta in np.linspace(-math.pi / 2, math.pi / 2, 13):
        for gamma in np.linspace(-math.pi + 0.05, math.pi - 0.05, 17):
            got = local_stress(beta, gamma, zeta=1.0)
            want = stress_oracle(beta, gamma)
            assert got[0] == pytest.approx(want[0], abs=1e-6)
            assert got[1] == pytest.approx(want[1], abs=1e-6)


def test_undefined_direction_gives_static_bearing():
    a_x, a_z = local_stress(0.4, float("nan"), zeta=1.0)
    assert a_x == 0.0
    _, a_z_pen = local_stress(0.4, DOWN, zeta=1.0)
    assert a_z == pytest.approx(a_z_pen, rel=1e-12)


def test_zero_depth_zero_force():
    terrain = TerrainParams()
    assert sagittal_forces(terrain, 0.0, DOWN) == (0.0, 0.0)
    assert lateral_force(terrain, 0.0, 0.05) == 0.0


def test_negative_depth_rejected():
    with pytest.raises(ValueError):
        sagittal_forces(TerrainParams(), -0.01, DOWN)


def test_quadratic_depth_law():
    terrain = TerrainParams()
    f1_x, f1_z = sagittal_forces(terrain, 0.01, DOWN)
    f2_x, f2_z = sagittal_forces(terrain, 0.02, DOWN)
    assert f2_z == pytest.approx(4.0 * f1_z, rel=1e-12)
    assert f2_x == pytest.approx(4.0 * f1_x, rel=1e-12)


def wedge_quadrature(terrain, depth, gamma, n=8193):
    """Integrate the local stress over the solidification wedge cross-section.

    At depth xi below the surface the wedge extends (z - xi) / tan(phi_s)
    horizontally; integrating the per-depth stress over the slices yields
    the force without forming the closed-form area expression.  The face
    stress rides the leading side of the symmetric foot, so the motion is
    folded to non-negative horizontal rate and the drag signed afterwards.
    """
    sign = 1.0
    vx, vz = math.cos(gamma), math.sin(gamma)
    if vx < 0.0:
        sign = -1.0
        gamma = math.atan2(vz, -vx)
    a_x, a_z = local_stress(terrain.phi_s, gamma, terrain.zeta, terrain.alpha_scale)
    xi = np.linspace(0.0, depth, n)
    width = (depth - xi) / math.tan(terrain.phi_s)
    area = np.trapezoid(width, xi)
    return -sign * a_x * terrain.width * area, a_z * terrain.width * area


def test_wedge_force_matches_quadrature():
    terrain = TerrainParams()
    worst = 0.0
    for depth in np.linspace(0.005, 0.05, 10):
        for gamma in np.linspace(-math.pi + 0.1, -0.1, 10):
            got_x, got_z = sagittal_forces(terrain, float(depth), float(gamma))
            want_x, want_z = wedge_quadrature(terrain, float(depth), float(gamma))
            scale = max(abs(want_x), abs(want_z))
            worst = max(worst, abs(got_x - want_x) / scale, abs(got_z - want_z) / scale)
    assert worst < 1e-3


def wedge_area(depth: float, phi_s: float) -> float:
    """Cross-section area of the triangular solidification wedge [m^2]."""
    return depth ** 2 / (2.0 * math.tan(phi_s))


def _wedge_composition(terrain, depth, gamma):
    """The wedge law as local_stress times wedge_area, with the motion
    folded into the positive-horizontal frame and the drag signed after;
    no force at zero depth."""
    if depth == 0.0:
        return 0.0, 0.0
    sign = 1.0
    if not math.isnan(gamma) and math.cos(gamma) < 0.0:
        sign = -1.0
        gamma = math.atan2(math.sin(gamma), -math.cos(gamma))
    a_x, a_z = local_stress(terrain.phi_s, gamma, terrain.zeta, terrain.alpha_scale)
    geom = terrain.width * wedge_area(depth, terrain.phi_s)
    return -sign * a_x * geom, a_z * geom


def test_wedge_law_is_the_bytes_of_the_stress_composition():
    # sagittal_forces evaluates the law from per-terrain constants; over
    # depths and directions (forward, mirrored with cos gamma < 0, straight
    # up and down, NaN) and terrains, including zeta = 0, which validation
    # rejects and which is set past it here, it gives the composition's
    # bytes, signed zeros included
    no_stress = copy.copy(TerrainParams())
    object.__setattr__(no_stress, "zeta", 0.0)
    terrains = [TerrainParams(), TerrainParams(phi_s_deg=25.0, zeta=0.7,
                                               width=0.08, alpha_scale=3.0), no_stress]
    gammas = [*np.linspace(-math.pi, math.pi, 41).tolist(), -math.pi / 2, math.pi / 2,
              0.0, -0.0, math.nan]
    assert any(math.cos(g) < 0.0 for g in gammas)
    for terrain in terrains:
        for depth in (0.0, 1e-5, 0.004, 0.02, 0.06):
            for gamma in gammas:
                got = sagittal_forces(terrain, depth, gamma)
                want = _wedge_composition(terrain, depth, gamma)
                assert struct.pack("2d", *got) == struct.pack("2d", *want), (terrain, depth, gamma)


def test_reference_vertical_descent_case():
    terrain = TerrainParams(width=0.04, alpha_scale=1.0)
    gamma = math.atan2(-0.1, 0.0)
    _, got_z = sagittal_forces(terrain, 0.02, gamma)
    _, want_z = wedge_quadrature(terrain, 0.02, gamma)
    assert got_z == pytest.approx(want_z, rel=1e-6)
    assert got_z > 0.0


def test_force_monotone_in_depth():
    terrain = TerrainParams()
    depths = np.linspace(0.0, 0.06, 40)
    fz = [sagittal_forces(terrain, float(d), DOWN)[1] for d in depths]
    assert np.all(np.diff(fz) >= 0.0)


def test_horizontal_reversal_flips_fx():
    terrain = TerrainParams()
    for gamma in (-0.3, -0.9, -1.2):
        fwd_x, fwd_z = sagittal_forces(terrain, 0.02, gamma)
        bwd_x, bwd_z = sagittal_forces(terrain, 0.02, math.pi - gamma - 2 * math.pi)
        # mirrored direction: same |gamma| with the horizontal component flipped
        assert bwd_x == pytest.approx(-fwd_x, rel=1e-9)
        assert bwd_z == pytest.approx(fwd_z, rel=1e-9)


def test_linear_scaling_in_zeta_and_width():
    depth, gamma, y_slip = 0.02, -1.0, 0.01
    base = TerrainParams()
    f0_x, f0_z = sagittal_forces(base, depth, gamma)
    f_zeta_x, f_zeta_z = sagittal_forces(TerrainParams(zeta=2 * base.zeta), depth, gamma)
    _, f_width_z = sagittal_forces(TerrainParams(width=2 * base.width), depth, gamma)
    assert f_zeta_z == pytest.approx(2 * f0_z, rel=1e-12)
    assert f_zeta_x == pytest.approx(2 * f0_x, rel=1e-12)
    assert f_width_z == pytest.approx(2 * f0_z, rel=1e-12)
    fy0 = lateral_force(base, depth, y_slip)
    fy2 = lateral_force(TerrainParams(zeta=2 * base.zeta), depth, y_slip)
    assert fy2 == pytest.approx(2 * fy0, rel=1e-12)


def test_lateral_saturation_ratio():
    terrain = TerrainParams()
    ratio = lateral_force(terrain, 0.02, terrain.lam) / lateral_force(terrain, 0.02,
                                                                       1e3 * terrain.lam)
    assert ratio == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)


def test_lateral_saturation_limit():
    terrain = TerrainParams()
    depth = 0.02
    bound = terrain.lam * bulldozing_stress(terrain) * 0.5 * depth ** 2
    assert abs(lateral_force(terrain, depth, 1e4 * terrain.lam)) == pytest.approx(bound, rel=1e-9)


def test_lateral_small_slip_slope():
    terrain = TerrainParams()
    depth = 0.02
    eps = 1e-9
    f = abs(lateral_force(terrain, depth, eps))
    slope = f / eps
    assert slope == pytest.approx(bulldozing_stress(terrain) * 0.5 * depth ** 2,
                                  rel=1e-6)


def test_lateral_monotone_concave_and_signed():
    terrain = TerrainParams()
    y = np.linspace(1e-4, 0.2, 60)
    f = np.array([abs(lateral_force(terrain, 0.02, float(v))) for v in y])
    assert np.all(np.diff(f) > 0.0)
    assert np.all(np.diff(f, 2) < 1e-9)
    assert lateral_force(terrain, 0.02, 0.05) < 0.0
    assert lateral_force(terrain, 0.02, -0.05) > 0.0


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def synthetic_records(terrain, zeta, lam, noise, rng, plate_width, plate_depth):
    from dataclasses import replace

    truth = replace(terrain, zeta=zeta, lam=lam)
    vertical = []
    for depth in np.linspace(0.005, 0.04, 20):
        _, f = sagittal_forces(replace(truth, width=plate_width), float(depth), DOWN)
        f *= 1.0 + noise * rng.standard_normal()
        vertical.append(PenetrationRecord(float(depth), float(f)))
    horizontal = []
    for disp in np.linspace(0.004, 0.12, 20):
        f = abs(lateral_force(truth, plate_depth, float(disp)))
        f *= 1.0 + noise * rng.standard_normal()
        horizontal.append(PenetrationRecord(float(disp), float(f)))
    return vertical, horizontal


def test_calibration_exact_roundtrip():
    rng = np.random.default_rng(0)
    nominal = TerrainParams()
    v, h = synthetic_records(nominal, 1.36, 0.03, 0.0, rng, 0.04, 0.02)
    res = calibrate(v, h, nominal, plate_width=0.04, plate_depth=0.02)
    assert res.zeta == pytest.approx(1.36, rel=1e-9)
    assert res.lam == pytest.approx(0.03, rel=1e-6)
    assert res.residual_vertical < 1e-9


def test_calibration_noisy_roundtrip():
    rng = np.random.default_rng(42)
    nominal = TerrainParams()
    v, h = synthetic_records(nominal, 1.36, 0.03, 0.01, rng, 0.04, 0.02)
    res = calibrate(v, h, nominal, plate_width=0.04, plate_depth=0.02)
    assert abs(res.zeta - 1.36) / 1.36 < 0.02
    assert abs(res.lam - 0.03) / 0.03 < 0.02


def test_calibration_duplicate_invariance():
    rng = np.random.default_rng(3)
    nominal = TerrainParams()
    v, h = synthetic_records(nominal, 1.36, 0.03, 0.01, rng, 0.04, 0.02)
    res1 = calibrate(v, h, nominal, plate_width=0.04, plate_depth=0.02)
    res2 = calibrate(v + v, h + h, nominal, plate_width=0.04, plate_depth=0.02)
    assert res2.zeta == pytest.approx(res1.zeta, rel=1e-12)
    assert res2.lam == pytest.approx(res1.lam, rel=1e-9)


def test_calibration_degenerate_data():
    nominal = TerrainParams()
    few = [PenetrationRecord(0.01, 1.0)] * 3
    many = [PenetrationRecord(0.01 * (i + 1), 1.0) for i in range(6)]
    zeros = [PenetrationRecord(0.01 * (i + 1), 0.0) for i in range(6)]
    with pytest.raises(CalibrationError):
        calibrate(few, many, nominal)
    with pytest.raises(CalibrationError):
        calibrate(zeros, many, nominal)
    bad = [PenetrationRecord(-0.01, 1.0)] + many[:-1]
    with pytest.raises(CalibrationError):
        calibrate(bad, many, nominal)
