"""Granular force law tests: stress table, wedge geometry, calibration."""

import copy
import math
import struct

import numpy as np
import pytest

from sandwalk.terrain import (
    GENERIC_RFT_COEFFICIENTS,
    CalibrationError,
    IntrusionKinematics,
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
    c = GENERIC_RFT_COEFFICIENTS
    vx = math.cos(gamma_me)
    vz = math.sin(gamma_me)
    sign = 1.0
    if vx < 0.0:
        vx, beta, sign = -vx, -beta, -1.0
    g = math.atan2(-vz, vx)
    terms = [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 1)]
    a_tab = {(0, 0): c.a00, (1, 0): c.a10, (0, 1): 0.0, (1, 1): 0.0, (-1, 1): 0.0}
    b_tab = {(0, 0): 0.0, (1, 0): 0.0, (0, 1): c.b01, (1, 1): c.b11, (-1, 1): c.bm11}
    c_tab = {(0, 0): 0.0, (1, 0): 0.0, (0, 1): c.c01, (1, 1): c.c11, (-1, 1): c.cm11}
    d_tab = {(0, 0): 0.0, (1, 0): c.d10, (0, 1): 0.0, (1, 1): 0.0, (-1, 1): 0.0}
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
    kin = IntrusionKinematics(depth=0.0, gamma=DOWN, y_slip=0.05)
    grf = sagittal_forces(terrain, kin)
    assert grf.f_x == 0.0 and grf.f_z == 0.0
    assert lateral_force(terrain, kin) == 0.0


def test_negative_depth_rejected():
    with pytest.raises(ValueError):
        sagittal_forces(TerrainParams(), IntrusionKinematics(depth=-0.01, gamma=DOWN))


def test_quadratic_depth_law():
    terrain = TerrainParams()
    f1 = sagittal_forces(terrain, IntrusionKinematics(depth=0.01, gamma=DOWN))
    f2 = sagittal_forces(terrain, IntrusionKinematics(depth=0.02, gamma=DOWN))
    assert f2.f_z == pytest.approx(4.0 * f1.f_z, rel=1e-12)
    assert f2.f_x == pytest.approx(4.0 * f1.f_x, rel=1e-12)


def wedge_quadrature(terrain, kin, n=8193):
    """Integrate the local stress over the solidification wedge cross-section.

    At depth xi below the surface the wedge extends (z - xi) / tan(phi_s)
    horizontally; integrating the per-depth stress over the slices yields
    the force without forming the closed-form area expression.  The face
    stress rides the leading side of the symmetric foot, so the motion is
    folded to non-negative horizontal rate and the drag signed afterwards.
    """
    gamma = kin.gamma
    sign = 1.0
    vx, vz = math.cos(gamma), math.sin(gamma)
    if vx < 0.0:
        sign = -1.0
        gamma = math.atan2(vz, -vx)
    a_x, a_z = local_stress(terrain.phi_s, gamma, terrain.zeta, terrain.alpha_scale)
    xi = np.linspace(0.0, kin.depth, n)
    width = (kin.depth - xi) / math.tan(terrain.phi_s)
    area = np.trapezoid(width, xi)
    return -sign * a_x * terrain.width * area, a_z * terrain.width * area


def test_wedge_force_matches_quadrature():
    terrain = TerrainParams()
    worst = 0.0
    for depth in np.linspace(0.005, 0.05, 10):
        for gamma in np.linspace(-math.pi + 0.1, -0.1, 10):
            kin = IntrusionKinematics(depth=float(depth), gamma=float(gamma))
            got = sagittal_forces(terrain, kin)
            want_x, want_z = wedge_quadrature(terrain, kin)
            scale = max(abs(want_x), abs(want_z))
            worst = max(worst, abs(got.f_x - want_x) / scale,
                        abs(got.f_z - want_z) / scale)
    assert worst < 1e-3


def wedge_area(depth: float, phi_s: float) -> float:
    """Cross-section area of the triangular solidification wedge [m^2]."""
    return depth ** 2 / (2.0 * math.tan(phi_s))


def _wedge_composition(terrain, kin):
    """The wedge law as local_stress times wedge_area, with the motion
    folded into the positive-horizontal frame and the drag signed after;
    no force at zero depth."""
    if kin.depth == 0.0:
        return 0.0, 0.0
    gamma, sign = kin.gamma, 1.0
    if not math.isnan(gamma) and math.cos(gamma) < 0.0:
        sign = -1.0
        gamma = math.atan2(math.sin(gamma), -math.cos(gamma))
    a_x, a_z = local_stress(terrain.phi_s, gamma, terrain.zeta, terrain.alpha_scale)
    geom = terrain.width * wedge_area(kin.depth, terrain.phi_s)
    return -sign * a_x * geom, a_z * geom


def test_wedge_law_is_the_bytes_of_the_stress_composition():
    # sagittal_forces evaluates the law from per-terrain constants; over
    # depths and directions (forward, mirrored with cos gamma < 0, straight
    # up and down, NaN) and terrains, including zeta = 0, which validation
    # rejects and which is set past it here, it gives the composition's
    # bytes, signed zeros included
    no_stress = copy.copy(TerrainParams())
    object.__setattr__(no_stress, "zeta", 0.0)
    terrains = [TerrainParams(), TerrainParams(phi_s=math.radians(25.0), zeta=0.7,
                                               width=0.08, alpha_scale=3.0), no_stress]
    gammas = [*np.linspace(-math.pi, math.pi, 41).tolist(), -math.pi / 2, math.pi / 2,
              0.0, -0.0, math.nan]
    assert any(math.cos(g) < 0.0 for g in gammas)
    for terrain in terrains:
        for depth in (0.0, 1e-5, 0.004, 0.02, 0.06):
            for gamma in gammas:
                kin = IntrusionKinematics(depth=depth, gamma=gamma)
                got = sagittal_forces(terrain, kin)
                want = _wedge_composition(terrain, kin)
                assert struct.pack("2d", *got) == struct.pack("2d", *want), (terrain, depth, gamma)


def test_reference_vertical_descent_case():
    terrain = TerrainParams(width=0.04, alpha_scale=1.0)
    kin = IntrusionKinematics(depth=0.02, gamma=math.atan2(-0.1, 0.0))
    got = sagittal_forces(terrain, kin)
    _, want_z = wedge_quadrature(terrain, kin)
    assert got.f_z == pytest.approx(want_z, rel=1e-6)
    assert got.f_z > 0.0


def test_force_monotone_in_depth():
    terrain = TerrainParams()
    depths = np.linspace(0.0, 0.06, 40)
    fz = [sagittal_forces(terrain, IntrusionKinematics(depth=float(d), gamma=DOWN)).f_z
          for d in depths]
    assert np.all(np.diff(fz) >= 0.0)


def test_horizontal_reversal_flips_fx():
    terrain = TerrainParams()
    for gamma in (-0.3, -0.9, -1.2):
        fwd = sagittal_forces(terrain, IntrusionKinematics(depth=0.02, gamma=gamma))
        bwd = sagittal_forces(
            terrain, IntrusionKinematics(depth=0.02, gamma=math.pi - gamma - 2 * math.pi)
        )
        # mirrored direction: same |gamma| with the horizontal component flipped
        assert bwd.f_x == pytest.approx(-fwd.f_x, rel=1e-9)
        assert bwd.f_z == pytest.approx(fwd.f_z, rel=1e-9)


def test_linear_scaling_in_zeta_and_width():
    kin = IntrusionKinematics(depth=0.02, gamma=-1.0, y_slip=0.01)
    base = TerrainParams()
    f0 = sagittal_forces(base, kin)
    f_zeta = sagittal_forces(TerrainParams(zeta=2 * base.zeta), kin)
    f_width = sagittal_forces(TerrainParams(width=2 * base.width), kin)
    assert f_zeta.f_z == pytest.approx(2 * f0.f_z, rel=1e-12)
    assert f_zeta.f_x == pytest.approx(2 * f0.f_x, rel=1e-12)
    assert f_width.f_z == pytest.approx(2 * f0.f_z, rel=1e-12)
    fy0 = lateral_force(base, kin)
    fy2 = lateral_force(TerrainParams(zeta=2 * base.zeta), kin)
    assert fy2 == pytest.approx(2 * fy0, rel=1e-12)


def test_lateral_saturation_ratio():
    terrain = TerrainParams()
    kin_lam = IntrusionKinematics(depth=0.02, gamma=DOWN, y_slip=terrain.lam)
    kin_inf = IntrusionKinematics(depth=0.02, gamma=DOWN, y_slip=1e3 * terrain.lam)
    ratio = lateral_force(terrain, kin_lam) / lateral_force(terrain, kin_inf)
    assert ratio == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)


def test_lateral_saturation_limit():
    terrain = TerrainParams()
    depth = 0.02
    kin = IntrusionKinematics(depth=depth, gamma=DOWN, y_slip=1e4 * terrain.lam)
    bound = terrain.lam * bulldozing_stress(terrain) * 0.5 * depth ** 2
    assert abs(lateral_force(terrain, kin)) == pytest.approx(bound, rel=1e-9)


def test_lateral_small_slip_slope():
    terrain = TerrainParams()
    depth = 0.02
    eps = 1e-9
    f = abs(lateral_force(terrain, IntrusionKinematics(depth=depth, gamma=DOWN,
                                                       y_slip=eps)))
    slope = f / eps
    assert slope == pytest.approx(bulldozing_stress(terrain) * 0.5 * depth ** 2,
                                  rel=1e-6)


def test_lateral_monotone_concave_and_signed():
    terrain = TerrainParams()
    y = np.linspace(1e-4, 0.2, 60)
    f = np.array([abs(lateral_force(terrain, IntrusionKinematics(depth=0.02,
                                                                 gamma=DOWN,
                                                                 y_slip=float(v))))
                  for v in y])
    assert np.all(np.diff(f) > 0.0)
    assert np.all(np.diff(f, 2) < 1e-9)
    assert lateral_force(terrain, IntrusionKinematics(depth=0.02, gamma=DOWN,
                                                      y_slip=0.05)) < 0.0
    assert lateral_force(terrain, IntrusionKinematics(depth=0.02, gamma=DOWN,
                                                      y_slip=-0.05)) > 0.0


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def synthetic_records(terrain, zeta, lam, noise, rng, plate_width, plate_depth):
    from dataclasses import replace

    truth = replace(terrain, zeta=zeta, lam=lam)
    vertical = []
    for depth in np.linspace(0.005, 0.04, 20):
        f = sagittal_forces(
            replace(truth, width=plate_width),
            IntrusionKinematics(depth=float(depth), gamma=DOWN),
        ).f_z
        f *= 1.0 + noise * rng.standard_normal()
        vertical.append(PenetrationRecord(float(depth), float(f)))
    horizontal = []
    for disp in np.linspace(0.004, 0.12, 20):
        f = abs(lateral_force(truth, IntrusionKinematics(depth=plate_depth,
                                                         gamma=DOWN,
                                                         y_slip=float(disp))))
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
