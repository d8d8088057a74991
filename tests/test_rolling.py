"""Rolling contact tests: lowest point, orientation, effective radius."""

import math

import numpy as np
import pytest

from sandwalk.rolling import (
    ContactOutsideSoleError,
    FootShape,
    effective_radius,
    lowest_point,
    orientation_angle,
    velocity_angle,
)

R = 0.04


def grid_golden_lowest(shape, pitch):
    """Independent oracle: dense grid search for the world-frame minimum,
    polished by golden-section minimization."""

    def world_z(x):
        # foot frame pitched so the contact orientation angle equals pitch
        return math.cos(pitch) * shape.value(x) - math.sin(pitch) * x

    r = shape.radius
    pad = 1e-9 * (2 * r)
    xs = np.linspace(-r + pad, r - pad, 20001)
    zs = np.array([world_z(x) for x in xs])
    i = int(np.argmin(zs))
    a = xs[max(0, i - 1)]
    b = xs[min(len(xs) - 1, i + 1)]
    invphi = (math.sqrt(5) - 1) / 2
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = world_z(c), world_z(d)
    while b - a > 1e-13:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = world_z(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = world_z(d)
    return 0.5 * (a + b)


def test_semicylinder_level_contact_at_pole():
    shape = FootShape(R)
    x, z = lowest_point(shape, 0.0)
    assert abs(x) < 1e-10
    assert abs(z) < 1e-10
    assert orientation_angle(shape, (x, z)) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("pitch", [-0.8, -0.3, 0.15, 0.6, 1.0])
def test_semicylinder_contact_rotates_with_pitch(pitch):
    shape = FootShape(R)
    x, z = lowest_point(shape, pitch)
    assert x == pytest.approx(R * math.sin(pitch), abs=1e-9)
    # world contact stays a radius below the center
    world_z = math.cos(pitch) * z - math.sin(pitch) * x
    center_world_z = math.cos(pitch) * R  # center at (0, R) in the local frame
    assert center_world_z - world_z == pytest.approx(R, abs=1e-9)
    assert orientation_angle(shape, (x, z)) == pytest.approx(pitch, abs=1e-8)


def test_contact_leaves_sole_raises():
    shape = FootShape(R)
    # beyond a quarter turn, and pitches whose contact rounds onto the rim
    for pitch in (1.6, -1.6, math.pi / 2, math.pi / 2 - 1e-12, -(math.pi / 2 - 1e-12),
                  math.nan):
        with pytest.raises(ContactOutsideSoleError):
            lowest_point(shape, pitch)
    # close to the rim but still on the sole
    for pitch in (math.pi / 2 - 1e-4, -(math.pi / 2 - 1e-4)):
        contact = lowest_point(shape, pitch)
        assert abs(orientation_angle(shape, contact) - pitch) < 1e-9


def test_semicylinder_lowest_matches_grid_search():
    shape = FootShape(R)
    for pitch in np.linspace(-1.0, 1.0, 11):
        x, _ = lowest_point(shape, float(pitch))
        assert abs(x - grid_golden_lowest(shape, float(pitch))) < 1e-8


def test_orientation_matches_finite_difference_slope():
    shape = FootShape(R)
    eps = 1e-7
    for x in np.linspace(-0.9 * R, 0.9 * R, 9):
        fd = (shape.value(x + eps) - shape.value(x - eps)) / (2 * eps)
        assert orientation_angle(shape, (x, shape.value(x))) == pytest.approx(
            math.atan(fd), abs=1e-6
        )


def test_rolling_angle_continuity_over_trajectory():
    # replay a pitched rollout and bound per-step jumps
    shape = FootShape(R)
    dt = 1e-3
    omega = 2.0
    pitches = 0.5 * np.sin(omega * np.arange(0, 0.5, dt))
    theta0 = orientation_angle(shape, lowest_point(shape, pitches[0]))
    prev = orientation_angle(shape, lowest_point(shape, pitches[0])) - theta0
    for pitch in pitches[1:]:
        cur = orientation_angle(shape, lowest_point(shape, pitch)) - theta0
        assert abs(cur - prev) <= 0.5 * omega * dt * 1.01
        prev = cur


def test_velocity_angle_cases():
    assert velocity_angle(0.1, 0.0) == pytest.approx(0.0)
    assert velocity_angle(0.1, 0.1) == pytest.approx(math.pi / 4)
    assert velocity_angle(0.0, -0.05) == pytest.approx(-math.pi / 2)
    assert math.isnan(velocity_angle(1e-8, -1e-8))


def test_velocity_angle_norm_identity():
    # |v| equals |dx| * sqrt(1 + tan^2(gamma)) whenever dx != 0
    for dx, dz in ((0.1, -0.05), (0.2, 0.15), (-0.1, 0.02)):
        gamma = velocity_angle(dx, dz)
        assert abs(dx) * math.sqrt(1 + math.tan(gamma) ** 2) == pytest.approx(
            math.hypot(dx, dz), rel=1e-12
        )


def test_effective_radius_direct():
    assert effective_radius((0.1, 0.0), 2.0) == pytest.approx(0.05)


def test_effective_radius_guard():
    # below the 1e-4 rad/s rotation threshold the radius is infinite, the
    # limit of |v| / |dtheta_r|, whether the foot translates or stands still
    for v, rate in (((0.1, 0.0), 1e-6), ((0.0, 0.0), 0.0), ((0.0, -0.2), -9.9e-5)):
        assert effective_radius(v, rate) == math.inf
    assert effective_radius((0.0, 0.0), 1e-4) == 0.0


def test_pure_roll_effective_radius_and_angle():
    # kinematic rollout of a circle on rigid flat ground: the contact locus
    # advances at R * pitch rate and stays on the surface
    shape = FootShape(R)
    dt = 1e-4
    omega = 1.5
    t = np.arange(0.0, 0.4, dt)
    pitch = omega * t
    locus_x = R * pitch  # no slip
    theta = np.array([
        orientation_angle(shape, lowest_point(shape, p)) for p in pitch[::100]
    ])
    d_theta = theta[-1] - theta[0]
    assert d_theta == pytest.approx(pitch[::100][-1] - pitch[0], abs=1e-6)
    v = np.diff(locus_x) / dt
    r_eff = np.array([effective_radius((vv, 0.0), omega) for vv in v[::100]])
    assert np.abs(r_eff - R).max() / R < 0.01


def test_contact_world_position_continuous_in_pitch():
    shape = FootShape(R)
    pitches = np.linspace(-0.9, 0.9, 400)
    world = []
    for p in pitches:
        x, z = lowest_point(shape, p)
        world.append((math.cos(p) * x + math.sin(p) * z,
                      math.cos(p) * z - math.sin(p) * x))
    world = np.array(world)
    steps = np.abs(np.diff(world, axis=0)).max(axis=1)
    assert steps.max() < R * (pitches[1] - pitches[0]) * 2.0
