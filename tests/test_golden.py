"""Behaviour contract: pinned trajectory file digests and effective configs.

The SHA-256 digests below hold for the numpy and libm they were recorded
with (numpy 2.4, glibc, x86-64); another floating-point library may change
the last bits of a value and so the bytes.  A change that alters numerics on
purpose must regenerate these values and say so, with the size of the
change; a refactor must leave them untouched.
"""

import hashlib

import pytest

from sandwalk import sim
from sandwalk.config import build_config, flatten_config

TRAJECTORY_SHA256 = {
    ("granular", "semi_implicit"): (
        "dced585e3ed1db05d44ad46ac2d67c39c5c69cca3467b0e018ec5c0d1ec1520d",
        "a28b5516f6624538413e3cf69715159ba2b35bbbcba379af7e833aa568bc9bc1",
    ),
    ("granular", "rk4"): (
        "692c72cf8642395de30705bfa617b4c91ee08ee4c737fb766748cfa016ec23a3",
        "6e8b0da09bd60e7dc95dd399fd37133b8e7e32de93fb8f2e2769ccba4b9bab1e",
    ),
    ("rigid", "semi_implicit"): (
        "55e9208b00fab2089b194c7cf1e0a74e2a55741738d4df78daabf1c7d4d06760",
        "fdebed153a5e79ded2b7ea03bdec7b987a5431cd8e3238ccd1fddeea418b6dd9",
    ),
    ("rigid", "rk4"): (
        "e0cd83a04e396b3790ba5c361252bd042714b368504374249d71ab550f590afa",
        "cd1b76c6d6a53c66f5e94fa3a6f0ed28c3b764b08c32cc7e1665aaad77990dad",
    ),
}

DEFAULT_FLAT = {
    "sim.dt": 0.001, "sim.duration": 2.4, "sim.integrator": "semi_implicit",
    "sim.terrain_mode": "granular", "sim.decimation": 1, "sim.seed": 0,
    "sim.initial_jitter": 0.002, "sim.h_com": 0.4, "sim.r_eff_cap": 10.0,
    "gait.cycle_period": 0.4, "gait.duty": 0.5, "gait.swing_height": 0.1,
    "gait.v_target": 0.2, "gait.hip_height": 0.34, "gait.trunk_ref": 0.0,
    "terrain.phi_s_deg": 38.0, "terrain.zeta": 1.36, "terrain.lambda": 0.03,
    "terrain.width": 0.05, "terrain.sand_level": 0.0, "terrain.alpha_scale": 8.0,
    "robot.m_b": 5.0, "robot.m_t": 1.0, "robot.m_c": 0.5, "robot.l_t": 0.14,
    "robot.l_c": 0.28, "robot.l_b": 0.15, "robot.a_1": 0.07, "robot.a_2": 0.13,
    "robot.g": 9.81, "robot.foot_radius": 0.04,
    "frontal.m_1": 1.5, "frontal.m_2": 1.5, "frontal.l_1": 0.46,
    "frontal.d_1": 0.21000000000000002, "frontal.d_2": 0.2, "frontal.b": 0.12,
    "control.torque_limit": 60.0,
}

EVERY_KEY = {
    "sim.dt": 5e-4, "sim.duration": 1.2, "sim.integrator": "rk4",
    "sim.terrain_mode": "rigid", "sim.decimation": 3, "sim.seed": 7,
    "sim.initial_jitter": 1e-3, "sim.h_com": 0.42, "sim.r_eff_cap": 5.0,
    "gait.cycle_period": 0.5, "gait.duty": 0.55, "gait.swing_height": 0.08,
    "gait.v_target": 0.3, "gait.hip_height": 0.33, "gait.trunk_ref": 0.05,
    "terrain.phi_s_deg": 35.0, "terrain.zeta": 1.2, "terrain.lambda": 0.025,
    "terrain.width": 0.06, "terrain.sand_level": 0.01, "terrain.alpha_scale": 6.0,
    "robot.m_b": 4.5, "robot.m_t": 0.9, "robot.m_c": 0.45, "robot.l_t": 0.15,
    "robot.l_c": 0.27, "robot.l_b": 0.16, "robot.a_1": 0.075, "robot.a_2": 0.12,
    "robot.g": 9.8, "robot.foot_radius": 0.035,
    "frontal.m_1": 1.4, "frontal.m_2": 1.3, "frontal.l_1": 0.45,
    "frontal.d_1": 0.22, "frontal.d_2": 0.19, "frontal.b": 0.11,
    "control.torque_limit": 50.0,
}

# robot geometry set, frontal keys left to their derived defaults
ROBOT_ONLY = {key: EVERY_KEY[key] for key in (
    "robot.m_b", "robot.m_t", "robot.m_c", "robot.l_t", "robot.l_c", "robot.g",
    "robot.foot_radius")}
ROBOT_ONLY_FRONTAL = {
    "frontal.m_1": 1.35, "frontal.m_2": 1.35, "frontal.l_1": 0.45500000000000007,
    "frontal.d_1": 0.21000000000000002, "frontal.d_2": 0.2, "frontal.b": 0.12,
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("terrain,integrator", sorted(TRAJECTORY_SHA256))
def test_trajectory_files_byte_identical(tmp_path, terrain, integrator):
    traj = sim.run(build_config({"sim.duration": 0.8, "sim.seed": 0,
                                 "sim.decimation": 1, "sim.terrain_mode": terrain,
                                 "sim.integrator": integrator}))
    traj.save_csv(tmp_path / "trajectory.csv")
    traj.save_json(tmp_path / "trajectory.json")
    csv_sha, json_sha = TRAJECTORY_SHA256[(terrain, integrator)]
    assert _sha256(tmp_path / "trajectory.csv") == csv_sha
    assert _sha256(tmp_path / "trajectory.json") == json_sha


def test_flatten_default_config():
    assert flatten_config(build_config({})) == DEFAULT_FLAT


def test_flatten_config_setting_every_key():
    assert flatten_config(build_config(EVERY_KEY)) == EVERY_KEY


def test_flatten_derived_frontal_defaults():
    flat = flatten_config(build_config(ROBOT_ONLY))
    assert {k: v for k, v in flat.items() if k.startswith("frontal.")} == ROBOT_ONLY_FRONTAL
