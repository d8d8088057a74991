"""Behaviour contract: pinned trajectory file digests, summary CoTs and
effective configs.

The SHA-256 digests and summary values below hold for the libm they were
recorded with (glibc, x86-64).  sandwalk imports no numpy: the step, the
initial jitter (``random.Random(seed).uniform``, whose integer seeding does
not depend on hash randomization), the file I/O and the summary CoT (its
sums are ``math.fsum``) are Python floats, so the bytes depend on libm
alone, and this module passes with numpy unimportable.  Another libm may
still change the last bits of a value and so the bytes.  A change that alters numerics on
purpose must regenerate these values and say so, with the size of the
change; a refactor must leave them untouched.
"""

import hashlib

import pytest

from sandwalk import cli, metrics, sim
from sandwalk.config import build_config, config_hash, flatten_config

TRAJECTORY_SHA256 = {
    ("granular", "semi_implicit"): (
        "5d39fb41abe970e8d5dca55bb02a82299633e20ac86670530150a1f134c6dca5",
        "676910d2894ee0972407e444402d6880f38c3448b62f18cda20a3c6f65428e89",
    ),
    ("granular", "rk4"): (
        "bc16122d775313a60ea08635b8566bf3b693c8d9b2bc6ea7e0d56ed7e6246ebf",
        "adfa68be95ff446d5947e14c689776817719be29f72371810ce26387378369f3",
    ),
    ("rigid", "semi_implicit"): (
        "1f8d2adeb64af4153dca908527320315d9b46e9523313d428b935f763bc0f72b",
        "738eb889dd1341cdc829a1fb7a79d2e4e19b72c0f4ebc85e28e36ed300b5527c",
    ),
    ("rigid", "rk4"): (
        "865eb0db9e15fb463e3619ff572f4d2e497fcd62d980b88be1db10df19634558",
        "ac1639ecad8f4fa9a137502570e7e8afc7aeebb06fb85bfd4d6d1afa92a9f1c0",
    ),
}

# (cot, cot_decoupled, distance) that metrics.cot reports from settle_time
# on of the same runs, as float.hex: the summary of the command's manifest
SUMMARY_HEX = {
    ("granular", "semi_implicit"): ("0x1.caafccc4ca1d3p-1", "0x1.caafccc4ca1d3p-1",
                                    "0x1.1ce844c12b9afp-4"),
    ("granular", "rk4"): ("0x1.cebd64870b6b7p-1", "0x1.cebd64870b6b7p-1",
                          "0x1.1bf5a13330e4cp-4"),
    ("rigid", "semi_implicit"): ("0x1.2be75a00f50f3p-1", "0x1.2be75a00f50f3p-1",
                                 "0x1.489933cd1cadfp-4"),
    ("rigid", "rk4"): ("0x1.31fe05aab08f0p-1", "0x1.31fe05aab08f0p-1",
                       "0x1.46cf2aee068d5p-4"),
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


# config_hash of build_config({}) and of build_config(EVERY_KEY): the hash
# that every manifest records, pinned against a change of where a setting lives
CONFIG_HASH = {
    "default": "6865fc6fcea2c1d14f051fa8fa3562143555fbd9602e77458447d39a11e46560",
    "every key": "323b4459f8c1ffe45077d63d0cd1a570b392b1da4bbe834beb821aac9a5387fb",
}


def _golden_config(terrain, integrator):
    return build_config({"sim.duration": 0.8, "sim.seed": 0, "sim.decimation": 1,
                         "sim.terrain_mode": terrain, "sim.integrator": integrator})


def _digests(out) -> tuple[str, str]:
    """SHA-256 of trajectory.csv and trajectory.json in ``out``."""
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                 for name in ("trajectory.csv", "trajectory.json"))


@pytest.mark.parametrize("terrain,integrator", sorted(TRAJECTORY_SHA256))
def test_trajectory_files_byte_identical(tmp_path, terrain, integrator):
    traj = sim.run(_golden_config(terrain, integrator))
    traj.save_csv(tmp_path / "trajectory.csv")
    traj.save_json(tmp_path / "trajectory.json")
    assert _digests(tmp_path) == TRAJECTORY_SHA256[(terrain, integrator)]


@pytest.mark.parametrize("terrain,integrator", sorted(TRAJECTORY_SHA256))
def test_simulate_command_writes_the_golden_files(tmp_path, terrain, integrator):
    # the command writes both files from one formatting pass
    assert cli.main(["simulate", "--set", "sim.duration=0.8", "--seed", "0",
                     "--decimation", "1", "--terrain", terrain,
                     "--set", f"sim.integrator={integrator}", "--out", str(tmp_path)]) == 0
    assert _digests(tmp_path) == TRAJECTORY_SHA256[(terrain, integrator)]


@pytest.mark.parametrize("terrain,integrator", sorted(SUMMARY_HEX))
def test_summary_cot_pinned(terrain, integrator):
    cfg = _golden_config(terrain, integrator)
    report = metrics.cot(sim.run(cfg), t_start=metrics.settle_time(cfg))
    assert (report.cot.hex(), report.cot_decoupled.hex(),
            report.distance.hex()) == SUMMARY_HEX[(terrain, integrator)]


def test_flatten_default_config():
    assert flatten_config(build_config({})) == DEFAULT_FLAT


def test_flatten_config_setting_every_key():
    assert flatten_config(build_config(EVERY_KEY)) == EVERY_KEY


def test_flatten_derived_frontal_defaults():
    flat = flatten_config(build_config(ROBOT_ONLY))
    assert {k: v for k, v in flat.items() if k.startswith("frontal.")} == ROBOT_ONLY_FRONTAL


def test_config_hash_pinned():
    assert {"default": config_hash(build_config({})),
            "every key": config_hash(build_config(EVERY_KEY))} == CONFIG_HASH
