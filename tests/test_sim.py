"""Simulation tests: modes, events, bookkeeping, determinism."""

import json
import math

import numpy as np
import pytest

from sandwalk import dynamics as dyn
from sandwalk import sim
from sandwalk.config import build_config
from sandwalk.gait import Gains, leg_fk
from sandwalk.metrics import cot


def run_cfg(**kw):
    return sim.run(build_config(kw))


def test_rigid_mode_clamps_intrusion():
    traj = run_cfg(**{"sim.duration": 1.2, "sim.terrain_mode": "rigid"})
    assert np.abs(traj.column("z_s")).max() == 0.0
    assert np.abs(traj.column("x_s")).max() == 0.0
    assert np.abs(traj.column("y_s")).max() == 0.0
    assert np.abs(traj.column("gamma")).max() == 0.0


def test_rigid_vertical_force_scale():
    traj = run_cfg(**{"sim.duration": 1.2, "sim.terrain_mode": "rigid"})
    t = traj.column("t")
    fz = traj.column("f_z")[t > 0.4]
    riding_weight = 6.5 * 9.81
    assert 0.5 * riding_weight < fz.mean() < 1.5 * riding_weight


def test_determinism_identical_records():
    cfg = build_config({"sim.duration": 0.8, "sim.seed": 3})
    a = sim.run(cfg)
    b = sim.run(cfg)
    for ra, rb in zip(a.records, b.records):
        assert ra == rb


def test_record_count_and_decimation():
    traj = run_cfg(**{"sim.duration": 2.0})
    assert len(traj.records) == 2000
    traj5 = run_cfg(**{"sim.duration": 2.0, "sim.decimation": 5})
    assert len(traj5.records) == 400


def test_kinematics_closure_and_rates():
    # hip, swing-foot center and CoM from the one forward-kinematics pass:
    # each leg closes from the hip to its foot center, and each velocity is
    # the central difference of its position along the rates
    cfg = build_config({})
    p = cfg.sagittal
    rng = np.random.default_rng(2024)
    h = 1e-6
    worst_pos = worst_vel = 0.0
    for _ in range(200):
        ws = sim.WalkerState(
            c0=np.array([rng.uniform(-1.0, 1.0), rng.uniform(-0.02, 0.02)]),
            q_s=np.concatenate([rng.uniform(-1.0, 1.0, 5), rng.uniform(-0.05, 0.05, 2)]),
            dq_s=rng.uniform(-3.0, 3.0, 7),
        )
        hip, swing, com, hip_v, swing_v, com_v = sim._kinematics(ws, cfg)
        q = ws.q_s
        stance_center = ws.c0 + q[5:7] + (0.0, cfg.foot_radius)
        for leg, center in ((0, stance_center), (2, swing)):
            foot = np.add(hip, leg_fk(p.l_t, p.l_c, q[leg], q[leg + 1]))
            worst_pos = max(worst_pos, np.abs(foot - center).max())
        ws.q_s = q + h * ws.dq_s
        ahead = sim._kinematics(ws, cfg)[:3]
        ws.q_s = q - h * ws.dq_s
        behind = sim._kinematics(ws, cfg)[:3]
        for vel, pos_a, pos_b in zip((hip_v, swing_v, com_v), ahead, behind):
            fd = (np.subtract(pos_a, pos_b)) / (2.0 * h)
            worst_vel = max(worst_vel, np.abs(fd - vel).max())
    assert worst_pos < 1e-12
    assert worst_vel < 1e-8


def test_touchdown_detector_cases():
    assert sim.detect_touchdown(0.01, -0.001, 0.0)
    assert not sim.detect_touchdown(-0.001, -0.002, 0.0)
    assert not sim.detect_touchdown(0.02, 0.01, 0.0)


def test_intrusion_reset_each_stance():
    traj = run_cfg(**{"sim.duration": 2.4})
    steps = traj.column("step_count").astype(int)
    x_s = traj.column("x_s")
    z_s = traj.column("z_s")
    for k in range(1, steps.max() + 1):
        first = np.argmax(steps == k)
        assert abs(x_s[first]) < 2e-3
        assert z_s[first] < 2e-3
    assert z_s.min() >= 0.0


def test_granular_stance_sinks_to_force_balance():
    # stand in place: depth grows monotonically, settles where the vertical
    # force balances the riding weight
    cfg = build_config({
        "sim.duration": 3.0, "gait.v_target": 0.0, "gait.cycle_period": 3.0,
        "sim.initial_jitter": 0.0,
    })
    traj = sim.run(cfg)
    steps = traj.column("step_count").astype(int)
    sel = steps == 0
    z = traj.column("z_s")[sel]
    fz = traj.column("f_z")[sel]
    peak = int(np.argmax(z))
    assert np.all(np.diff(z[: peak + 1]) >= -5e-6)
    weight = cfg.sagittal.total_riding_mass * cfg.sagittal.g
    assert fz[-1] == pytest.approx(weight, rel=0.02)
    # settled depth between the static-balance depth and the ballistic
    # overshoot bound, both from the quadratic force law
    from sandwalk import terrain as tr
    k = (cfg.terrain.zeta * cfg.terrain.alpha_scale * 1e6
         * tr._alpha_z(cfg.terrain.phi_s, math.pi / 2, cfg.terrain.coefficients)
         * cfg.terrain.width / (2 * math.tan(cfg.terrain.phi_s)))
    z_eq = math.sqrt(weight / k)
    assert z_eq <= z[-1] <= 1.25 * math.sqrt(3.0) * z_eq


def test_momentum_impulse_consistency():
    cfg = build_config({"sim.duration": 1.6})
    traj = sim.run(cfg)
    steps = traj.column("step_count").astype(int)
    sel = np.where(steps == 3)[0][2:-2]  # inside one stance
    p = cfg.sagittal

    def momentum(i):
        r = traj.records[i]
        q = np.array([r.q_s1, r.q_s2, r.q_s3, r.q_s4, r.q_s5, r.x_s, -r.z_s])
        dq = np.array([r.dq_s1, r.dq_s2, r.dq_s3, r.dq_s4, r.dq_s5,
                       r.dx_s, -r.dz_s])
        d, _, _ = dyn.assemble_sagittal(p, dyn.SagittalState(q, dq))
        return float((d @ dq)[5])

    dt = cfg.dt
    impulse = float(np.sum(traj.column("f_x")[sel[1:]]) * dt)
    delta_p = momentum(sel[-1]) - momentum(sel[0])
    scale = max(abs(impulse), abs(delta_p), 1e-3)
    assert abs(delta_p - impulse) / scale < 0.05


def test_walking_distance_matches_command():
    traj = run_cfg(**{"sim.duration": 2.4})
    t = traj.column("t")
    x = traj.column("com_x")
    sel = t >= 0.4
    covered = x[sel][-1] - x[sel][0]
    expected = 0.2 * (t[sel][-1] - t[sel][0])
    assert abs(covered - expected) / expected < 0.25


def test_divergence_guard():
    from dataclasses import replace
    cfg = build_config({"sim.duration": 1.2})
    wild = replace(cfg, gains=Gains(kp=np.full(6, 4e5), kd=np.full(6, 4e4),
                                    torque_limit=1e9))
    with pytest.raises(sim.DivergenceError) as err:
        sim.run(wild)
    assert err.value.t > 0.0


@pytest.mark.parametrize("integrator,rate", [
    ("rk4", 1e150),           # finite at the step's start, overflows in stage 2
    ("rk4", math.nan),
    ("semi_implicit", math.nan),
])
def test_nonfinite_stage_is_divergence(integrator, rate):
    cfg = build_config({"sim.integrator": integrator})
    ws = sim.initial_state(cfg)
    ws.dq_s[0] = rate
    with np.errstate(all="ignore"), pytest.raises(sim.DivergenceError) as err:
        sim.step(ws, cfg)
    assert err.value.t == 0.0
    assert "integrator stage" in str(err.value)


def test_step_does_not_mutate_input():
    cfg = build_config({"sim.duration": 0.8})
    ws = sim.initial_state(cfg)
    q_before = ws.q_s.copy()
    out, rec = sim.step(ws, cfg)
    assert np.array_equal(ws.q_s, q_before)
    assert out.t == pytest.approx(cfg.dt)
    assert rec.t == pytest.approx(cfg.dt)


def test_rk4_integrator_mode():
    traj = run_cfg(**{"sim.duration": 0.8, "sim.integrator": "rk4"})
    assert len(traj.records) == 800
    assert np.isfinite(traj.column("com_x")).all()


@pytest.mark.parametrize("terrain_mode", ["granular", "rigid"])
def test_orientation_angle_is_calf_pitch(terrain_mode):
    # the semicylinder contact sits at r sin(pitch), so theta_r is the pitch
    traj = run_cfg(**{"sim.duration": 0.8, "sim.terrain_mode": terrain_mode})
    assert np.abs(traj.column("theta_r") - traj.column("q_s2")).max() < 1e-12


def test_semi_implicit_free_flight_stable():
    p = dyn.SagittalParams()
    q, dq = sim.integrate_free(p, np.zeros(7), np.zeros(7), 1e-3, 200,
                               method="semi_implicit")
    assert q[6] == pytest.approx(-0.5 * p.g * 0.2 ** 2, rel=0.02)


def test_trajectory_csv_roundtrip(tmp_path):
    traj = run_cfg(**{"sim.duration": 0.8})
    path = tmp_path / "traj.csv"
    traj.save_csv(path)
    loaded = sim.Trajectory.load_csv(path)
    assert len(loaded.records) == len(traj.records)
    assert loaded.records[10] == traj.records[10]
    assert loaded.records[-1].stance_leg in ("left", "right")


@pytest.mark.parametrize("n_rows", [0, 1, 256, 257, 600])
def test_trajectory_json_is_one_document(tmp_path, n_rows):
    # rows are encoded a block at a time; the file must read as the one
    # document {meta, columns, records} with non-finite values as null
    data = np.random.default_rng(n_rows).uniform(size=(n_rows, len(sim.SIM_RECORD_FIELDS)))
    data[:, 1] = data[:, 1] > 0.5  # stance_leg index
    data[::7, 5] = math.nan
    data[::11, 7] = math.inf
    traj = sim.Trajectory(data, {"seed": 3})
    traj.save_json(tmp_path / "traj.json")
    text = (tmp_path / "traj.json").read_text()
    assert text == json.dumps({"meta": traj.meta, "columns": sim.SIM_RECORD_FIELDS,
                               "records": traj._rows(~np.isfinite(data), None)})
    doc = json.loads(text, parse_constant=lambda c: pytest.fail(f"non-strict JSON {c}"))
    assert len(doc["records"]) == n_rows


def test_config_validation():
    with pytest.raises(ValueError):
        sim.SimConfig(dt=-1.0)
    with pytest.raises(ValueError):
        sim.SimConfig(duration=0.1)
    with pytest.raises(ValueError):
        sim.SimConfig(integrator="euler")
    with pytest.raises(ValueError):
        sim.SimConfig(terrain_mode="mud")
