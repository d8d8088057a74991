"""Simulation tests: modes, events, bookkeeping, determinism."""

import copy
import dataclasses
import json
import math

import numpy as np
import pytest

from sandwalk import dynamics as dyn
from sandwalk import gait as gt
from sandwalk import sim
from sandwalk import terrain as tr
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


def _assert_same_state(a, b):
    for f in dataclasses.fields(sim.WalkerState):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


def _shares_no_array(a, b):
    return not any(np.shares_memory(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(sim.WalkerState)
                   if isinstance(getattr(a, f.name), np.ndarray))


def _walk(terrain_mode, n_steps):
    """(state before each step, state after it) of the default walker."""
    cfg = build_config({"sim.terrain_mode": terrain_mode})
    ws = sim.initial_state(cfg)
    row = np.empty(len(sim.SIM_RECORD_FIELDS))
    pairs = []
    for _ in range(n_steps):
        before = copy.deepcopy(ws)
        ws = sim._advance(ws, cfg, row)
        pairs.append((before, copy.deepcopy(ws)))
    return cfg, pairs


def test_step_does_not_mutate_input():
    cfg = build_config({"sim.duration": 0.8})
    ws = sim.initial_state(cfg)
    q_before = ws.q_s.copy()
    out, rec = sim.step(ws, cfg)
    assert np.array_equal(ws.q_s, q_before)
    assert out.t == pytest.approx(cfg.dt)
    assert rec.t == pytest.approx(cfg.dt)
    # a step that ends in a touchdown leaves every field and array of its
    # input as it was too
    cfg, pairs = _walk("granular", 200)
    ws = next(before for before, after in pairs if after.step_count > before.step_count)
    snapshot = copy.deepcopy(ws)
    out, rec = sim.step(ws, cfg)
    _assert_same_state(ws, snapshot)
    assert _shares_no_array(out, ws)
    assert out.step_count == rec.step_count + 1 == ws.step_count + 1
    assert out.t_stance_start == out.t == rec.t


@pytest.mark.parametrize("terrain_mode", ["granular", "rigid"])
def test_jump_is_a_pure_swap_of_the_legs(terrain_mode):
    # the jump map on mid-swing states and on the states the touchdown
    # event fired on; states are as the flow leaves them, before the jump
    cfg, pairs = _walk(terrain_mode, 600)
    r, level = cfg.foot_radius, cfg.terrain.sand_level
    mid_swing = [after for _, after in pairs[::20]
                 if 0.3 < sim._stance_phase(after, cfg, after.t) < 0.8]
    pre_touchdown = []
    for before, after in pairs:
        if after.step_count > before.step_count:  # replay the flow the jump followed
            sim._flow(before, cfg)
            pre_touchdown.append(before)
    assert len(mid_swing) >= 12 and len(pre_touchdown) == 3
    clamped = 0
    for ws in mid_swing + pre_touchdown:
        snapshot = copy.deepcopy(ws)
        new = sim._jump(ws, cfg)
        _assert_same_state(ws, snapshot)
        assert _shares_no_array(new, ws)
        _, swing, _, _, swing_v, _ = sim._kinematics(ws, cfg)
        q, dq, p, dp = ws.q_s, ws.dq_s, ws.q_f, ws.dq_f
        # swing and stance pairs swap, the trunk carries over, the intrusion
        # restarts from 0, at rest except for the landing skid on sand
        assert new.stance is ws.stance.other
        assert new.q_s.tolist() == [q[2], q[3], q[0], q[1], q[4], 0.0, 0.0]
        slip = swing_v[0] if terrain_mode == "granular" else 0.0
        assert new.dq_s.tolist() == [dq[2], dq[3], dq[0], dq[1], dq[4], slip, 0.0]
        assert (slip != 0.0) == (terrain_mode == "granular")
        # the frontal angles mirror about the new stance hip
        assert new.q_f.tolist() == [0.0, math.pi - p[1], -p[2], 0.0, 0.0]
        assert new.dq_f.tolist() == [0.0, -dp[1], -dp[2], 0.0, 0.0]
        # the new contact sits under the landing foot, no higher than the sand
        assert new.c0.tolist() == [swing[0], min(swing[1] - r, level)]
        clamped += new.c0[1] == level
        assert np.array_equal(new.liftoff, ws.c0 + q[5:7] + (0.0, r))
        assert (new.t, new.t_stance_start, new.step_count) == (ws.t, ws.t, ws.step_count + 1)
        assert new.prev_swing_height == math.inf
        # the latches: the sole's contact angle is the calf pitch, and the
        # chord runs from the hip to the new stance-foot center
        assert abs(new.theta_r0 - new.q_s[1]) < 1e-12
        chord = math.hypot(*leg_fk(cfg.sagittal.l_t, cfg.sagittal.l_c, q[2], q[3]))
        assert abs(new.r_latch - sim._clamp_chord(cfg, chord)) < 1e-12
    # mid-swing feet are above the sand; on sand the detected touchdowns
    # land below it, and the forced rigid ones above it
    assert clamped == len(mid_swing) + (3 if terrain_mode == "rigid" else 0)


@pytest.mark.parametrize("integrator", ["semi_implicit", "rk4"])
@pytest.mark.parametrize("terrain_mode,touchdowns,phases", [
    ("granular", 14, (0.82, 0.84)),  # detected mid-swing
    ("rigid", 11, (1.0, 1.0)),       # forced at the schedule boundary
])
def test_touchdown_events_of_the_default_runs(terrain_mode, integrator, touchdowns, phases):
    # the record is written before the jump: a touchdown row holds the
    # pre-swap stance phase, and the next row the raised step count
    traj = run_cfg(**{"sim.terrain_mode": terrain_mode, "sim.integrator": integrator})
    steps = traj.column("step_count")
    rows = np.flatnonzero(np.diff(steps))
    assert len(rows) == touchdowns
    assert np.all(np.diff(steps)[rows] == 1)
    phase = traj.column("stance_phase")[rows]
    assert np.all((phase >= phases[0] - 1e-9) & (phase <= phases[1] + 1e-9))


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


@pytest.mark.parametrize("n_rows", [0, 1, 256, 257, 600])
def test_trajectory_csv_blocks_equal_single_pass(tmp_path, n_rows):
    # rows are written and read a block at a time; the file must equal the
    # single-pass writer's and load back to the same data, NaN and inf included
    data = np.random.default_rng(n_rows).uniform(-1.0, 1.0, (n_rows, len(sim.SIM_RECORD_FIELDS)))
    data[:, 1] = data[:, 1] > 0.0  # stance_leg index
    data[:, 3] = np.arange(n_rows) // 100  # step_count
    data[::7, 5] = math.nan
    data[::11, 7] = math.inf
    data[::13, 8] = -math.inf
    traj = sim.Trajectory(data, {})
    traj.save_csv(tmp_path / "traj.csv")
    single_pass = ",".join(sim.SIM_RECORD_FIELDS) + "\n" + "".join(
        ",".join(map(str, row)) + "\n" for row in traj._rows())
    assert (tmp_path / "traj.csv").read_text() == single_pass
    loaded = sim.Trajectory.load_csv(tmp_path / "traj.csv")
    assert loaded.data.shape == data.shape
    assert np.array_equal(loaded.data, data, equal_nan=True)


def test_trajectory_csv_malformed_row_names_its_line(tmp_path):
    traj = sim.Trajectory(np.zeros((300, len(sim.SIM_RECORD_FIELDS))), {})
    path = tmp_path / "traj.csv"
    traj.save_csv(path)
    lines = path.read_text().splitlines()
    lines[280] = lines[280].replace("0.0", "zero", 1)  # row 280, past the first block
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"traj\.csv:281: malformed row"):
        sim.Trajectory.load_csv(path)


@pytest.mark.parametrize("stance", list(gt.Side))
def test_control_tables_match_gait_maps(stance):
    # the controller's index tables against the public gait maps they replace
    cfg = build_config({})
    rng = np.random.default_rng(3)
    hip_rows = (0, 3) if stance is gt.Side.LEFT else (3, 0)

    def actuation(q_s, hips):
        q_a = gt.sagittal_angles_to_actuation(q_s, stance)
        q_a[list(hip_rows)] = hips
        return q_a

    for _ in range(50):
        ws = sim.initial_state(cfg)
        ws.stance = stance
        ws.q_s[:5] += rng.uniform(-0.3, 0.3, 5)
        ws.dq_s[:5] = rng.uniform(-3.0, 3.0, 5)
        ws.q_f[:3] += rng.uniform(-0.2, 0.2, 3)
        ws.dq_f[:3] = rng.uniform(-2.0, 2.0, 3)
        tau, dq_a, tau_s, tau_f = sim._control(ws, cfg)
        refs, rates = sim._model_refs(ws, cfg, ws.t)
        dp = ws.dq_f
        expected_dq_a = actuation(ws.dq_s[:5], (-dp[0] + dp[1], -dp[1] + dp[2]))
        expected_tau = gt.track_joints(
            actuation(refs, sim._HIP_POSTURE), actuation(rates, (0.0, 0.0)),
            actuation(ws.q_s[:5], gt.frontal_to_hip_angles(ws.q_f)), expected_dq_a, cfg.gains)
        assert np.allclose(dq_a, expected_dq_a, rtol=0.0, atol=1e-12)
        assert np.allclose(tau, expected_tau, rtol=0.0, atol=1e-9)
        assert np.allclose(tau_s, gt.actuation_torques_to_sagittal(np.array(tau), stance),
                           rtol=0.0, atol=1e-12)
        assert tau_f == gt.hip_torques_to_frontal(tau[hip_rows[0]], tau[hip_rows[1]])


def test_closed_form_2x2_solve_matches_lapack():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(2000):
        b = rng.uniform(-1.0, 1.0, (2, 2))
        m = b @ b.T + 0.5 * np.eye(2)  # symmetric positive definite
        r = rng.uniform(-10.0, 10.0, 2)
        expected = np.linalg.solve(m, r)
        got = np.array(sim._solve2(m, r.tolist()))
        worst = max(worst, np.abs(got - expected).max() / np.abs(expected).max())
    assert worst < 1e-12


def _random_stage(rng, granular):
    q = np.concatenate([rng.uniform(-0.8, 0.8, 5), rng.uniform(-0.02, 0.02, 1),
                        rng.uniform(-0.04, 0.0, 1) if granular else np.zeros(1),
                        [0.0, math.pi / 2.0], rng.uniform(-0.3, 0.3, 1),
                        rng.uniform(-0.01, 0.01, 1) if granular else np.zeros(1),
                        np.zeros(1)])
    q[11] = q[6]
    dq = rng.uniform(-2.0, 2.0, 12)
    dq[[4, 7, 8]] = 0.0
    if not granular:
        dq[[5, 6, 10]] = 0.0
    dq[11] = dq[6]
    return q, dq, list(rng.uniform(-20.0, 20.0, 4)), tuple(rng.uniform(-20.0, 20.0, 2))


@pytest.mark.parametrize("terrain_mode", ["granular", "rigid"])
def test_reduced_2x2_rows_match_lapack(terrain_mode):
    # the closed-form rows of the reduced system: sagittal (0, 1) on rigid
    # ground, frontal (2, 3) on sand
    cfg = build_config({"sim.terrain_mode": terrain_mode})
    granular = terrain_mode == "granular"
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(300):
        q, dq, tau_s, tau_f = _random_stage(rng, granular)
        qdd, _, f_y, _, _, _ = sim._accelerations(cfg, q, dq, tau_s, tau_f)
        if granular:
            d, c, g = dyn.assemble_frontal(cfg.frontal, dyn.FrontalState(q[7:], dq[7:]))
            rhs = -c @ dq[7:] - g
            rhs[2] += tau_f[1]
            rhs[3] += f_y
            expected = np.linalg.solve(d[2:4, 2:4], rhs[2:4] - d[2:4, 4] * qdd[6])
            got = qdd[9:11]
        else:
            d, c, g = dyn.assemble_sagittal(cfg.sagittal, dyn.SagittalState(q[:7], dq[:7]))
            rhs = -c @ dq[:7] - g
            rhs[:4] += tau_s
            expected = np.linalg.solve(d[:2, :2], rhs[:2])
            got = qdd[:2]
        worst = max(worst, np.abs(got - expected).max() / np.abs(expected).max())
    assert worst < 1e-12


def _one_sided_rates(ws, cfg, t, h):
    """Three-point difference of the reference angles on one side of t: the
    left for h > 0, the right for h < 0.  It is second order, because the
    first-order difference carries an error of |f''| h / 2, about 2.4e-5
    rad/s for h = 1e-7 at the swing apex."""
    f0, f1, f2 = (np.array(sim._model_refs(ws, cfg, t - k * h)[0]) for k in range(3))
    return (3.0 * f0 - 4.0 * f1 + f2) / (2.0 * h)


@pytest.mark.parametrize("terrain_mode", ["granular", "rigid"])
def test_reference_rates_match_one_sided_difference(terrain_mode):
    # the analytic reference rates against the left difference that the
    # controller's finite difference took, at every control step of the
    # default run; at a stance start the phase-driven terms are exactly 0,
    # so the rates equal those of a walker whose stance clock has not started
    cfg = build_config({"sim.terrain_mode": terrain_mode})
    h = 1e-7
    ws = sim.initial_state(cfg)
    row = np.empty(len(sim.SIM_RECORD_FIELDS))
    worst = 0.0
    starts = 0
    for _ in range(round(cfg.duration / cfg.dt)):
        refs, rates = sim._model_refs(ws, cfg, ws.t)
        worst = max(worst, np.abs(rates - _one_sided_rates(ws, cfg, ws.t, h)).max())
        if ws.t == ws.t_stance_start:
            starts += 1
            assert np.abs(rates - _one_sided_rates(ws, cfg, ws.t, -h)).max() < 1e-5
            held = copy.copy(ws)
            held.t_stance_start = ws.t + 1.0
            assert sim._model_refs(held, cfg, ws.t) == (refs, rates)
        ws = sim._advance(ws, cfg, row)
    assert starts >= 10
    assert worst < 1e-5


def test_reference_rates_at_the_clamps(monkeypatch):
    # states the default runs never reach: the stance hip clamped at its
    # reach in front of and behind the contact while the chord grows or
    # shrinks, and the leg IK targets clamped to the inner and outer radius
    cfg = build_config({})
    p = cfg.sagittal
    radii = []
    leg_ik = gt.leg_ik
    monkeypatch.setattr(gt, "leg_ik", lambda l_t, l_c, target: (
        radii.append(math.hypot(*target)), leg_ik(l_t, l_c, target))[1])
    base = sim.initial_state(cfg)
    for slip, r_latch, lift_x in [(0.3, 0.2, 0.0), (-0.3, 0.4, 0.0),
                                  (0.0, 0.1, 0.0), (0.0, 0.3, -0.8)]:
        ws = copy.deepcopy(base)
        ws.q_s[5], ws.r_latch = slip, r_latch
        ws.liftoff[0] += lift_x
        for t in np.arange(0.01, 0.2, 0.01):
            rates = sim._model_refs(ws, cfg, t)[1]
            assert np.abs(rates - _one_sided_rates(ws, cfg, t, 1e-7)).max() < 1e-5
    r_max = (p.l_t + p.l_c) * (1.0 - 1e-4)
    r_min = abs(p.l_t - p.l_c) * (1.0 + 1e-4) + 1e-6
    assert any(abs(r - r_max) < 1e-12 for r in radii)
    assert any(abs(r - r_min) < 1e-12 for r in radii)


def test_initial_rates_are_the_right_difference():
    cfg = build_config({})
    ws = sim.initial_state(cfg)
    clean = sim.initial_state(build_config({"sim.initial_jitter": 0.0}))
    assert np.abs(ws.dq_s[:5] - _one_sided_rates(clean, cfg, 0.0, -1e-7)).max() < 1e-5
    assert ws.dq_s[4] == 0.0


def test_merged_wedge_force_equals_two_face_blend():
    # one forward-face evaluation against the blend of both faces it replaced
    cfg = build_config({})
    for depth in (0.0, 1e-4, 0.005, 0.02, 0.05):
        for dx in (-0.8, -0.05, -1e-3, -1e-9, 0.0, 1e-9, 1e-3, 0.05, 0.8):
            for dz in (-0.8, -0.05, 0.0, 0.05, 0.8):
                hyp = math.hypot(dx, sim._DIRECTION_FLOOR)
                w = 0.5 * (1.0 + dx / hyp)
                kin = tr.IntrusionKinematics(depth=depth, gamma=math.atan2(dz, hyp))
                fwd = tr.sagittal_forces(cfg.terrain, kin)
                kin.gamma = math.atan2(dz, -hyp)
                bwd = tr.sagittal_forces(cfg.terrain, kin)
                old = (w * fwd.f_x + (1.0 - w) * bwd.f_x, w * fwd.f_z + (1.0 - w) * bwd.f_z)
                f_x, f_z, f_y, _ = sim._grf_granular(cfg, depth, dx, dz, 0.01)
                scale = math.hypot(*old)
                assert abs(f_x - old[0]) <= 1e-9 * scale
                assert abs(f_z - old[1]) <= 1e-9 * scale
                assert f_y == tr.lateral_force(cfg.terrain, tr.IntrusionKinematics(
                    depth=depth, y_slip=0.01))


def _with_trunk_ref(cfg, value):
    # GaitConfig rejects a non-finite trunk_ref, so set it past the check
    gait = copy.copy(cfg.gait)
    object.__setattr__(gait, "trunk_ref", value)
    out = copy.copy(cfg)
    object.__setattr__(out, "gait", gait)
    return out


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 2e6])
def test_divergence_guard_catches_held_coordinate(value):
    # the trunk is posture-held after the integrator stages, so only the
    # guard after the step sees it
    cfg = build_config({})
    ws = sim.initial_state(cfg)
    with np.errstate(all="ignore"), pytest.raises(sim.DivergenceError) as err:
        sim.step(ws, _with_trunk_ref(cfg, value))
    assert err.value.t == pytest.approx(cfg.dt)
    assert err.value.detail == ""


def test_divergence_guard_catches_rate_above_limit():
    cfg = build_config({})
    ws = sim.initial_state(cfg)
    ws.dq_s[0] = 2.0 * sim._DIVERGENCE_LIMIT  # finite, so the stage checks pass
    with np.errstate(all="ignore"), pytest.raises(sim.DivergenceError) as err:
        sim.step(ws, cfg)
    assert err.value.detail == ""


def test_trunk_reference_above_limit_diverges():
    with pytest.raises(sim.DivergenceError) as err:
        run_cfg(**{"gait.trunk_ref": 2e6})
    assert err.value.t == pytest.approx(1e-3)
