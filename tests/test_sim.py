"""Simulation tests: modes, events, bookkeeping, determinism."""

import contextlib
import copy
import dataclasses
import hashlib
import itertools
import json
import math
import os
import random
import signal
import time
import warnings
from array import array
from collections import Counter

import numpy as np
import pytest

from sandwalk import dynamics as dyn
from sandwalk import gait as gt
from sandwalk import rolling as rl
from sandwalk import sim
from sandwalk import terrain as tr
from sandwalk import trajectory
from sandwalk.child import Child
from sandwalk.config import build_config
from sandwalk.metrics import cot, settle_time

from test_dynamics import frontal_matrices, integrate_free, sagittal_matrices
from test_gait import SAGITTAL_MAP, leg_fk


def run_cfg(**kw):
    return sim.run(build_config(kw))


def _step(ws, cfg):
    """One logged step from a shallow copy of ``ws``: (state', record)."""
    row = array("d")
    out = sim._advance(dataclasses.replace(ws), cfg, row, sim._StageTerms(), array("d"))
    return out, sim.Trajectory(row, {}).records[0]


def flat(data):
    """The rows of the 2-D float array ``data`` as a trajectory's flat ``array('d')``."""
    return array("d", np.asarray(data, dtype=float).tobytes())


def rows_of(traj):
    """The records of ``traj`` as an ``(n_records, len(SIM_RECORD_FIELDS))`` array."""
    return np.asarray(traj.data).reshape(-1, len(sim.SIM_RECORD_FIELDS))


def json_rows(traj):
    """``traj._rows()`` with every non-finite float as None, as JSON holds them."""
    return [[None if isinstance(v, float) and not math.isfinite(v) else v for v in row]
            for row in traj._rows()]


def test_rigid_mode_clamps_intrusion():
    # on rigid ground the contact coordinates start at +0.0 and accelerate by
    # 0.0 under either integrator, so every row holds them at +0.0; the
    # record reports the upward rate negated, as -0.0
    zero = {"x_s": "0x0.0p+0", "y_s": "0x0.0p+0", "z_s": "0x0.0p+0", "dx_s": "0x0.0p+0",
            "dy_s": "0x0.0p+0", "dz_s": "-0x0.0p+0", "gamma": "0x0.0p+0"}
    for integrator in ("semi_implicit", "rk4"):
        traj = run_cfg(**{"sim.duration": 1.2, "sim.terrain_mode": "rigid",
                          "sim.integrator": integrator})
        assert len(traj) == 1200
        for name, hex_zero in zero.items():
            assert set(map(float.hex, traj.column(name))) == {hex_zero}, (integrator, name)


def test_rigid_vertical_force_scale():
    traj = run_cfg(**{"sim.duration": 1.2, "sim.terrain_mode": "rigid"})
    t = np.asarray(traj.column("t"))
    fz = np.asarray(traj.column("f_z"))[t > 0.4]
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


@pytest.mark.parametrize("terrain_mode", ["granular", "rigid"])
@pytest.mark.parametrize("integrator", ["semi_implicit", "rk4"])
def test_decimated_rows_are_the_undecimated_rows(integrator, terrain_mode):
    # a decimated run logs the last step of each block; the steps between
    # build no row, yet the rows it keeps are those of the undecimated run
    # bit for bit
    keys = {"sim.duration": 0.8, "sim.integrator": integrator,
            "sim.terrain_mode": terrain_mode}
    full = rows_of(run_cfg(**keys))
    for k in (3, 10):  # 800 steps: a trailing partial block for k = 3
        rows = rows_of(run_cfg(**keys, **{"sim.decimation": k}))
        assert rows.shape == (800 // k, full.shape[1])
        assert rows.tobytes() == full[k - 1::k].tobytes()


def _inf_acceleration_at_call(monkeypatch, n):
    """Make the n-th dynamics evaluation of the next run return an infinite
    acceleration of the stance thigh (a finite state in, a non-finite one out)."""
    accelerations = sim._accelerations
    calls = iter(range(1, n + 1))

    def acc(*args):
        qdd, *forces = accelerations(*args)
        if next(calls, None) == n:
            qdd = qdd.copy()
            qdd[0] = math.inf
        return qdd, *forces

    monkeypatch.setattr(sim, "_accelerations", acc)


@pytest.mark.parametrize("decimation", [1, 10])
def test_nonfinite_end_of_an_rk4_step_is_divergence(monkeypatch, decimation):
    # steps 1-4 make four evaluations each, logged or not; the fourth stage
    # of step 5 (call 20) turns the end state infinite, no evaluation reads
    # it, and the guard after the step ends the run
    cfg = build_config({"sim.integrator": "rk4", "sim.decimation": decimation,
                        "sim.duration": 0.4})
    _inf_acceleration_at_call(monkeypatch, 20)
    with np.errstate(all="ignore"), pytest.raises(sim.DivergenceError) as err:
        sim.run(cfg)
    assert err.value.t == pytest.approx(5 * cfg.dt)
    assert str(err.value) == f"simulation diverged at t={err.value.t:.6f} s"


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
        c0 = (rng.uniform(-1.0, 1.0), rng.uniform(-0.02, 0.02))
        q = np.concatenate([rng.uniform(-1.0, 1.0, 5), rng.uniform(-0.05, 0.05, 2)])
        dq = rng.uniform(-3.0, 3.0, 7)
        hip, swing, com, hip_v, swing_v, com_v = sim._kinematics(cfg, c0, q.tolist(), dq.tolist())
        stance_center = np.add(c0, q[5:7]) + (0.0, cfg.foot_radius)
        for leg, center in ((0, stance_center), (2, swing)):
            foot = np.add(hip, leg_fk(p.l_t, p.l_c, q[leg], q[leg + 1]))
            worst_pos = max(worst_pos, np.abs(foot - center).max())
        ahead = sim._kinematics(cfg, c0, (q + h * dq).tolist(), dq.tolist())[:3]
        behind = sim._kinematics(cfg, c0, (q - h * dq).tolist(), dq.tolist())[:3]
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
    steps = np.asarray(traj.column("step_count")).astype(int)
    x_s = np.asarray(traj.column("x_s"))
    z_s = np.asarray(traj.column("z_s"))
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
    steps = np.asarray(traj.column("step_count")).astype(int)
    sel = steps == 0
    z = np.asarray(traj.column("z_s"))[sel]
    fz = np.asarray(traj.column("f_z"))[sel]
    peak = int(np.argmax(z))
    assert np.all(np.diff(z[: peak + 1]) >= -5e-6)
    weight = cfg.sagittal.total_riding_mass * cfg.sagittal.g
    assert fz[-1] == pytest.approx(weight, rel=0.02)
    # settled depth between the static-balance depth and the ballistic
    # overshoot bound, both from the quadratic force law
    from sandwalk import terrain as tr
    # the static bearing stress: straight-down penetration
    k = (tr.local_stress(cfg.terrain.phi_s, math.nan, cfg.terrain.zeta,
                         cfg.terrain.alpha_scale)[1]
         * cfg.terrain.width / (2 * math.tan(cfg.terrain.phi_s)))
    z_eq = math.sqrt(weight / k)
    assert z_eq <= z[-1] <= 1.25 * math.sqrt(3.0) * z_eq


@pytest.mark.parametrize("integrator,dt", [
    ("semi_implicit", 1e-3), ("rk4", 1e-3), ("semi_implicit", 2.5e-4), ("rk4", 2.5e-4),
], ids=["semi_implicit-1ms", "rk4-1ms", "semi_implicit-0.25ms", "rk4-0.25ms"])
def test_stiff_sand_tends_to_rigid_ground(integrator, dt):
    # rigid ground is the stiff limit of the sand: each 4x in terrain.zeta
    # closes the CoT gap to rigid ground and halves the peak sinkage.
    # Measured CoT gaps at 1, 4, 16 and 64 zeta, and sinkage ratios:
    #   semi-implicit, 1 ms:    0.2157 / 0.0284 / 0.00876 / 0.00115; 2.007 / 1.997 / 1.972
    #   rk4, 1 ms:              0.2117 / 0.0267 / 0.00798 / 0.00082; 2.005 / 1.996 / 1.963
    #   semi-implicit, 0.25 ms: 0.1490 / 0.0092 / 0.00525 / 0.00161; 2.009 / 1.994 / 1.971
    #   rk4, 0.25 ms:           0.1477 / 0.0088 / 0.00540 / 0.00153; 2.008 / 1.994 / 1.968
    def walk(overrides):
        cfg = build_config({**overrides, "sim.integrator": integrator, "sim.dt": dt})
        traj = sim.run(cfg)
        return cot(traj, t_start=settle_time(cfg)).cot, max(traj.column("z_s"))

    rigid_cot, rigid_sinkage = walk({"sim.terrain_mode": "rigid"})
    assert rigid_sinkage == 0.0
    zeta = tr.TerrainParams().zeta
    gaps, sinkage = [], []
    for scale in (1, 4, 16, 64):
        sand_cot, peak = walk({"terrain.zeta": zeta * scale})
        gaps.append(sand_cot - rigid_cot)
        sinkage.append(peak)
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps
    assert abs(gaps[-1]) < 0.005
    ratios = [a / b for a, b in zip(sinkage, sinkage[1:])]
    assert all(1.9 <= r <= 2.1 for r in ratios), ratios


def test_momentum_impulse_consistency():
    cfg = build_config({"sim.duration": 1.6})
    traj = sim.run(cfg)
    steps = np.asarray(traj.column("step_count")).astype(int)
    sel = np.where(steps == 3)[0][2:-2]  # inside one stance
    p = cfg.sagittal

    def momentum(i):
        r = traj.records[i]
        q = np.array([r.q_s1, r.q_s2, r.q_s3, r.q_s4, r.q_s5, r.x_s, -r.z_s])
        dq = np.array([r.dq_s1, r.dq_s2, r.dq_s3, r.dq_s4, r.dq_s5,
                       r.dx_s, -r.dz_s])
        d, _, _ = sagittal_matrices(p, q, dq)
        return float((d @ dq)[5])

    dt = cfg.dt
    impulse = float(np.sum(np.asarray(traj.column("f_x"))[sel[1:]]) * dt)
    delta_p = momentum(sel[-1]) - momentum(sel[0])
    scale = max(abs(impulse), abs(delta_p), 1e-3)
    assert abs(delta_p - impulse) / scale < 0.05


def test_walking_distance_matches_command():
    traj = run_cfg(**{"sim.duration": 2.4})
    t = np.asarray(traj.column("t"))
    x = np.asarray(traj.column("com_x"))
    sel = t >= 0.4
    covered = x[sel][-1] - x[sel][0]
    expected = 0.2 * (t[sel][-1] - t[sel][0])
    assert abs(covered - expected) / expected < 0.25


def test_divergence_guard():
    # a step far too long for the PD gains diverges mid-run, on either
    # terrain under either integrator
    for terrain, integrator in itertools.product(("granular", "rigid"),
                                                 ("semi_implicit", "rk4")):
        wild = build_config({"sim.dt": 0.02, "sim.duration": 0.8,
                             "sim.terrain_mode": terrain, "sim.integrator": integrator})
        with pytest.raises(sim.DivergenceError) as err:
            sim.run(wild)
        assert 0.0 < err.value.t < 0.8


@pytest.mark.parametrize("integrator,rate", [
    ("rk4", 1e150),           # finite at the step's start, overflows in stage 2
    ("rk4", math.nan),
    ("semi_implicit", math.nan),
])
def test_nonfinite_stage_is_divergence(integrator, rate):
    cfg = build_config({"sim.integrator": integrator})
    ws = sim.initial_state(cfg)
    ws.y[9] = rate  # dq_s[0]
    with np.errstate(all="ignore"), pytest.raises(sim.DivergenceError) as err:
        _step(ws, cfg)
    assert err.value.t == 0.0
    assert "integrator stage" in str(err.value)


def _assert_same_state(a, b):
    for f in dataclasses.fields(sim.WalkerState):
        assert getattr(a, f.name) == getattr(b, f.name), f.name


def _shares_no_list(a, b):
    return not any(getattr(a, f.name) is getattr(b, f.name)
                   for f in dataclasses.fields(sim.WalkerState)
                   if isinstance(getattr(a, f.name), list))


def _walk(terrain_mode, n_steps):
    """(state before each step, state after it) of the default walker."""
    cfg = build_config({"sim.terrain_mode": terrain_mode})
    ws = sim.initial_state(cfg)
    rows = array("d")
    stage, samples = sim._StageTerms(), array("d")
    pairs = []
    for _ in range(n_steps):
        before = copy.deepcopy(ws)
        ws = sim._advance(ws, cfg, rows, stage, samples)
        pairs.append((before, copy.deepcopy(ws)))
    return cfg, pairs


def test_step_does_not_mutate_input():
    cfg = build_config({"sim.duration": 0.8})
    ws = sim.initial_state(cfg)
    y_before = list(ws.y)
    out, rec = _step(ws, cfg)
    assert ws.y == y_before
    assert out.t == pytest.approx(cfg.dt)
    assert rec.t == pytest.approx(cfg.dt)
    # a step that ends in a touchdown leaves every field and list of its
    # input as it was too
    cfg, pairs = _walk("granular", 200)
    ws = next(before for before, after in pairs if after.step_count > before.step_count)
    snapshot = copy.deepcopy(ws)
    out, rec = _step(ws, cfg)
    _assert_same_state(ws, snapshot)
    assert _shares_no_list(out, ws)
    assert out.step_count == rec.step_count + 1 == ws.step_count + 1
    assert out.t_stance_start == out.t == rec.t


@pytest.mark.parametrize("integrator", ["semi_implicit", "rk4"])
@pytest.mark.parametrize("terrain_mode", ["granular", "rigid"])
def test_step_keeps_the_state_in_floats(terrain_mode, integrator):
    # the step reads and writes the state as Python floats; an array or a
    # numpy scalar back in it would bring back a conversion per step
    cfg = build_config({"sim.terrain_mode": terrain_mode, "sim.integrator": integrator})
    ws = sim.initial_state(cfg)
    rows = array("d")
    stage, samples = sim._StageTerms(), array("d")
    for i in range(600):  # past the first two touchdowns
        ws = sim._advance(ws, cfg, rows if i % 10 == 9 else None, stage, samples)
        assert len(ws.y) == 18
        assert all(type(x) is float for x in (*ws.y, *ws.c0, *ws.liftoff)), ws.t
    assert ws.step_count >= 2


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
            sim._flow(before, cfg, sim._StageTerms())
            pre_touchdown.append(before)
    assert len(mid_swing) >= 12 and len(pre_touchdown) == 3
    clamped = 0
    for ws in mid_swing + pre_touchdown:
        snapshot = copy.deepcopy(ws)
        new = sim._jump(ws, cfg)
        _assert_same_state(ws, snapshot)
        assert _shares_no_list(new, ws)
        q, p, dq, dp = ws.y[:7], ws.y[7:9], ws.y[9:16], ws.y[16:]
        _, swing, _, _, swing_v, _ = sim._kinematics(cfg, ws.c0, q, dq)
        # swing and stance pairs swap, the trunk carries over, the intrusion
        # restarts from 0, at rest except for the landing skid on sand
        assert new.stance == 1 - ws.stance
        assert new.y[:7] == [q[2], q[3], q[0], q[1], q[4], 0.0, 0.0]
        slip = swing_v[0] if terrain_mode == "granular" else 0.0
        assert new.y[9:16] == [dq[2], dq[3], dq[0], dq[1], dq[4], slip, 0.0]
        assert (slip != 0.0) == (terrain_mode == "granular")
        # the swing-leg angle mirrors about the new stance hip, the lateral
        # slip restarts at rest
        assert new.y[7:9] == [-p[0], 0.0]
        assert new.y[16:] == [-dp[0], 0.0]
        # the new contact sits under the landing foot, no higher than the sand
        assert new.c0 == (swing[0], min(swing[1] - r, level))
        clamped += new.c0[1] == level
        assert new.liftoff == (ws.c0[0] + q[5], ws.c0[1] + q[6] + r)
        assert (new.t, new.t_stance_start, new.step_count) == (ws.t, ws.t, ws.step_count + 1)
        assert new.prev_swing_height == math.inf
        # the latches: the sole's contact angle is the calf pitch, and the
        # chord runs from the hip to the new stance-foot center
        assert abs(new.theta_r0 - new.y[1]) < 1e-12
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
    steps = np.asarray(traj.column("step_count"))
    rows = np.flatnonzero(np.diff(steps))
    assert len(rows) == touchdowns
    assert np.all(np.diff(steps)[rows] == 1)
    phase = np.asarray(traj.column("stance_phase"))[rows]
    assert np.all((phase >= phases[0] - 1e-9) & (phase <= phases[1] + 1e-9))


# The model's riding mass (body plus stance leg) rides on the contact
# coordinates (x_s, z), while the reported hip and CoM come from the chain of
# ``sim._kinematics``, rooted at the stance foot; the two tests below pin the
# gap between these two bodies.  That G is the gradient of the model's
# potential is test_dynamics.py's test_gravity_is_potential_gradient.

@pytest.mark.parametrize("integrator", ["semi_implicit", "rk4"])
def test_rigid_ground_holds_the_riding_mass_while_the_reported_com_walks(monkeypatch,
                                                                         integrator):
    # x_s, z and their rates read from the state after every step (the log
    # clips z_s at 0, so it could not show z > 0)
    advance, contact = sim._advance, []

    def recorded(*args):
        ws = advance(*args)
        contact.append(max(abs(ws.y[i]) for i in (5, 6, 14, 15)))
        return ws

    monkeypatch.setattr(sim, "_advance", recorded)
    com_x = run_cfg(**{"sim.terrain_mode": "rigid", "sim.integrator": integrator}).column("com_x")
    assert len(contact) == 2400 and max(contact) == 0.0
    assert com_x[-1] - com_x[0] >= 0.4


@pytest.mark.parametrize("integrator", ["semi_implicit", "rk4"])
@pytest.mark.parametrize("terrain_mode,touchdowns,drop", [
    ("granular", 14, (-1e-12, 1e-12)),
    ("rigid", 11, (1.0e-3, 2.0e-3)),
])
def test_reported_com_through_every_jump(monkeypatch, terrain_mode, integrator, touchdowns,
                                         drop):
    # the jump re-roots the chain at the new stance foot.  On sand the
    # reported CoM is continuous through it.  On rigid ground the forced
    # touchdown puts the contact on the surface under a foot still above it,
    # so the CoM drops by 1.3-1.8 mm; this pins the drop as it is until a
    # jump map places the contact where the foot is (ROADMAP item 4)
    jump, jumps = sim._jump, []

    def recorded(ws, cfg):
        new = jump(ws, cfg)
        before = sim._kinematics(cfg, ws.c0, ws.y[:7], ws.y[9:16])[2]
        after = sim._kinematics(cfg, new.c0, new.y[:7], new.y[9:16])[2]
        jumps.append((after[0] - before[0], before[1] - after[1]))
        return new

    monkeypatch.setattr(sim, "_jump", recorded)
    run_cfg(**{"sim.terrain_mode": terrain_mode, "sim.integrator": integrator})
    assert len(jumps) == touchdowns
    assert max(abs(dx) for dx, _ in jumps) <= 1e-12
    assert all(drop[0] <= dz <= drop[1] for _, dz in jumps)


def test_rk4_integrator_mode():
    traj = run_cfg(**{"sim.duration": 0.8, "sim.integrator": "rk4"})
    assert len(traj.records) == 800
    assert np.isfinite(traj.column("com_x")).all()


@pytest.mark.parametrize("terrain_mode", ["granular", "rigid"])
def test_orientation_angle_is_calf_pitch(terrain_mode):
    # the semicylinder contact sits at r sin(pitch), so theta_r is the pitch
    traj = run_cfg(**{"sim.duration": 0.8, "sim.terrain_mode": terrain_mode})
    assert np.abs(np.subtract(traj.column("theta_r"), traj.column("q_s2"))).max() < 1e-12


def test_semi_implicit_free_flight_stable():
    p = dyn.SagittalParams()
    q, dq = integrate_free(p, np.zeros(7), np.zeros(7), 1e-3, 200, method="semi_implicit")
    assert q[6] == pytest.approx(-0.5 * p.g * 0.2 ** 2, rel=0.02)


def test_trajectory_csv_roundtrip(tmp_path):
    traj = run_cfg(**{"sim.duration": 0.8})
    path = tmp_path / "traj.csv"
    traj.save_csv(path)
    loaded = sim.Trajectory.load_csv(path)
    assert len(loaded.records) == len(traj.records)
    assert loaded.records[10] == traj.records[10]
    assert loaded.records[-1].stance_leg in ("left", "right")


def assert_same_text(got, expected):
    """Assert that two texts (str or bytes, up to about 1 MB) are equal, by
    their SHA-256 digests; a mismatch reports the first differing line and a
    short excerpt of it around the first differing character, where a diff of
    the whole texts would take minutes."""
    got, expected = (t.encode() if isinstance(t, str) else t for t in (got, expected))
    if hashlib.sha256(got).digest() == hashlib.sha256(expected).digest():
        return
    a, b = got.splitlines(keepends=True), expected.splitlines(keepends=True)
    line = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    x, y = (lines[line] if line < len(lines) else b"" for lines in (a, b))
    col = next((j for j, (u, v) in enumerate(zip(x, y)) if u != v), min(len(x), len(y)))
    start = max(col - 40, 0)
    pytest.fail(f"texts differ at line {line + 1}, character {col + 1}: "
                f"{x[start:col + 40]!r} != {y[start:col + 40]!r}", pytrace=False)


def assert_no_child_process():
    """Assert that this process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_same_files(tmp_path, a, b):
    for ext in ("csv", "json"):
        assert_same_text((tmp_path / f"{a}.{ext}").read_bytes(),
                         (tmp_path / f"{b}.{ext}").read_bytes())


@pytest.mark.parametrize("keys", [
    {"sim.decimation": 1},
    {"sim.decimation": 7},
    {"sim.decimation": 10, "sim.integrator": "rk4"},
    {"sim.dt": 0.002, "sim.duration": 0.4},
], ids=["k1", "k7", "k10-rk4", "shorter-than-a-hand-off"])
def test_writer_files_equal_in_process_files(tmp_path, writer_cpus, keys):
    # 800 steps hand the writer three full blocks of 256 steps and a last
    # one of 32; 200 steps hand it one block, at the end of the run
    cfg = build_config({"sim.duration": 0.8, "sim.terrain_mode": "granular", **keys})
    with trajectory.TrajectoryWriter() as writer:
        traj = sim.run(cfg, writer)
        assert isinstance(writer._child, Child)
        assert (writer._child.pid is not None) == (writer_cpus > 1)
        writer.commit(tmp_path / "streamed.csv", tmp_path / "streamed.json", traj.meta)
        assert writer._child.pid is None  # the commit reaped it
    assert_no_child_process()
    traj.save_csv(tmp_path / "plain.csv", tmp_path / "plain.json")
    _assert_same_files(tmp_path, "streamed", "plain")


def test_writer_relative_paths_name_the_directory_of_the_commit(tmp_path, monkeypatch,
                                                                writer_cpus):
    # the run starts in one directory and commits in another: relative
    # paths name files in the directory of the commit
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    monkeypatch.chdir(first)
    with trajectory.TrajectoryWriter() as writer:
        traj = sim.run(build_config({"sim.duration": 0.4}), writer)
        os.chdir(second)
        writer.commit("t.csv", "t.json", traj.meta)
    assert_no_child_process()
    assert sorted(os.listdir(second)) == ["t.csv", "t.json"]
    assert os.listdir(first) == []


def test_writer_writes_nonfinite_cells_as_null(tmp_path, writer_cpus):
    # blocks fed directly, of other sizes than a run's hand-offs
    data = np.random.default_rng(5).uniform(-1.0, 1.0, (600, len(sim.SIM_RECORD_FIELDS)))
    data[:, 1] = data[:, 1] > 0.0  # stance_leg index
    data[:, 3] = np.arange(600) // 100  # step_count
    data[::7, 5] = math.nan
    data[::11, 7] = math.inf
    data[::13, 8] = -math.inf
    meta = {"seed": 3, "terrain": "granular"}
    with trajectory.TrajectoryWriter() as writer:
        for i in range(0, 600, 100):
            writer.feed(flat(data[i:i + 100]))
        writer.commit(tmp_path / "streamed.csv", tmp_path / "streamed.json", meta)
    assert_no_child_process()
    sim.Trajectory(flat(data), meta).save_csv(tmp_path / "plain.csv", tmp_path / "plain.json")
    _assert_same_files(tmp_path, "streamed", "plain")
    text = (tmp_path / "streamed.json").read_text()
    records = json.loads(text, parse_constant=lambda c: pytest.fail(f"non-strict {c}"))["records"]
    assert len(records) == 600
    assert [row[5] for row in records[::7]] == [None] * 86
    assert [row[7] for row in records[::11]] == [None] * 55


def test_commit_of_a_closed_writer_is_named(tmp_path, writer_cpus):
    # a writer left without a commit has dropped its rows: a later commit
    # says so and writes no file
    with trajectory.TrajectoryWriter() as writer:
        traj = sim.run(build_config({"sim.duration": 0.4}), writer)
    assert_no_child_process()
    with pytest.raises(ValueError, match="^the trajectory writer was closed before its commit$"):
        writer.commit(tmp_path / "t.csv", tmp_path / "t.json", traj.meta)
    assert os.listdir(tmp_path) == []


def _forked(monkeypatch):
    """Make every ``child.Child`` fork."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    monkeypatch.setattr("sandwalk.child.usable_cpus", lambda: 2)


def test_child_returns_the_value_of_its_function(writer_cpus):
    with Child("a test child", lambda inbox, k: k * sum(inbox), 10, errors=()) as child:
        assert (child.pid is not None) == (writer_cpus > 1)
        for x in (1, 2, 3):
            child.send(x)
        assert child.result() == 60
    assert child.pid is None


@contextlib.contextmanager
def _alarm(seconds: float, error: BaseException):
    """Raise ``error`` in this process if the block is still running after
    ``seconds``."""
    def expire(signum, frame):
        raise error

    handler = signal.signal(signal.SIGALRM, expire)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)


def test_children_open_at_once_each_see_the_end_of_their_inbox(writer_cpus):
    # the second child holds no end of the first one's pipes, so the first
    # sees the end of its inbox while the second still waits on its own
    with _alarm(20, TimeoutError("a child never saw the end of its inbox")), \
            Child("child a", lambda inbox: sum(inbox), errors=()) as a, \
            Child("child b", lambda inbox: sum(inbox), errors=()) as b:
        for x in (1, 2, 3):
            a.send(x)
            b.send(10 * x)
        assert a.result() == 6
        assert b.result() == 60


@pytest.mark.parametrize("error", [ValueError("a.csv:3: malformed row (2 fields)"),
                                   FileNotFoundError(2, "No such file or directory", "b.csv")],
                         ids=["ValueError", "FileNotFoundError"])
def test_child_error_reaches_the_parent_as_raised(writer_cpus, error):
    def fail(inbox):
        raise error

    with Child("a test child", fail, errors=(ValueError, OSError)) as child:
        with pytest.raises(type(error)) as raised:
            child.result()
    assert str(raised.value) == str(error)


@pytest.mark.parametrize("fn,status", [(lambda inbox: os._exit(3), 3),
                                       (lambda inbox: 1 / 0, 1)],
                         ids=["exits-with-3", "raises-another-error"])
def test_child_exit_status_names_the_child(monkeypatch, fn, status):
    _forked(monkeypatch)
    with Child("a test child", fn, errors=(ValueError, OSError)) as child:
        with pytest.raises(OSError, match=f"^a test child exited with status {status}$"):
            child.result()


def test_child_left_early_is_killed_and_reaped(writer_cpus):
    # in-process, the function never runs; forked, the child is killed in
    # its sleep
    t0 = time.perf_counter()
    with Child("a test child", lambda inbox: time.sleep(60), errors=()) as child:
        pid = child.pid
        time.sleep(0.2)
    assert time.perf_counter() - t0 < 10
    assert child.pid is None
    if pid is not None:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_child_send_after_its_death_names_it(monkeypatch):
    _forked(monkeypatch)
    with Child("a test child", lambda inbox: None, errors=()) as child:
        # wait until it is dead, and leave it for the context to reap
        os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)
        with pytest.raises(OSError, match="^a test child exited before the end of its inbox$"):
            child.send(1)


@pytest.mark.parametrize("n_rows", [0, 1, 256, 257, 600])
def test_trajectory_json_is_one_document(tmp_path, n_rows):
    # rows are encoded a block at a time; the file must read as the one
    # document {meta, columns, records} with non-finite values as null
    data = np.random.default_rng(n_rows).uniform(size=(n_rows, len(sim.SIM_RECORD_FIELDS)))
    data[:, 1] = data[:, 1] > 0.5  # stance_leg index
    data[::7, 5] = math.nan
    data[::11, 7] = math.inf
    traj = sim.Trajectory(flat(data), {"seed": 3})
    traj.save_json(tmp_path / "traj.json")
    text = (tmp_path / "traj.json").read_text()
    assert_same_text(text, json.dumps({"meta": traj.meta, "columns": sim.SIM_RECORD_FIELDS,
                                       "records": json_rows(traj)}))
    doc = json.loads(text, parse_constant=lambda c: pytest.fail(f"non-strict JSON {c}"))
    assert len(doc["records"]) == n_rows


@pytest.mark.parametrize("n_rows", [0, 1, 256, 257, 600])
def test_fused_writer_equals_each_writer_alone(tmp_path, n_rows):
    # save_csv(csv, json) formats each value once for both files; each file
    # must equal what its writer alone gives, and the JSON the json.dumps
    # encoding of the document
    data = np.random.default_rng(n_rows).uniform(-1.0, 1.0, (n_rows, len(sim.SIM_RECORD_FIELDS)))
    data[:, 1] = np.arange(n_rows) % 3 == 0  # stance_leg index, both legs
    data[:, 3] = np.arange(n_rows) // 100  # step_count
    data[::7, 5] = math.nan
    data[::11, 7] = math.inf
    data[::13, 8] = -math.inf
    data[::5, 9] = -0.0
    traj = sim.Trajectory(flat(data), {"seed": 3, "terrain": "granular"})
    traj.save_csv(tmp_path / "both.csv", tmp_path / "both.json")
    traj.save_csv(tmp_path / "alone.csv")
    traj.save_json(tmp_path / "alone.json")
    csv_text = (tmp_path / "both.csv").read_bytes()
    json_text = (tmp_path / "both.json").read_text()
    assert_same_text(csv_text, (tmp_path / "alone.csv").read_bytes())
    assert_same_text(csv_text, ",".join(sim.SIM_RECORD_FIELDS) + "\n" + "".join(
        ",".join(map(str, row)) + "\n" for row in traj._rows()))
    assert_same_text(json_text, (tmp_path / "alone.json").read_text())
    assert_same_text(json_text, json.dumps({"meta": traj.meta, "columns": sim.SIM_RECORD_FIELDS,
                                            "records": json_rows(traj)}))
    records = json.loads(json_text, parse_constant=lambda c: pytest.fail(f"non-strict {c}"))["records"]
    assert len(records) == n_rows
    if n_rows > 1:
        assert {row[1] for row in records} == {"left", "right"}
    if n_rows:
        assert b",inf,-inf,-0.0," in csv_text and ", null, null, -0.0, " in json_text


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
    # rows are written a block at a time; the file must equal the
    # single-pass writer's and load back to the same bytes, NaN, inf, -0.0,
    # the least subnormal and values near the exponent limits included
    data = np.random.default_rng(n_rows).uniform(-1.0, 1.0, (n_rows, len(sim.SIM_RECORD_FIELDS)))
    data[:, 1] = data[:, 1] > 0.0  # stance_leg index
    data[:, 3] = np.arange(n_rows) // 100  # step_count
    data[::7, 5] = math.nan
    data[::11, 7] = math.inf
    data[::13, 8] = -math.inf
    data[::17, 9] = -0.0
    data[::19, 10] = 5e-324
    data[::23, 11] = 1e300
    data[::29, 12] = 1e-300
    data[::31, 13] = -1e300
    traj = sim.Trajectory(flat(data), {})
    traj.save_csv(tmp_path / "traj.csv")
    single_pass = ",".join(sim.SIM_RECORD_FIELDS) + "\n" + "".join(
        ",".join(map(str, row)) + "\n" for row in traj._rows())
    assert_same_text((tmp_path / "traj.csv").read_text(), single_pass)
    loaded = sim.Trajectory.load_csv(tmp_path / "traj.csv")
    assert len(loaded) == len(data)
    assert loaded.data.tobytes() == data.tobytes()


def _set_cell(j, text):
    """An edit of a CSV row that puts ``text`` in its cell ``j``."""
    def edit(row):
        cells = row.split(",")
        cells[j] = text
        return ",".join(cells)
    return edit


#: Edits that make one line of a trajectory file malformed: each replaces
#: data row 280 (line 281, past the first 256 rows), or with None appends a
#: blank last line; and the reason that ``load_csv`` gives for the line.
MALFORMED_ROWS = {
    "non-numeric": (_set_cell(5, "zero"), "could not convert string 'zero' to float64 at column 6"),
    "48-fields": (lambda row: row.rsplit(",", 1)[0], "48 fields"),
    "50-fields": (lambda row: row + ",0.0", "50 fields"),
    "blank-mid-file": (lambda row: "", "blank line"),
    "blank-at-end": (None, "blank line"),
    "comment": (lambda row: "#x", "1 fields"),
    "stance-lft": (_set_cell(1, "lft"), "could not convert string 'lft'"),
    # float() reads 1_0 as 10.0, numpy's reader rejects it, no writer writes it
    "underscore": (_set_cell(5, "1_0"), "could not convert string '1_0'"),
    # step_count is an integer: no fraction, NaN or infinity loads there
    "step-count-fraction": (_set_cell(3, "1.5"),
                            "could not convert string '1.5' to an integer at column 4"),
    "step-count-nan": (_set_cell(3, "nan"),
                       "could not convert string 'nan' to an integer at column 4"),
    "step-count-inf": (_set_cell(3, "inf"),
                       "could not convert string 'inf' to an integer at column 4"),
}


def break_trajectory_csv(path, case: str) -> int:
    """Apply ``MALFORMED_ROWS[case]`` to the trajectory file at ``path``;
    returns the number of the line made malformed."""
    edit = MALFORMED_ROWS[case][0]
    lines = path.read_text().splitlines()
    if edit is None:
        lines.append("")
        lineno = len(lines)
    else:
        lines[280] = edit(lines[280])
        lineno = 281
    path.write_text("\n".join(lines) + "\n")
    return lineno


@pytest.mark.parametrize("case", list(MALFORMED_ROWS))
def test_trajectory_csv_malformed_row_names_its_line(tmp_path, case):
    traj = sim.Trajectory(flat(np.zeros((300, len(sim.SIM_RECORD_FIELDS)))), {})
    path = tmp_path / "traj.csv"
    traj.save_csv(path)
    lineno = break_trajectory_csv(path, case)
    reason = MALFORMED_ROWS[case][1]
    with pytest.raises(ValueError, match=rf"traj\.csv:{lineno}: malformed row \({reason}"):
        sim.Trajectory.load_csv(path)


@pytest.mark.parametrize("ending", ["crlf", "no-final-newline"])
def test_trajectory_csv_line_endings_load(tmp_path, ending):
    # CRLF line endings and a last line without its newline load as written
    data = np.random.default_rng(5).uniform(-1.0, 1.0, (300, len(sim.SIM_RECORD_FIELDS)))
    data[:, 1] = data[:, 1] > 0.0  # stance_leg index
    data[:, 3] = np.arange(300) // 100  # step_count
    path = tmp_path / "traj.csv"
    sim.Trajectory(flat(data), {}).save_csv(path)
    text = path.read_bytes()
    path.write_bytes(text.replace(b"\n", b"\r\n") if ending == "crlf" else text[:-1])
    assert sim.Trajectory.load_csv(path).data.tobytes() == data.tobytes()


def test_trajectory_csv_header_only_loads_without_warning(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text(",".join(sim.SIM_RECORD_FIELDS) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        loaded = sim.Trajectory.load_csv(path)
    assert len(loaded.data) == 0
    assert caught == []


@pytest.mark.parametrize("stance", [0, 1], ids=["left", "right"])
def test_control_tables_match_gait_maps(stance):
    # the controller against the matrix S of the gait tests, the same for
    # both stance sides in stance-first order: q_a = S q_s with the hips in
    # rows 0 and 3, tau_s = S^T tau, tau_f from the hip rows, and the PD gains
    # per (hip, thigh, calf) on either leg
    cfg = build_config({})
    rng = np.random.default_rng(3)
    gains = gt.KP * 2, gt.KD * 2, cfg.torque_limit

    def actuation(q_s, hips):
        q_a = SAGITTAL_MAP @ q_s
        q_a[[0, 3]] = hips
        return q_a

    for _ in range(50):
        ws = sim.initial_state(cfg)
        ws.stance = stance
        y = np.array(ws.y)
        y[:5] += rng.uniform(-0.3, 0.3, 5)       # q_s
        y[9:14] = rng.uniform(-3.0, 3.0, 5)      # dq_s
        y[7] += rng.uniform(-0.2, 0.2)           # p3
        y[16] = rng.uniform(-2.0, 2.0)           # p3'
        ws.y = y.tolist()
        tau, dq_a, tau_s, tau_f = sim._control(ws, cfg)
        refs, rates = sim._model_refs(ws, cfg, ws.t)
        # the held lean and crossbar rest at their posture
        q_f, dq_f = (*sim._FRONTAL_POSTURE, y[7]), (0.0, 0.0, y[16])
        expected_dq_a = actuation(y[9:14], (-dq_f[0] + dq_f[1], -dq_f[1] + dq_f[2]))
        expected_tau = gt.track_joints(
            actuation(refs, sim._HIP_POSTURE), actuation(rates, (0.0, 0.0)),
            actuation(y[:5], gt.frontal_to_hip_angles(q_f)), expected_dq_a, *gains)
        assert np.allclose(dq_a, expected_dq_a, rtol=0.0, atol=1e-12)
        assert np.allclose(tau, expected_tau, rtol=0.0, atol=1e-9)
        assert np.allclose(tau_s, (SAGITTAL_MAP.T @ tau)[:4], rtol=0.0, atol=1e-12)
        assert tau_f == gt.hip_torques_to_frontal(tau[0], tau[3])


# offsets of the state's parts in WalkerState.y: q_f and dq_f are the
# frontal coordinates that move, (p3, y_s) and their rates
_OFFSET = {"q_s": 0, "q_f": 7, "dq_s": 9, "dq_f": 16}


@pytest.mark.parametrize("terrain_mode,coordinate,value,peak_y_s,peak_f_y", [
    ("granular", ("q_f", 0), 0.02, 0.5902e-3, 0.9221),  # swing-leg angle p3
    ("granular", ("dq_f", 1), 0.05, 4.921e-3, 7.033),   # lateral slip rate dy_s
    ("rigid", ("q_f", 0), 0.02, 0.0, 27.96),            # slip clamped
])
def test_perturbed_frontal_plane_decays(terrain_mode, coordinate, value, peak_y_s, peak_f_y):
    # the unperturbed gait never moves the frontal plane; a perturbed start
    # of the default run moves it, the lateral force arrests the slip, the
    # jump resets y_s at each touchdown, and both decay to 0 by the end.
    # The frontal plane does not feed back into the sagittal one, so the CoT
    # stays that of the unperturbed run (measured: within 1.2e-11 relative).
    # Peaks are pinned to 1e-3 relative, the end states to 1e-15 absolute.
    cfg = build_config({"sim.terrain_mode": terrain_mode})
    ws = sim.initial_state(cfg)
    name, i = coordinate
    ws.y[_OFFSET[name] + i] = value
    data, stage, samples = array("d"), sim._StageTerms(), array("d")
    for _ in range(round(cfg.duration / cfg.dt)):
        ws = sim._advance(ws, cfg, data, stage, samples)
    traj = sim.Trajectory(data, {})
    assert np.abs(np.asarray(traj.column("y_s"))).max() == pytest.approx(peak_y_s, rel=1e-3)
    assert np.abs(np.asarray(traj.column("f_y"))).max() == pytest.approx(peak_f_y, rel=1e-3)
    assert abs(traj.column("q_f3")[-1]) < 1e-15
    assert abs(traj.column("y_s")[-1]) < 1e-15
    unperturbed = sim.run(cfg)
    t_start = settle_time(cfg)
    expected = cot(unperturbed, t_start=t_start).cot
    got = cot(traj, robot_weight=unperturbed.meta["robot_weight"], t_start=t_start).cot
    assert got == pytest.approx(expected, rel=1e-9)


def test_closed_form_2x2_solve_matches_lapack():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(2000):
        b = rng.uniform(-1.0, 1.0, (2, 2))
        m = b @ b.T + 0.5 * np.eye(2)  # symmetric positive definite
        r = rng.uniform(-10.0, 10.0, 2)
        expected = np.linalg.solve(m, r)
        got = np.array(sim._solve2(*m.ravel().tolist(), *r.tolist()))
        worst = max(worst, np.abs(got - expected).max() / np.abs(expected).max())
    assert worst < 1e-12


def _sand_block_dense(diag, d):
    """Rows and columns (0, 1, 5, 6) of the sagittal D, from the entries of
    ``dyn.assemble_sagittal``, as a 4x4 array."""
    d00, d11, _, _, _, d55, d66 = diag
    d01, d05, d06, d15, d16, _, _ = d
    return np.array([[d00, d01, d05, d06], [d01, d11, d15, d16],
                     [d05, d15, d55, 0.0], [d06, d16, 0.0, d66]])


def _normwise_error(got, expected) -> np.ndarray:
    """Normwise relative difference of each row of ``got`` to ``expected``."""
    return np.linalg.norm(got - expected, axis=-1) / np.linalg.norm(expected, axis=-1)


@pytest.mark.parametrize("equal_contact", [True, False], ids=["d55=d66", "d55!=d66"])
def test_sand_block_solve_matches_lapack_on_random_blocks(equal_contact):
    # symmetric positive definite blocks [[A, B], [B^T, diag(d55, d66)]]:
    # A is B diag(d55, d66)^-1 B^T plus an SPD part, which is then the Schur
    # complement; the scales span the default robot's (d00 ~ 0.03, d55 6.5)
    rng = np.random.default_rng(17)
    systems, got = [], []
    for _ in range(2000):
        d55 = rng.uniform(0.5, 10.0)
        d66 = d55 if equal_contact else rng.uniform(0.5, 10.0)
        b = rng.uniform(-0.5, 0.5, (2, 2))
        m = rng.uniform(-0.3, 0.3, (2, 2))
        a = b @ np.diag([1.0 / d55, 1.0 / d66]) @ b.T + m @ m.T + 0.005 * np.eye(2)
        diag = (a[0, 0], a[1, 1], 1.0, 1.0, 1.0, d55, d66)
        d = (a[0, 1], b[0, 0], b[0, 1], b[1, 0], b[1, 1], 0.0, 0.0)
        r = tuple(rng.uniform(-50.0, 50.0, 4).tolist())
        systems.append((_sand_block_dense(diag, d), r))
        got.append(dyn.solve_sand_block(diag, d, r))
    matrices, rhs = map(np.array, zip(*systems))
    expected = np.linalg.solve(matrices, rhs[..., None])[..., 0]
    assert np.linalg.cond(matrices).max() > 1e3
    assert _normwise_error(np.array(got), expected).max() < 1e-12


@pytest.mark.parametrize("terrain_mode,integrator,decimation,calls", [
    ("granular", "rk4", 10, 2400 * 4),  # four stages, logged or not
    ("granular", "semi_implicit", 1, 2400),
    ("rigid", "rk4", 10, 0),
    ("rigid", "semi_implicit", 1, 0),
])
def test_sand_block_solved_once_per_granular_stage(monkeypatch, terrain_mode, integrator,
                                                   decimation, calls):
    # every sand stage of a default run solves its block through the module
    # attribute, once, within 1e-12 normwise of LAPACK
    solve = dyn.solve_sand_block
    seen = []

    def recorded(diag, d, r):
        x = solve(diag, d, r)
        seen.append((_sand_block_dense(diag, d), r, x))
        return x

    monkeypatch.setattr(dyn, "solve_sand_block", recorded)
    sim.run(build_config({"sim.terrain_mode": terrain_mode, "sim.integrator": integrator,
                          "sim.decimation": decimation}))
    assert len(seen) == calls
    if calls:
        matrices, rhs, got = map(np.array, zip(*seen))
        expected = np.linalg.solve(matrices, rhs[..., None])[..., 0]
        assert _normwise_error(got, expected).max() < 1e-12


@pytest.mark.parametrize("integrator", ["semi_implicit", "rk4"])
@pytest.mark.parametrize("terrain_mode", ["granular", "rigid"])
def test_unlogged_step_computes_only_what_it_reads(monkeypatch, terrain_mode, integrator):
    # an unlogged step reads two axes of the kinematics (the swing-foot
    # height and the CoM forward rate) and checks the contact with
    # rl.lowest_point alone: past its step count a run evaluates the
    # four-axis kinematics only inside the jump (twice per touchdown) and
    # the contact angle only at the initial state and at touchdowns; at
    # decimation 1 each runs once more per step.  Both runs take the same
    # touchdowns and keep the same step samples, bit for bit
    counts = Counter()

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((sim, "_kinematics"), (sim, "_jump"), (rl, "orientation_angle"),
                        (rl, "lowest_point")):
        counted(owner, name)
    keys = {"sim.duration": 0.8, "sim.terrain_mode": terrain_mode, "sim.integrator": integrator}
    steps = 800
    runs = []
    for decimation, logged in ((steps + 1, 0), (1, steps)):
        counts.clear()
        traj = run_cfg(**keys, **{"sim.decimation": decimation})
        jumps = counts["_jump"]
        assert len(traj) == logged and jumps >= 3
        assert counts["_kinematics"] == logged + 2 * jumps
        assert counts["orientation_angle"] == 1 + logged + jumps
        assert counts["lowest_point"] == 1 + steps + jumps
        runs.append((jumps, traj.step_samples.tobytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("terrain_mode", ["granular", "rigid"])
def test_rk4_step_evaluates_its_four_stages_logged_or_not(monkeypatch, terrain_mode):
    # a logged rk4 step evaluates the dynamics as often as an unlogged one,
    # once per stage
    accelerations, calls = sim._accelerations, []

    def counted(*args):
        calls.append(None)
        return accelerations(*args)

    monkeypatch.setattr(sim, "_accelerations", counted)
    for decimation in (1, 801):  # every step logged; no step logged
        calls.clear()
        traj = run_cfg(**{"sim.duration": 0.8, "sim.terrain_mode": terrain_mode,
                          "sim.integrator": "rk4", "sim.decimation": decimation})
        assert len(traj) == 800 // decimation
        assert len(calls) == 4 * 800


@pytest.mark.parametrize("law", ["sagittal_forces", "lateral_force"])
def test_stage_hands_the_force_laws_floats(monkeypatch, law):
    # every granular stage of a default rk4 run (four per step) calls each
    # force law once, with the run's terrain and two Python floats
    cfg = build_config({"sim.integrator": "rk4"})
    original, seen = getattr(tr, law), []

    def force_law(terrain, *args):
        seen.append((terrain, *map(type, args)))
        return original(terrain, *args)

    monkeypatch.setattr(tr, law, force_law)
    sim.run(cfg)
    assert len(seen) == 2400 * 4
    assert set(seen) == {(cfg.terrain, float, float)}


def _random_stage(rng, granular):
    q = np.concatenate([rng.uniform(-0.8, 0.8, 5), rng.uniform(-0.02, 0.02, 1),
                        rng.uniform(-0.04, 0.0, 1) if granular else np.zeros(1),
                        rng.uniform(-0.3, 0.3, 1),
                        rng.uniform(-0.01, 0.01, 1) if granular else np.zeros(1)])
    dq = rng.uniform(-2.0, 2.0, 9)
    dq[4] = 0.0
    if not granular:
        dq[[5, 6, 8]] = 0.0
    return (q.tolist(), dq.tolist(), rng.uniform(-20.0, 20.0, 4).tolist(),
            tuple(rng.uniform(-20.0, 20.0, 2).tolist()))


def _frontal_state(q, dq):
    """The five frontal coordinates and rates of a stage's (q, dq): the held
    lean and crossbar at rest, p3, y_s and the sagittal z."""
    return [*sim._FRONTAL_POSTURE, q[7], q[8], q[6]], [0.0, 0.0, dq[7], dq[8], dq[6]]


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
        qdd, _, f_y, _ = sim._accelerations(cfg, q + dq, tau_s, tau_f, sim._StageTerms())
        if granular:
            q_f, dq_f = _frontal_state(q, dq)
            d, c, g = frontal_matrices(cfg.frontal, q_f, dq_f)
            rhs = -c @ dq_f - g
            rhs[2] += tau_f[1]
            rhs[3] += f_y
            expected = np.linalg.solve(d[2:4, 2:4], rhs[2:4] - d[2:4, 4] * qdd[6])
            got = qdd[7:9]
        else:
            d, c, g = sagittal_matrices(cfg.sagittal, q[:7], dq[:7])
            rhs = -c @ dq[:7] - g
            rhs[:4] += tau_s
            expected = np.linalg.solve(d[:2, :2], rhs[:2])
            got = qdd[:2]
        worst = max(worst, np.abs(got - expected).max() / np.abs(expected).max())
    assert worst < 1e-12


def test_float_stage_terms_are_the_bytes_of_the_dense_assembly(monkeypatch):
    # the float D entries, G and C dq of a stage against the dense arrays
    # and numpy's C @ dq, bit for bit, in the stage's domain: dq[4] = +0.0
    # (the trunk hold), with +-0.0 mixed into q1, q2, q5, v1 and v2
    p = build_config({}).sagittal
    rng = np.random.default_rng(15)
    n = 100_000
    q, dq = rng.uniform(-1.5, 1.5, (n, 7)), rng.uniform(-4.0, 4.0, (n, 7))
    for v, i in ((q, 0), (q, 1), (q, 4), (dq, 0), (dq, 1)):
        signed_zero = rng.random(n) < 0.2
        v[signed_zero, i] = np.where(rng.random(signed_zero.sum()) < 0.5, 0.0, -0.0)
    dq[:, 4] = 0.0
    # flat indices of the diagonal, of D01, D05, D06, D15, D16, D45, D46 and
    # of their mirror images; the rows of C dq that a stage sums, then the
    # zero rows 2 and 3
    pairs = ((0, 1), (0, 5), (0, 6), (1, 5), (1, 6), (4, 5), (4, 6))
    d_at = [8 * i for i in range(7)] + [7 * i + j for i, j in pairs] + [7 * j + i for i, j in pairs]
    cdq_at = [0, 1, 5, 6, 2, 3]
    mismatches = []
    for q_i, dq_i in zip(q, dq):
        q_l, dq_l = q_i.tolist(), dq_i.tolist()
        diag, d, c, g = dyn.assemble_sagittal(p, q_l, dq_l)
        got = np.array((*diag, *d, *d, *g, *sim._coriolis_rows(c, dq_l), 0.0, 0.0))
        dense_d, dense_c, dense_g = sagittal_matrices(p, q_i, dq_i)
        expected = np.concatenate((dense_d.take(d_at), dense_g, (dense_c @ dq_i).take(cdq_at)))
        if got.tobytes() != expected.tobytes():
            mismatches.append((q_l, dq_l, list(map(float.hex, got.tolist())),
                               list(map(float.hex, expected.tolist()))))
    assert mismatches[:2] == []
    # an rk4 run at decimation 10 meets the domain at every stage, four per
    # step
    assemble = dyn.assemble_sagittal
    trunk_rates = []

    def recorded(params, q, dq):
        trunk_rates.append(dq[4])
        return assemble(params, q, dq)

    monkeypatch.setattr(dyn, "assemble_sagittal", recorded)
    sim.run(build_config({"sim.integrator": "rk4", "sim.decimation": 10}))
    assert len(trunk_rates) == 2400 * 4
    assert set(map(float.hex, trunk_rates)) == {"0x0.0p+0"}


def _ordered_dot(row, v) -> float:
    """Sum of the products of ``row`` and ``v`` in column order from +0.0."""
    total = 0.0
    for a, b in zip(row, v):
        total += a * b
    return total


def _frontal_reference(cfg, q, dq, tau_f, qdd_s, f_y):
    """Frontal rows of a stage from a fresh dense ``frontal_matrices``, with the
    row arithmetic of a stage that reassembles at every call: the frontal
    accelerations, f_y and tau_bar.  A product with a dense row sums all its
    columns; a running sum from +0.0 is never -0.0, so the zero entries of
    the row leave its bytes as they are."""
    q_f, dq_f = _frontal_state(q, dq)
    d_f, c_f, g_f = frontal_matrices(cfg.frontal, q_f, dq_f)
    d, g = d_f.tolist(), g_f.tolist()
    cdq_f = [_ordered_dot(row, dq_f) for row in c_f.tolist()]
    rhs_f = [-c - g for c, g in zip(cdq_f, g)]
    rhs_f[2] += tau_f[1]
    qdd_f = [0.0] * 5
    if cfg.terrain_mode == "granular":
        rhs_f[3] += f_y
        qdd_f[4] = qdd_s[6]
        assert d[3][4] == 0.0
        qdd_f[2:4] = sim._solve2(*d[2][2:4], *d[3][2:4],
                                 rhs_f[2] - d[2][4] * qdd_f[4], rhs_f[3])
    else:
        qdd_f[2] = rhs_f[2] / d[2][2]
        f_y = d[3][2] * qdd_f[2] + cdq_f[3] + g[3]
    return np.array(qdd_s + qdd_f[2:4]), f_y, _ordered_dot(d[1], qdd_f) + cdq_f[1] + g[1]


@pytest.mark.parametrize("terrain_mode", ["granular", "rigid"])
def test_reused_frontal_terms_give_the_bytes_of_a_fresh_assembly(terrain_mode):
    # one _StageTerms across a stage sequence, as in a run: every stage's
    # outputs are the bytes of a stage that reassembles; every seventh stage
    # runs under other frontal parameters
    configs = [build_config({"sim.terrain_mode": terrain_mode, "frontal.b": b})
               for b in (0.2, 0.3)]
    granular = terrain_mode == "granular"
    terms = sim._StageTerms()
    rng = np.random.default_rng(3)
    calls = itertools.count()

    def stage(q, dq, tau_s, tau_f):
        cfg = configs[next(calls) % 7 == 6]
        qdd, _, f_y, _ = sim._accelerations(cfg, q + dq, tau_s, tau_f, terms)
        tau_bar = terms.holding_torque(qdd)
        ref_qdd, ref_f_y, ref_tau_bar = _frontal_reference(
            cfg, q, dq, tau_f, qdd[:7], f_y if granular else None)
        got = np.array([*qdd, f_y, tau_bar]).tobytes()
        assert got == np.array([*ref_qdd, ref_f_y, ref_tau_bar]).tobytes()
        return got

    p3_reached = 0
    for i in range(60):
        q, dq, tau_s, tau_f = _random_stage(rng, granular)
        stage(q, dq, tau_s, tau_f)
        # the same swing-leg angle and rate (a reuse) with a new sagittal
        # state, torques, slip and sign of the slip rate
        q2, dq2, tau_s2, tau_f2 = _random_stage(rng, granular)
        q2[7], dq2[7] = q[7], dq[7]
        dq2[8] = -dq2[8]
        stage(q2, dq2, tau_s2, tau_f2)
        # the same swing-leg angle at another swing-hip rate
        dq2[7] = rng.uniform(-2.0, 2.0)
        stage(q2, dq2, tau_s2, tau_f2)
        # the swing leg at rest, with p3 as 0.0 and then as -0.0 (a
        # touchdown writes -p3), its rate and the slip rate of both signs
        # (the slip rate meets the zero columns of C)
        rate = (0.0, -0.0)[i % 2]
        out = []
        for p3 in (0.0, -0.0):
            for dy in (0.0, -0.0):
                q2[7], dq2[7:9] = p3, (rate, dy)
                out.append(stage(q2, dq2, tau_s2, (tau_f2[0], -0.0)))
        p3_reached += out[0] != out[2]
    # on rigid ground the sign of p3 reaches the output bytes (qdd_f[2]), so
    # a key that merged 0.0 and -0.0 would fail above
    assert granular or p3_reached > 0


@pytest.mark.parametrize("integrator", ["semi_implicit", "rk4"])
@pytest.mark.parametrize("terrain_mode", ["granular", "rigid"])
def test_frontal_dynamics_reassembled_only_around_touchdowns(monkeypatch, terrain_mode,
                                                              integrator):
    # the swing-leg angle and rate hold still between touchdowns; the jump
    # writes -0.0 into both, and the first stages of the next step write
    # +0.0 back, so each touchdown brings
    # at most 2 (semi-implicit) or 3 (rk4) new frontal configurations; the
    # count does not depend on an earlier run in the process
    cfg = build_config({"sim.duration": 0.8, "sim.terrain_mode": terrain_mode,
                        "sim.integrator": integrator})
    assemble, jump = dyn.assemble_frontal, sim._jump
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(dyn, "assemble_frontal", counted("assemble", assemble))
    monkeypatch.setattr(sim, "_jump", counted("jump", jump))
    per_run = []
    for _ in range(2):
        calls.clear()
        sim.run(cfg)
        per_run.append((calls.count("assemble"), calls.count("jump")))
    assert per_run[0] == per_run[1]
    assemblies, touchdowns = per_run[0]
    assert touchdowns >= 3
    assert 1 <= assemblies <= 1 + (2 if integrator == "semi_implicit" else 3) * touchdowns


@pytest.mark.parametrize("method", ["semi_implicit", "rk4"])
def test_stacked_ode_step_is_the_textbook_step(method):
    # the integrator on y = (q, dq) against the separate q and dq updates of
    # the textbook, bit for bit, with a nonlinear coupled acceleration
    def acc(q, dq):
        return np.sin(q[::-1]) * dq - 0.3 * dq * np.abs(dq) + np.cos(np.roll(q, 1)) * 5.0

    rng = np.random.default_rng(9)
    for _ in range(300):
        q, dq = rng.uniform(-2.0, 2.0, 12), rng.uniform(-5.0, 5.0, 12)
        dt = rng.uniform(1e-4, 1e-2)
        if method == "semi_implicit":
            dq1 = dq + acc(q, dq) * dt
            q1 = q + dq1 * dt
        else:
            h = 0.5 * dt
            k1q, k1v = dq, acc(q, dq)
            k2q, k2v = dq + h * k1v, acc(q + h * k1q, dq + h * k1v)
            k3q, k3v = dq + h * k2v, acc(q + h * k2q, dq + h * k2v)
            k4q, k4v = dq + dt * k3v, acc(q + dt * k3q, dq + dt * k3v)
            q1 = q + dt / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q)
            dq1 = dq + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        y1 = sim._ode_step(method, [*q.tolist(), *dq.tolist()],
                           lambda y: acc(np.array(y[:12]), np.array(y[12:])).tolist(), dt)
        assert np.array(y1).tobytes() == np.concatenate((q1, dq1)).tobytes()


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
    rows = array("d")
    stage, samples = sim._StageTerms(), array("d")
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
        ws = sim._advance(ws, cfg, rows, stage, samples)
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
        ws.y[5], ws.r_latch = slip, r_latch
        ws.liftoff = (ws.liftoff[0] + lift_x, ws.liftoff[1])
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
    assert np.abs(ws.y[9:14] - _one_sided_rates(clean, cfg, 0.0, -1e-7)).max() < 1e-5
    assert ws.y[13] == 0.0  # dq_s[4]


@pytest.mark.parametrize("amplitude", [2e-3, 0.0])
def test_jitter_draw_is_random_random_uniform(amplitude):
    # the four leg angles are the jitter-free reference plus four
    # uniform draws of the standard library's generator, bit for bit
    states = {}
    for seed in (0, 1, 2**64, 10**30):
        clean = sim.initial_state(build_config({"sim.seed": seed, "sim.initial_jitter": 0.0}))
        ws = sim.initial_state(build_config({"sim.seed": seed,
                                             "sim.initial_jitter": amplitude}))
        rng = random.Random(seed)
        expected = [q + rng.uniform(-amplitude, amplitude) for q in clean.y[:4]]
        assert [x.hex() for x in ws.y[:4]] == [x.hex() for x in expected], seed
        if amplitude == 0.0:
            assert ws == clean, seed
        states[seed] = ws
    assert (states[0] != states[1]) == (amplitude != 0.0)


def test_merged_wedge_force_equals_two_face_blend():
    # one forward-face evaluation against the blend of both faces it replaced
    cfg = build_config({})
    for depth in (0.0, 1e-4, 0.005, 0.02, 0.05):
        for dx in (-0.8, -0.05, -1e-3, -1e-9, 0.0, 1e-9, 1e-3, 0.05, 0.8):
            for dz in (-0.8, -0.05, 0.0, 0.05, 0.8):
                hyp = math.hypot(dx, sim._DIRECTION_FLOOR)
                w = 0.5 * (1.0 + dx / hyp)
                fwd_x, fwd_z = tr.sagittal_forces(cfg.terrain, depth, math.atan2(dz, hyp))
                bwd_x, bwd_z = tr.sagittal_forces(cfg.terrain, depth, math.atan2(dz, -hyp))
                old = (w * fwd_x + (1.0 - w) * bwd_x, w * fwd_z + (1.0 - w) * bwd_z)
                f_x, f_z, f_y = sim._grf_granular(cfg, depth, dx, dz, 0.01)
                scale = math.hypot(*old)
                assert abs(f_x - old[0]) <= 1e-9 * scale
                assert abs(f_z - old[1]) <= 1e-9 * scale
                assert f_y == tr.lateral_force(cfg.terrain, depth, 0.01)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 2e6])
def test_divergence_guard_catches_held_coordinate(value):
    # the trunk, the one held coordinate in the state, rests at its angle
    # through the integrator stages: a non-finite angle fails the first
    # stage's check, and a finite one past the limit passes every stage and
    # fails the guard after the step
    for integrator in ("semi_implicit", "rk4"):
        cfg = build_config({"sim.integrator": integrator})
        ws = sim.initial_state(cfg)
        ws.y[4] = value
        with np.errstate(all="ignore"), pytest.raises(sim.DivergenceError) as err:
            _step(ws, cfg)
        if math.isfinite(value):
            assert err.value.t == pytest.approx(cfg.dt)
            assert str(err.value) == f"simulation diverged at t={err.value.t:.6f} s"
        else:
            assert err.value.t == 0.0
            assert "integrator stage" in str(err.value)


@pytest.mark.parametrize("trunk_ref", [0.0, 0.05])
@pytest.mark.parametrize("integrator", ["semi_implicit", "rk4"])
@pytest.mark.parametrize("terrain_mode", ["granular", "rigid"])
def test_trunk_keeps_the_bits_of_its_reference(monkeypatch, terrain_mode, integrator, trunk_ref):
    # no step writes the trunk: it starts at gait.trunk_ref at rest and its
    # acceleration is the literal 0.0, so the state after every step holds
    # the reference's bits and a rate of +0.0
    advance, trunk = sim._advance, Counter()

    def recorded(*args):
        ws = advance(*args)
        trunk[ws.y[4].hex(), ws.y[13].hex()] += 1
        return ws

    monkeypatch.setattr(sim, "_advance", recorded)
    run_cfg(**{"sim.terrain_mode": terrain_mode, "sim.integrator": integrator,
               "gait.trunk_ref": trunk_ref})
    assert trunk == {(trunk_ref.hex(), "0x0.0p+0"): 2400}


def test_divergence_guard_catches_rate_above_limit():
    cfg = build_config({})
    ws = sim.initial_state(cfg)
    ws.y[9] = 2.0 * sim._DIVERGENCE_LIMIT  # dq_s[0]; finite, so the stage checks pass
    with np.errstate(all="ignore"), pytest.raises(sim.DivergenceError) as err:
        _step(ws, cfg)
    assert str(err.value) == f"simulation diverged at t={err.value.t:.6f} s"


def test_trunk_reference_above_limit_diverges():
    with pytest.raises(sim.DivergenceError) as err:
        run_cfg(**{"gait.trunk_ref": 2e6})
    assert err.value.t == pytest.approx(1e-3)
