"""Acceptance criteria, one test per criterion with a printed verdict."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from sandwalk import dynamics as dyn
from sandwalk import metrics
from sandwalk import rolling as rl
from sandwalk import sim
from sandwalk import terrain as tr
from sandwalk.config import build_config

from test_dynamics import (
    frontal_matrices,
    integrate_free,
    intrusion_row_closed_form,
    lateral_row_closed_form,
    random_sagittal_params,
    sagittal_matrices,
    slip_row_closed_form,
)
from test_rolling import grid_golden_lowest
from test_terrain import synthetic_records, wedge_quadrature


def verdict(num, ok, detail):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_row_consistency():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        p = random_sagittal_params(rng)
        q = rng.uniform(-1.5, 1.5, 7)
        dq = rng.uniform(-4, 4, 7)
        qdd = rng.uniform(-8, 8, 7)
        d, c, g = sagittal_matrices(p, q, dq)
        lhs = d @ qdd + c @ dq + g
        scale = max(1.0, abs(lhs[5]), abs(lhs[6]))
        worst = max(
            worst,
            abs(lhs[5] - slip_row_closed_form(p, q, dq, qdd)) / scale,
            abs(lhs[6] - intrusion_row_closed_form(p, q, dq, qdd)) / scale,
        )
        pf = dyn.FrontalParams(
            m_b=rng.uniform(2, 8), m_1=rng.uniform(0.5, 3),
            m_2=rng.uniform(0.5, 3), l_1=rng.uniform(0.3, 0.6),
            d_1=rng.uniform(0.1, 0.29), d_2=rng.uniform(0.1, 0.3),
            b=rng.uniform(0.05, 0.2),
        )
        qf = rng.uniform(-1.5, 1.5, 5)
        dqf = rng.uniform(-4, 4, 5)
        qddf = rng.uniform(-8, 8, 5)
        df, cf, gf = frontal_matrices(pf, qf, dqf)
        lhs_f = df @ qddf + cf @ dqf + gf
        worst = max(
            worst,
            abs(lhs_f[3] - lateral_row_closed_form(pf, qf, dqf, qddf))
            / max(1.0, abs(lhs_f[3])),
        )
    elapsed = time.perf_counter() - start
    verdict(1, worst < 1e-9 and elapsed < 5.0,
            f"slip/intrusion/lateral rows vs closed forms: worst rel err "
            f"{worst:.2e} (<1e-9), {elapsed:.2f} s (<5 s)")


def test_criterion_02_structural_properties():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    p = dyn.SagittalParams()
    pf = dyn.FrontalParams()
    min_eig = np.inf
    worst_skew = 0.0
    worst_grad = 0.0
    fd = 1e-6
    for _ in range(100):
        q = rng.uniform(-1.2, 1.2, 7)
        dq = rng.uniform(-2, 2, 7)
        d, c, g = sagittal_matrices(p, q, dq)
        min_eig = min(min_eig, np.linalg.eigvalsh(d).min())
        dp, _, _ = sagittal_matrices(p, q + dq * fd, dq)
        dm, _, _ = sagittal_matrices(p, q - dq * fd, dq)
        s = (dp - dm) / (2 * fd) - 2 * c
        worst_skew = max(worst_skew, np.abs(s + s.T).max())
        for i in range(7):
            qp = q.copy(); qp[i] += fd
            qm = q.copy(); qm[i] -= fd
            grad = (dyn.sagittal_energy(p, qp, dq)[1]
                    - dyn.sagittal_energy(p, qm, dq)[1]) / (2 * fd)
            worst_grad = max(worst_grad, abs(grad - g[i]))
        qf = rng.uniform(-1.2, 1.2, 5)
        dqf = rng.uniform(-2, 2, 5)
        dfm, cfm, gfm = frontal_matrices(pf, qf, dqf)
        min_eig = min(min_eig, np.linalg.eigvalsh(dfm).min())
        dpp, _, _ = frontal_matrices(pf, qf + dqf * fd, dqf)
        dmm, _, _ = frontal_matrices(pf, qf - dqf * fd, dqf)
        sf = (dpp - dmm) / (2 * fd) - 2 * cfm
        worst_skew = max(worst_skew, np.abs(sf + sf.T).max())
    elapsed = time.perf_counter() - start
    verdict(2, min_eig > 0 and worst_skew < 1e-6 and worst_grad < 1e-6
            and elapsed < 10.0,
            f"SPD (min eig {min_eig:.2e}), skew {worst_skew:.2e} (<1e-6), "
            f"gravity gradient {worst_grad:.2e} (<1e-6), {elapsed:.2f} s (<10 s)")


def test_criterion_03_ballistic_energy():
    rng = np.random.default_rng(103)
    p = dyn.SagittalParams()
    q0 = rng.uniform(-0.5, 0.5, 7)
    dq0 = rng.uniform(-1.0, 1.0, 7)
    e0 = sum(dyn.sagittal_energy(p, q0, dq0))
    q1, dq1 = integrate_free(p, q0, dq0, 1e-4, 5000, method="rk4")
    e1 = sum(dyn.sagittal_energy(p, q1, dq1))
    drift = abs(e1 - e0) / abs(e0)
    verdict(3, drift < 1e-6,
            f"zero-input flight 0.5 s rk4 dt=1e-4: energy drift {drift:.2e} (<1e-6)")


def test_criterion_04_terrain_analytic_limits():
    terrain = tr.TerrainParams()
    down = -math.pi / 2
    zero = tr.sagittal_forces(terrain, 0.0, down)
    zero_y = tr.lateral_force(terrain, 0.0, 0.1)
    ok_zero = zero == (0.0, 0.0) and zero_y == 0.0

    ratio = tr.lateral_force(terrain, 0.02, terrain.lam) / tr.lateral_force(
        terrain, 0.02, 1e3 * terrain.lam)
    ok_ratio = abs(ratio - (1.0 - math.exp(-1.0))) < 1e-12

    depth, gamma, y_slip = 0.02, -1.0, 0.01
    f0_x, f0_z = tr.sagittal_forces(terrain, depth, gamma)
    f2z_x, f2z_z = tr.sagittal_forces(replace(terrain, zeta=2 * terrain.zeta), depth, gamma)
    f2w_x, f2w_z = tr.sagittal_forces(replace(terrain, width=2 * terrain.width), depth, gamma)
    fy0 = tr.lateral_force(terrain, depth, y_slip)
    fy2 = tr.lateral_force(replace(terrain, zeta=2 * terrain.zeta), depth, y_slip)
    ok_linear = (
        abs(f2z_z - 2 * f0_z) < 1e-9 and abs(f2z_x - 2 * f0_x) < 1e-9
        and abs(f2w_z - 2 * f0_z) < 1e-9 and abs(f2w_x - 2 * f0_x) < 1e-9
        and abs(fy2 - 2 * fy0) < 1e-12
    )

    fwd_x, _ = tr.sagittal_forces(terrain, 0.02, -0.7)
    bwd_x, _ = tr.sagittal_forces(terrain, 0.02, -math.pi + 0.7)
    ok_flip = abs(bwd_x + fwd_x) < 1e-9 * abs(fwd_x)

    verdict(4, ok_zero and ok_ratio and ok_linear and ok_flip,
            f"zero-depth zero force {ok_zero}, saturation ratio within 1e-12 "
            f"{ok_ratio}, linear in zeta and width {ok_linear}, "
            f"reversal flips F_x {ok_flip}")


def test_criterion_05_wedge_quadrature():
    terrain = tr.TerrainParams()
    start = time.perf_counter()
    worst = 0.0
    for depth in np.linspace(0.004, 0.05, 10):
        for gamma in np.linspace(-math.pi + 0.1, -0.1, 10):
            got_x, got_z = tr.sagittal_forces(terrain, float(depth), float(gamma))
            want_x, want_z = wedge_quadrature(terrain, float(depth), float(gamma))
            scale = max(abs(want_x), abs(want_z))
            worst = max(worst, abs(got_x - want_x) / scale, abs(got_z - want_z) / scale)
    elapsed = time.perf_counter() - start
    verdict(5, worst < 1e-3 and elapsed < 30.0,
            f"closed form vs wedge quadrature on 10x10 grid: worst rel err "
            f"{worst:.2e} (<1e-3), {elapsed:.2f} s (<30 s)")


def test_criterion_06_calibration_roundtrip():
    rng = np.random.default_rng(106)
    nominal = tr.TerrainParams()
    v, h = synthetic_records(nominal, 1.36, 0.03, 0.01, rng, 0.04, 0.02)
    res = tr.calibrate(v, h, nominal, plate_width=0.04, plate_depth=0.02)
    err_z = abs(res.zeta - 1.36) / 1.36
    err_l = abs(res.lam - 0.03) / 0.03
    verdict(6, err_z < 0.02 and err_l < 0.02,
            f"1% noise roundtrip: zeta err {err_z:.2%}, lambda err {err_l:.2%} (<2%)")


def test_criterion_07_rolling_kinematics():
    radius = 0.04
    shape = rl.FootShape(radius)
    dt = 1e-4
    omega = 1.5
    t = np.arange(0.0, 0.4, dt)
    pitch = omega * t
    theta_start = rl.orientation_angle(shape, rl.lowest_point(shape, pitch[0]))
    theta_end = rl.orientation_angle(shape, rl.lowest_point(shape, pitch[-1]))
    d_theta = theta_end - theta_start
    ok_angle = abs(d_theta - (pitch[-1] - pitch[0])) < 1e-6
    locus = radius * pitch  # pure rolling advance
    v = np.diff(locus) / dt
    r_eff = np.array([rl.effective_radius((vv, 0.0), omega) for vv in v[::50]])
    ok_radius = np.abs(r_eff - radius).max() / radius < 0.01
    worst_grid = 0.0
    for p in np.linspace(-1.0, 1.0, 9):
        x, _ = rl.lowest_point(shape, float(p))
        worst_grid = max(worst_grid, abs(x - grid_golden_lowest(shape, float(p))))
    verdict(7, ok_angle and ok_radius and worst_grid < 1e-8,
            f"pure roll: R_eff within 1% {ok_radius}, rolling angle vs pitch "
            f"{abs(d_theta - (pitch[-1]-pitch[0])):.1e} (<1e-6), lowest-point vs "
            f"grid search {worst_grid:.1e} m (<1e-8)")


def test_criterion_08_cot_cross_form():
    cfg = build_config({"sim.duration": 1.6})  # seven stances
    traj = sim.run(cfg)
    steps = int(max(traj.column("step_count")))
    report = metrics.cot(traj, t_start=cfg.gait.cycle_period)
    rel = abs(report.cot - report.cot_decoupled) / report.cot
    verdict(8, steps >= 5 and rel < 0.01,
            f"actuation vs decoupled CoT over a {steps}-step walk: "
            f"{report.cot:.4f} vs {report.cot_decoupled:.4f}, rel diff "
            f"{rel:.2e} (<1%)")


def test_criterion_09_sand_vs_rigid_walk():
    runs = {}
    for mode in ("rigid", "granular"):
        start = time.perf_counter()
        cfg = build_config({"sim.duration": 2.4, "sim.terrain_mode": mode,
                            "gait.v_target": 0.2})
        traj = sim.run(cfg)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"{mode} run took {elapsed:.1f} s"
        runs[mode] = traj

    rep_r = metrics.cot(runs["rigid"], t_start=0.4)
    rep_g = metrics.cot(runs["granular"], t_start=0.4)
    ratio = rep_g.cot / rep_r.cot
    ok_cot = rep_g.cot > rep_r.cot and 1.05 <= ratio <= 2.7

    def stance_rolls(traj):
        steps = np.asarray(traj.column("step_count")).astype(int)
        return np.array([
            abs(np.asarray(traj.column("delta_theta_r"))[steps == k][-1])
            for k in range(2, steps.max())
            if (steps == k).sum() > 10
        ])

    rolls_r = stance_rolls(runs["rigid"])
    rolls_g = stance_rolls(runs["granular"])
    ok_roll = rolls_g.max() < rolls_r.min()

    z_g = np.asarray(runs["granular"].column("z_s"))
    steps_g = np.asarray(runs["granular"].column("step_count")).astype(int)
    ok_sink = True
    for k in range(2, steps_g.max()):
        selk = steps_g == k
        if selk.sum() < 20:
            continue
        early = z_g[selk][: int(0.3 * selk.sum())]
        ok_sink &= bool(np.all(np.diff(early) >= -1e-6) and np.all(early[3:] > 0))
    ok_rigid_zero = np.abs(runs["rigid"].column("z_s")).max() == 0.0

    verdict(9, ok_cot and ok_roll and ok_sink and ok_rigid_zero,
            f"CoT sand/rigid {rep_g.cot:.3f}/{rep_r.cot:.3f} ratio {ratio:.2f} "
            f"in [1.05, 2.7] {ok_cot}; rolling angle sand "
            f"{rolls_g.mean():.4f} < rigid {rolls_r.mean():.4f} {ok_roll}; "
            f"early-stance sinkage monotone {ok_sink}; rigid z=0 {ok_rigid_zero}")


def test_criterion_10_determinism(tmp_path):
    cfg_flags = {"sim.duration": 0.8, "sim.seed": 5}
    digests = []
    for tag in ("a", "b"):
        traj = sim.run(build_config(cfg_flags))
        path = tmp_path / f"{tag}.csv"
        traj.save_csv(path)
        digests.append(path.read_bytes())
    verdict(10, digests[0] == digests[1],
            f"two runs, same config and seed: byte-identical CSV "
            f"({len(digests[0])} bytes)")
