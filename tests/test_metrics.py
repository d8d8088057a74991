"""Metrics tests: cost of transport, RMSE, velocity sweep aggregation."""

import dataclasses
import math
import os
import time

import numpy as np
import pytest

from sandwalk import child, metrics, sim
from sandwalk.metrics import (
    CellFailure,
    ZeroDistanceError,
    cot,
    dimensionless_velocity,
    resample_stance,
    rmse,
    velocity_sweep,
)
from sandwalk.sim import SIM_RECORD_FIELDS, Trajectory
from sandwalk.config import build_config

from test_sim import _alarm, _forked


def columnar_trajectory(meta, **columns):
    """Trajectory whose named columns hold the given series, all others 0."""
    n = len(columns["t"])
    data = np.zeros((n, len(SIM_RECORD_FIELDS)))
    for name, values in columns.items():
        data[:, SIM_RECORD_FIELDS.index(name)] = values
    return Trajectory(data, meta)


def synthetic_trajectory(power, v_x, duration=1.0, dt=1e-3, t0=0.0,
                         robot_weight=2.0):
    k = np.arange(int(round(duration / dt)) + 1)
    return columnar_trajectory(
        {"robot_weight": robot_weight},
        t=t0 + k * dt, power=power,
        power_abs_joints=abs(power), power_s=power, power_f=0.0, com_vx=v_x,
        stance_phase=(k % 200) / 200.0, step_count=k // 200 + 1,
    )


def test_cot_constant_power_case():
    # 1 W for 1 s over W_r * d = 2 N m gives CoT = 0.5
    traj = synthetic_trajectory(power=1.0, v_x=1.0, duration=1.0,
                                robot_weight=2.0)
    report = cot(traj, robot_weight=2.0)
    assert report.cot == pytest.approx(0.5, rel=1e-9)
    assert report.cot_decoupled == pytest.approx(0.5, rel=1e-9)


def test_cot_zero_torques():
    traj = synthetic_trajectory(power=0.0, v_x=1.0)
    assert cot(traj, robot_weight=2.0).cot == 0.0


def test_cot_inverse_scaling():
    traj = synthetic_trajectory(power=1.0, v_x=1.0)
    assert cot(traj, robot_weight=4.0).cot == pytest.approx(0.25, rel=1e-9)
    fast = synthetic_trajectory(power=1.0, v_x=2.0)
    assert cot(fast, robot_weight=2.0).cot == pytest.approx(0.25, rel=1e-9)


def test_cot_time_shift_invariance():
    a = synthetic_trajectory(power=0.7, v_x=0.4)
    b = synthetic_trajectory(power=0.7, v_x=0.4, t0=13.5)
    assert cot(a, robot_weight=2.0).cot == pytest.approx(
        cot(b, robot_weight=2.0).cot, rel=1e-12
    )


def test_cot_decimation_refinement():
    # sinusoidal |power|: the trapezoidal integral converges as the log
    # density increases
    def traj_at(dt):
        t = np.array([k * dt for k in range(int(1.0 / dt) + 1)])
        p = np.sin(2 * np.pi * t) * 2.0
        return columnar_trajectory({"robot_weight": 2.0}, t=t, power=p,
                                   power_abs_joints=np.abs(p), power_s=p,
                                   power_f=0.0, com_vx=1.0)

    coarse = cot(traj_at(2e-3), robot_weight=2.0).cot
    fine = cot(traj_at(5e-4), robot_weight=2.0).cot
    finer = cot(traj_at(1e-4), robot_weight=2.0).cot
    assert abs(fine - finer) < abs(coarse - finer)
    assert abs(fine - finer) / finer < 1e-3


def test_cot_zero_distance_error():
    traj = synthetic_trajectory(power=1.0, v_x=0.0)
    with pytest.raises(ZeroDistanceError):
        cot(traj, robot_weight=2.0)


def test_rmse_properties():
    assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    base = np.linspace(0, 1, 50)
    assert rmse(base, base + 0.25) == pytest.approx(0.25, rel=1e-12)
    rng = np.random.default_rng(5)
    a = rng.normal(size=200)
    b = rng.normal(size=200)
    # second, two-pass implementation
    acc = 0.0
    for x, y in zip(a, b):
        acc += (x - y) ** 2
    assert rmse(a, b) == pytest.approx(np.sqrt(acc / 200), rel=1e-12)
    assert rmse(a, b) == rmse(b, a)
    with pytest.raises(ValueError):
        rmse([1.0], [1.0])
    with pytest.raises(ValueError):
        rmse([1.0, 2.0], [1.0, 2.0, 3.0])


def test_dimensionless_velocity_value():
    # 0.1 m/s at 0.3 m CoM height
    assert dimensionless_velocity(0.1, 0.3, 9.81) == pytest.approx(0.058291,
                                                                   abs=2e-6)
    with pytest.raises(ValueError):
        dimensionless_velocity(0.1, 0.0)


def test_resample_stance_shapes():
    from sandwalk import sim
    traj = sim.run(build_config({"sim.duration": 1.2}))
    prof = resample_stance(traj, ["f_z", "z_s"], n_points=51)
    assert prof["f_z"].shape == (51,)
    assert prof["z_s"].shape == (51,)
    assert prof["z_s"][0] < prof["z_s"][25]  # sinks into the stance


def test_velocity_sweep_rows():
    base = build_config({"sim.duration": 0.8})
    rows = velocity_sweep(base, [0.2], repeats=1, terrains=("granular",))
    assert len(rows) == 1
    assert rows[0].cot_std == 0.0
    assert rows[0].n_ok == 1
    assert rows[0].dimensionless_v == pytest.approx(
        dimensionless_velocity(0.2, base.h_com)
    )
    with pytest.raises(ValueError):
        velocity_sweep(base, [], repeats=1)


def test_velocity_sweep_sand_above_rigid():
    base = build_config({"sim.duration": 1.6})
    rows = velocity_sweep(base, [0.2, 0.3], repeats=1)
    by_cell = {(r.v_target, r.terrain): r.cot_mean for r in rows}
    assert len(rows) == 4
    for v in (0.2, 0.3):
        assert by_cell[(v, "granular")] > by_cell[(v, "rigid")]


def test_velocity_sweep_serial_matches_parallel():
    base = build_config({"sim.duration": 0.8})
    serial = velocity_sweep(base, [0.2, 0.3], repeats=1, jobs=1)
    for jobs in (2, 3):  # with 3, two workers are open at once
        assert velocity_sweep(base, [0.2, 0.3], repeats=1, jobs=jobs) == serial
    assert all(r.n_ok == 1 and r.n_failed == 0 for r in serial)


def test_velocity_sweep_counts_divergence_in_both_paths():
    from dataclasses import replace
    from sandwalk.gait import Gains
    wild = replace(build_config({"sim.duration": 0.8}),
                   gains=Gains(kp=np.full(6, 4e5), kd=np.full(6, 4e4),
                               torque_limit=1e9))
    for jobs in (1, 2):
        rows = velocity_sweep(wild, [0.2, 0.3], repeats=1,
                              terrains=("granular",), jobs=jobs)
        assert [(r.n_ok, r.n_failed) for r in rows] == [(0, 1), (0, 1)]


def test_velocity_sweep_rows_without_a_run_compare_equal():
    # a cell whose runs all failed has a NaN CoT mean and spread; the row
    # holds the one math.nan, so it equals itself and its parallel twin
    from dataclasses import replace
    from sandwalk.gait import Gains
    wild = replace(build_config({"sim.duration": 0.8}),
                   gains=Gains(kp=np.full(6, 4e5), kd=np.full(6, 4e4),
                               torque_limit=1e9))
    serial = velocity_sweep(wild, [0.2], repeats=1, terrains=("rigid",), jobs=1)
    assert [(r.n_ok, r.n_failed) for r in serial] == [(0, 1)]
    assert serial[0].cot_mean is math.nan and serial[0].cot_std is math.nan
    assert velocity_sweep(wild, [0.2], repeats=1, terrains=("rigid",), jobs=2) == serial


def test_velocity_sweep_records_why_runs_failed_in_both_paths():
    # the wild gains diverge in every run; both paths report when and why
    from dataclasses import replace
    from sandwalk.gait import Gains
    wild = replace(build_config({"sim.duration": 0.8}),
                   gains=Gains(kp=np.full(6, 4e5), kd=np.full(6, 4e4),
                               torque_limit=1e9))
    per_path = [velocity_sweep(wild, [0.2, 0.3], repeats=2, terrains=("granular",),
                               jobs=jobs) for jobs in (1, 2, 3)]
    assert per_path[0] == per_path[1] == per_path[2]
    for row in per_path[0]:
        assert row.n_failed == len(row.failures) == 2
        assert math.isnan(row.cot_mean) and math.isnan(row.cot_std)
        for failure in row.failures:
            assert failure.error == "DivergenceError"
            assert 0.0 < failure.t < 0.8
            assert failure.message.startswith(f"simulation diverged at t={failure.t:.6f} s")
    # a run without a failure records none
    ok = velocity_sweep(build_config({"sim.duration": 0.8}), [0.2], repeats=1,
                        terrains=("granular",))
    assert ok[0].failures == ()


def test_sweep_cell_failure_without_a_time(monkeypatch):
    # a counted failure other than a divergence has no time
    def no_distance(cfg):
        raise ZeroDistanceError("walking distance 0.000e+00 m below threshold")

    monkeypatch.setattr(metrics.simulation, "run", no_distance)
    assert metrics._sweep_cell(build_config({})) == CellFailure(
        "ZeroDistanceError", "walking distance 0.000e+00 m below threshold", None)


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_cells_build_no_rows(monkeypatch, jobs):
    # a sweep cell logs no record (and under --jobs 1 the patch below sees
    # that); its CoT integrates the samples of every step, so it is the CoT
    # of the same run's records at decimation 1, bit for bit
    record = sim._record
    calls = []

    def counted(*args):
        calls.append(args[0].t)
        return record(*args)

    monkeypatch.setattr(sim, "_record", counted)
    base = build_config({"sim.duration": 0.8, "sim.decimation": 10})
    rows = velocity_sweep(base, [0.2, 0.4], repeats=1, jobs=jobs)
    if jobs == 1:
        assert calls == []
    assert len(rows) == 4
    for row in rows:
        cfg = dataclasses.replace(base, terrain_mode=row.terrain, decimation=1,
                                  gait=dataclasses.replace(base.gait, v_target=row.v_target))
        calls.clear()
        expected = cot(sim.run(cfg), t_start=metrics.settle_time(cfg)).cot
        assert len(calls) == 800
        assert row.cot_mean.hex() == expected.hex(), row


def test_velocity_sweep_ignores_the_base_decimation():
    # a sweep writes no trajectory, so decimation would only thin the
    # samples that its CoT integrates
    base = build_config({"sim.duration": 0.8})
    fine = velocity_sweep(base, [0.2], repeats=1, jobs=1)
    coarse = build_config({"sim.duration": 0.8, "sim.decimation": 10})
    for jobs in (1, 2):
        assert velocity_sweep(coarse, [0.2], repeats=1, jobs=jobs) == fine


def test_velocity_sweep_raises_defects_in_both_paths():
    # only counted failures stay inside a cell; a defect (here the missing
    # gains that every run reads) leaves the sweep on either path
    import copy
    broken = copy.copy(build_config({"sim.duration": 0.8}))
    object.__setattr__(broken, "gains", None)
    for jobs in (1, 2):
        with pytest.raises(AttributeError):
            velocity_sweep(broken, [0.2, 0.3], repeats=1, jobs=jobs)


def test_velocity_sweep_raises_the_defect_of_a_worker(monkeypatch):
    # a defect raised only in a forked worker reaches the caller with its
    # type and message; the caller's own runs wait until a worker has ended,
    # so that the workers take runs
    _forked(monkeypatch)
    caller = os.getpid()

    def cell(cfg):
        if os.getpid() != caller:
            raise AttributeError("a defect in a worker")
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
        return 1.0

    monkeypatch.setattr(metrics, "_sweep_cell", cell)
    with pytest.raises(AttributeError, match="^a defect in a worker$"):
        velocity_sweep(build_config({"sim.duration": 0.8}), [0.2, 0.3], repeats=1, jobs=3)


def test_velocity_sweep_without_a_second_cpu_runs_in_this_process(monkeypatch):
    # one usable CPU: no worker forks, and the caller runs every run
    def fork():
        raise AssertionError("a worker forked")

    monkeypatch.setattr(child, "usable_cpus", lambda: 1)
    monkeypatch.setattr(os, "fork", fork)
    caller, pids, sweep_cell = os.getpid(), [], metrics._sweep_cell

    def cell(cfg):
        pids.append(os.getpid())
        return sweep_cell(cfg)

    monkeypatch.setattr(metrics, "_sweep_cell", cell)
    base = build_config({"sim.duration": 0.8})
    rows = velocity_sweep(base, [0.2, 0.3], repeats=1, jobs=3)
    assert pids == [caller] * 4
    assert [(r.v_target, r.terrain, r.n_ok) for r in rows] == [
        (0.2, "granular", 1), (0.2, "rigid", 1), (0.3, "granular", 1), (0.3, "rigid", 1)]


@pytest.mark.parametrize("interrupted", ["running-a-run", "awaiting-the-workers"])
def test_velocity_sweep_interrupted_leaves_no_child(monkeypatch, interrupted):
    # Ctrl-C while the caller runs a run, or while it awaits the workers:
    # the workers, still in their runs, are killed and reaped at once; the
    # caller's first run waits until a worker has taken one
    _forked(monkeypatch)
    caller, (started_r, started_w), waited = os.getpid(), os.pipe(), []

    def cell(cfg):
        if os.getpid() != caller:
            os.write(started_w, b"+")
            time.sleep(60)  # a worker that the caller waited for would stall the test
        elif interrupted == "running-a-run":
            raise KeyboardInterrupt
        elif not waited:
            waited.append(os.read(started_r, 1))
        return 1.0

    monkeypatch.setattr(metrics, "_sweep_cell", cell)
    t0 = time.perf_counter()
    try:
        with pytest.raises(KeyboardInterrupt), _alarm(0.5, KeyboardInterrupt()):
            velocity_sweep(build_config({"sim.duration": 0.8}), [0.2, 0.3], repeats=1, jobs=3)
    finally:
        os.close(started_r)
        os.close(started_w)
    assert time.perf_counter() - t0 < 30
    assert waited == ([b"+"] if interrupted == "awaiting-the-workers" else [])


def test_velocity_sweep_takes_each_run_once(monkeypatch):
    # more processes than CPUs over many short runs: each run is taken by
    # one process, once, which a lost update of the shared counter breaks
    _forked(monkeypatch)
    taken_r, taken_w = os.pipe()

    def cell(cfg):
        os.write(taken_w, cfg.seed.to_bytes(2, "little"))
        return float(cfg.seed)

    monkeypatch.setattr(metrics, "_sweep_cell", cell)
    try:
        with _alarm(60, TimeoutError("the sweep's processes stalled")):
            rows = velocity_sweep(build_config({"sim.duration": 0.8}), [0.2], repeats=500,
                                  terrains=("granular",), jobs=4)
        taken = os.read(taken_r, 4096)
    finally:
        os.close(taken_r)
        os.close(taken_w)
    seeds = sorted(int.from_bytes(taken[i:i + 2], "little") for i in range(0, len(taken), 2))
    assert seeds == list(range(500))
    assert rows[0].n_ok == 500 and rows[0].cot_mean == np.mean(np.arange(500.0))
