"""Metrics tests: cost of transport, RMSE, velocity sweep aggregation."""

import dataclasses
import math
import os
import re
import struct
import time
from fractions import Fraction

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
from sandwalk.rolling import FootShape
from sandwalk.sim import SIM_RECORD_FIELDS, Trajectory
from sandwalk.config import build_config

from test_sim import _alarm, _forked, flat


def columnar_trajectory(meta, **columns):
    """Trajectory whose named columns hold the given series, all others 0."""
    n = len(columns["t"])
    data = np.zeros((n, len(SIM_RECORD_FIELDS)))
    for name, values in columns.items():
        data[:, SIM_RECORD_FIELDS.index(name)] = values
    return Trajectory(flat(data), meta)


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


def exact_sum(terms) -> float:
    """The sum of the float ``terms`` rounded once: ``float(sum(map(Fraction,
    terms)))`` of finite terms, +-inf where that leaves the float range, and
    with a term that is not finite, the sum in the extended reals: NaN with
    a NaN or with both infinities among the terms, else their infinity."""
    terms = [float(v) for v in terms]
    if all(map(math.isfinite, terms)):
        exact = sum(map(Fraction, terms))
        try:
            return float(exact)
        except OverflowError:
            return math.inf if exact > 0 else -math.inf
    if any(map(math.isnan, terms)) or {math.inf, -math.inf} <= set(terms):
        return math.nan
    return math.inf if math.inf in terms else -math.inf


def exact_trapezoid(y, x) -> float:
    """The exact sum of ``np.trapezoid(y, x)``'s terms, rounded once."""
    y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
    return exact_sum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)


@pytest.fixture(scope="module")
def short_walk():
    """A default 0.8 s granular run."""
    return sim.run(build_config({"sim.duration": 0.8}))


@pytest.mark.parametrize("t_start", [None, -1.0, 0.4, 0.4 - 5e-13, 0.4 + 5e-13, 0.4005, 0.799])
def test_cot_window_is_every_sample_at_or_after_t_start(short_walk, t_start):
    # the window, a suffix of the time-ordered samples, holds every sample
    # at or after t_start less 1e-12
    t = np.asarray(short_walk.step_column("t"))
    keep = t >= (t[0] if t_start is None else t_start) - 1e-12
    energy = exact_trapezoid(np.abs(np.asarray(short_walk.step_column("power"))[keep]), t[keep])
    distance = exact_trapezoid(np.asarray(short_walk.step_column("com_vx"))[keep], t[keep])
    report = cot(short_walk, t_start=t_start)
    assert report.distance == distance
    assert report.cot == energy / (short_walk.meta["robot_weight"] * distance)


@pytest.mark.parametrize("bad", [0.35, math.nan], ids=["decreasing", "nan"])
def test_cot_rejects_sample_times_out_of_order(bad):
    t = np.arange(11) * 0.1
    t[5] = bad
    traj = columnar_trajectory({"robot_weight": 2.0}, t=t, power=1.0, power_s=1.0,
                               com_vx=1.0)
    with pytest.raises(ValueError, match="^sample times must not decrease$"):
        cot(traj)


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


@pytest.mark.parametrize("build,message", [
    (lambda: FootShape(math.nan), "radius must be strictly positive"),
    (lambda: FootShape(math.inf), "radius must be finite"),
    (lambda: dimensionless_velocity(0.2, math.nan), "h_com must be strictly positive"),
    (lambda: dimensionless_velocity(0.2, math.inf), "h_com must be finite"),
    (lambda: dimensionless_velocity(0.2, 0.4, math.nan), "g must be strictly positive"),
    (lambda: dimensionless_velocity(0.2, 0.4, -math.inf), "g must be finite"),
], ids=["radius-nan", "radius-inf", "h_com-nan", "h_com-inf", "g-nan", "g--inf"])
def test_nonfinite_input_rejected_naming_it(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_resample_stance_shapes():
    from sandwalk import sim
    traj = sim.run(build_config({"sim.duration": 1.2}))
    prof = resample_stance(traj, ["f_z", "z_s"])
    assert len(prof["f_z"]) == 101
    assert len(prof["z_s"]) == 101
    assert prof["z_s"][0] < prof["z_s"][50]  # sinks into the stance


def test_resample_stance_names_a_non_finite_phase(short_walk):
    # a non-finite phase cannot be sorted or interpolated: the first one is
    # named by its record and its line in the CSV file
    at = 400 * len(SIM_RECORD_FIELDS) + SIM_RECORD_FIELDS.index("stance_phase")
    for value in (math.nan, math.inf, -math.inf):
        data = short_walk.data[:]
        data[at] = data[at + len(SIM_RECORD_FIELDS)] = value
        message = f"record 400 (CSV line 402) has the non-finite stance_phase {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            resample_stance(Trajectory(data, {}), ["f_z"])


# numpy is a dependency of the tests alone.  Every sum in metrics is pinned,
# bit for bit, to the exact sum of its float terms rounded once, and
# numpy's trapezoid terms and interpolation are the reference for metrics'
# own, over random lengths up to 10,000 and with +-0.0, NaN and +-inf among
# the values

def _floats(rng, n, case):
    """``n`` floats of many magnitudes and both signs; in ``case`` 1 only
    +-0.0, in case 2 with three of +-0.0, NaN and +-inf among them, in case
    3 with one inf and one -inf, in case 4 up to the exponent limits, where
    products overflow and underflow."""
    scale = 300.0 if case == 4 else 30.0
    values = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-scale, scale, n)
    if case == 1:
        values = rng.choice([0.0, -0.0], n)
    elif case == 2 and n:
        values[rng.integers(0, n, 3)] = rng.choice([0.0, -0.0, math.nan, math.inf, -math.inf], 3)
    elif case == 3 and n:
        values[rng.integers(0, n, 2)] = (math.inf, -math.inf)
    return values


def _lengths(rng):
    """Every length up to 20, those around 128, and random ones up to 300
    and up to 10,000."""
    return [*range(21), 127, 128, 129, 136, 137, *rng.integers(0, 300, 10),
            *rng.integers(0, 10_001, 10)]


def assert_same_float(got, expected):
    """``got`` holds the bits of ``expected``, or NaN where that is NaN (whose
    sign depends on which NaN an addition met first)."""
    if math.isnan(expected):
        assert math.isnan(got)
    else:
        assert struct.pack("<d", got) == struct.pack("<d", float(expected))


@pytest.mark.parametrize("case", range(5))
def test_sums_are_numpy_sums(case):
    rng = np.random.default_rng(case)
    with np.errstate(all="ignore"):
        for n in _lengths(rng):
            values, x = _floats(rng, n, case), _floats(rng, n, case)
            total = exact_sum(values)
            assert_same_float(metrics._sum(values.tolist()), total)
            assert_same_float(metrics._trapezoid(values.tolist(), x.tolist()),
                              exact_trapezoid(values, x))
            if n:
                mean = total / n
                assert_same_float(metrics._sum(values.tolist()) / n, mean)
                assert_same_float(metrics._std(values.tolist()),
                                  math.sqrt(exact_sum((values - mean) ** 2) / n))
            if n >= 2:
                assert_same_float(rmse(values, x), math.sqrt(exact_sum((values - x) ** 2) / n))
        # numpy halves each trapezoid after the product, which here
        # overflows and there rounds a subnormal half-unit away
        for y, x in [([1e308, -0.5e308], [0.0, 4.0]), ([5e-324, 0.0], [0.0, 3.0])]:
            assert_same_float(metrics._trapezoid(y, x), exact_trapezoid(y, x))
    # math.fsum raises at a partial sum past the float range and at inf -
    # inf, and the sum is then the IEEE one: inf and NaN
    for values in [[1e308, 1e308], [-1e308, -1e308, 1.0], [math.inf, -math.inf]]:
        assert_same_float(metrics._sum(values), exact_sum(values))


@pytest.mark.parametrize("case", range(5))
def test_interp_is_numpy_interp(case):
    rng = np.random.default_rng(10 + case)
    with np.errstate(all="ignore"):
        for n in [2, 3, 4, 5, *rng.integers(2, 10_001, 20)]:
            # increasing points with repeats, and in case 2 infinite ends
            xp = np.sort(rng.choice(rng.uniform(-1.0, 1.0, n), n))
            if case == 2:
                xp[[0, -1]] = rng.choice([-math.inf, xp[0]]), rng.choice([math.inf, xp[-1]])
            fp = _floats(rng, n, case)
            x = np.concatenate([rng.uniform(-1.5, 1.5, 60), rng.choice(xp, 20),
                                np.linspace(0.0, 1.0, 21), [-math.inf, math.inf]])
            got = metrics._interp(x.tolist(), xp.tolist(), fp.tolist())
            for value, expected in zip(got, np.interp(x, xp, fp), strict=True):
                assert_same_float(value, expected)
        # the fallbacks where a line is NaN: from an infinite end of xp the
        # line from the point above, and between equal infinite fp that fp
        for xp, fp in [([-math.inf, 0.0, 1.0], [2.0, 3.0, 4.0]),
                       ([0.0, 1.0, math.inf], [2.0, 3.0, 4.0]),
                       ([0.0, 1.0, 2.0], [math.inf, math.inf, -math.inf]),
                       ([0.0, 1.0, 2.0], [-math.inf, math.inf, math.nan])]:
            x = [-1.0, 0.0, 0.25, 1.0, 1.5, 2.0, 3.0]
            for value, expected in zip(metrics._interp(x, xp, fp), np.interp(x, xp, fp)):
                assert_same_float(value, expected)


def _numpy_resample_stance(traj, fields):
    """``resample_stance`` in numpy: the stances of the step counts past 0
    and before the last, of four rows or more, sorted by phase (stably),
    interpolated onto ``np.linspace(0, 1, 101)`` and averaged: the exact
    sum over the stances, rounded once, over their count."""
    table = np.asarray(traj.data).reshape(-1, len(SIM_RECORD_FIELDS))
    steps = table[:, SIM_RECORD_FIELDS.index("step_count")].astype(int)
    phase = table[:, SIM_RECORD_FIELDS.index("stance_phase")]
    columns = table[:, [SIM_RECORD_FIELDS.index(name) for name in fields]]
    grid = np.linspace(0.0, 1.0, 101)
    profiles = []
    for k in range(1, steps.max(initial=0)):
        sel = steps == k
        if sel.sum() >= 4:
            order = np.argsort(phase[sel], kind="stable")
            profiles.append([np.interp(grid, phase[sel][order], col)
                             for col in columns[sel][order].T])
    return {name: np.array([exact_sum(values) / len(profiles) for values in zip(*series)])
            for name, series in zip(fields, zip(*profiles))}


@pytest.mark.parametrize("terrain_mode", ["granular", "rigid"])
def test_resample_stance_is_numpy_resampling(terrain_mode):
    from sandwalk import sim
    traj = sim.run(build_config({"sim.duration": 1.2, "sim.terrain_mode": terrain_mode}))
    fields = ["f_z", "z_s", "x_s", "power", "q_s1"]
    expected = _numpy_resample_stance(traj, fields)
    got = resample_stance(traj, fields)
    assert {name: np.asarray(got[name]).tobytes() for name in fields} == {
        name: expected[name].tobytes() for name in fields}


def test_velocity_sweep_rows():
    base = build_config({"sim.duration": 0.8})
    rows = velocity_sweep(base, [0.2], repeats=1)
    assert [row.terrain for row in rows] == ["granular", "rigid"]
    for row in rows:
        assert row.cot_std == 0.0
        assert row.n_ok == 1
        assert row.dimensionless_v == pytest.approx(dimensionless_velocity(0.2, base.h_com))
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
    wild = build_config({"sim.dt": 0.02, "sim.duration": 0.8})
    for jobs in (1, 2):
        rows = velocity_sweep(wild, [0.2, 0.3], repeats=1, jobs=jobs)
        assert [(r.n_ok, r.n_failed) for r in rows] == [(0, 1)] * 4


def test_velocity_sweep_rows_without_a_run_compare_equal():
    # a cell whose runs all failed has a NaN CoT mean and spread; the row
    # holds the one math.nan, so it equals itself and its parallel twin
    wild = build_config({"sim.dt": 0.02, "sim.duration": 0.8})
    serial = velocity_sweep(wild, [0.2], repeats=1, jobs=1)
    assert [(r.n_ok, r.n_failed) for r in serial] == [(0, 1), (0, 1)]
    assert all(r.cot_mean is math.nan and r.cot_std is math.nan for r in serial)
    assert velocity_sweep(wild, [0.2], repeats=1, jobs=2) == serial


def test_velocity_sweep_records_why_runs_failed_in_both_paths():
    # a step far too long diverges in every run; both paths report when and why
    wild = build_config({"sim.dt": 0.02, "sim.duration": 0.8})
    per_path = [velocity_sweep(wild, [0.2, 0.3], repeats=2, jobs=jobs) for jobs in (1, 2, 3)]
    assert per_path[0] == per_path[1] == per_path[2]
    for row in per_path[0]:
        assert row.n_failed == len(row.failures) == 2
        assert math.isnan(row.cot_mean) and math.isnan(row.cot_std)
        for failure in row.failures:
            assert failure.error == "DivergenceError"
            assert 0.0 < failure.t < 0.8
            assert failure.message.startswith(f"simulation diverged at t={failure.t:.6f} s")
    # a run without a failure records none
    ok = velocity_sweep(build_config({"sim.duration": 0.8}), [0.2], repeats=1)
    assert [row.failures for row in ok] == [(), ()]


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
    # terrain that every run reads) leaves the sweep on either path
    import copy
    broken = copy.copy(build_config({"sim.duration": 0.8}))
    object.__setattr__(broken, "terrain", None)
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
                                  jobs=4)
        taken = os.read(taken_r, 4096)
    finally:
        os.close(taken_r)
        os.close(taken_w)
    seeds = sorted(int.from_bytes(taken[i:i + 2], "little") for i in range(0, len(taken), 2))
    assert seeds == sorted(2 * list(range(500)))  # one run per seed on each terrain
    for row in rows:
        assert row.n_ok == 500 and row.cot_mean == np.mean(np.arange(500.0))
