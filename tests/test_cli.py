"""End-to-end CLI tests over the documented subcommands and file formats."""

import errno
import gc
import json
import math
import os
import signal
import time
import warnings

import numpy as np
import pytest

from sandwalk import child, cli, metrics, sim, trajectory
from sandwalk.cli import main
from sandwalk.config import build_config
from sandwalk.sim import SIM_RECORD_FIELDS
from sandwalk.terrain import (
    IntrusionKinematics,
    TerrainParams,
    lateral_force,
    sagittal_forces,
)

from test_sim import (
    MALFORMED_ROWS,
    assert_same_text,
    break_trajectory_csv,
)


def write_config(path, extra=""):
    path.write_text(
        "# test configuration\n"
        "sim.duration = 0.8\n"
        "sim.dt = 0.001\n"
        "gait.v_target = 0.2\n"
        + extra
    )


def test_simulate_writes_outputs(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    write_config(cfg)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "trajectory.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    for path in manifest["outputs"].values():
        assert json and path  # listed
    assert manifest["summary"]["records"] == 800
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header.startswith("t,stance_leg,stance_phase")


def test_simulate_json_config(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"sim": {"duration": 0.8}, "gait.v_target": 0.25}))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0


def test_unknown_config_key_named(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sim.duration = 0.8\nsim.warp_speed = 9\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "sim.warp_speed" in captured.err


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "{dir}"],
    ["compare", "{dir}", "{dir}"],
])
def test_directory_in_place_of_a_file_is_an_error(tmp_path, capsys, argv):
    argv = [a.format(dir=tmp_path) for a in argv]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["compare", "a.csv", "b.csv", "--config", "run.cfg"],
    ["compare", "a.csv", "b.csv", "--set", "sim.seed=1"],
    ["compare", "a.csv", "b.csv", "--seed", "9"],
    ["compare", "a.csv", "b.csv", "--terrain", "rigid"],
    ["sweep", "--terrain", "rigid"],
])
def test_options_the_command_does_not_read_are_rejected(tmp_path, capsys, argv):
    # compare reads no configuration; a sweep runs every cell on both terrains
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_terrain_override_flag(tmp_path):
    cfg = tmp_path / "run.cfg"
    write_config(cfg)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out),
               "--terrain", "rigid"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["sim.terrain_mode"] == "rigid"
    body = (out / "trajectory.csv").read_text().splitlines()[1:]
    z_col = 16  # z_s column index in the documented order
    assert all(float(line.split(",")[z_col]) == 0.0 for line in body)


def test_env_var_output_dir(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    write_config(cfg)
    monkeypatch.setenv("SANDWALK_OUT", str(tmp_path / "envout"))
    rc = main(["simulate", "--config", str(cfg)])
    assert rc == 0
    assert (tmp_path / "envout" / "trajectory.csv").exists()


def test_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "run.cfg"
    write_config(cfg, "sim.seed = 11\n")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert_same_text((out_a / "trajectory.csv").read_bytes(),
                     (out_b / "trajectory.csv").read_bytes())


def make_penetration_files(tmp_path, zeta=1.36, lam=0.03):
    rng = np.random.default_rng(1)
    from dataclasses import replace
    truth = replace(TerrainParams(), zeta=zeta, lam=lam, width=0.04)
    v_path = tmp_path / "vertical.csv"
    rows = ["depth_m,force_N"]
    for depth in np.linspace(0.005, 0.04, 12):
        f = sagittal_forces(truth, IntrusionKinematics(
            depth=float(depth), gamma=-math.pi / 2)).f_z
        noisy = float(f * (1 + 0.01 * rng.standard_normal()))
        rows.append(f"{float(depth)!r},{noisy!r}")
    v_path.write_text("\n".join(rows) + "\n")
    h_path = tmp_path / "horizontal.csv"
    rows = ["disp_m,force_N"]
    for disp in np.linspace(0.005, 0.12, 12):
        f = abs(lateral_force(truth, IntrusionKinematics(
            depth=0.02, gamma=-math.pi / 2, y_slip=float(disp))))
        noisy = float(f * (1 + 0.01 * rng.standard_normal()))
        rows.append(f"{float(disp)!r},{noisy!r}")
    h_path.write_text("\n".join(rows) + "\n")
    return v_path, h_path


def test_calibrate_roundtrip(tmp_path):
    v_path, h_path = make_penetration_files(tmp_path)
    out = tmp_path / "out"
    rc = main(["calibrate", str(v_path), str(h_path), "--out", str(out),
               "--plate-width", "0.04", "--plate-depth", "0.02"])
    assert rc == 0
    report = json.loads((out / "calibration_report.json").read_text())
    assert abs(report["zeta"] - 1.36) / 1.36 < 0.02
    assert abs(report["lambda"] - 0.03) / 0.03 < 0.02
    fitted = (out / "terrain_calibrated.cfg").read_text()
    assert "terrain.zeta" in fitted
    # the fitted file parses back through the config loader
    rc = main(["simulate", "--config", str(out / "terrain_calibrated.cfg"),
               "--set", "sim.duration=0.4", "--out", str(tmp_path / "o2")])
    assert rc == 0


def test_calibrate_malformed_row_line_number(tmp_path, capsys):
    v_path, h_path = make_penetration_files(tmp_path)
    # a cell that is not a number, a NaN depth, an infinite force, and rows
    # of one and of three fields
    for vertical, row in ((True, "not_a_number,1.0"), (True, "nan,1.0"),
                          (False, "0.05,inf"), (True, "0.01"), (True, "0.01,5.0,junk")):
        source = v_path if vertical else h_path
        broken = tmp_path / "broken.csv"
        lines = source.read_text().splitlines()
        lines[3] = row
        broken.write_text("\n".join(lines) + "\n")
        paths = (broken, h_path) if vertical else (v_path, broken)
        rc = main(["calibrate", *map(str, paths), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == 2
        # header is line 1
        assert f"{broken}:4: malformed row" in captured.err, row


@pytest.mark.parametrize("flag", ["--plate-width", "--plate-depth"])
@pytest.mark.parametrize("value", ["0", "-0.02", "nan"])
def test_calibrate_rejects_bad_plate_size(tmp_path, capsys, flag, value):
    v_path, h_path = make_penetration_files(tmp_path)
    out = tmp_path / "out"
    rc = main(["calibrate", str(v_path), str(h_path), "--out", str(out), flag, value])
    assert rc == 2
    assert f"{flag[2:].replace('-', '_')} must be finite and > 0" in capsys.readouterr().err
    assert not (out / "terrain_calibrated.cfg").exists()


def test_calibrate_missing_header(tmp_path, capsys):
    v_path, h_path = make_penetration_files(tmp_path)
    bad = tmp_path / "noheader.csv"
    bad.write_text("0.01,5.0\n0.02,20.0\n")
    rc = main(["calibrate", str(bad), str(h_path), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "depth_m,force_N" in captured.err


def test_compare_self_zero(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    write_config(cfg)
    out = tmp_path / "out"
    main(["simulate", "--config", str(cfg), "--out", str(out)])
    traj = out / "trajectory.csv"
    rc = main(["compare", str(traj), str(traj), "--out", str(out),
               "--fields", "f_z,z_s,q_s2"])
    assert rc == 0
    body = (out / "rmse.csv").read_text().splitlines()[1:]
    assert all(float(line.split(",")[1]) == 0.0 for line in body)


def test_compare_unknown_field(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    write_config(cfg)
    out = tmp_path / "out"
    main(["simulate", "--config", str(cfg), "--out", str(out)])
    rc = main(["compare", str(out / "trajectory.csv"),
               str(out / "trajectory.csv"), "--out", str(out),
               "--fields", "bogus_field"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "bogus_field" in captured.err


@pytest.mark.parametrize("integrator", ["semi_implicit", "rk4"])
@pytest.mark.parametrize("terrain", ["granular", "rigid"])
def test_simulate_cot_does_not_depend_on_decimation(tmp_path, terrain, integrator):
    # the summary integrates the samples of every step, logged or not: its
    # CoT is bit-equal at every --decimation, and equal to the CoT of the
    # records of the undecimated run
    reports = []
    for k in (1, 10, 50):
        out = tmp_path / f"k{k}"
        assert main(["simulate", "--set", "sim.duration=0.8", "--terrain", terrain,
                     "--set", f"sim.integrator={integrator}", "--decimation", str(k),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        assert summary["records"] == 800 // k
        reports.append((summary["cot"].hex(), summary["cot_decoupled"].hex()))
    assert reports == reports[:1] * 3
    cfg = build_config({"sim.duration": 0.8, "sim.terrain_mode": terrain,
                        "sim.integrator": integrator})
    traj = sim.run(cfg)
    rows = metrics.cot(sim.Trajectory(traj.data, traj.meta), t_start=metrics.settle_time(cfg))
    assert reports[0] == (rows.cot.hex(), rows.cot_decoupled.hex())


def test_simulate_without_a_cot_writes_no_file(tmp_path, capsys):
    # 400 steps at decimation 500 log no record: no CoT, so no outputs
    out = tmp_path / "o"
    rc = main(["simulate", "--set", "sim.duration=0.4", "--decimation", "500",
               "--out", str(out)])
    assert rc == 2
    assert "trajectory must hold at least two records" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_divergence_mid_run_leaves_no_file(tmp_path, capsys, monkeypatch,
                                                    writer_cpus):
    # the run diverges at step 1000, after the writer was handed three blocks
    from test_sim import _inf_acceleration_at_call

    _inf_acceleration_at_call(monkeypatch, 1000)
    out = tmp_path / "o"
    assert main(["simulate", "--set", "sim.duration=1.2", "--out", str(out)]) == 3
    assert "simulation diverged at t=1.000000 s" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_interrupted_leaves_no_file(tmp_path, monkeypatch, writer_cpus):
    # Ctrl-C mid-run: the writer drops its text and its child is reaped
    accelerations, calls = sim._accelerations, iter(range(600))

    def acc(*args):
        if next(calls, None) is None:
            raise KeyboardInterrupt
        return accelerations(*args)

    monkeypatch.setattr(sim, "_accelerations", acc)
    out = tmp_path / "o"
    with pytest.raises(KeyboardInterrupt):
        main(["simulate", "--set", "sim.duration=0.8", "--out", str(out)])
    assert not out.exists()


def test_simulate_write_error_names_the_path(tmp_path, capsys, writer_cpus):
    # a directory stands where the trajectory file goes, so its write fails
    out = tmp_path / "o"
    (out / "trajectory.csv").mkdir(parents=True)
    assert main(["simulate", "--set", "sim.duration=0.4", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"Is a directory: '{out / 'trajectory.csv'}'" in err
    assert not (out / "manifest.json").exists()


def _fail_on_the_last_block(monkeypatch):
    """Make the forked writer's child fail on the last block of a 0.8 s
    run: 800 steps hand it three blocks of 256 rows, then one of 32."""
    format_block = trajectory._format_block

    def format_or_fail(block):
        if len(block) < 256:
            raise ValueError("a failure in the child")
        return format_block(block)

    monkeypatch.setattr(trajectory, "_format_block", format_or_fail)


@pytest.mark.parametrize("death", ["exits-at-once", "killed-after-a-block",
                                   "fails-on-the-last-block"])
def test_simulate_names_the_writer_when_its_child_dies(tmp_path, capsys, monkeypatch, death):
    # the forked writer's child dies before the commit: the next hand-off
    # finds the pipe closed, or the commit finds the child's exit status
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    monkeypatch.setattr(child, "usable_cpus", lambda: 2)
    if death == "exits-at-once":
        monkeypatch.setattr(trajectory, "_write_text", lambda *args: os._exit(1))
    elif death == "fails-on-the-last-block":
        _fail_on_the_last_block(monkeypatch)
    else:
        feed, killed = trajectory.TrajectoryWriter.feed, []

        def feed_then_kill(writer, rows):
            feed(writer, rows)
            if not killed:
                killed.append(writer._child.pid)
                os.kill(writer._child.pid, signal.SIGKILL)
                # wait until it is dead, and leave it for the writer to reap
                os.waitid(os.P_PID, writer._child.pid, os.WEXITED | os.WNOWAIT)

        monkeypatch.setattr(trajectory.TrajectoryWriter, "feed", feed_then_kill)
    out = tmp_path / "o"
    assert main(["simulate", "--set", "sim.duration=0.8", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "trajectory writer" in err
    assert ("exited with status 1" in err) == (death == "fails-on-the-last-block")
    assert not out.exists()


def test_writer_child_writes_the_traceback_of_its_error(tmp_path, capfd, monkeypatch):
    # the parent learns only the exit status of a child that fails outside
    # its ``errors``, so the child writes its traceback to stderr
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    monkeypatch.setattr(child, "usable_cpus", lambda: 2)
    _fail_on_the_last_block(monkeypatch)
    assert main(["simulate", "--set", "sim.duration=0.8", "--out", str(tmp_path / "o")]) == 2
    err = capfd.readouterr().err
    assert "Traceback (most recent call last):" in err
    assert "ValueError: a failure in the child\n" in err
    assert err.endswith("error: the trajectory writer's child exited with status 1\n")


def test_failed_commit_keeps_an_existing_output_directory(tmp_path, capsys, monkeypatch):
    # the commit fails after the command has made its output directory: one
    # that existed before is kept, with what it held, and gains no file
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    monkeypatch.setattr(child, "usable_cpus", lambda: 2)
    _fail_on_the_last_block(monkeypatch)
    out = tmp_path / "o"
    out.mkdir()
    (out / "kept.txt").write_text("kept\n")
    assert main(["simulate", "--set", "sim.duration=0.8", "--out", str(out)]) == 2
    assert "trajectory writer" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["kept.txt"]
    assert (out / "kept.txt").read_text() == "kept\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "--set", "sim.duration=0.4", "--decimation", "500"],
    ["compare", "a.csv", "b.csv", "--fields", "nope"],
    ["sweep", "--set", "sim.seed=-1", "--jobs", "1"],
], ids=["simulate-without-a-cot", "compare-unknown-field", "sweep-bad-seed"])
def test_failed_command_creates_no_output_directory(tmp_path, capsys, argv):
    # the directory is created just before the first file is written
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("fields", [",", "", " , "])
def test_compare_rejects_an_empty_field_list_before_reading(tmp_path, capsys, fields):
    # the inputs do not exist: the field list is rejected before either is read
    out = tmp_path / "out"
    rc = main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
               "--fields", fields, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: empty field list '{fields}'\n"
    assert not out.exists()


@pytest.mark.parametrize("inputs,fields,message", [
    (("empty.csv", "walk.csv"), None, "{dir}/empty.csv: no complete stance available"),
    (("walk.csv", "empty.csv"), None, "{dir}/empty.csv: no complete stance available"),
    (("walk.csv", "walk.csv"), "bogus", "unknown field name 'bogus'"),
    (("walk.csv", "walk.csv"), "stance_leg", "unknown field name 'stance_leg'"),
], ids=["rowless-first", "rowless-second", "bogus-field", "stance-leg-field"])
def test_compare_rejects_before_writing(tmp_path, capsys, inputs, fields, message):
    assert main(["simulate", "--set", "sim.duration=0.8", "--out", str(tmp_path)]) == 0
    (tmp_path / "trajectory.csv").rename(tmp_path / "walk.csv")
    (tmp_path / "empty.csv").write_text(",".join(SIM_RECORD_FIELDS) + "\n")
    out = tmp_path / "cmp"
    rc = main(["compare", *(str(tmp_path / name) for name in inputs), "--out", str(out),
               *(["--fields", fields] if fields else [])])
    assert rc == 2
    assert "error: " + message.format(dir=tmp_path) in capsys.readouterr().err
    assert not (out / "rmse.csv").exists()


def test_compare_granular_vs_rigid_intrusion(tmp_path, writer_cpus):
    cfg = tmp_path / "run.cfg"
    write_config(cfg, "sim.duration = 1.2\n")
    out_g = tmp_path / "g"
    out_r = tmp_path / "r"
    main(["simulate", "--config", str(cfg), "--out", str(out_g)])
    main(["simulate", "--config", str(cfg), "--out", str(out_r),
          "--terrain", "rigid"])
    out = tmp_path / "cmp"
    paths = out_g / "trajectory.csv", out_r / "trajectory.csv"
    rc = main(["compare", *map(str, paths), "--out", str(out), "--fields", "z_s,x_s"])
    assert rc == 0
    rows = dict(line.split(",") for line in
                (out / "rmse.csv").read_text().splitlines()[1:])
    # the rigid run predicts zero intrusion, so the mismatch is nonzero
    assert float(rows["z_s"]) > 1e-3
    # the second file read in-process or in a forked child: the same bytes
    prof_a, prof_b = (metrics.resample_stance(sim.Trajectory.load_csv(p), ["z_s", "x_s"])
                      for p in paths)
    assert (out / "rmse.csv").read_text() == "field,rmse\n" + "".join(
        f"{f},{metrics.rmse(prof_a[f], prof_b[f])!r}\n" for f in ("z_s", "x_s"))


@pytest.fixture(scope="module")
def walk_csv(tmp_path_factory):
    """The trajectory file of a default 0.8 s walk, 800 rows."""
    out = tmp_path_factory.mktemp("walk")
    assert main(["simulate", "--set", "sim.duration=0.8", "--out", str(out)]) == 0
    return out / "trajectory.csv"


@pytest.mark.parametrize("bad", ["first", "second", "both"])
@pytest.mark.parametrize("case", [*MALFORMED_ROWS, "rowless", "missing"])
def test_compare_names_a_bad_input_on_both_paths(tmp_path, capsys, writer_cpus, walk_csv,
                                                 case, bad):
    # the second file is read in-process or in a forked child; either way
    # the command fails with the error of the first bad file, names its
    # line, and writes nothing
    paths = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        paths.append(path)
        if bad not in ("both", "first" if name == "a.csv" else "second"):
            path.write_bytes(walk_csv.read_bytes())
        elif case == "rowless":
            path.write_text(",".join(SIM_RECORD_FIELDS) + "\n")
        elif case != "missing":
            path.write_bytes(walk_csv.read_bytes())
            lineno = break_trajectory_csv(path, case)
    named = paths[1] if bad == "second" else paths[0]
    with pytest.raises((ValueError, OSError)) as expected:
        cli._stance_profiles(named, ["z_s"])
    if case == "rowless":
        assert str(expected.value) == f"{named}: no complete stance available for resampling"
    elif case == "missing":
        assert str(expected.value).endswith(f"No such file or directory: '{named}'")
    else:
        assert str(expected.value).startswith(f"{named}:{lineno}: malformed row (")
    out = tmp_path / "cmp"
    assert main(["compare", *map(str, paths), "--out", str(out), "--fields", "z_s"]) == 2
    assert capsys.readouterr().err == f"error: {expected.value}\n"
    assert not out.exists()


@pytest.mark.parametrize("interrupted", ["reading-the-first", "waiting-for-the-second"])
def test_compare_interrupted_leaves_no_child(tmp_path, monkeypatch, writer_cpus, walk_csv,
                                             interrupted):
    # Ctrl-C while the first file is read, or while the second one is
    # awaited: a child still reading the second is killed and reaped at
    # once, and no output directory is made
    stance_profiles = cli._stance_profiles

    def read(path, fields):
        if path.name == "b.csv":
            time.sleep(60)  # a child that the parent waited for would stall the test
        elif interrupted == "reading-the-first":
            raise KeyboardInterrupt
        return stance_profiles(path, fields)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_stance_profiles", read)
    for name in ("a.csv", "b.csv"):
        (tmp_path / name).write_bytes(walk_csv.read_bytes())
    out = tmp_path / "cmp"
    handler = signal.signal(signal.SIGALRM, interrupt)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):
            main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                  "--out", str(out)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    assert time.perf_counter() - t0 < 30
    assert not out.exists()


def test_compare_names_the_file_when_its_child_dies(tmp_path, capsys, monkeypatch, walk_csv):
    # the child reading the second file ends without sending its profiles
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    monkeypatch.setattr(child, "usable_cpus", lambda: 2)
    stance_profiles = cli._stance_profiles
    monkeypatch.setattr(cli, "_stance_profiles", lambda path, fields: (
        os._exit(1) if path.name == "b.csv" else stance_profiles(path, fields)))
    for name in ("a.csv", "b.csv"):
        (tmp_path / name).write_bytes(walk_csv.read_bytes())
    out = tmp_path / "cmp"
    assert main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: compare's reader of {tmp_path / 'b.csv'} exited with status 1\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "compare", "sweep"])
def test_failed_fork_leaks_nothing(tmp_path, capsys, monkeypatch, walk_csv, command):
    # os.fork fails as it does at the process limit, so no process starts:
    # the command exits with status 2 and leaves no pipe, no temporary
    # file and no output directory
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to count open files in")

    error = BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    def fork():
        raise error

    monkeypatch.setattr(child, "usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", fork)
    argv = {"simulate": ["simulate", "--set", "sim.duration=0.4"],
            "compare": ["compare", str(walk_csv), str(walk_csv)],
            "sweep": ["sweep", "--set", "sim.duration=0.8", "--velocities", "0.2",
                      "--repeats", "1", "--jobs", "2"]}[command]
    out = tmp_path / "o"
    fds = len(os.listdir("/proc/self/fd"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--out", str(out)]) == 2
        gc.collect()
    assert len(os.listdir("/proc/self/fd")) == fds
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


def test_sweep_rows_and_empty_list(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    write_config(cfg)
    out = tmp_path / "out"
    rc = main(["sweep", "--config", str(cfg), "--out", str(out),
               "--velocities", "0.2,0.3", "--repeats", "1", "--jobs", "1"])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "velocity,dimless_v,terrain,cot_mean,cot_std"
    assert len(lines) == 1 + 4  # 2 velocities x 2 terrains
    rc = main(["sweep", "--config", str(cfg), "--out", str(out),
               "--velocities", " ", "--repeats", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "empty velocity list" in captured.err
    # a bad robot input is a configuration error, not a failed cell per run
    rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "bad"),
               "--set", "robot.foot_radius=-0.01", "--repeats", "1", "--jobs", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "invalid configuration: foot_radius must be strictly positive" in captured.err


def test_sweep_manifest_records_what_ran(tmp_path):
    # the base config says rigid, speed 0.2, seed 5 and decimation 10; the
    # cells ran both terrains, the listed speeds, one seed per repeat and
    # a decimation one past their 400 steps
    out = tmp_path / "out"
    rc = main(["sweep", "--set", "sim.terrain_mode=rigid", "--set", "sim.duration=0.4",
               "--set", "sim.decimation=10", "--seed", "5", "--velocities", "0.3,0.1",
               "--repeats", "2", "--jobs", "1", "--out", str(out)])
    assert rc == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["sim.terrain_mode"] == ["granular", "rigid"]
    assert config["gait.v_target"] == [0.3, 0.1]
    assert config["sim.seed"] == [5, 6]
    assert config["sim.decimation"] == 401  # no cell logs a record
    assert config["sim.duration"] == 0.4
    rows = json.loads((out / "sweep.json").read_text())
    assert [(r["velocity"], r["terrain"], r["n_ok"] + r["n_failed"]) for r in rows] == [
        (0.3, "granular", 2), (0.3, "rigid", 2), (0.1, "granular", 2), (0.1, "rigid", 2)]


def test_sweep_json_records_failures_alike_serial_and_parallel(tmp_path):
    # a trunk reference past the divergence guard fails every run at its
    # first step; sweep.json says why, the same under --jobs 1 and 2, and
    # sweep.csv is unchanged by the record
    texts = []
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"jobs{jobs}"
        rc = main(["sweep", "--set", "gait.trunk_ref=2e6", "--set", "sim.duration=0.4",
                   "--velocities", "0.2,0.3", "--repeats", "2", "--jobs", jobs,
                   "--out", str(out)])
        assert rc == 4
        texts.append(((out / "sweep.csv").read_text(), (out / "sweep.json").read_text()))
    assert texts[0] == texts[1] == texts[2]
    rows = json.loads(texts[0][1])
    assert len(rows) == 4
    for row in rows:
        assert (row["n_ok"], row["n_failed"]) == (0, 2)
        assert row["failures"] == 2 * [{"error": "DivergenceError",
                                        "message": "simulation diverged at t=0.001000 s",
                                        "t": 0.001}]
    assert texts[0][0].splitlines()[1].endswith(",nan,nan")


def test_rk4_divergence_at_an_unlogged_step_exits_3(tmp_path, capsys, monkeypatch):
    from test_sim import _inf_acceleration_at_call

    _inf_acceleration_at_call(monkeypatch, 20)  # the fourth stage of step 5
    rc = main(["simulate", "--set", "sim.integrator=rk4", "--decimation", "10",
               "--set", "sim.duration=0.4", "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "simulation diverged at t=0.005000 s" in capsys.readouterr().err


@pytest.mark.parametrize("setting,message", [
    ("sim.dt=nan", "dt must be strictly positive"),
    ("robot.g=nan", "g must be strictly positive"),
    ("control.torque_limit=-5", "torque_limit must be strictly positive"),
    ("gait.hip_height=0", "hip_height must be strictly positive"),
    ("sim.r_eff_cap=-1", "r_eff_cap must be strictly positive"),
    ("sim.initial_jitter=-1", "initial_jitter must be non-negative"),
    ("sim.seed=-1", "seed must be non-negative"),
    ("sim.duration=inf", "duration must be finite"),
])
def test_simulate_rejects_bad_value_naming_the_field(tmp_path, capsys, setting, message):
    # the setting comes last, so that it wins over the short duration
    rc = main(["simulate", "--set", "sim.duration=0.4", "--set", setting,
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"invalid configuration: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("velocity,message", [
    ("inf", "v_target must be finite"),
    ("-inf", "v_target must be finite"),
    ("nan", "v_target must be non-negative"),
])
def test_sweep_rejects_bad_velocity_before_any_cell(tmp_path, capsys, velocity, message):
    out = tmp_path / "o"
    rc = main(["sweep", f"--velocities=0.2,{velocity}", "--set", "sim.duration=0.4",
               "--repeats", "1", "--jobs", "1", "--out", str(out)])
    assert rc == 2
    assert f"invalid configuration: {message}" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("args,message", [
    (["--set", "sim.seed=-1", "--jobs", "1"], "invalid configuration: seed must be non-negative"),
    (["--jobs", "0"], "jobs must be >= 1"),
    (["--jobs", "-2"], "jobs must be >= 1"),
])
def test_sweep_rejects_bad_input_before_any_cell(tmp_path, capsys, monkeypatch, args, message):
    monkeypatch.setattr(metrics, "_sweep_cell", lambda cfg: pytest.fail("a cell ran"))
    out = tmp_path / "o"
    rc = main(["sweep", "--set", "sim.duration=0.8", "--velocities", "0.2",
               "--repeats", "1", *args, "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("affinity,cpu_count,jobs", [
    ({0}, 30, 1),   # taskset -c 0 on a 30-CPU host
    ({1, 3}, 4, 2),
    (None, 3, 3),   # no affinity call on this platform
    (None, None, 1),
])
def test_sweep_jobs_default_to_the_usable_cpus(tmp_path, monkeypatch, affinity, cpu_count, jobs):
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(affinity), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    seen, velocity_sweep = [], metrics.velocity_sweep

    def sweep(cfg, velocities, repeats, jobs):
        seen.append(jobs)
        return velocity_sweep(cfg, velocities, repeats=repeats, jobs=1)

    monkeypatch.setattr(metrics, "velocity_sweep", sweep)
    assert main(["sweep", "--set", "sim.duration=0.4", "--velocities", "0.2",
                 "--repeats", "1", "--out", str(tmp_path)]) == 0
    assert seen == [jobs]


@pytest.mark.parametrize("duration", ["0.4", "0.8"])
def test_sweep_cell_cot_equals_simulate_cot(tmp_path, duration):
    # both commands start the CoT window at the same time, also for a run
    # shorter than two gait cycles
    settings = ["--set", f"sim.duration={duration}", "--seed", "2"]
    assert main(["simulate", *settings, "--out", str(tmp_path / "sim")]) == 0
    assert main(["sweep", *settings, "--velocities", "0.2", "--repeats", "1",
                 "--jobs", "1", "--out", str(tmp_path / "sweep")]) == 0
    manifest = json.loads((tmp_path / "sim" / "manifest.json").read_text())
    rows = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
    assert [r["cot_mean"] for r in rows if r["terrain"] == "granular"] == [
        manifest["summary"]["cot"]]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("argv", [
    ["sweep", "--set", "sim.duration=0.8", "--velocities", "0.2", "--repeats", "1",
     "--jobs", "1"],
    ["simulate", "--set", "sim.duration=0.8"],
    ["compare", "a.csv", "b.csv"],
], ids=["sweep", "simulate", "compare"])
@pytest.mark.parametrize("inside", [False, True], ids=["file", "under-a-file"])
def test_output_path_that_cannot_be_a_directory_fails_before_any_run(
        tmp_path, capsys, monkeypatch, argv, inside):
    # the inputs of compare do not exist: the output path fails first
    monkeypatch.setattr(metrics, "_sweep_cell", lambda cfg: pytest.fail("a cell ran"))
    monkeypatch.setattr(sim, "run", lambda cfg: pytest.fail("a run ran"))
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "sub" if inside else taken
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot create output directory '{out}': '{taken}' is not a directory\n")
    assert taken.read_text() == "kept\n"
    assert list(tmp_path.iterdir()) == [taken]
