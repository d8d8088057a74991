"""End-to-end CLI tests over the documented subcommands and file formats."""

import json
import math

import numpy as np
import pytest

from sandwalk import metrics
from sandwalk.cli import main
from sandwalk.terrain import (
    IntrusionKinematics,
    TerrainParams,
    lateral_force,
    sagittal_forces,
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
    assert (out_a / "trajectory.csv").read_bytes() == \
        (out_b / "trajectory.csv").read_bytes()


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
    broken = tmp_path / "broken.csv"
    lines = v_path.read_text().splitlines()
    lines[3] = "not_a_number,1.0"
    broken.write_text("\n".join(lines) + "\n")
    rc = main(["calibrate", str(broken), str(h_path), "--out",
               str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 2
    assert ":4" in captured.err  # header is line 1


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


def test_compare_granular_vs_rigid_intrusion(tmp_path):
    cfg = tmp_path / "run.cfg"
    write_config(cfg, "sim.duration = 1.2\n")
    out_g = tmp_path / "g"
    out_r = tmp_path / "r"
    main(["simulate", "--config", str(cfg), "--out", str(out_g)])
    main(["simulate", "--config", str(cfg), "--out", str(out_r),
          "--terrain", "rigid"])
    out = tmp_path / "cmp"
    rc = main(["compare", str(out_g / "trajectory.csv"),
               str(out_r / "trajectory.csv"), "--out", str(out),
               "--fields", "z_s,x_s"])
    assert rc == 0
    rows = dict(line.split(",") for line in
                (out / "rmse.csv").read_text().splitlines()[1:])
    # the rigid run predicts zero intrusion, so the mismatch is nonzero
    assert float(rows["z_s"]) > 1e-3


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
