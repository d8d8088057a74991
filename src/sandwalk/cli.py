"""Command line interface: simulate, sweep, calibrate, compare.

All subcommands write self-describing CSV/JSON files plus a run manifest
linking the configuration to its outputs.  The default output directory is
the SANDWALK_OUT environment variable, falling back to ./out.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from . import config as cfgmod
from . import metrics
from . import sim as simulation
from . import terrain as tr

_DEFAULT_VELOCITIES = [0.1, 0.2, 0.3, 0.4, 0.5]
_DEFAULT_COMPARE_FIELDS = ["f_x", "f_y", "f_z", "x_s", "y_s", "z_s",
                           "q_s1", "q_s2", "delta_theta_r"]


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("SANDWALK_OUT") or "out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _manifest(out: Path, cfg, outputs: dict, summary: dict) -> None:
    payload = {
        "tool": "sandwalk",
        "version": __version__,
        "created_unix": time.time(),
        "config_hash": cfgmod.config_hash(cfg),
        "config": cfgmod.flatten_config(cfg),
        "outputs": {k: str(v) for k, v in outputs.items()},
        "summary": summary,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


# flags that set a configuration key; they take precedence over --set
_FLAG_KEYS = {"terrain": "sim.terrain_mode", "velocity": "gait.v_target",
              "seed": "sim.seed", "decimation": "sim.decimation"}


def _load_cfg(args) -> simulation.SimConfig:
    flags = [f"{key}={getattr(args, flag)}" for flag, key in _FLAG_KEYS.items()
             if getattr(args, flag, None) is not None]
    return cfgmod.load_config(args.config, [*(args.set or []), *flags])


def _cmd_simulate(args) -> int:
    out = _out_dir(args)
    cfg = _load_cfg(args)
    traj = simulation.run(cfg)
    csv_path = out / "trajectory.csv"
    json_path = out / "trajectory.json"
    traj.save_csv(csv_path)
    traj.save_json(json_path)
    report = metrics.cot(traj, t_start=metrics.settle_time(cfg))
    summary = {
        "records": len(traj),
        "final_com_x": float(traj.column("com_x")[-1]),
        "cot": report.cot,
        "cot_decoupled": report.cot_decoupled,
        "distance": report.distance,
    }
    _manifest(out, cfg, {"trajectory_csv": csv_path, "trajectory_json": json_path},
              summary)
    print(f"wrote {csv_path} ({len(traj)} records), "
          f"cot={report.cot:.4f} over {report.distance:.3f} m")
    return 0


def _cmd_sweep(args) -> int:
    out = _out_dir(args)
    cfg = _load_cfg(args)
    if args.velocities is not None:
        try:
            velocities = [float(v) for v in args.velocities.split(",") if v.strip()]
        except ValueError:
            raise cfgmod.ConfigError(f"bad velocity list '{args.velocities}'")
    else:
        velocities = list(_DEFAULT_VELOCITIES)
    rows = metrics.velocity_sweep(cfg, velocities, repeats=args.repeats,
                                  jobs=args.jobs)
    sweep_path = out / "sweep.csv"
    with open(sweep_path, "w", newline="") as fh:
        fh.write("velocity,dimless_v,terrain,cot_mean,cot_std\n")
        for row in rows:
            fh.write(f"{row.v_target!r},{row.dimensionless_v!r},{row.terrain},"
                     f"{row.cot_mean!r},{row.cot_std!r}\n")
    json_path = out / "sweep.json"
    with open(json_path, "w") as fh:
        json.dump([{
            "velocity": row.v_target,
            "dimless_v": row.dimensionless_v,
            "terrain": row.terrain,
            "cot_mean": None if row.n_ok == 0 else row.cot_mean,
            "cot_std": None if row.n_ok == 0 else row.cot_std,
            "n_ok": row.n_ok,
            "n_failed": row.n_failed,
        } for row in rows], fh, indent=2)
    failed = sum(r.n_failed for r in rows)
    _manifest(out, cfg, {"sweep_csv": sweep_path, "sweep_json": json_path},
              {"rows": len(rows), "failed_cells": failed})
    print(f"wrote {sweep_path} ({len(rows)} rows, {failed} failed cells)")
    return 0 if failed == 0 else 4


def _read_penetration_csv(path, expected_header: str):
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or ",".join(h.strip() for h in header) != expected_header:
            raise cfgmod.ConfigError(
                f"{path}:1: expected header '{expected_header}'"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or not "".join(row).strip():
                continue
            try:
                records.append(tr.PenetrationRecord(float(row[0]), float(row[1])))
            except (IndexError, ValueError) as exc:
                raise cfgmod.ConfigError(f"{path}:{lineno}: malformed row") from exc
    return records


def _cmd_calibrate(args) -> int:
    out = _out_dir(args)
    cfg = _load_cfg(args)
    vertical = _read_penetration_csv(args.vertical_csv, "depth_m,force_N")
    horizontal = _read_penetration_csv(args.horizontal_csv, "disp_m,force_N")
    result = tr.calibrate(vertical, horizontal, cfg.terrain,
                          plate_width=args.plate_width,
                          plate_depth=args.plate_depth)
    flat = cfgmod.flatten_config(cfg)
    flat["terrain.zeta"] = result.zeta
    flat["terrain.lambda"] = result.lam
    params_path = out / "terrain_calibrated.cfg"
    cfgmod.write_config(params_path, flat, header="calibrated terrain parameters")
    report_path = out / "calibration_report.json"
    with open(report_path, "w") as fh:
        json.dump({
            "zeta": result.zeta,
            "lambda": result.lam,
            "residual_vertical": result.residual_vertical,
            "residual_horizontal": result.residual_horizontal,
            "n_vertical": len(vertical),
            "n_horizontal": len(horizontal),
        }, fh, indent=2, sort_keys=True)
    _manifest(out, cfg, {"params": params_path, "report": report_path},
              {"zeta": result.zeta, "lambda": result.lam})
    print(f"zeta={result.zeta:.4f} lambda={result.lam:.4f} -> {params_path}")
    return 0


def _cmd_compare(args) -> int:
    out = _out_dir(args)
    fields = ([f.strip() for f in args.fields.split(",") if f.strip()]
              if args.fields else list(_DEFAULT_COMPARE_FIELDS))
    for f in fields:
        if f not in simulation.SIM_RECORD_FIELDS or f == "stance_leg":
            print(f"error: unknown field name '{f}'", file=sys.stderr)
            return 2
    traj_a = simulation.Trajectory.load_csv(args.traj_a)
    traj_b = simulation.Trajectory.load_csv(args.traj_b)
    prof_a = metrics.resample_stance(traj_a, fields)
    prof_b = metrics.resample_stance(traj_b, fields)
    rmse_path = out / "rmse.csv"
    with open(rmse_path, "w", newline="") as fh:
        fh.write("field,rmse\n")
        for f in fields:
            value = metrics.rmse(prof_a[f], prof_b[f])
            fh.write(f"{f},{value!r}\n")
            print(f"{f:>16s}  rmse={value:.6g}")
    digest = hashlib.sha256(
        (str(args.traj_a) + str(args.traj_b)).encode()).hexdigest()[:12]
    with open(out / "compare_manifest.json", "w") as fh:
        json.dump({"tool": "sandwalk", "version": __version__,
                   "inputs": [str(args.traj_a), str(args.traj_b)],
                   "pair_id": digest, "fields": fields,
                   "output": str(rmse_path)}, fh, indent=2, sort_keys=True)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sandwalk",
        description="Bipedal walking simulation and analysis on granular terrain",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None,
                       help="configuration file (key=value text or JSON)")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default $SANDWALK_OUT or ./out)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a configuration key")
        p.add_argument("--terrain", choices=["granular", "rigid"], default=None)
        p.add_argument("--seed", type=int, default=None)

    p_sim = sub.add_parser("simulate", help="run one simulation")
    common(p_sim)
    p_sim.add_argument("--velocity", type=float, default=None,
                       help="commanded forward speed [m/s]")
    p_sim.add_argument("--decimation", type=int, default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="CoT over a velocity grid")
    common(p_sweep)
    p_sweep.add_argument("--velocities", type=str, default=None,
                         help="comma list [m/s], default 0.1..0.5")
    p_sweep.add_argument("--repeats", type=int, default=3)
    p_sweep.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cal = sub.add_parser("calibrate", help="fit terrain parameters from plate tests")
    common(p_cal)
    p_cal.add_argument("vertical_csv", type=Path)
    p_cal.add_argument("horizontal_csv", type=Path)
    p_cal.add_argument("--plate-width", type=float, default=None)
    p_cal.add_argument("--plate-depth", type=float, default=0.02)
    p_cal.set_defaults(func=_cmd_calibrate)

    p_cmp = sub.add_parser("compare", help="stance-phase RMSE between trajectories")
    common(p_cmp)
    p_cmp.add_argument("traj_a", type=Path)
    p_cmp.add_argument("traj_b", type=Path)
    p_cmp.add_argument("--fields", type=str, default=None,
                       help="comma list of record fields")
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except cfgmod.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except simulation.DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (tr.CalibrationError, metrics.ZeroDistanceError, ValueError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
