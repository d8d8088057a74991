"""Command line interface: simulate, sweep, calibrate, compare.

All subcommands write self-describing CSV/JSON files plus a run manifest
linking the configuration to its outputs.  The default output directory is
the SANDWALK_OUT environment variable, falling back to ./out.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import shutil
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from . import config as cfgmod
from . import metrics
from . import sim as simulation
from . import terrain as tr
from .child import Child, usable_cpus
from .trajectory import SIM_RECORD_FIELDS, Trajectory, TrajectoryWriter

_DEFAULT_VELOCITIES = [0.1, 0.2, 0.3, 0.4, 0.5]
_DEFAULT_COMPARE_FIELDS = ["f_x", "f_y", "f_z", "x_s", "y_s", "z_s",
                           "q_s1", "q_s2", "delta_theta_r"]


def _out_path(args) -> Path:
    """The output directory named by --out, $SANDWALK_OUT or ./out.  Raises
    NotADirectoryError, before any work, when the path or the nearest of its
    parents that exists is not a directory, so that it cannot be created."""
    path = Path(args.out or os.environ.get("SANDWALK_OUT") or "out")
    for existing in (path, *path.parents):
        if existing.exists():
            if not existing.is_dir():
                raise NotADirectoryError(f"cannot create output directory '{path}': "
                                         f"'{existing}' is not a directory")
            break
    return path


@contextmanager
def _out_dir(args):
    """The output directory, created; a command enters this just before it
    writes its first file, and the directories made here are removed again
    if it fails inside, so that a command that fails leaves none behind.  A
    directory that existed before is kept with its contents."""
    path = _out_path(args)
    made = [p for p in (path, *path.parents) if not p.exists()]
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    except BaseException:
        if made:
            shutil.rmtree(made[-1], ignore_errors=True)
        raise


def _manifest(out: Path, cfg, outputs: dict, summary: dict, ran: dict | None = None) -> None:
    """Write manifest.json; ``ran`` replaces the configuration keys that a
    command varied with the list of values it ran."""
    payload = {
        "tool": "sandwalk",
        "version": __version__,
        "created_unix": time.time(),
        "config_hash": cfgmod.config_hash(cfg),
        "config": {**cfgmod.flatten_config(cfg), **(ran or {})},
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
    cfg = _load_cfg(args)
    # the writer formats the rows, while the run integrates where its Child
    # forks; leaving it without a commit drops them, so that a run without a
    # CoT or without the records the files and the summary read leaves no file
    with TrajectoryWriter() as writer:
        traj = simulation.run(cfg, writer)
        if len(traj) < 2:
            raise ValueError("trajectory must hold at least two records")
        report = metrics.cot(traj, t_start=metrics.settle_time(cfg))
        with _out_dir(args) as out:
            csv_path = out / "trajectory.csv"
            json_path = out / "trajectory.json"
            writer.commit(csv_path, json_path, traj.meta)
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
    with _out_dir(args) as out:
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
                "failures": [dataclasses.asdict(f) for f in row.failures],
            } for row in rows], fh, indent=2)
        failed = sum(r.n_failed for r in rows)
        # the cells override the base speed, terrain, seed and decimation
        ran = {"gait.v_target": list(dict.fromkeys(r.v_target for r in rows)),
               "sim.terrain_mode": list(dict.fromkeys(r.terrain for r in rows)),
               "sim.seed": list(rows[0].seeds),
               "sim.decimation": metrics.sweep_decimation(cfg)}
        _manifest(out, cfg, {"sweep_csv": sweep_path, "sweep_json": json_path},
                  {"rows": len(rows), "failed_cells": failed}, ran)
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
                if len(row) != 2:
                    raise ValueError(f"{len(row)} fields")
                cells = float(row[0]), float(row[1])
                if not all(map(math.isfinite, cells)):
                    raise ValueError("non-finite value")
                records.append(tr.PenetrationRecord(*cells))
            except ValueError as exc:
                raise cfgmod.ConfigError(f"{path}:{lineno}: malformed row") from exc
    return records


def _cmd_calibrate(args) -> int:
    cfg = _load_cfg(args)
    vertical = _read_penetration_csv(args.vertical_csv, "depth_m,force_N")
    horizontal = _read_penetration_csv(args.horizontal_csv, "disp_m,force_N")
    result = tr.calibrate(vertical, horizontal, cfg.terrain,
                          plate_width=args.plate_width,
                          plate_depth=args.plate_depth)
    flat = cfgmod.flatten_config(cfg)
    flat["terrain.zeta"] = result.zeta
    flat["terrain.lambda"] = result.lam
    with _out_dir(args) as out:
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


def _stance_profiles(path, fields: list[str]) -> dict:
    """``metrics.resample_stance`` of the trajectory file at ``path``."""
    traj = Trajectory.load_csv(path)
    try:
        return metrics.resample_stance(traj, fields)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _cmd_compare(args) -> int:
    fields = ([f.strip() for f in args.fields.split(",") if f.strip()]
              if args.fields is not None else list(_DEFAULT_COMPARE_FIELDS))
    if not fields:
        raise cfgmod.ConfigError(f"empty field list '{args.fields}'")
    for k, f in enumerate(fields):
        if f not in SIM_RECORD_FIELDS or f == "stance_leg":
            raise cfgmod.ConfigError(f"unknown field name '{f}'")
        if f in fields[:k]:
            raise cfgmod.ConfigError(f"duplicate field name '{f}'")
    # the second file is read beside the first where a second CPU is free
    with Child(f"compare's reader of {args.traj_b}",
               lambda _: _stance_profiles(args.traj_b, fields),
               errors=(ValueError, OSError)) as second:
        prof_a = _stance_profiles(args.traj_a, fields)
        prof_b = second.result()
    with _out_dir(args) as out:
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

    def out(p):
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default $SANDWALK_OUT or ./out)")

    def common(p, terrain=True):
        p.add_argument("--config", type=Path, default=None,
                       help="configuration file (key=value text or JSON)")
        out(p)
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a configuration key")
        if terrain:
            p.add_argument("--terrain", choices=["granular", "rigid"], default=None)
        p.add_argument("--seed", type=int, default=None)

    p_sim = sub.add_parser("simulate", help="run one simulation")
    common(p_sim)
    p_sim.add_argument("--velocity", type=float, default=None,
                       help="commanded forward speed [m/s]")
    p_sim.add_argument("--decimation", type=int, default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    # a sweep runs every cell on both terrains
    p_sweep = sub.add_parser("sweep", help="CoT over a velocity grid")
    common(p_sweep, terrain=False)
    p_sweep.add_argument("--velocities", type=str, default=None,
                         help="comma list [m/s], default 0.1..0.5")
    p_sweep.add_argument("--repeats", type=int, default=3)
    p_sweep.add_argument("--jobs", type=int, default=usable_cpus(),
                         help="processes that run cells, this one included "
                              "(default: the CPUs this process may run on)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cal = sub.add_parser("calibrate", help="fit terrain parameters from plate tests")
    common(p_cal)
    p_cal.add_argument("vertical_csv", type=Path)
    p_cal.add_argument("horizontal_csv", type=Path)
    p_cal.add_argument("--plate-width", type=float, default=None)
    p_cal.add_argument("--plate-depth", type=float, default=0.02)
    p_cal.set_defaults(func=_cmd_calibrate)

    p_cmp = sub.add_parser("compare", help="stance-phase RMSE between trajectories")
    out(p_cmp)
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
        _out_path(args)  # an output path that cannot be a directory fails first
        return args.func(args)
    except simulation.DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # ConfigError, CalibrationError, ZeroDistanceError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
