"""Cost of transport, stance-phase RMSE comparisons and velocity sweeps."""

from __future__ import annotations

import math
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import sim as simulation

__all__ = [
    "CoTReport",
    "SweepRow",
    "ZeroDistanceError",
    "cot",
    "rmse",
    "resample_stance",
    "settle_time",
    "velocity_sweep",
    "dimensionless_velocity",
]


class ZeroDistanceError(ValueError):
    """Walking distance too small for a meaningful cost of transport."""


@dataclass(frozen=True)
class CoTReport:
    """Cost of transport over a trajectory window.

    ``cot`` uses the actuation-space integrand, ``cot_decoupled`` the
    per-plane form; ``energy_sagittal + energy_frontal`` equals the
    decoupled energy exactly.  ``norm`` records whether the integrand was
    the absolute net power ("net") or the sum of per-joint absolute powers
    ("per_joint"); the decoupled form always integrates per-plane net
    powers.
    """

    cot: float
    cot_decoupled: float
    energy: float
    energy_sagittal: float
    energy_frontal: float
    distance: float
    robot_weight: float
    t_start: float
    t_end: float
    norm: str = "net"

    @property
    def energy_decoupled(self) -> float:
        return self.energy_sagittal + self.energy_frontal


@dataclass(frozen=True)
class SweepRow:
    v_target: float
    dimensionless_v: float
    terrain: str
    cot_mean: float
    cot_std: float
    n_ok: int
    n_failed: int


def dimensionless_velocity(v: float, h_com: float, g: float = 9.81) -> float:
    """Forward speed normalized by sqrt(g h_CoM)."""
    if h_com <= 0.0 or g <= 0.0:
        raise ValueError("h_com and g must be strictly positive")
    return v / math.sqrt(g * h_com)


def cot(
    trajectory: simulation.Trajectory,
    robot_weight: float | None = None,
    t_start: float | None = None,
    t_end: float | None = None,
    norm: str = "net",
) -> CoTReport:
    """Cost of transport E / (W_r d) by trapezoidal integration.

    E integrates the absolute mechanical power of the joint actuators and
    d the forward CoM velocity over [t_start, t_end] (full trajectory when
    omitted).  Raises ZeroDistanceError when d < 1e-6 m.
    """
    if norm not in ("net", "per_joint"):
        raise ValueError(f"unknown power norm '{norm}'")
    if robot_weight is None:
        robot_weight = float(trajectory.meta["robot_weight"])
    t = trajectory.column("t")
    if t.size < 2:
        raise ValueError("trajectory must hold at least two records")
    lo = t[0] if t_start is None else t_start
    hi = t[-1] if t_end is None else t_end
    mask = (t >= lo - 1e-12) & (t <= hi + 1e-12)
    if int(mask.sum()) < 2:
        raise ValueError("time window selects fewer than two records")
    tw = t[mask]

    p_col = "power" if norm == "net" else "power_abs_joints"
    energy, e_s, e_f = (
        float(np.trapezoid(np.abs(trajectory.column(name)[mask]), tw))
        for name in (p_col, "power_s", "power_f")
    )
    distance = float(np.trapezoid(trajectory.column("com_vx")[mask], tw))
    if distance < 1e-6:
        raise ZeroDistanceError(f"walking distance {distance:.3e} m below threshold")
    return CoTReport(
        cot=energy / (robot_weight * distance),
        cot_decoupled=(e_s + e_f) / (robot_weight * distance),
        energy=energy,
        energy_sagittal=e_s,
        energy_frontal=e_f,
        distance=distance,
        robot_weight=robot_weight,
        t_start=float(tw[0]),
        t_end=float(tw[-1]),
        norm=norm,
    )


def settle_time(cfg: simulation.SimConfig) -> float:
    """Start of the CoT window: after the first gait cycle, or half of a shorter run."""
    return min(cfg.gait.cycle_period, 0.5 * cfg.duration)


def rmse(series_a, series_b) -> float:
    """Root-mean-square difference of two equal-length series."""
    a = np.asarray(series_a, dtype=float)
    b = np.asarray(series_b, dtype=float)
    if a.shape != b.shape or a.size < 2:
        raise ValueError("series must share a length of at least 2")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def resample_stance(
    trajectory: simulation.Trajectory,
    fields: list[str],
    n_points: int = 101,
    skip_steps: int = 1,
) -> dict[str, np.ndarray]:
    """Mean stance-phase profile (0..1 grid) of each field.

    Each completed stance after the first ``skip_steps`` is linearly
    interpolated onto the common phase grid; profiles are averaged across
    stances.  Raises ValueError when no complete stance is available.
    """
    steps = trajectory.column("step_count").astype(int)
    phase = trajectory.column("stance_phase")
    columns = np.column_stack([trajectory.column(name) for name in fields])
    grid = np.linspace(0.0, 1.0, n_points)
    profiles = []
    last = steps.max()
    for k in np.unique(steps):
        if k < skip_steps or k == last:
            continue  # settle-in stances and the trailing fragment
        sel = steps == k
        ph = phase[sel]
        if ph.size < 4:
            continue
        order = np.argsort(ph)
        stance = columns[sel][order]
        profiles.append([np.interp(grid, ph[order], col) for col in stance.T])
    if not profiles:
        raise ValueError("no complete stance available for resampling")
    mean = np.mean(np.array(profiles), axis=0)
    return dict(zip(fields, mean))


# failures that count against a sweep cell; anything else is a defect and raises
_CELL_ERRORS = (simulation.DivergenceError, ZeroDistanceError, ValueError)


def _sweep_cell(cfg: simulation.SimConfig):
    traj = simulation.run(cfg)
    return cot(traj, t_start=settle_time(cfg)).cot


def velocity_sweep(
    base: simulation.SimConfig,
    velocities,
    repeats: int = 1,
    terrains=("granular", "rigid"),
    jobs: int = 1,
) -> list[SweepRow]:
    """CoT mean and spread per (velocity, terrain) cell.

    Repeats differ through the seeded initial-state jitter.  A failing run
    (divergence, zero distance) is counted in ``n_failed`` without aborting
    the sweep; serial and parallel runs count the same failures.  At most
    one worker process per cell is started; with one, cells run in-process.
    """
    velocities = list(velocities)
    if not velocities:
        raise ValueError("empty velocity list")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    from .config import build_config  # here, so that `import sandwalk` skips it

    for v in velocities:  # each speed passes the checks of its config key
        build_config({"gait.v_target": float(v)})

    cells = []
    for v in velocities:
        for terrain_mode in terrains:
            for rep in range(repeats):
                cfg = replace(
                    base,
                    terrain_mode=terrain_mode,
                    seed=base.seed + rep,
                    gait=replace(base.gait, v_target=float(v)),
                )
                cells.append((v, terrain_mode, cfg))

    # CoT of each run of a (velocity, terrain) cell, None for a failed run
    outcomes: dict[tuple[float, str], list] = {(v, m): [] for v, m, _ in cells}
    workers = min(jobs, len(cells))
    with ExitStack() as stack:
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            runs = [pool.submit(_sweep_cell, cfg).result for _, _, cfg in cells]
        else:
            runs = [partial(_sweep_cell, cfg) for _, _, cfg in cells]
        for (v, m, _), run_cell in zip(cells, runs):
            try:
                outcomes[(v, m)].append(run_cell())
            except _CELL_ERRORS:
                outcomes[(v, m)].append(None)

    rows = []
    for v in velocities:
        for m in terrains:
            vals = [c for c in outcomes[(v, m)] if c is not None]
            rows.append(
                SweepRow(
                    v_target=float(v),
                    dimensionless_v=dimensionless_velocity(float(v), base.h_com,
                                                           base.sagittal.g),
                    terrain=m,
                    cot_mean=float(np.mean(vals)) if vals else float("nan"),
                    cot_std=float(np.std(vals)) if vals else float("nan"),
                    n_ok=len(vals),
                    n_failed=len(outcomes[(v, m)]) - len(vals),
                )
            )
    return rows
