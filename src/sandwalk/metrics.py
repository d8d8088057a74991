"""Cost of transport, stance-phase RMSE comparisons and velocity sweeps."""

from __future__ import annotations

import math
from contextlib import ExitStack
from dataclasses import dataclass, replace

import numpy as np

from . import sim as simulation
from .child import Child, Counter
from .config import ConfigError

__all__ = [
    "CoTReport",
    "CellFailure",
    "SweepRow",
    "ZeroDistanceError",
    "cot",
    "rmse",
    "resample_stance",
    "settle_time",
    "sweep_decimation",
    "velocity_sweep",
    "dimensionless_velocity",
]


class ZeroDistanceError(ValueError):
    """Walking distance too small for a meaningful cost of transport."""


@dataclass(frozen=True)
class CoTReport:
    """Cost of transport over a trajectory window.

    ``cot`` integrates the net actuation-space power, ``cot_decoupled``
    the per-plane net powers.
    """

    cot: float
    cot_decoupled: float
    distance: float


@dataclass(frozen=True)
class CellFailure:
    """Why a sweep run failed: the error's type name and message and, for a
    divergence, the simulated time it was detected at [s]."""

    error: str
    message: str
    t: float | None = None


@dataclass(frozen=True)
class SweepRow:
    v_target: float
    dimensionless_v: float
    terrain: str
    cot_mean: float
    cot_std: float
    n_ok: int
    n_failed: int
    seeds: tuple[int, ...]  # of the cell's runs, one per repeat
    failures: tuple[CellFailure, ...]  # of the failed runs, in seed order


def dimensionless_velocity(v: float, h_com: float, g: float = 9.81) -> float:
    """Forward speed normalized by sqrt(g h_CoM)."""
    if h_com <= 0.0 or g <= 0.0:
        raise ValueError("h_com and g must be strictly positive")
    return v / math.sqrt(g * h_com)


def cot(
    trajectory: simulation.Trajectory,
    robot_weight: float | None = None,
    t_start: float | None = None,
) -> CoTReport:
    """Cost of transport E / (W_r d) by trapezoidal integration.

    E integrates the absolute mechanical power of the joint actuators and
    d the forward CoM velocity from t_start (the first sample when omitted)
    to the last sample.  The samples are those of every simulated step
    (``Trajectory.step_column``), so a run's CoT does not depend on its
    decimation.  Raises ZeroDistanceError when d < 1e-6 m.
    """
    if robot_weight is None:
        robot_weight = float(trajectory.meta["robot_weight"])
    t = trajectory.step_column("t")
    if t.size < 2:
        raise ValueError("trajectory must hold at least two records")
    lo = t[0] if t_start is None else t_start
    mask = t >= lo - 1e-12
    if int(mask.sum()) < 2:
        raise ValueError("time window selects fewer than two records")
    tw = t[mask]

    energy, e_s, e_f = (
        float(np.trapezoid(np.abs(trajectory.step_column(name)[mask]), tw))
        for name in ("power", "power_s", "power_f")
    )
    distance = float(np.trapezoid(trajectory.step_column("com_vx")[mask], tw))
    if distance < 1e-6:
        raise ZeroDistanceError(f"walking distance {distance:.3e} m below threshold")
    return CoTReport(
        cot=energy / (robot_weight * distance),
        cot_decoupled=(e_s + e_f) / (robot_weight * distance),
        distance=distance,
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
) -> dict[str, np.ndarray]:
    """Mean stance-phase profile (0..1 grid) of each field.

    Each completed stance after the first (settle-in) one is linearly
    interpolated onto the common phase grid; profiles are averaged across
    stances.  Raises ValueError when no complete stance is available.
    """
    steps = trajectory.column("step_count").astype(int)
    phase = trajectory.column("stance_phase")
    columns = np.column_stack([trajectory.column(name) for name in fields])
    grid = np.linspace(0.0, 1.0, n_points)
    profiles = []
    last = steps.max(initial=0)  # 0 for a trajectory without rows
    for k in np.unique(steps):
        if k < 1 or k == last:
            continue  # the settle-in stance and the trailing fragment
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


def sweep_decimation(cfg: simulation.SimConfig) -> int:
    """Decimation of a sweep run: one past its step count, so that the run
    logs no record (its CoT integrates the samples of every step)."""
    return int(round(cfg.duration / cfg.dt)) + 1


def _sweep_cell(cfg: simulation.SimConfig) -> float | CellFailure:
    """CoT of one sweep run, or why the run failed in a counted way."""
    try:
        traj = simulation.run(cfg)
        return cot(traj, t_start=settle_time(cfg)).cot
    except _CELL_ERRORS as exc:
        t = exc.t if isinstance(exc, simulation.DivergenceError) else None
        return CellFailure(type(exc).__name__, str(exc), t)


def _sweep_runs(inbox, configs: list, counter: Counter) -> dict:
    """The outcome of each run of ``configs`` whose index this process
    takes from ``counter``, by index; as a ``Child``'s function it reads
    no inbox."""
    outcomes = {}
    while (i := counter.take()) < len(configs):
        outcomes[i] = _sweep_cell(configs[i])
    return outcomes


def velocity_sweep(
    base: simulation.SimConfig,
    velocities,
    repeats: int = 1,
    terrains=("granular", "rigid"),
    jobs: int = 1,
) -> list[SweepRow]:
    """CoT mean and spread per (velocity, terrain) cell.

    Repeats differ through the seeded initial-state jitter.  A failing run
    (divergence, zero distance) is counted in ``n_failed`` and described in
    ``failures`` without aborting the sweep; every run goes through one
    cell function, so serial and parallel sweeps record the same failures.
    Every run logs no record (``sweep_decimation``), since its CoT
    integrates the samples of every step.  ``jobs`` processes run the runs,
    this one included, up to one per run: this process opens ``jobs - 1``
    ``Child`` workers, and each process takes the index of its next run
    from one shared counter.  Without ``os.fork`` or a second CPU the
    workers run in-process after this one has taken every run.  Any other
    error of a run is raised here, with its type and message.
    """
    velocities = list(velocities)
    if not velocities:
        raise ValueError("empty velocity list")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")

    seeds = tuple(base.seed + rep for rep in range(repeats))
    cells = [(float(v), terrain_mode) for v in velocities for terrain_mode in terrains]
    decimation = sweep_decimation(base)
    try:  # each speed passes the checks of its config key before any run starts
        configs = [replace(base, terrain_mode=terrain_mode, seed=seed, decimation=decimation,
                           gait=replace(base.gait, v_target=v))
                   for v, terrain_mode in cells for seed in seeds]
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc

    with ExitStack() as stack:
        counter = stack.enter_context(Counter())
        workers = [stack.enter_context(Child(
            f"sweep worker {k}", _sweep_runs, configs, counter, errors=(Exception,)))
            for k in range(1, min(jobs, len(configs)))]
        by_index = _sweep_runs(None, configs, counter)
        for worker in workers:
            by_index.update(worker.result())
    outcomes = [by_index[i] for i in range(len(configs))]

    rows = []
    for i, (v, m) in enumerate(cells):
        # CoT of each run of the cell, or why it failed
        runs = outcomes[i * repeats:(i + 1) * repeats]
        failures = tuple(c for c in runs if isinstance(c, CellFailure))
        vals = [c for c in runs if not isinstance(c, CellFailure)]
        # without a run, the shared math.nan: the row then equals itself
        # (tuple equality tests identity first)
        rows.append(
            SweepRow(
                v_target=v,
                dimensionless_v=dimensionless_velocity(v, base.h_com, base.sagittal.g),
                terrain=m,
                cot_mean=float(np.mean(vals)) if vals else math.nan,
                cot_std=float(np.std(vals)) if vals else math.nan,
                n_ok=len(vals),
                n_failed=len(failures),
                seeds=seeds,
                failures=failures,
            )
        )
    return rows
