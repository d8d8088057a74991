"""Cost of transport, stance-phase RMSE comparisons and velocity sweeps."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from contextlib import ExitStack
from dataclasses import dataclass
from operator import le
from types import SimpleNamespace

from . import sim as simulation
from .child import Child, Counter
from .config import build_config, flatten_config
from .dynamics import check_ranges
from .trajectory import check_memory

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
    check_ranges(SimpleNamespace(h_com=h_com, g=g), ("h_com", "g"))
    return v / math.sqrt(g * h_com)


def _sum(values) -> float:
    """The sum of the float sequence ``values``, exact and rounded once
    (``math.fsum``).  Where ``fsum`` raises, at a partial sum past the float
    range or at inf - inf (only a hand-made trajectory file holds such
    values), their IEEE sum from left to right, which is then inf or NaN."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return sum(values, 0.0)


def _trapezoid(y, x) -> float:
    """The trapezoidal integral of the samples ``y`` at the points ``x``: the
    sum of ``numpy.trapezoid``'s terms (x1 - x0) (y1 + y0) / 2."""
    return _sum([(x1 - x0) * (y1 + y0) / 2.0 for x0, x1, y0, y1 in zip(x, x[1:], y, y[1:])])


def _std(values) -> float:
    """The root of the mean squared deviation of the floats ``values`` from
    their mean."""
    mean = _sum(values) / len(values)
    return math.sqrt(_sum([(v - mean) * (v - mean) for v in values]) / len(values))


def _interp(x, xp, fp) -> list[float]:
    """``numpy.interp(x, xp, fp)``, bit for bit, for points ``x`` without
    NaN and increasing ``xp``: ``fp`` at the ends past ``xp`` and at a point
    of ``xp``, and otherwise the line from the point below; where that is
    NaN (an infinite slope or offset), the line from the point above, and
    where that is NaN too but both ``fp`` are equal, that ``fp``."""
    out, last = [], len(xp) - 1
    for v in x:
        j = bisect_right(xp, v) - 1
        if j < 0:
            out.append(fp[0])
        elif j == last or xp[j] == v:
            out.append(fp[j])
        else:
            slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
            y = slope * (v - xp[j]) + fp[j]
            if y != y:
                y = slope * (v - xp[j + 1]) + fp[j + 1]
                if y != y and fp[j] == fp[j + 1]:
                    y = fp[j]
            out.append(y)
    return out


def cot(
    trajectory: simulation.Trajectory,
    robot_weight: float | None = None,
    t_start: float | None = None,
) -> CoTReport:
    """Cost of transport E / (W_r d) by trapezoidal integration.

    E integrates the absolute mechanical power of the joint actuators and
    d the forward CoM velocity over the samples at or after t_start (the
    first sample when omitted).  The samples are those of every simulated
    step (``Trajectory.step_column``), so a run's CoT does not depend on its
    decimation.  Their times must not decrease, so the window is the suffix
    from the first sample at or after t_start; a time that decreases or is
    NaN (only a hand-made trajectory file holds one) raises ValueError.
    Raises ZeroDistanceError when d < 1e-6 m.
    """
    if robot_weight is None:
        robot_weight = float(trajectory.meta["robot_weight"])
    t = trajectory.step_column("t")
    if len(t) < 2:
        raise ValueError("trajectory must hold at least two records")
    if not all(map(le, t, t[1:])):
        raise ValueError("sample times must not decrease")
    start = bisect_left(t, (t[0] if t_start is None else t_start) - 1e-12)
    if len(t) - start < 2:
        raise ValueError("time window selects fewer than two records")
    tw = t[start:]

    energy, e_s, e_f = (
        _trapezoid([abs(p) for p in trajectory.step_column(name)[start:]], tw)
        for name in ("power", "power_s", "power_f")
    )
    distance = _trapezoid(trajectory.step_column("com_vx")[start:], tw)
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
    a, b = list(map(float, series_a)), list(map(float, series_b))
    if len(a) != len(b) or len(a) < 2:
        raise ValueError("series must share a length of at least 2")
    return math.sqrt(_sum([(x - y) * (x - y) for x, y in zip(a, b)]) / len(a))


# the common stance-phase grid, numpy's linspace(0, 1, 101)
_PHASE_GRID = [i * 0.01 for i in range(100)] + [1.0]


def resample_stance(trajectory: simulation.Trajectory,
                    fields: list[str]) -> dict[str, list[float]]:
    """Mean stance-phase profile of each field, 101 points on a 0..1 grid.

    Each completed stance after the first (settle-in) one is sorted by
    phase, records of equal phase in file order, and linearly interpolated
    onto the common phase grid; profiles are averaged across stances.
    Raises ValueError naming the first record whose ``stance_phase`` is not
    finite, or when no complete stance is available.
    """
    phase = trajectory.column("stance_phase")
    finite = list(map(math.isfinite, phase))
    if not all(finite):
        i = finite.index(False)
        raise ValueError(f"record {i} (CSV line {i + 2}) has the non-finite "
                         f"stance_phase {phase[i]!r}")
    columns = [trajectory.column(name) for name in fields]
    stances: dict[int, list[int]] = {}  # the rows of each step count
    for i, k in enumerate(trajectory.column("step_count")):
        stances.setdefault(int(k), []).append(i)
    profiles = []
    last = max(stances, default=0)
    for k in sorted(stances):
        rows = stances[k]
        if k < 1 or k == last or len(rows) < 4:
            continue  # the settle-in stance, the trailing fragment, a stub
        rows = sorted(rows, key=phase.__getitem__)
        ph = [phase[i] for i in rows]
        profiles.append([_interp(_PHASE_GRID, ph, [col[i] for i in rows]) for col in columns])
    if not profiles:
        raise ValueError("no complete stance available for resampling")
    return {name: [_sum(values) / len(profiles) for values in zip(*series)]
            for name, series in zip(fields, zip(*profiles))}


# failures that count against a sweep cell; anything else is a defect and raises
_CELL_ERRORS = (simulation.DivergenceError, ZeroDistanceError, ValueError)


def sweep_decimation(cfg: simulation.SimConfig) -> int:
    """Decimation of a sweep run: one past its step count, so that the run
    logs no record (its CoT integrates the samples of every step)."""
    return cfg.steps + 1


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
    while (i := counter.take()) is not None:
        outcomes[i] = _sweep_cell(configs[i])
    return outcomes


def velocity_sweep(
    base: simulation.SimConfig,
    velocities,
    repeats: int = 1,
    jobs: int = 1,
) -> list[SweepRow]:
    """CoT mean and spread per (velocity, terrain) cell, each velocity on
    granular and then on rigid ground.

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
    for k, v in enumerate(velocities):
        if v in velocities[:k]:
            raise ValueError(f"duplicate velocity {v!r}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")

    seeds = tuple(base.seed + rep for rep in range(repeats))
    cells = [(float(v), terrain_mode) for v in velocities
             for terrain_mode in ("granular", "rigid")]
    check_memory(base.steps, 0)  # a sweep run logs no record; checked before any run
    decimation = sweep_decimation(base)
    flat = flatten_config(base)
    # each speed passes the checks of its config key before any run starts
    configs = [build_config({**flat, "gait.v_target": v, "sim.terrain_mode": terrain_mode,
                             "sim.seed": seed, "sim.decimation": decimation})
               for v, terrain_mode in cells for seed in seeds]

    with ExitStack() as stack:
        counter = stack.enter_context(Counter(len(configs)))
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
                cot_mean=_sum(vals) / len(vals) if vals else math.nan,
                cot_std=_std(vals) if vals else math.nan,
                n_ok=len(vals),
                n_failed=len(failures),
                seeds=seeds,
                failures=failures,
            )
        )
    return rows
