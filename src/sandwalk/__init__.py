"""Bipedal walking dynamics on granular terrain: simulation and analysis."""

__version__ = "0.1.0"

from .dynamics import (
    FrontalParams,
    FrontalState,
    GrfSagittal,
    SagittalParams,
    SagittalState,
    assemble_frontal,
    assemble_sagittal,
    sagittal_accel,
)
from .gait import GaitConfig, Gains, Side, cycloid_swing, leg_ik, track_joints
from .metrics import CoTReport, SweepRow, cot, rmse, velocity_sweep
from .rolling import (
    FootShape,
    effective_radius,
    lowest_point,
    orientation_angle,
    rolling_angle,
    velocity_angle,
)
from .sim import SimConfig, SimRecord, Trajectory, run, step
from .terrain import (
    IntrusionKinematics,
    PenetrationRecord,
    TerrainParams,
    calibrate,
    lateral_force,
    local_stress,
    sagittal_forces,
)

__all__ = [
    "__version__",
    "SagittalParams", "FrontalParams", "SagittalState", "FrontalState",
    "GrfSagittal",
    "assemble_sagittal", "sagittal_accel", "assemble_frontal",
    "TerrainParams", "IntrusionKinematics", "PenetrationRecord",
    "local_stress", "sagittal_forces", "lateral_force", "calibrate",
    "FootShape", "lowest_point", "orientation_angle",
    "rolling_angle", "velocity_angle", "effective_radius",
    "GaitConfig", "Gains", "Side", "cycloid_swing", "leg_ik", "track_joints",
    "SimConfig", "SimRecord", "Trajectory", "run", "step",
    "CoTReport", "SweepRow", "cot", "rmse", "velocity_sweep",
]
