"""Gait references, the hip maps and joint tracking.

The six joint motors are relative angles: thigh motors measure
thigh-absolute minus trunk-absolute, calf (knee) motors calf-absolute minus
thigh-absolute, and the two hip motors live in the frontal plane.  Their
physical order is ``[hip_L, thigh_L, calf_L, hip_R, thigh_R, calf_R]``.
Both legs take the PD gains ``KP`` and ``KD`` per (hip, thigh, calf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .dynamics import check_ranges

__all__ = [
    "GaitConfig",
    "KP",
    "KD",
    "UnreachableTargetError",
    "cycloid_swing",
    "leg_ik",
    "frontal_to_hip_angles",
    "hip_torques_to_frontal",
    "frontal_torques_to_hips",
    "track_joints",
]


class UnreachableTargetError(ValueError):
    """Foot target outside the reachable annulus of the two-link leg."""


@dataclass(frozen=True)
class GaitConfig:
    """Periodic gait schedule and reference geometry."""

    cycle_period: float = 0.4   # full left+right cycle [s]
    duty: float = 0.5           # stance fraction of each leg's cycle
    swing_height: float = 0.10  # apex foot clearance [m]
    v_target: float = 0.2       # commanded forward speed [m/s]
    hip_height: float = 0.34    # hip reference height above the surface [m]
    trunk_ref: float = 0.0      # trunk posture reference [rad]

    def __post_init__(self) -> None:
        check_ranges(self, ("cycle_period", "swing_height", "hip_height"), ("v_target",),
                     bounded=("duty",))
        if not 0.0 < self.duty < 1.0:
            raise ValueError("duty must lie in (0, 1)")
        if not math.isfinite(self.trunk_ref):
            raise ValueError("trunk_ref must be finite")

    @cached_property
    def stance_duration(self) -> float:
        return self.cycle_period * self.duty

    @cached_property
    def step_length(self) -> float:
        """Spacing of consecutive footfalls, proportional to speed."""
        return self.v_target * self.stance_duration


#: PD gains of each leg's (hip, thigh, calf) actuators [N m/rad], [N m s/rad]
KP = (400.0, 120.0, 50.0)
KD = (20.0, 4.0, 1.5)


def cycloid_swing(phase: float, step_length: float, swing_height: float):
    """Cycloidal swing-foot profile over phase in [0, 1].

    x(p) = L (p - sin(2 pi p) / (2 pi)),  z(p) = h (1 - cos(2 pi p)) / 2.
    Starts and ends at zero height with zero vertical velocity; the apex
    height h is reached at p = 0.5.
    """
    if not 0.0 <= phase <= 1.0:
        raise ValueError("phase must lie in [0, 1]")
    w = 2.0 * math.pi * phase
    x = step_length * (phase - math.sin(w) / (2.0 * math.pi))
    z = swing_height * (1.0 - math.cos(w)) / 2.0
    return x, z


def leg_ik(l_t: float, l_c: float, target: tuple[float, float]):
    """Absolute (thigh, calf) angles reaching a foot target below the hip.

    ``target`` is the foot-center position relative to the hip.  Uses the
    knee-backward branch; raises UnreachableTargetError outside the annulus
    |l_t - l_c| < |target| < l_t + l_c.
    """
    dx, dz = target
    r = math.hypot(dx, dz)
    if r <= abs(l_t - l_c) + 1e-12 or r >= l_t + l_c - 1e-12:
        raise UnreachableTargetError(
            f"target distance {r:.4f} m outside reachable annulus"
        )
    chi = math.atan2(-dx, -dz)  # direction of the hip-to-foot chord
    cos_dev = (l_t ** 2 + r ** 2 - l_c ** 2) / (2.0 * l_t * r)
    dev = math.acos(min(1.0, max(-1.0, cos_dev)))
    thigh = chi + dev  # knee behind the chord
    ux = -(dx + l_t * math.sin(thigh)) / l_c
    uz = -(dz + l_t * math.cos(thigh)) / l_c
    calf = math.atan2(ux, uz)
    return thigh, calf


def frontal_to_hip_angles(q_f) -> tuple[float, float]:
    """Hip actuator angles (q1, q4) from the frontal absolute angles.

    q1 = -p1 + p2 and q4 = pi - p2 + p3.
    """
    p1, p2, p3 = q_f
    return -p1 + p2, math.pi - p2 + p3


def hip_torques_to_frontal(tau1: float, tau4: float) -> tuple[float, float]:
    """Frontal generalized torques: tau_f2 = tau1 - tau4, tau_f3 = tau4."""
    return tau1 - tau4, tau4


def frontal_torques_to_hips(tau_f2: float, tau_f3: float) -> tuple[float, float]:
    """Hip actuator torques realizing given frontal generalized torques."""
    return tau_f2 + tau_f3, tau_f3


def track_joints(q_ref, dq_ref, q, dq, kp, kd, limit: float) -> list[float]:
    """PD joint tracking torque of each actuator, with its gains ``kp`` and
    ``kd``, saturated at the positive ``limit``; a NaN torque stays NaN."""
    tau = []
    for r, dr, x, v, p, d in zip(q_ref, dq_ref, q, dq, kp, kd):
        t = p * (r - x) + d * (dr - v)
        # min(max(t, -limit), limit) for the positive limit, without the calls
        tau.append(limit if t > limit else -limit if t < -limit else t)
    return tau
