"""Walking simulation: phase-switched time stepping with intrusion bookkeeping.

World layout: x forward, z up, y lateral; the sand surface sits at
``terrain.sand_level``.  During a stance the contact anchor is
``C0 + (x_s, z)`` from the latched initial contact C0 and the dynamic
intrusion coordinates; the foot center of the semi-cylindrical sole sits a
radius above the anchor, and the hip follows by forward kinematics through
the stance leg.  The posture coordinates (sagittal trunk, frontal lean and
crossbar) are held at their references by a reduced constrained solve,
standing in for the whole-body controller of the physical robot; all other
coordinates integrate their forward dynamics under PD joint tracking.

Granular mode drives the intrusion rows with the resistive terrain forces;
rigid mode holds the intrusion coordinates at zero and reads the required
constraint forces back off those rows.
"""

from __future__ import annotations

import math
import random
import struct
from array import array
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import mul

from . import dynamics as dyn
from . import gait as gt
from . import rolling as rl
from . import terrain as tr
from .trajectory import _BLOCK, SIM_RECORD_FIELDS, Trajectory, TrajectoryWriter, check_memory

__all__ = [
    "SimConfig",
    "WalkerState",
    "DivergenceError",
    "detect_touchdown",
    "initial_state",
    "run",
]


class DivergenceError(RuntimeError):
    """State magnitude exceeded the divergence guard."""

    def __init__(self, t: float, detail: str = ""):
        super().__init__(f"simulation diverged at t={t:.6f} s {detail}".rstrip())
        self.t = t


# the frontal model's values that a frontal.* key sets
_FRONTAL_KEYS = frozenset(("m_1", "m_2", "l_1", "d_1", "d_2", "b"))


@dataclass(frozen=True)
class SimConfig:
    """A run's settings, each set by one configuration key.  The frontal model
    is derived from the robot (each leg weighs m_t + m_c, the stance leg
    reaches l_t + l_c + foot_radius with its CoM at mid-leg) with the values
    in ``frontal_keys``, the (name, value) pairs of the frontal.* keys that
    were set, over it; ``replace`` derives it anew from the new robot."""

    dt: float = 1e-3
    duration: float = 2.4
    integrator: str = "semi_implicit"      # or "rk4"
    terrain_mode: str = "granular"         # or "rigid"
    decimation: int = 1
    seed: int = 0
    initial_jitter: float = 2e-3           # seeded initial joint offset [rad]
    foot_radius: float = 0.04
    h_com: float = 0.40                    # CoM height used for dimensionless speed [m]
    r_eff_cap: float = 10.0                # effective-radius saturation for logs [m]
    torque_limit: float = 60.0             # actuator torque saturation [N m]
    gait: gt.GaitConfig = field(default_factory=gt.GaitConfig)
    terrain: tr.TerrainParams = field(default_factory=tr.TerrainParams)
    sagittal: dyn.SagittalParams = field(default_factory=dyn.SagittalParams)
    frontal_keys: tuple[tuple[str, float], ...] = field(default=(), compare=False)
    frontal: dyn.FrontalParams = field(init=False)

    def __post_init__(self) -> None:
        dyn.check_ranges(self, ("dt", "foot_radius", "h_com", "r_eff_cap", "torque_limit"),
                         ("initial_jitter", "seed"), bounded=("duration",))
        keys = dict(self.frontal_keys)
        if not keys.keys() <= _FRONTAL_KEYS:
            raise ValueError(f"frontal_keys may set only {', '.join(sorted(_FRONTAL_KEYS))}")
        p = self.sagittal
        leg_mass, leg_length = p.m_t + p.m_c, p.l_t + p.l_c
        object.__setattr__(self, "frontal", dyn.FrontalParams(**{
            "m_b": p.m_b, "m_1": leg_mass, "m_2": leg_mass,
            "l_1": leg_length + self.foot_radius, "d_1": 0.5 * leg_length, "g": p.g, **keys}))
        if not self.duration >= self.gait.cycle_period:
            raise ValueError("duration must cover at least one gait cycle")
        if not math.isfinite(self.duration / self.dt):
            raise ValueError("the step count duration / dt must be finite")
        if self.integrator not in ("semi_implicit", "rk4"):
            raise ValueError(f"unknown integrator '{self.integrator}'")
        if self.terrain_mode not in ("granular", "rigid"):
            raise ValueError(f"unknown terrain mode '{self.terrain_mode}'")
        if self.decimation < 1:
            raise ValueError("decimation must be >= 1")

    @cached_property
    def steps(self) -> int:
        """The run's step count, duration / dt rounded."""
        return int(round(self.duration / self.dt))

    @cached_property
    def _links(self):
        """The sagittal lengths and masses that ``_chain`` reads: l_t, l_c,
        l_b, a_1, a_2, m_b, m_t, m_c and the total mass."""
        p = self.sagittal
        return p.l_t, p.l_c, p.l_b, p.a_1, p.a_2, p.m_b, p.m_t, p.m_c, p.total_mass

    @cached_property
    def _sole(self) -> rl.FootShape:
        """The stance foot's semicylindrical sole."""
        return rl.FootShape(self.foot_radius)

    @cached_property
    def _reference(self):
        """Per-run constants of the gait reference (see _model_refs): the leg
        (l_t, l_c, r_min, r_max) with the annulus its IK targets are clamped
        into, the design vault chord, the origin of the commanded-progress
        line, half a step, and the landing and swing-hip heights."""
        l_t, l_c = self.sagittal.l_t, self.sagittal.l_c
        leg = (l_t, l_c, abs(l_t - l_c) * (1.0 + 1e-4) + 1e-6, (l_t + l_c) * (1.0 - 1e-4))
        r_nom = _clamp_chord(self, self.gait.hip_height - self.foot_radius)
        half_step = 0.5 * self.gait.step_length
        land_z = self.terrain.sand_level + self.foot_radius
        return leg, r_nom, -half_step, half_step, land_z, land_z + r_nom


@dataclass
class WalkerState:
    """Full simulation state; a step rebinds its fields, never writing into
    ``y``.  ``y`` is the stacked state as 18 floats: the sagittal
    coordinates q_s at 0-6, the frontal swing-leg angle p3 at 7 and the
    lateral slip y_s at 8, then their rates at 9-17 in the same order.  The
    held frontal lean and crossbar are ``_FRONTAL_POSTURE`` at rest, and the
    frontal vertical coordinate is the sagittal z.  ``stance`` is the
    record's ``stance_leg`` value: 0 for a left stance, 1 for a right one.
    The latches ``c0`` and ``liftoff`` are (x, z) float pairs."""

    t: float = 0.0
    stance: int = 0
    t_stance_start: float = 0.0
    step_count: int = 0
    c0: tuple[float, float] = (0.0, 0.0)
    theta_r0: float = 0.0
    liftoff: tuple[float, float] = (0.0, 0.0)
    prev_swing_height: float = float("inf")
    r_latch: float = 0.0        # stance leg chord latched at touchdown [m]
    y: list[float] = field(default_factory=lambda: [0.0] * 18)


def detect_touchdown(prev_height: float, height: float, sand_level: float) -> bool:
    """True when the swing-foot height crosses the surface downward."""
    return prev_height > sand_level >= height


# ---------------------------------------------------------------------------
# kinematics (world frame)
# ---------------------------------------------------------------------------

def _chain(links, base, u1, u2, u3, u4, u5):
    """One axis of the forward kinematics through the stance leg: the hip,
    swing-foot center and whole-robot CoM coordinates along the axis, from
    the stance-foot center ``base`` and the axis component u_i of link i's
    direction.  Given their rates, it returns the rates.  ``links`` is
    ``SimConfig._links``."""
    l_t, l_c, l_b, a_1, a_2, m_b, m_t, m_c, total = links
    hip = base + l_c * u2 + l_t * u1
    com = (m_b * (hip + l_b * u5)
           + m_t * (hip - a_1 * u1) + m_c * (hip - l_t * u1 - a_2 * u2)
           + m_t * (hip - a_1 * u3) + m_c * (hip - l_t * u3 - a_2 * u4))
    return hip, hip - l_t * u3 - l_c * u4, com / total


def _kinematics(cfg: SimConfig, c0, q, dq):
    """Forward kinematics through the stance leg, from the latched contact
    ``c0`` and the sagittal coordinates ``q`` and rates ``dq`` as floats: the
    (x, z) positions of the hip, the swing-foot center and the whole-robot
    CoM, then their velocities.

    Each link angle a enters through its direction (sin a, cos a), and the
    positions are linear in these directions, so the velocities come from the
    same chain applied to the direction rates (cos a, -sin a) da."""
    links = cfg._links
    q1, q2, q3, q4, q5, x_s, z = q
    v1, v2, v3, v4, v5, dx_s, dz = dq
    s1, s2, s3, s4, s5 = math.sin(q1), math.sin(q2), math.sin(q3), math.sin(q4), math.sin(q5)
    c1, c2, c3, c4, c5 = math.cos(q1), math.cos(q2), math.cos(q3), math.cos(q4), math.cos(q5)
    hx, sx, cx = _chain(links, c0[0] + x_s, s1, s2, s3, s4, s5)
    hz, sz, cz = _chain(links, c0[1] + z + cfg.foot_radius, c1, c2, c3, c4, c5)
    hvx, svx, cvx = _chain(links, dx_s, c1 * v1, c2 * v2, c3 * v3, c4 * v4, c5 * v5)
    hvz, svz, cvz = _chain(links, dz, -s1 * v1, -s2 * v2, -s3 * v3, -s4 * v4, -s5 * v5)
    return (hx, hz), (sx, sz), (cx, cz), (hvx, hvz), (svx, svz), (cvx, cvz)


def _swing_z_and_com_vx(cfg: SimConfig, c0, y) -> tuple[float, float]:
    """The two axes of ``_kinematics`` that an unlogged step reads, from the
    stacked state ``y``: the swing-foot center height (the touchdown event)
    and the CoM forward rate (the CoT sample)."""
    links = cfg._links
    c1, c2, c3, c4, c5 = map(math.cos, y[:5])
    swing_z = _chain(links, c0[1] + y[6] + cfg.foot_radius, c1, c2, c3, c4, c5)[1]
    return swing_z, _chain(links, y[14], c1 * y[9], c2 * y[10], c3 * y[11], c4 * y[12],
                           c5 * y[13])[2]


def _ik_clamped(leg, target, rate):
    """Leg IK with the target radius clamped into the reachable annulus:
    (thigh, calf) angles and their rates for a target moving at ``rate``.
    ``leg`` is (l_t, l_c, r_min, r_max), the link lengths and the annulus."""
    l_t, l_c, r_min, r_max = leg
    dx, dz = target
    vx, vz = rate
    r = math.hypot(dx, dz)
    if r < 1e-12:
        raise gt.UnreachableTargetError("foot target coincides with the hip")
    if r > r_max or r < r_min:
        # the clamped target keeps the radius: only the tangential rate stays
        s = min(max(r, r_min), r_max) / r
        radial = (dx * vx + dz * vz) / (r * r)
        vx, vz = s * (vx - radial * dx), s * (vz - radial * dz)
        dx, dz = dx * s, dz * s
    thigh, calf = gt.leg_ik(l_t, l_c, (dx, dz))
    # invert the rate of target = -l_t (sin, cos)(thigh) - l_c (sin, cos)(calf)
    st, ct, sc, cc = math.sin(thigh), math.cos(thigh), math.sin(calf), math.cos(calf)
    knee = math.sin(thigh - calf)
    return thigh, calf, (sc * vx + cc * vz) / (l_t * knee), -(st * vx + ct * vz) / (l_c * knee)


# ---------------------------------------------------------------------------
# references and control
# ---------------------------------------------------------------------------

def _clamp_chord(cfg: SimConfig, r: float) -> float:
    """Stance leg chord r clamped into [0.2, 1] of the 0.999-straight leg."""
    r_max = (cfg.sagittal.l_t + cfg.sagittal.l_c) * 0.999
    return min(max(r, 0.2 * r_max), r_max)


def _stance_phase(ws: WalkerState, cfg: SimConfig, t: float) -> float:
    """Fraction of the scheduled stance elapsed at time t, in [0, 1]."""
    return min(max((t - ws.t_stance_start) / cfg.gait.stance_duration, 0.0), 1.0)


def _model_refs(ws: WalkerState, cfg: SimConfig, t: float):
    """Reference absolute angles [stance thigh, stance calf, swing thigh,
    swing calf, trunk] at time t, and their time derivatives with the
    geometry (contact, latches) frozen.

    The stance hip reference tracks the commanded-velocity line in x (so
    contact slip is absorbed instead of re-vaulted) and recovers the leg
    chord toward its nominal length relative to the estimated contact (so
    per-step sinkage is regained without accumulating a crouch).  The swing
    foot tracks the cycloid between world-frame footfall targets planned
    against the nominal surface-level geometry.

    The phase rate is 1/T_stance inside the stance and 0 where the phase is
    clamped.  Every phase-driven term (chord recovery, cycloid, endpoint
    blend) has zero slope at phase 0 and 1, so the rates there are the
    one-sided derivative from either side.
    """
    g = cfg.gait
    v, t_half, swing_height = g.v_target, g.stance_duration, g.swing_height
    leg, r_nom, line_x0, half_step, land_z, hip_z = cfg._reference
    r_latch = ws.r_latch
    phase = _stance_phase(ws, cfg, t)
    dphase = 1.0 / t_half if 0.0 < phase < 1.0 else 0.0
    line_x = line_x0 + v * t  # the commanded-progress line

    # stance leg: vault the hip along the line over the estimated contact
    u = min(phase / 0.6, 1.0)
    s_rec = u * u * (3.0 - 2.0 * u)  # C1 chord-recovery schedule
    r_ref = r_latch + s_rec * (r_nom - r_latch)
    dr_ref = 6.0 * u * (1.0 - u) / 0.6 * dphase * (r_nom - r_latch)
    reach = 0.55 * r_ref
    dx = line_x - (ws.c0[0] + ws.y[5])  # from the estimated contact
    ddx = v if -reach <= dx <= reach else math.copysign(0.55, dx) * dr_ref
    dx = min(max(dx, -reach), reach)
    rise = math.sqrt(r_ref ** 2 - dx ** 2)
    st_t, st_c, dst_t, dst_c = _ik_clamped(
        leg, (-dx, -rise), (-ddx, (dx * ddx - r_ref * dr_ref) / rise))

    # swing leg: cycloid from the latched liftoff point to the landing target
    # (x, z), with the hip reference at (line_x, hip_z)
    land_x = line_x0 + v * (ws.t_stance_start + t_half) + half_step
    lift_x, lift_z = ws.liftoff
    travel = land_x - lift_x
    cx, cz = gt.cycloid_swing(phase, travel, swing_height)
    w = 2.0 * math.pi * phase
    blend = phase * phase * (3.0 - 2.0 * phase)  # C1 blend of endpoint heights
    dblend = 6.0 * phase * (1.0 - phase) * dphase
    sw_t, sw_c, dsw_t, dsw_c = _ik_clamped(
        leg,
        (lift_x + cx - line_x, (1.0 - blend) * lift_z + blend * land_z + cz - hip_z),
        (travel * (1.0 - math.cos(w)) * dphase - v,
         dblend * (land_z - lift_z) + swing_height * math.pi * math.sin(w) * dphase))

    return (st_t, st_c, sw_t, sw_c, g.trunk_ref), (dst_t, dst_c, dsw_t, dsw_c, 0.0)


# the held frontal posture (lean, crossbar) and its hip actuator angles
_FRONTAL_POSTURE = (0.0, math.pi / 2.0)
_HIP_POSTURE = gt.frontal_to_hip_angles((*_FRONTAL_POSTURE, 0.0))
# the PD gains of the six actuators, the same on either leg
_KP, _KD = gt.KP * 2, gt.KD * 2


def _physical(v, stance: int):
    """Six actuator values in stance-first order (stance hip, thigh, calf,
    swing hip, thigh, calf) in the physical order of the record's
    ``tau_a1..tau_a6``: a right stance (1) swaps the halves."""
    return (*v[3:], *v[:3]) if stance else v


def _control(ws: WalkerState, cfg: SimConfig):
    """PD torques in stance-first actuator order (see ``_physical``), the
    measured actuator rates and the torques' planar-model images.  A thigh
    motor reads thigh minus trunk, a calf motor calf minus thigh."""
    (st_t, st_c, sw_t, sw_c, trunk), (dst_t, dst_c, dsw_t, dsw_c, d_trunk) = \
        _model_refs(ws, cfg, ws.t)
    y = ws.y
    # the stance hip joins the held lean and crossbar, so it is at rest
    hip_st, hip_sw = gt.frontal_to_hip_angles((*_FRONTAL_POSTURE, y[7]))
    dq_a = (0.0, y[9] - y[13], y[10] - y[9], y[16], y[11] - y[13], y[12] - y[11])
    tau = gt.track_joints(
        (_HIP_POSTURE[0], st_t - trunk, st_c - st_t, _HIP_POSTURE[1], sw_t - trunk, sw_c - sw_t),
        (0.0, dst_t - d_trunk, dst_c - dst_t, 0.0, dsw_t - d_trunk, dsw_c - dsw_t),
        (hip_st, y[0] - y[4], y[1] - y[0], hip_sw, y[2] - y[4], y[3] - y[2]),
        dq_a, _KP, _KD, cfg.torque_limit)
    _, t1, t2, _, t4, t5 = tau
    return tau, dq_a, (t1 - t2, t2, t4 - t5, t5), gt.hip_torques_to_frontal(tau[0], tau[3])


# ---------------------------------------------------------------------------
# dynamics right-hand side
# ---------------------------------------------------------------------------

# Reduced solves: held rows (sagittal trunk, frontal lean and crossbar),
# clamped rows (the contact coordinates on rigid ground) and the imposed
# frontal vertical row drop out; the sagittal swing rows 2 and 3 carry only
# their diagonal entry and divide out.  What stays coupled is sagittal rows
# (0, 1, 5, 6) on sand, which ``dyn.solve_sand_block`` solves through a 2x2
# Schur complement, and two 2x2 blocks solved in closed form: sagittal rows
# (0, 1) on rigid ground, frontal rows (2, 3) on sand.


def _solve2(a, b, c, d, r0, r1) -> tuple[float, float]:
    """Solution of the 2x2 system [[a, b], [c, d]] x = (r0, r1) by Cramer's
    rule."""
    det = a * d - b * c
    return (d * r0 - b * r1) / det, (a * r1 - c * r0) / det


_DIRECTION_FLOOR = 0.05  # m/s; regularizes the stress direction switch at rest


def _grf_granular(cfg: SimConfig, depth: float, dx: float, dz: float, y_slip: float):
    """(f_x, f_z, f_y) of the resistive terrain at the stance contact."""
    # Smooth the wedge-face orientation switch across zero horizontal rate:
    # blend the forward- and backward-leading faces by the horizontal
    # fraction w = (1 + dx/hyp)/2, which removes the rest-state force
    # discontinuity.  The backward face mirrors the forward one (same f_z,
    # opposite f_x), so the blend is (f_x dx/hyp, f_z) of the forward face.
    hyp = math.hypot(dx, _DIRECTION_FLOOR)
    f_x, f_z = tr.sagittal_forces(cfg.terrain, depth, math.atan2(dz, hyp))
    return f_x * dx / hyp, f_z, tr.lateral_force(cfg.terrain, depth, y_slip)


_FRONTAL_KEY = struct.Struct("2d").pack


class _StageTerms:
    """What the integrator stages of one run carry from one to the next:
    what a stage derives from ``dyn.assemble_frontal``, kept for the last
    frontal configuration.  ``terms`` holds the stage's entries (D22, D23,
    D24, D33, the bias -C dq - G of rows 2 and 3, then C dq and G of row 3),
    and ``held`` D12, D13, D14 with C dq and G of row 1, for the holding
    torque.  The system depends only on the swing-leg angle p3 and its rate,
    the lean and crossbar being held at rest, and these hold still between
    touchdowns, so a stage reassembles it only when their bytes or the
    parameter object change.  The key is bytes, not floats: a touchdown
    flips p3 between 0.0 and -0.0, and 0.0 == -0.0.  With the lean and
    crossbar rates at 0.0, the one nonzero product of a row of C dq is the
    one with the swing-leg rate, added to +0.0.  One per run."""

    __slots__ = ("params", "key", "terms", "held")

    def __init__(self):
        self.params = self.key = self.terms = self.held = None

    def frontal(self, params: dyn.FrontalParams, y):
        """The frontal stage terms at the stacked state ``y`` (18 floats, p3
        at 7 and its rate at 16)."""
        p3, v3 = y[7], y[16]
        key = _FRONTAL_KEY(p3, v3)
        if params is not self.params or key != self.key:
            diag, d, c, g = dyn.assemble_frontal(params, (*_FRONTAL_POSTURE, p3), (0.0, 0.0, v3))
            _, _, _, _, d12, d13, d14, d23, d24 = d
            c12, c32 = c[3], c[8]
            cdq3 = 0.0 + c32 * v3
            self.params, self.key = params, key
            self.terms = (diag[2], d23, d24, diag[3], -g[2], -cdq3 - g[3], cdq3, g[3])
            self.held = d12, d13, d14, 0.0 + c12 * v3, g[1]
        return self.terms

    def holding_torque(self, qdd) -> float:
        """Crossbar row residual at the accelerations ``qdd`` of
        ``_accelerations``, under the last terms: the torque that holds the
        crossbar, summed in column order from +0.0, then C dq and G."""
        d12, d13, d14, cdq1, g1 = self.held
        return 0.0 + d12 * qdd[7] + d13 * qdd[8] + d14 * qdd[6] + cdq1 + g1


def _coriolis_rows(c, dq):
    """Rows 0, 1, 5 and 6 of the sagittal C dq from the C entries ``c`` of
    ``dyn.assemble_sagittal`` (rows 2 and 3 are zero, row 4 is held).
    Each row is summed in numpy's order from +0.0, which gives the bytes of
    numpy's ``C @ dq`` as long as dq[4] is +0.0: a row then has at most two
    nonzero products.  The trunk rate starts at +0.0 and its acceleration
    is the literal 0.0, so every integrator stage meets that."""
    c01, c10, c50, c60, c51, c61, c54, c64 = c
    v0, v1, v4 = dq[0], dq[1], dq[4]
    return (0.0 + c01 * v1, 0.0 + c10 * v0, 0.0 + c50 * v0 + c51 * v1 + c54 * v4,
            0.0 + c60 * v0 + c61 * v1 + c64 * v4)


def _accelerations(cfg: SimConfig, y, tau_s, tau_f, stage: _StageTerms):
    """Reduced constrained accelerations of the stacked state ``y``, as a
    list of 9, plus (f_x, f_y, f_z).  ``y`` is 18 floats (see
    ``WalkerState``), with the trunk rate y[13] +0.0 (see
    ``_coriolis_rows``); ``stage`` is the run's ``_StageTerms``."""
    dq_s = y[9:14]  # the sagittal rates that the assembly reads
    diag, d, c, (g0, g1, _, _, _, g5, g6) = dyn.assemble_sagittal(cfg.sagittal, y, dq_s)
    c0, c1, c5, c6 = _coriolis_rows(c, dq_s)
    t0, t1, t2, t3 = tau_s
    # the actuated rows, then the contact rows; the held trunk row drops out
    r0, r1 = -c0 - g0 + t0, -c1 - g1 + t1
    r5, r6 = -c5 - g5, -c6 - g6
    # the decoupled swing rows, free of C and G, divide out
    a2, a3 = t2 / diag[2], t3 / diag[3]
    granular = cfg.terrain_mode == "granular"
    if granular:
        f_x, f_z, f_y = _grf_granular(cfg, max(0.0, -y[6]), y[14], y[15], y[8])
        a0, a1, a5, a6 = dyn.solve_sand_block(diag, d, (r0, r1, r5 + f_x, r6 + f_z))
    else:
        d01, d05, d06, d15, d16, _, _ = d
        a0, a1 = _solve2(diag[0], d01, d01, diag[1], r0, r1)
        a5 = a6 = 0.0
        # constraint forces read back off the clamped contact rows, where
        # only the stance-leg rows 0 and 1 meet a nonzero D entry
        f_x = d05 * a0 + d15 * a1 + c5 + g5
        f_z = d06 * a0 + d16 * a1 + c6 + g6

    # frontal plane: lean and crossbar posture-held, swing-leg angle and
    # lateral slip dynamic, the vertical row the sagittal one; the crossbar
    # holding torque is left to the record
    d22, d23, d24, d33, b2, b3, cdq3, g3 = stage.frontal(cfg.frontal, y)
    rf2 = b2 + tau_f[1]
    if granular:
        # D34 is zero: lateral slip and sinkage are orthogonal translations
        p2, p3 = _solve2(d22, d23, d23, d33, rf2 - d24 * a6, b3 + f_y)
    else:
        p2, p3 = rf2 / d22, 0.0
        f_y = d23 * p2 + cdq3 + g3  # only row 2 accelerates
    return [a0, a1, a2, a3, 0.0, a5, a6, p2, p3], f_x, f_y, f_z


def _ode_step(method: str, y: list, acc, dt: float) -> list:
    """One step of q'' = acc(y) on the stacked state y = (q, dq), a list of
    floats: symplectic Euler ("semi_implicit") or else classical RK4 on the
    rate f(y) = (dq, acc(y)), with ``acc`` returning a list.  Each entry
    meets the operations of the separate q and dq updates, in their order."""
    n = len(y) // 2
    if method == "semi_implicit":
        dq = [v + a * dt for v, a in zip(y[n:], acc(y))]
        return [x + v * dt for x, v in zip(y[:n], dq)] + dq

    def f(y):
        return y[n:] + acc(y)

    h = 0.5 * dt
    k1 = f(y)
    k2 = f([x + h * k for x, k in zip(y, k1)])
    k3 = f([x + h * k for x, k in zip(y, k2)])
    k4 = f([x + dt * k for x, k in zip(y, k3)])
    w = dt / 6.0
    # 2.0, not 2: the interpreter specializes float * float, not int * float
    return [x + w * (a + 2.0 * b + 2.0 * c + d) for x, a, b, c, d in zip(y, k1, k2, k3, k4)]


def _flow(ws: WalkerState, cfg: SimConfig, stage: _StageTerms):
    """Control and one ODE step with the torques held; rebinds ``ws.y`` to
    the post-step state.  Returns the control output, the stacked state at
    the control instant and the last evaluation: its stacked state and
    ``_accelerations``' output (semi-implicit: the step's start; rk4: its
    fourth stage).  ``stage`` is the run's ``_StageTerms``."""
    control = _control(ws, cfg)
    tau_s, tau_f = control[2:]
    start = ws.y
    last = None

    def acc(y):
        nonlocal last
        # one check per stage: a sum of squares is finite only if every entry
        # is finite and below ~1e154, far past the divergence guard
        if not math.isfinite(sum(map(mul, y, y))):
            raise DivergenceError(ws.t, "(non-finite state in an integrator stage)")
        last = y, *_accelerations(cfg, y, tau_s, tau_f, stage)
        return last[1]

    # the trunk, and on rigid ground the contact rows, start at rest and
    # accelerate by the literal 0.0, so the step keeps their bits
    ws.y = _ode_step(cfg.integrator, start, acc, cfg.dt)
    ws.t += cfg.dt
    return control, start, last


def _contact(cfg: SimConfig, pitch: float, t: float):
    """The stance-foot contact point (x_r, z_r) on the sole at a calf pitch;
    a contact that leaves the sole ends the run, at time t, as a divergence.
    ``rl.lowest_point`` rejects a contact at or past the rim, so
    ``rl.orientation_angle`` accepts every point this returns."""
    try:
        return rl.lowest_point(cfg._sole, pitch)
    except rl.ContactOutsideSoleError as exc:
        raise DivergenceError(t, f"({exc})") from exc


def _powers(control, start, last, stage: _StageTerms):
    """Joint powers in stance-first actuator order, their sum and each
    plane's net power, with the rates at the control instant, from the
    step's control output, its stacked state ``start`` at the control
    instant, its ``last`` evaluation and the run's ``stage`` terms as that
    evaluation left them.
    Writes the reported hip torques, the crossbar holding demand plus the
    swing-side PD, into the control output's torques."""
    tau_a, dq_a, tau_s, tau_f = control
    tau_bar = stage.holding_torque(last[1])
    tau_a[0], tau_a[3] = gt.frontal_torques_to_hips(tau_bar, tau_f[1])
    joint_powers = list(map(mul, tau_a, dq_a))
    t0, t1, t2, t3 = tau_s
    # the held crossbar does no work: the frontal power is the swing hip's,
    # added to +0.0 so that a zero power is +0.0, as the other sums give
    return (joint_powers, math.fsum(joint_powers),
            math.fsum((t0 * start[9], t1 * start[10], t2 * start[11], t3 * start[12])),
            0.0 + tau_f[1] * start[16])


def _record(ws: WalkerState, cfg: SimConfig, tau_a, last, powers,
            contact, kinematics, phase: float, out) -> None:
    """Append the post-step record of ``ws`` to ``out``, from the
    step's stance-first actuator torques ``tau_a`` and ``powers`` as
    ``_powers`` gave them, its ``last`` evaluation and its contact point on
    the sole, kinematics and stance phase."""
    y, _, f_x, f_y, f_z = last
    gamma = rl.velocity_angle(y[14], y[15]) if cfg.terrain_mode == "granular" else 0.0

    s = ws.y
    # rolling bookkeeping on the stance foot; a still foot's infinite radius
    # saturates at the cap
    theta_r = rl.orientation_angle(cfg._sole, contact)
    r_eff = min(rl.effective_radius((s[14], s[15]), s[10]), cfg.r_eff_cap)

    joint_powers, power, power_s, power_f = powers
    hip, _, com, _, _, com_v = kinematics
    out.fromlist([  # SIM_RECORD_FIELDS order
        ws.t, ws.stance, phase, ws.step_count,
        *s[:5], *s[9:14],
        s[5], s[8], max(0.0, -s[6]), s[14], s[17], -s[15],
        *_FRONTAL_POSTURE, s[7], 0.0, 0.0, s[16],
        *_physical(tau_a, ws.stance),
        f_x, f_y, f_z,
        theta_r, theta_r - ws.theta_r0, gamma, r_eff,
        power, math.fsum(map(abs, joint_powers)), power_s, power_f,
        *com, *com_v, *hip,
    ])


def _jump(ws: WalkerState, cfg: SimConfig) -> WalkerState:
    """Touchdown jump map, pure in the pre-touchdown state ``ws``: the swing
    pair becomes the stance pair, the frontal swing-leg angle mirrors about the
    new stance hip, and the intrusion restarts under the swing foot, no higher than
    the surface and vertically at rest (the reset absorbs the contact transient)."""
    y, (c0_x, c0_z), r = ws.y, ws.c0, cfg.foot_radius
    _, swing, _, _, swing_v, _ = _kinematics(cfg, ws.c0, y[:7], y[9:16])
    slip_rate = swing_v[0] if cfg.terrain_mode == "granular" else 0.0  # landing skid
    c0 = (swing[0], min(swing[1] - r, cfg.terrain.sand_level))
    new = replace(
        ws, stance=1 - ws.stance, t_stance_start=ws.t, step_count=ws.step_count + 1,
        c0=c0, liftoff=(c0_x + y[5], c0_z + y[6] + r),  # old stance-foot center
        prev_swing_height=float("inf"),
        y=[y[2], y[3], y[0], y[1], y[4], 0.0, 0.0, -y[7], 0.0,
           y[11], y[12], y[9], y[10], y[13], slip_rate, 0.0, -y[16], 0.0])
    new.theta_r0 = rl.orientation_angle(cfg._sole, _contact(cfg, new.y[1], new.t))
    # latch the stance chord at touchdown
    hip = _kinematics(cfg, c0, new.y[:7], new.y[9:16])[0]
    new.r_latch = _clamp_chord(cfg, math.hypot(hip[0] - c0[0], hip[1] - (c0[1] + r)))
    return new


_DIVERGENCE_LIMIT = 1e6  # largest |state entry| the step lets through


def _advance(ws: WalkerState, cfg: SimConfig, out: array | None,
             stage: _StageTerms, samples: array) -> WalkerState:
    """One fixed step: flow, divergence guard, contact check, record
    appended to ``out``, the step's ``STEP_FIELDS`` appended to ``samples``,
    touchdown event and jump.  A step without a row (``out`` is None) skips
    the record, the contact angle and all but two axes of the kinematics;
    it makes every check, appends the same samples and takes the same
    event.  ``stage`` is the run's ``_StageTerms``.  Returns ``ws`` advanced
    or the jumped state."""
    control, start, last = _flow(ws, cfg, stage)
    y = ws.y
    # divergence guard on the stacked state; NaN fails the comparison too
    for x in y:
        if not abs(x) <= _DIVERGENCE_LIMIT:
            raise DivergenceError(ws.t)
    contact = _contact(cfg, y[1], ws.t)  # a contact off the sole ends the run
    phase = _stance_phase(ws, cfg, ws.t)
    powers = _powers(control, start, last, stage)
    if out is None:
        swing_z, com_vx = _swing_z_and_com_vx(cfg, ws.c0, y)
    else:
        kinematics = _kinematics(cfg, ws.c0, y[:7], y[9:16])
        _record(ws, cfg, control[0], last, powers, contact, kinematics, phase, out)
        swing_z, com_vx = kinematics[1][1], kinematics[5][0]
    _, power, power_s, power_f = powers
    samples.extend((ws.t, power, power_s, power_f, com_vx))
    # touchdown event: the swing-foot height crossing the surface, armed past
    # the swing apex and forced at the schedule boundary
    height = swing_z - cfg.foot_radius
    crossed = detect_touchdown(ws.prev_swing_height, height, cfg.terrain.sand_level)
    if phase >= 1.0 or (phase > 0.5 and crossed):
        return _jump(ws, cfg)
    ws.prev_swing_height = height
    return ws


def initial_state(cfg: SimConfig) -> WalkerState:
    """On-reference starting state at the beginning of a left stance."""
    surface = cfg.terrain.sand_level
    ws = WalkerState(c0=(0.0, surface),
                     liftoff=(-cfg.gait.step_length, surface + cfg.foot_radius))
    ws.r_latch = _clamp_chord(cfg, cfg.gait.hip_height - cfg.foot_radius)

    q, dq = _model_refs(ws, cfg, 0.0)

    rng, a = random.Random(cfg.seed), cfg.initial_jitter
    q = [q[j] + rng.uniform(-a, a) for j in range(4)] + [q[4]]

    ws.y = [*q, 0.0, 0.0, 0.0, 0.0, *dq] + [0.0] * 4
    ws.theta_r0 = rl.orientation_angle(cfg._sole, _contact(cfg, ws.y[1], ws.t))
    return ws


def run(cfg: SimConfig, writer: TrajectoryWriter | None = None) -> Trajectory:
    """Simulate for the configured duration; deterministic given the config.
    Every ``_BLOCK`` steps, and after the last, ``writer`` is fed the rows
    logged since it was last fed."""
    ws = initial_state(cfg)
    # the last step of each decimation block writes the block's row; the
    # trailing steps of an incomplete block write none
    n_steps, k = cfg.steps, cfg.decimation
    check_memory(n_steps, n_steps // k)  # a dt far too small fails before the first step
    stage = _StageTerms()
    data, samples = array("d"), array("d")
    fed = 0
    for start in range(0, n_steps, _BLOCK):
        for i in range(start, min(start + _BLOCK, n_steps)):
            ws = _advance(ws, cfg, data if i % k == k - 1 else None, stage, samples)
        if writer is not None and len(data) > fed:
            writer.feed(data[fed:])
            fed = len(data)
    meta = {
        "dt": cfg.dt,
        "duration": cfg.duration,
        "integrator": cfg.integrator,
        "terrain_mode": cfg.terrain_mode,
        "decimation": cfg.decimation,
        "seed": cfg.seed,
        "v_target": cfg.gait.v_target,
        "h_com": cfg.h_com,
        "robot_weight": cfg.sagittal.total_mass * cfg.sagittal.g,
        "cycle_period": cfg.gait.cycle_period,
        "stance_duration": cfg.gait.stance_duration,
    }
    return Trajectory(data, meta, samples)
