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
rigid mode clamps the intrusion coordinates and reads the required
constraint forces back off those rows.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import mul

import numpy as np

from . import dynamics as dyn
from . import gait as gt
from . import rolling as rl
from . import terrain as tr
from .trajectory import (_BLOCK, _LEG_NAMES, SIM_RECORD_FIELDS, STEP_FIELDS, Trajectory,
                         TrajectoryWriter)

__all__ = [
    "SimConfig",
    "derived_frontal",
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
        self.detail = detail


@dataclass(frozen=True)
class SimConfig:
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
    gait: gt.GaitConfig = field(default_factory=gt.GaitConfig)
    terrain: tr.TerrainParams = field(default_factory=tr.TerrainParams)
    sagittal: dyn.SagittalParams = field(default_factory=dyn.SagittalParams)
    frontal: dyn.FrontalParams | None = None  # None: derived from sagittal
    gains: gt.Gains = field(default_factory=gt.Gains)

    def __post_init__(self) -> None:
        dyn.check_ranges(self, ("dt", "foot_radius", "h_com", "r_eff_cap"),
                         ("initial_jitter", "seed"), bounded=("duration",))
        if self.frontal is None:
            frontal = derived_frontal(self.sagittal, self.foot_radius)
            object.__setattr__(self, "frontal", frontal)
        if not self.duration >= self.gait.cycle_period:
            raise ValueError("duration must cover at least one gait cycle")
        if self.integrator not in ("semi_implicit", "rk4"):
            raise ValueError(f"unknown integrator '{self.integrator}'")
        if self.terrain_mode not in ("granular", "rigid"):
            raise ValueError(f"unknown terrain mode '{self.terrain_mode}'")
        if self.decimation < 1:
            raise ValueError("decimation must be >= 1")

    @cached_property
    def _links(self):
        """The sagittal lengths and masses that ``_chain`` reads: l_t, l_c,
        l_b, a_1, a_2, m_b, m_t, m_c and the total mass."""
        p = self.sagittal
        return p.l_t, p.l_c, p.l_b, p.a_1, p.a_2, p.m_b, p.m_t, p.m_c, p.total_mass

    @cached_property
    def _sole(self) -> rl.FootShape:
        """The stance foot's semicylindrical sole."""
        return rl.FootShape.semicylinder(self.foot_radius)

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


def derived_frontal(
    sagittal: dyn.SagittalParams, foot_radius: float, **overrides
) -> dyn.FrontalParams:
    """Frontal-plane parameters of the same robot: each leg weighs m_t + m_c,
    the stance leg reaches l_t + l_c + foot_radius with its CoM at mid-leg.
    ``overrides`` replace individual derived values."""
    leg_mass = sagittal.m_t + sagittal.m_c
    leg_length = sagittal.l_t + sagittal.l_c
    derived = dict(m_b=sagittal.m_b, m_1=leg_mass, m_2=leg_mass,
                   l_1=leg_length + foot_radius, d_1=0.5 * leg_length, g=sagittal.g)
    return dyn.FrontalParams(**{**derived, **overrides})


@dataclass
class WalkerState:
    """Full simulation state; a step rebinds its fields, never writing into
    ``y``.  ``y`` is the stacked state as 24 floats: the sagittal
    coordinates q_s at 0-6, the frontal q_f at 7-11, then their rates dq_s
    at 12-18 and dq_f at 19-23.  The latches ``c0`` and ``liftoff`` are
    (x, z) float pairs."""

    t: float = 0.0
    stance: gt.Side = gt.Side.LEFT
    t_stance_start: float = 0.0
    step_count: int = 0
    c0: tuple[float, float] = (0.0, 0.0)
    theta_r0: float = 0.0
    liftoff: tuple[float, float] = (0.0, 0.0)
    prev_swing_height: float = float("inf")
    r_latch: float = 0.0        # stance leg chord latched at touchdown [m]
    y: list[float] = field(default_factory=lambda: [0.0] * 24)


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
    return swing_z, _chain(links, y[17], c1 * y[12], c2 * y[13], c3 * y[14], c4 * y[15],
                           c5 * y[16])[2]


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


_ACTUATION = gt.ACTUATION  # bound once: a step pays for one dict index
# the held frontal posture (lean, crossbar) and its hip actuator angles
_FRONTAL_POSTURE = (0.0, math.pi / 2.0)
_HIP_POSTURE = gt.frontal_to_hip_angles((*_FRONTAL_POSTURE, 0.0))


def _control(ws: WalkerState, cfg: SimConfig):
    """PD torques in actuation space (with the measured actuator rates) and
    their planar-model images."""
    pairs, (st_t, st_c, sw_t, sw_c), (i_st, i_sw) = _ACTUATION[ws.stance]
    refs, ref_rates = _model_refs(ws, cfg, ws.t)
    y = ws.y
    # the gathered x of gait.ACTUATION: the five sagittal angles, the
    # (stance, swing) hip angles and 0; the hip rates are -p1' + p2' and
    # -p2' + p3'
    x_ref = refs + _HIP_POSTURE + (0.0,)
    x_rate = ref_rates + (0.0, 0.0, 0.0)
    x = (*y[:5], *gt.frontal_to_hip_angles(y[7:10]), 0.0)
    x_v = (*y[12:17], -y[19] + y[20], -y[20] + y[21], 0.0)
    q_ref, dq_ref, q_a, dq_a = [], [], [], []
    for i, k in pairs:
        q_ref.append(x_ref[i] - x_ref[k])
        dq_ref.append(x_rate[i] - x_rate[k])
        q_a.append(x[i] - x[k])
        dq_a.append(x_v[i] - x_v[k])
    tau = gt.track_joints(q_ref, dq_ref, q_a, dq_a, cfg.gains)
    tau_s = [tau[st_t] - tau[st_c], tau[st_c], tau[sw_t] - tau[sw_c], tau[sw_c]]
    tau_f = gt.hip_torques_to_frontal(tau[i_st], tau[i_sw])
    return tau, dq_a, tau_s, tau_f


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


def _grf_granular(cfg: SimConfig, kin: tr.IntrusionKinematics, depth: float, dx: float,
                  dz: float, y_slip: float):
    """(f_x, f_z, f_y) of the resistive terrain at the stance contact; the
    force laws read the motion from ``kin``, which this overwrites."""
    # Smooth the wedge-face orientation switch across zero horizontal rate:
    # blend the forward- and backward-leading faces by the horizontal
    # fraction w = (1 + dx/hyp)/2, which removes the rest-state force
    # discontinuity.  The backward face mirrors the forward one (same f_z,
    # opposite f_x), so the blend is (f_x dx/hyp, f_z) of the forward face.
    hyp = math.hypot(dx, _DIRECTION_FLOOR)
    kin.depth, kin.gamma, kin.y_slip = depth, math.atan2(dz, hyp), y_slip
    fwd = tr.sagittal_forces(cfg.terrain, kin)
    return fwd.f_x * dx / hyp, fwd.f_z, tr.lateral_force(cfg.terrain, kin)


_FRONTAL_KEY = struct.Struct("6d").pack


class _StageTerms:
    """What the integrator stages of one run carry from one to the next.

    ``kin`` is the ``IntrusionKinematics`` that every granular stage refills
    for the terrain force laws.  The rest is what a stage derives from
    ``dyn.assemble_frontal``, kept for the last frontal configuration:
    ``terms``, the stage's entries (D22, D23, D24, D33, the bias -C dq - G
    of rows 2 and 3, then C dq and G of row 3), and ``held``, row 1 of D
    with C dq and G of row 1, for the holding torque.  The system depends
    only on the angles and rates q_f[:3], dq_f[:3], which hold still between
    touchdowns, so a stage reassembles it only when their bytes or the
    parameter object change.  The key is bytes, not floats: a touchdown
    flips p3 between 0.0 and -0.0, and 0.0 == -0.0.  Each row of C dq is
    summed in column order from +0.0 over the nonzero entries of C, which
    sit in columns 0-2.  One per run."""

    __slots__ = ("kin", "params", "key", "terms", "held")

    def __init__(self):
        self.kin = tr.IntrusionKinematics()
        self.params = self.key = self.terms = self.held = None

    def frontal(self, params: dyn.FrontalParams, y):
        """The frontal stage terms at the stacked state ``y`` (24 floats, the
        frontal angles at 7-9 and their rates at 19-21)."""
        key = _FRONTAL_KEY(y[7], y[8], y[9], y[19], y[20], y[21])
        if params is not self.params or key != self.key:
            diag, d, c, g = dyn.assemble_frontal(params, y[7:10], y[19:22])
            d01, _, _, _, d12, d13, d14, d23, d24 = d
            _, _, c10, c12, c20, c21, c30, c31, c32, _, _, _ = c
            v0, v1, v2 = y[19], y[20], y[21]
            cdq1 = 0.0 + c10 * v0 + c12 * v2
            cdq2 = 0.0 + c20 * v0 + c21 * v1
            cdq3 = 0.0 + c30 * v0 + c31 * v1 + c32 * v2
            self.params, self.key = params, key
            self.terms = (diag[2], d23, d24, diag[3], -cdq2 - g[2], -cdq3 - g[3], cdq3, g[3])
            self.held = d01, diag[1], d12, d13, d14, cdq1, g[1]
        return self.terms

    def holding_torque(self, qdd_f) -> float:
        """Crossbar row residual at the frontal accelerations ``qdd_f`` (5
        floats), under the last terms: the torque that holds the crossbar,
        summed in column order from +0.0, then C dq and G."""
        d10, d11, d12, d13, d14, cdq1, g1 = self.held
        a0, a1, a2, a3, a4 = qdd_f
        return 0.0 + d10 * a0 + d11 * a1 + d12 * a2 + d13 * a3 + d14 * a4 + cdq1 + g1


def _coriolis_rows(c, dq):
    """Rows 0, 1, 5 and 6 of the sagittal C dq from the C entries ``c`` of
    ``dyn.assemble_sagittal`` (rows 2 and 3 are zero, row 4 is held).
    Each row is summed in numpy's order from +0.0, which gives the bytes of
    numpy's ``C @ dq`` as long as dq[4] is +0.0: a row then has at most two
    nonzero products.  The trunk hold writes +0.0 there and the trunk
    acceleration is 0.0, so every integrator stage meets that."""
    c01, c10, c50, c60, c51, c61, c54, c64 = c
    v0, v1, v4 = dq[0], dq[1], dq[4]
    return (0.0 + c01 * v1, 0.0 + c10 * v0, 0.0 + c50 * v0 + c51 * v1 + c54 * v4,
            0.0 + c60 * v0 + c61 * v1 + c64 * v4)


def _accelerations(cfg: SimConfig, y, tau_s, tau_f, stage: _StageTerms):
    """Reduced constrained accelerations of the stacked state ``y``, as a
    list of 12, plus (f_x, f_y, f_z).  ``y`` is 24 floats: the 7 sagittal
    and 5 frontal coordinates, then their rates, with the trunk rate y[16]
    +0.0 (see ``_coriolis_rows``); ``stage`` is the run's ``_StageTerms``."""
    dq_s = y[12:17]  # the sagittal rates that the assembly reads
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
        f_x, f_z, f_y = _grf_granular(cfg, stage.kin, max(0.0, -y[6]), y[17], y[18], y[10])
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
    # lateral slip dynamic; the crossbar holding torque is left to the record
    d22, d23, d24, d33, b2, b3, cdq3, g3 = stage.frontal(cfg.frontal, y)
    rf2 = b2 + tau_f[1]
    if granular:
        # D34 is zero: lateral slip and sinkage are orthogonal translations
        p2, p3 = _solve2(d22, d23, d23, d33, rf2 - d24 * a6, b3 + f_y)
    else:
        p2, p3 = rf2 / d22, 0.0
        f_y = d23 * p2 + cdq3 + g3  # only row 2 accelerates
    # the frontal vertical coordinate shares the sagittal one
    return [a0, a1, a2, a3, 0.0, a5, a6, 0.0, 0.0, p2, p3, a6], f_x, f_y, f_z


def _ode_step(method: str, y: list, acc, dt: float) -> list:
    """One step of q'' = acc(y) on the stacked state y = (q, dq), a list of
    floats: symplectic Euler or classical RK4 on the rate f(y) = (dq,
    acc(y)), with ``acc`` returning a list.  Each entry meets the operations
    of the separate q and dq updates, in their order."""
    n = len(y) // 2
    if method == "semi_implicit":
        dq = [v + a * dt for v, a in zip(y[n:], acc(y))]
        return [x + v * dt for x, v in zip(y[:n], dq)] + dq
    if method != "rk4":
        raise ValueError(f"unknown integrator '{method}'")

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


def _flow(ws: WalkerState, cfg: SimConfig, logged: bool, stage: _StageTerms):
    """Control, one ODE step with the torques held, and the posture holds;
    rebinds ``ws.y`` to the post-step state.  Returns the control output,
    the stacked state at the control instant and the last evaluation: its
    stacked state and ``_accelerations``' output.  That is the step's start
    (rk4: its end, from a fifth evaluation that only a ``logged`` step
    makes; otherwise the last stage).  ``stage`` is the run's
    ``_StageTerms``."""
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

    y = _ode_step(cfg.integrator, start, acc, cfg.dt)
    if logged and cfg.integrator == "rk4":
        acc(y)
        y = y.copy()  # the holds below leave the evaluated state as it was
    # posture holds and mode clamps on (q_s, q_f, dq_s, dq_f) at offsets
    # (0, 7, 12, 19); the frontal vertical coordinate mirrors the sagittal one
    y[4], y[16] = cfg.gait.trunk_ref, 0.0
    y[7], y[8], y[19], y[20] = *_FRONTAL_POSTURE, 0.0, 0.0
    if cfg.terrain_mode == "rigid":
        y[5] = y[6] = y[17] = y[18] = y[10] = y[22] = 0.0
    y[11], y[23] = y[6], y[18]
    ws.t += cfg.dt
    ws.y = y
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


def _contact_angle(cfg: SimConfig, pitch: float, t: float) -> float:
    """Orientation angle theta_r of the stance-foot contact point at a calf
    pitch, checked as ``_contact`` checks it."""
    return rl.orientation_angle(cfg._sole, _contact(cfg, pitch, t))


def _powers(ws: WalkerState, control, start, last, stage: _StageTerms):
    """Joint powers in actuation space, their sum and each plane's net
    power, with the rates at the control instant, from the step's control
    output, its stacked state ``start`` at the control instant, its ``last``
    evaluation and the run's ``stage`` terms as that evaluation left them.
    Writes the reported hip torques, the crossbar holding demand plus the
    swing-side PD, into the control output's torques.

    The holding torque meets only the stance-hip and crossbar rates, which
    the posture holds keep at +-0.0, so an unlogged rk4 step, whose last
    evaluation is its fourth stage and not the fifth, gets the powers of a
    logged one to the bit."""
    tau_a, dq_a, tau_s, tau_f = control
    tau_bar = stage.holding_torque(last[1][7:])
    i_st, i_sw = _ACTUATION[ws.stance][2]
    tau_a[i_st], tau_a[i_sw] = gt.frontal_torques_to_hips(tau_bar, tau_f[1])
    joint_powers = list(map(mul, tau_a, dq_a))
    t0, t1, t2, t3 = tau_s
    return (joint_powers, math.fsum(joint_powers),
            math.fsum((t0 * start[12], t1 * start[13], t2 * start[14], t3 * start[15])),
            math.fsum((tau_bar * start[20], tau_f[1] * start[21])))


def _record(ws: WalkerState, cfg: SimConfig, tau_a, last, powers,
            contact, kinematics, phase: float, out) -> None:
    """Write the post-step record of ``ws`` into the row ``out``, from the
    step's actuator torques ``tau_a`` and ``powers`` as ``_powers`` gave
    them, its ``last`` evaluation and its contact point on the sole,
    kinematics and stance phase."""
    y, _, f_x, f_y, f_z = last
    gamma = rl.velocity_angle(y[17], y[18]) if cfg.terrain_mode == "granular" else 0.0

    s = ws.y
    # rolling bookkeeping on the stance foot
    theta_r = rl.orientation_angle(cfg._sole, contact)
    d_theta = rl.rolling_angle(ws.theta_r0, theta_r)
    try:
        r_eff = min(rl.effective_radius((s[17], s[18]), s[13]), cfg.r_eff_cap)
    except rl.NoRotationError:
        r_eff = cfg.r_eff_cap

    joint_powers, power, power_s, power_f = powers
    hip, _, com, _, _, com_v = kinematics
    out[:] = [  # SIM_RECORD_FIELDS order
        ws.t, _LEG_NAMES.index(ws.stance), phase, ws.step_count,
        *s[:5], *s[12:17],
        s[5], s[10], max(0.0, -s[6]), s[17], s[22], -s[18],
        *s[7:10], *s[19:22],
        *tau_a,
        f_x, f_y, f_z,
        theta_r, d_theta, gamma, r_eff,
        power, math.fsum(map(abs, joint_powers)), power_s, power_f,
        *com, *com_v, *hip,
    ]


def _jump(ws: WalkerState, cfg: SimConfig) -> WalkerState:
    """Touchdown jump map, pure in the pre-touchdown state ``ws``: the swing
    pair becomes the stance pair, the frontal coordinates mirror about the new
    stance hip, and the intrusion restarts under the swing foot, no higher than
    the surface and vertically at rest (the reset absorbs the contact transient)."""
    y, (c0_x, c0_z), r = ws.y, ws.c0, cfg.foot_radius
    _, swing, _, _, swing_v, _ = _kinematics(cfg, ws.c0, y[:7], y[12:19])
    slip_rate = swing_v[0] if cfg.terrain_mode == "granular" else 0.0  # landing skid
    c0 = (swing[0], min(swing[1] - r, cfg.terrain.sand_level))
    new = replace(
        ws, stance=ws.stance.other, t_stance_start=ws.t, step_count=ws.step_count + 1,
        c0=c0, liftoff=(c0_x + y[5], c0_z + y[6] + r),  # old stance-foot center
        prev_swing_height=float("inf"),
        y=[y[2], y[3], y[0], y[1], y[4], 0.0, 0.0,
           0.0, math.pi - y[8], -y[9], 0.0, 0.0,
           y[14], y[15], y[12], y[13], y[16], slip_rate, 0.0,
           0.0, -y[20], -y[21], 0.0, 0.0])
    new.theta_r0 = _contact_angle(cfg, new.y[1], new.t)
    # latch the stance chord at touchdown
    hip = _kinematics(cfg, c0, new.y[:7], new.y[12:19])[0]
    new.r_latch = _clamp_chord(cfg, math.hypot(hip[0] - c0[0], hip[1] - (c0[1] + r)))
    return new


_DIVERGENCE_LIMIT = 1e6  # largest |state entry| the step lets through


def _advance(ws: WalkerState, cfg: SimConfig, out: np.ndarray | None,
             stage: _StageTerms, samples: array) -> WalkerState:
    """One fixed step: flow, divergence guard, contact check, record into
    the row ``out``, the step's ``STEP_FIELDS`` appended to ``samples``,
    touchdown event and jump.  A step without a row (``out`` is None) skips
    the record, the contact angle, all but two axes of the kinematics and,
    under rk4, the end-of-step force evaluation; it makes every check,
    appends the same samples and takes the same event.  ``stage`` is the
    run's ``_StageTerms``.  Returns ``ws`` advanced or the jumped state."""
    control, start, last = _flow(ws, cfg, out is not None, stage)
    y = ws.y
    # divergence guard on the stacked state; NaN fails the comparison too
    for x in y:
        if not abs(x) <= _DIVERGENCE_LIMIT:
            raise DivergenceError(ws.t)
    contact = _contact(cfg, y[1], ws.t)  # a contact off the sole ends the run
    phase = _stance_phase(ws, cfg, ws.t)
    powers = _powers(ws, control, start, last, stage)
    if out is None:
        swing_z, com_vx = _swing_z_and_com_vx(cfg, ws.c0, y)
    else:
        kinematics = _kinematics(cfg, ws.c0, y[:7], y[12:19])
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

    rng = np.random.default_rng(cfg.seed)
    jitter = rng.uniform(-cfg.initial_jitter, cfg.initial_jitter, 4).tolist()
    q = [a + b for a, b in zip(q, jitter)] + [q[4]]

    ws.y = [*q, 0.0, 0.0, *_FRONTAL_POSTURE, 0.0, 0.0, 0.0, *dq, 0.0, 0.0] + [0.0] * 5
    ws.theta_r0 = _contact_angle(cfg, ws.y[1], ws.t)
    return ws


def run(cfg: SimConfig, writer: TrajectoryWriter | None = None) -> Trajectory:
    """Simulate for the configured duration; deterministic given the config.
    Every ``_BLOCK`` steps, and after the last, ``writer`` is fed the rows
    logged since it was last fed; the trajectory keeps it for ``save_csv``."""
    ws = initial_state(cfg)
    n_steps = int(round(cfg.duration / cfg.dt))
    # the last step of each decimation block writes the block's row; the
    # trailing steps of an incomplete block write none
    k = cfg.decimation
    data = np.empty((n_steps // k, len(SIM_RECORD_FIELDS)))
    stage = _StageTerms()
    samples = array("d")
    fed = 0
    for start in range(0, n_steps, _BLOCK):
        stop = min(start + _BLOCK, n_steps)
        for i in range(start, stop):
            ws = _advance(ws, cfg, data[i // k] if i % k == k - 1 else None, stage, samples)
        if writer is not None and stop // k > fed:
            writer.feed(data[fed:stop // k])
            fed = stop // k
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
    return Trajectory(data, meta, np.frombuffer(samples).reshape(n_steps, len(STEP_FIELDS)),
                      writer)
