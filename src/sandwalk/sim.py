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

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from . import dynamics as dyn
from . import gait as gt
from . import rolling as rl
from . import terrain as tr

__all__ = [
    "SimConfig",
    "derived_frontal",
    "SimRecord",
    "Trajectory",
    "WalkerState",
    "DivergenceError",
    "detect_touchdown",
    "initial_state",
    "step",
    "run",
    "integrate_free",
]


class DivergenceError(RuntimeError):
    """State magnitude exceeded the divergence guard."""

    def __init__(self, t: float, detail: str = ""):
        super().__init__(f"simulation diverged at t={t:.6f} s {detail}".rstrip())
        self.t = t
        self.detail = detail

    def __reduce__(self):
        # rebuild from (t, detail), not from the message, across processes
        return type(self), (self.t, self.detail)


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
        # range checks are written so that NaN fails them
        for name in ("dt", "foot_radius", "h_com", "r_eff_cap"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        for name in ("initial_jitter", "seed"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative")
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


# record layout; order is the stable CSV column order
SIM_RECORD_FIELDS = [
    "t", "stance_leg", "stance_phase", "step_count",
    "q_s1", "q_s2", "q_s3", "q_s4", "q_s5",
    "dq_s1", "dq_s2", "dq_s3", "dq_s4", "dq_s5",
    "x_s", "y_s", "z_s", "dx_s", "dy_s", "dz_s",
    "q_f1", "q_f2", "q_f3", "dq_f1", "dq_f2", "dq_f3",
    "tau_a1", "tau_a2", "tau_a3", "tau_a4", "tau_a5", "tau_a6",
    "f_x", "f_y", "f_z",
    "theta_r", "delta_theta_r", "gamma", "r_eff",
    "power", "power_abs_joints", "power_s", "power_f",
    "com_x", "com_z", "com_vx", "com_vz", "hip_x", "hip_z",
]


# stance_leg is stored as an index into this tuple
_LEG_NAMES = ("left", "right")
_FIELD_INDEX = {name: i for i, name in enumerate(SIM_RECORD_FIELDS)}
_LEG = _FIELD_INDEX["stance_leg"]
_STEP = _FIELD_INDEX["step_count"]
_BLOCK = 256  # rows per block of trajectory file I/O

#: One trajectory row, with ``stance_leg`` as "left"/"right" and
#: ``step_count`` as int.  ``z_s`` is the sinkage depth and ``dz_s`` the
#: sinking rate, both positive down.
SimRecord = namedtuple("SimRecord", SIM_RECORD_FIELDS)


@dataclass(eq=False)
class Trajectory:
    """Logged records as one ``(n_records, len(SIM_RECORD_FIELDS))`` float64
    array; column j holds field ``SIM_RECORD_FIELDS[j]`` and ``stance_leg``
    holds 0 (left) or 1 (right)."""

    data: np.ndarray
    meta: dict

    def __post_init__(self) -> None:
        if self.data.ndim != 2 or self.data.shape[1] != len(SIM_RECORD_FIELDS):
            raise ValueError(f"trajectory data of shape {self.data.shape} is not "
                             f"(n_records, {len(SIM_RECORD_FIELDS)})")

    def __len__(self) -> int:
        return len(self.data)

    @property
    def records(self) -> list[SimRecord]:
        """Row view, built on demand.  NaN cells share one object, so rows of
        equal data compare equal (tuple equality tests identity first)."""
        rows = self._rows(np.isnan(self.data), math.nan)
        return [SimRecord._make(row) for row in rows]

    def _rows(self, mask=None, fill=None) -> list[list]:
        """Rows as lists of Python values, ``stance_leg`` as text and
        ``step_count`` as int; cells where ``mask`` holds become ``fill``."""
        rows = self.data.tolist()
        for row in rows:
            row[_LEG] = _LEG_NAMES[int(row[_LEG])]
            row[_STEP] = int(row[_STEP])
        if mask is not None:
            for i, j in zip(*np.nonzero(mask)):
                rows[i][j] = fill
        return rows

    def column(self, name: str) -> np.ndarray:
        """Read-only view of one numeric field."""
        if name == "stance_leg":
            raise KeyError("stance_leg is not numeric")
        if name not in _FIELD_INDEX:
            raise KeyError(f"unknown trajectory field '{name}'")
        col = self.data[:, _FIELD_INDEX[name]]
        col.flags.writeable = False
        return col

    def _blocks(self, mask=None, fill=None):
        """(first row, ``_rows`` of the block) per block of rows, so that file
        I/O never holds the whole trajectory as Python objects."""
        for i in range(0, len(self), _BLOCK):
            block = Trajectory(self.data[i:i + _BLOCK], {})
            yield i, block._rows(None if mask is None else mask[i:i + _BLOCK], fill)

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(SIM_RECORD_FIELDS) + "\n")
            # str of a Python float is its shortest round-trip repr
            for _, rows in self._blocks():
                fh.writelines(",".join(map(str, row)) + "\n" for row in rows)

    def save_json(self, path) -> None:
        head = json.dumps({"meta": self.meta, "columns": SIM_RECORD_FIELDS})
        # strict JSON has no NaN; dumps runs the C encoder (dump streams
        # through the slower Python one)
        with open(path, "w") as fh:
            fh.write(head[:-1] + ', "records": [')
            for i, rows in self._blocks(~np.isfinite(self.data), None):
                fh.write((", " if i else "") + json.dumps(rows)[1:-1])
            fh.write("]}")

    @classmethod
    def load_csv(cls, path) -> "Trajectory":
        blocks, rows = [], []
        with open(path, newline="") as fh:
            header = fh.readline().strip().split(",")
            if header != SIM_RECORD_FIELDS:
                raise ValueError(f"{path}: unexpected trajectory header")
            for lineno, line in enumerate(fh, start=2):
                parts = line.rstrip("\n").split(",")
                try:
                    if len(parts) != len(SIM_RECORD_FIELDS):
                        raise ValueError(f"{len(parts)} fields")
                    parts[_LEG] = _LEG_NAMES.index(parts[_LEG])
                    rows.append(list(map(float, parts)))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: malformed row ({exc})") from exc
                if len(rows) == _BLOCK:
                    blocks.append(np.array(rows))
                    rows = []
        blocks.append(np.array(rows).reshape(-1, len(SIM_RECORD_FIELDS)))
        return cls(data=np.concatenate(blocks), meta={"source": str(path)})


@dataclass
class WalkerState:
    """Full simulation state; a step rebinds its fields, never writing into its arrays."""

    t: float = 0.0
    stance: gt.Side = gt.Side.LEFT
    t_stance_start: float = 0.0
    step_count: int = 0
    c0: np.ndarray = field(default_factory=lambda: np.zeros(2))
    theta_r0: float = 0.0
    liftoff: np.ndarray = field(default_factory=lambda: np.zeros(2))
    prev_swing_height: float = float("inf")
    r_latch: float = 0.0        # stance leg chord latched at touchdown [m]
    q_s: np.ndarray = field(default_factory=lambda: np.zeros(7))
    dq_s: np.ndarray = field(default_factory=lambda: np.zeros(7))
    q_f: np.ndarray = field(default_factory=lambda: np.zeros(5))
    dq_f: np.ndarray = field(default_factory=lambda: np.zeros(5))


def detect_touchdown(prev_height: float, height: float, sand_level: float = 0.0) -> bool:
    """True when the swing-foot height crosses the surface downward."""
    return prev_height > sand_level >= height


# ---------------------------------------------------------------------------
# kinematics (world frame)
# ---------------------------------------------------------------------------

def _kinematics(ws: WalkerState, cfg: SimConfig):
    """Forward kinematics through the stance leg: the (x, z) positions of the
    hip, the swing-foot center and the whole-robot CoM, then their velocities.

    Each link angle a enters through its direction (sin a, cos a), and the
    positions are linear in these directions, so the velocities come from the
    same chain applied to the direction rates (cos a, -sin a) da."""
    p = cfg.sagittal
    total = p.m_b + 2.0 * p.m_t + 2.0 * p.m_c

    def chain(base, u):
        # one axis: base is the stance-foot center (or its rate), u[i] the
        # axis component of link i's direction (or its rate)
        hip = base + p.l_c * u[1] + p.l_t * u[0]
        swing = hip - p.l_t * u[2] - p.l_c * u[3]
        com = p.m_b * (hip + p.l_b * u[4])
        for thigh, calf in ((0, 1), (2, 3)):
            com += p.m_t * (hip - p.a_1 * u[thigh])
            com += p.m_c * (hip - p.l_t * u[thigh] - p.a_2 * u[calf])
        return hip, swing, com / total

    q, dq, c0 = ws.q_s.tolist(), ws.dq_s.tolist(), ws.c0.tolist()
    sin = [math.sin(a) for a in q[:5]]
    cos = [math.cos(a) for a in q[:5]]
    x = chain(c0[0] + q[5], sin)
    z = chain(c0[1] + q[6] + cfg.foot_radius, cos)
    vx = chain(dq[5], [c * w for c, w in zip(cos, dq)])
    vz = chain(dq[6], [-s * w for s, w in zip(sin, dq)])
    return (*zip(x, z), *zip(vx, vz))


def _ik_clamped(l_t: float, l_c: float, target, rate):
    """Leg IK with the target radius clamped into the reachable annulus:
    (thigh, calf) angles and their rates for a target moving at ``rate``."""
    dx, dz = target
    vx, vz = rate
    r = math.hypot(dx, dz)
    r_max = (l_t + l_c) * (1.0 - 1e-4)
    r_min = abs(l_t - l_c) * (1.0 + 1e-4) + 1e-6
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
    p = cfg.sagittal
    g = cfg.gait
    v = g.v_target
    t_half = g.stance_duration
    phase = _stance_phase(ws, cfg, t)
    dphase = 1.0 / t_half if 0.0 < phase < 1.0 else 0.0
    r_nom = _clamp_chord(cfg, g.hip_height - cfg.foot_radius)  # design vault chord
    line_x0 = -0.5 * g.step_length  # origin of the commanded-progress line
    line_x = line_x0 + v * t

    # stance leg: vault the hip along the line over the estimated contact
    u = min(phase / 0.6, 1.0)
    s_rec = u * u * (3.0 - 2.0 * u)  # C1 chord-recovery schedule
    r_ref = ws.r_latch + s_rec * (r_nom - ws.r_latch)
    dr_ref = 6.0 * u * (1.0 - u) / 0.6 * dphase * (r_nom - ws.r_latch)
    reach = 0.55 * r_ref
    dx = line_x - float(ws.c0[0] + ws.q_s[5])  # from the estimated contact
    ddx = v if -reach <= dx <= reach else math.copysign(0.55, dx) * dr_ref
    dx = min(max(dx, -reach), reach)
    rise = math.sqrt(r_ref ** 2 - dx ** 2)
    st_t, st_c, dst_t, dst_c = _ik_clamped(
        p.l_t, p.l_c, (-dx, -rise), (-ddx, (dx * ddx - r_ref * dr_ref) / rise))

    # swing leg: cycloid from the latched liftoff point to the landing target
    # (x, z), with the hip reference at (line_x, hip_z)
    land_x = line_x0 + v * (ws.t_stance_start + t_half) + 0.5 * g.step_length
    land_z = cfg.terrain.sand_level + cfg.foot_radius
    hip_z = land_z + r_nom
    lift_x, lift_z = ws.liftoff.tolist()
    travel = land_x - lift_x
    cx, cz = gt.cycloid_swing(phase, travel, g.swing_height)
    w = 2.0 * math.pi * phase
    blend = phase * phase * (3.0 - 2.0 * phase)  # C1 blend of endpoint heights
    dblend = 6.0 * phase * (1.0 - phase) * dphase
    sw_t, sw_c, dsw_t, dsw_c = _ik_clamped(
        p.l_t, p.l_c,
        (lift_x + cx - line_x, (1.0 - blend) * lift_z + blend * land_z + cz - hip_z),
        (travel * (1.0 - math.cos(w)) * dphase - v,
         dblend * (land_z - lift_z) + g.swing_height * math.pi * math.sin(w) * dphase))

    return (st_t, st_c, sw_t, sw_c, g.trunk_ref), (dst_t, dst_c, dsw_t, dsw_c, 0.0)


# Actuation maps of gait.sagittal_map_matrix and gait.frontal_to_hip_angles
# as tables per stance side: actuator j of q_a reads x[PLUS[j]] - x[MINUS[j]]
# of x = (stance thigh, stance calf, swing thigh, swing calf, trunk,
# stance hip, swing hip, 0).  The sagittal torques are the transpose of the
# thigh and calf rows, and the (stance, swing) hip rows read the hips.
_ACTUATION = {
    # PLUS, MINUS, (stance thigh, stance calf, swing thigh, swing calf), hips
    gt.Side.LEFT: (np.array([5, 0, 1, 6, 2, 3]), np.array([7, 4, 0, 7, 4, 2]),
                   (1, 2, 4, 5), (0, 3)),
    gt.Side.RIGHT: (np.array([6, 2, 3, 5, 0, 1]), np.array([7, 4, 2, 7, 4, 0]),
                    (4, 5, 1, 2), (3, 0)),
}
# the held frontal posture (lean, crossbar) and its hip actuator angles
_FRONTAL_POSTURE = (0.0, math.pi / 2.0)
_HIP_POSTURE = gt.frontal_to_hip_angles((*_FRONTAL_POSTURE, 0.0))


def _control(ws: WalkerState, cfg: SimConfig):
    """PD torques in actuation space (with the measured actuator rates) and
    their planar-model images."""
    plus, minus, (st_t, st_c, sw_t, sw_c), (i_st, i_sw) = _ACTUATION[ws.stance]
    refs, ref_rates = _model_refs(ws, cfg, ws.t)
    dp = ws.dq_f.tolist()  # hip angle rates: -p1' + p2' and -p2' + p3'
    x = np.array([
        [*refs, *_HIP_POSTURE, 0.0],
        [*ref_rates, 0.0, 0.0, 0.0],
        [*ws.q_s[:5].tolist(), *gt.frontal_to_hip_angles(ws.q_f), 0.0],
        [*ws.dq_s[:5].tolist(), -dp[0] + dp[1], -dp[1] + dp[2], 0.0],
    ])
    q_ref, dq_ref, q_a, dq_a = x.take(plus, axis=1) - x.take(minus, axis=1)
    tau_a = gt.track_joints(q_ref, dq_ref, q_a, dq_a, cfg.gains)
    tau = tau_a.tolist()
    tau_s = [tau[st_t] - tau[st_c], tau[st_c], tau[sw_t] - tau[sw_c], tau[sw_c]]
    tau_f = gt.hip_torques_to_frontal(tau[i_st], tau[i_sw])
    return tau, dq_a.tolist(), tau_s, tau_f


# ---------------------------------------------------------------------------
# dynamics right-hand side
# ---------------------------------------------------------------------------

# Reduced solves: held rows (sagittal trunk, frontal lean and crossbar),
# clamped rows (the contact coordinates on rigid ground) and the imposed
# frontal vertical row drop out; the sagittal swing rows 2 and 3 carry only
# their diagonal entry and divide out.  What stays coupled is sagittal rows
# (0, 1, 5, 6) on sand, a dense 4x4 solve, and two 2x2 blocks solved in
# closed form: sagittal rows (0, 1) on rigid ground, frontal rows (2, 3) on
# sand.
_SAG_ROWS = np.array([0, 1, 5, 6])
_SAG_BLOCK = np.ix_(_SAG_ROWS, _SAG_ROWS)


def _solve2(m: np.ndarray, r) -> tuple[float, float]:
    """Solution of the 2x2 system m x = r by Cramer's rule."""
    (a, b), (c, d) = m.tolist()
    r0, r1 = r
    det = a * d - b * c
    return (d * r0 - b * r1) / det, (a * r1 - c * r0) / det


_DIRECTION_FLOOR = 0.05  # m/s; regularizes the stress direction switch at rest


def _grf_granular(cfg: SimConfig, depth: float, dx: float, dz: float, y_slip: float):
    """(f_x, f_z, f_y, gamma) of the resistive terrain at the stance contact."""
    gamma = rl.velocity_angle(dx, dz)
    # Smooth the wedge-face orientation switch across zero horizontal rate:
    # blend the forward- and backward-leading faces by the horizontal
    # fraction w = (1 + dx/hyp)/2, which removes the rest-state force
    # discontinuity.  The backward face mirrors the forward one (same f_z,
    # opposite f_x), so the blend is (f_x dx/hyp, f_z) of the forward face.
    hyp = math.hypot(dx, _DIRECTION_FLOOR)
    kin = tr.IntrusionKinematics(depth=depth, gamma=math.atan2(dz, hyp), y_slip=y_slip)
    fwd = tr.sagittal_forces(cfg.terrain, kin)
    return fwd.f_x * dx / hyp, fwd.f_z, tr.lateral_force(cfg.terrain, kin), gamma


def _accelerations(cfg: SimConfig, q, dq, tau_s, tau_f):
    """Reduced constrained accelerations of the stacked state (7 sagittal
    then 5 frontal coordinates) plus (f_x, f_y, f_z, gamma, tau_bar)."""
    granular = cfg.terrain_mode == "granular"
    q_s, dq_s, q_f, dq_f = q[:7], dq[:7], q[7:], dq[7:]
    qdd = np.zeros(12)
    qdd_s, qdd_f = qdd[:7], qdd[7:]

    d_s, c_s, g_s = dyn.assemble_sagittal(cfg.sagittal, dyn.SagittalState.trusted(q_s, dq_s))
    cdq_s = c_s @ dq_s
    rhs_s = -cdq_s - g_s
    rhs_s[:4] += tau_s
    qdd_s[2:4] = rhs_s[2:4] / d_s.diagonal()[2:4]  # decoupled swing rows
    if granular:
        f_x, f_z, f_y, gamma = _grf_granular(
            cfg, max(0.0, -float(q_s[6])), *dq_s[5:7].tolist(), float(q_f[3]))
        rhs_s[5] += f_x
        rhs_s[6] += f_z
        qdd_s[_SAG_ROWS] = np.linalg.solve(d_s[_SAG_BLOCK], rhs_s[_SAG_ROWS])
    else:
        qdd_s[:2] = _solve2(d_s[:2, :2], rhs_s[:2].tolist())
        # constraint forces read back off the clamped contact rows
        f_x, f_z = (d_s[5:7] @ qdd_s + cdq_s[5:7] + g_s[5:7]).tolist()
        gamma = 0.0

    # frontal plane: lean and crossbar posture-held, swing-leg angle and
    # lateral slip dynamic; the crossbar row residual is the holding torque
    d_f, c_f, g_f = dyn.assemble_frontal(cfg.frontal, dyn.FrontalState.trusted(q_f, dq_f))
    cdq_f = c_f @ dq_f
    rhs_f = -cdq_f - g_f
    rhs_f[2] += tau_f[1]
    if granular:
        rhs_f[3] += f_y
        qdd_f[4] = qdd_s[6]
        qdd_f[2:4] = _solve2(d_f[2:4, 2:4], (rhs_f[2:4] - d_f[2:4, 4] * qdd_f[4]).tolist())
    else:
        qdd_f[2] = rhs_f[2] / d_f[2, 2]
        f_y = float(d_f[3] @ qdd_f + cdq_f[3] + g_f[3])
    # crossbar holding torque (reported as the hip-pair torque demand)
    tau_bar = float(d_f[1] @ qdd_f + cdq_f[1] + g_f[1])

    return qdd, f_x, f_y, f_z, gamma, tau_bar


def _ode_step(method: str, q: np.ndarray, dq: np.ndarray, acc, dt: float):
    """One step of q'' = acc(q, dq): symplectic Euler or classical RK4."""
    if method == "semi_implicit":
        dq = dq + acc(q, dq) * dt
        return q + dq * dt, dq
    if method != "rk4":
        raise ValueError(f"unknown integrator '{method}'")
    h = 0.5 * dt
    k1q, k1v = dq, acc(q, dq)
    k2q, k2v = dq + h * k1v, acc(q + h * k1q, dq + h * k1v)
    k3q, k3v = dq + h * k2v, acc(q + h * k2q, dq + h * k2v)
    k4q, k4v = dq + dt * k3v, acc(q + dt * k3q, dq + dt * k3v)
    return (
        q + dt / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q),
        dq + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v),
    )


def _flow(ws: WalkerState, cfg: SimConfig):
    """Control, one ODE step with the torques held, and the posture holds.
    Returns the control output, the rates at the control instant and
    (f_x, f_y, f_z, gamma, tau_bar) at the step's start (rk4: its end)."""
    control = _control(ws, cfg)
    # rates at the control instant, for consistent power accounting
    rates = ws.dq_s[:4].tolist(), ws.dq_f[1:3].tolist()
    forces = None

    def acc(q, dq):
        nonlocal forces
        # one check per stage: a sum of squares is finite only if every entry
        # is finite and below ~1e154, far past the divergence guard
        if not (math.isfinite(q.dot(q)) and math.isfinite(dq.dot(dq))):
            raise DivergenceError(ws.t, "(non-finite state in an integrator stage)")
        qdd, *forces = _accelerations(cfg, q, dq, *control[2:])  # tau_s, tau_f
        return qdd

    q, dq = _ode_step(cfg.integrator, np.concatenate((ws.q_s, ws.q_f)),
                      np.concatenate((ws.dq_s, ws.dq_f)), acc, cfg.dt)
    if cfg.integrator == "rk4":
        acc(q, dq)
    q_s, q_f, dq_s, dq_f = q[:7], q[7:], dq[:7], dq[7:]
    # posture holds and mode clamps; the frontal vertical coordinate mirrors
    # the sagittal one
    q_s[4], dq_s[4] = cfg.gait.trunk_ref, 0.0
    q_f[:2], dq_f[:2] = _FRONTAL_POSTURE, 0.0
    if cfg.terrain_mode == "rigid":
        q_s[5:7] = dq_s[5:7] = q_f[3] = dq_f[3] = 0.0
    q_f[4], dq_f[4] = q_s[6], dq_s[6]
    ws.t += cfg.dt
    ws.q_s, ws.dq_s, ws.q_f, ws.dq_f = q_s, dq_s, q_f, dq_f
    return control, rates, forces


def _contact_angle(ws: WalkerState, cfg: SimConfig) -> float:
    """Orientation angle theta_r of the stance-foot contact point; a contact
    that leaves the sole ends the run as a divergence."""
    shape = rl.FootShape.semicylinder(cfg.foot_radius)
    try:
        contact = rl.lowest_point(shape, float(ws.q_s[1]))
    except rl.ContactOutsideSoleError as exc:
        raise DivergenceError(ws.t, f"({exc})") from exc
    return rl.orientation_angle(shape, contact)


def _record(ws: WalkerState, cfg: SimConfig, control, rates, forces, out) -> tuple[float, float]:
    """Write the post-step record into the row ``out``; returns the stance
    phase and the swing-foot height, which the touchdown event reads."""
    tau_a, dq_a, tau_s, tau_f = control
    f_x, f_y, f_z, gamma, tau_bar = forces
    # reported hip torques: crossbar holding demand plus the swing-side PD
    i_st, i_sw = _ACTUATION[ws.stance][3]
    tau_a[i_st], tau_a[i_sw] = gt.frontal_torques_to_hips(tau_bar, tau_f[1])
    tau_f = (tau_bar, tau_f[1])

    q_s, dq_s, q_f, dq_f = (a.tolist() for a in (ws.q_s, ws.dq_s, ws.q_f, ws.dq_f))
    # rolling bookkeeping on the stance foot
    theta_r = _contact_angle(ws, cfg)
    d_theta = rl.rolling_angle(ws.theta_r0, theta_r)
    try:
        r_eff = min(rl.effective_radius((dq_s[5], dq_s[6]), dq_s[1]), cfg.r_eff_cap)
    except rl.NoRotationError:
        r_eff = cfg.r_eff_cap

    # powers in actuation space and per plane
    joint_powers = [t * w for t, w in zip(tau_a, dq_a)]
    power = math.fsum(joint_powers)
    power_abs = math.fsum(map(abs, joint_powers))
    power_s = math.fsum(t * w for t, w in zip(tau_s, rates[0]))
    power_f = math.fsum(t * w for t, w in zip(tau_f, rates[1]))

    hip, swing, com, _, _, com_v = _kinematics(ws, cfg)
    phase = _stance_phase(ws, cfg, ws.t)
    out[:] = [  # SIM_RECORD_FIELDS order
        ws.t, _LEG_NAMES.index(ws.stance.value), phase, ws.step_count,
        *q_s[:5], *dq_s[:5],
        q_s[5], q_f[3], max(0.0, -q_s[6]), dq_s[5], dq_f[3], -dq_s[6],
        *q_f[:3], *dq_f[:3],
        *tau_a,
        f_x, f_y, f_z,
        theta_r, d_theta, gamma, r_eff,
        power, power_abs, power_s, power_f,
        *com, *com_v, *hip,
    ]
    return phase, swing[1] - cfg.foot_radius


def _jump(ws: WalkerState, cfg: SimConfig) -> WalkerState:
    """Touchdown jump map, pure in the pre-touchdown state ``ws``: the swing
    pair becomes the stance pair, the frontal coordinates mirror about the new
    stance hip, and the intrusion restarts under the swing foot, no higher than
    the surface and vertically at rest (the reset absorbs the contact transient)."""
    _, swing, _, _, swing_v, _ = _kinematics(ws, cfg)
    q, dq, p, dp = ws.q_s, ws.dq_s, ws.q_f, ws.dq_f
    slip_rate = swing_v[0] if cfg.terrain_mode == "granular" else 0.0  # landing skid
    new = replace(
        ws, stance=ws.stance.other, t_stance_start=ws.t, step_count=ws.step_count + 1,
        c0=np.array([swing[0], min(swing[1] - cfg.foot_radius, cfg.terrain.sand_level)]),
        liftoff=ws.c0 + q[5:7] + (0.0, cfg.foot_radius),  # old stance-foot center
        prev_swing_height=float("inf"),
        q_s=np.array([q[2], q[3], q[0], q[1], q[4], 0.0, 0.0]),
        dq_s=np.array([dq[2], dq[3], dq[0], dq[1], dq[4], slip_rate, 0.0]),
        q_f=np.array([0.0, math.pi - p[1], -p[2], 0.0, 0.0]),
        dq_f=np.array([0.0, -dp[1], -dp[2], 0.0, 0.0]))
    new.theta_r0 = _contact_angle(new, cfg)
    # latch the stance chord at touchdown
    hip = np.array(_kinematics(new, cfg)[0])
    new.r_latch = _clamp_chord(cfg, float(np.linalg.norm(hip - (new.c0 + (0.0, cfg.foot_radius)))))
    return new


_DIVERGENCE_LIMIT = 1e6  # largest |state entry| the step lets through


def _advance(ws: WalkerState, cfg: SimConfig, out: np.ndarray) -> WalkerState:
    """One fixed step: flow, divergence guard, record into the row ``out``,
    touchdown event and jump.  Returns ``ws`` advanced or the jumped state."""
    signals = _flow(ws, cfg)
    # divergence guard; NaN fails the comparison too
    if not np.abs(np.concatenate([ws.q_s, ws.dq_s, ws.q_f, ws.dq_f])).max() <= _DIVERGENCE_LIMIT:
        raise DivergenceError(ws.t)
    phase, height = _record(ws, cfg, *signals, out)
    # touchdown event: the swing-foot height crossing the surface, armed past
    # the swing apex and forced at the schedule boundary
    crossed = detect_touchdown(ws.prev_swing_height, height, cfg.terrain.sand_level)
    if phase >= 1.0 or (phase > 0.5 and crossed):
        return _jump(ws, cfg)
    ws.prev_swing_height = height
    return ws


def step(ws: WalkerState, cfg: SimConfig):
    """Advance a copy of the state by one step; returns (state', record)."""
    row = np.empty((1, len(SIM_RECORD_FIELDS)))
    out = _advance(replace(ws), cfg, row[0])  # a shallow copy
    return out, Trajectory(row, {}).records[0]


def initial_state(cfg: SimConfig) -> WalkerState:
    """On-reference starting state at the beginning of a left stance."""
    surface = cfg.terrain.sand_level
    ws = WalkerState()
    ws.c0 = np.array([0.0, surface])
    ws.liftoff = np.array([-cfg.gait.step_length, surface + cfg.foot_radius])
    ws.q_f = np.array([*_FRONTAL_POSTURE, 0.0, 0.0, 0.0])
    ws.r_latch = _clamp_chord(cfg, cfg.gait.hip_height - cfg.foot_radius)

    ws.q_s[:5], ws.dq_s[:5] = _model_refs(ws, cfg, 0.0)

    rng = np.random.default_rng(cfg.seed)
    jitter = rng.uniform(-cfg.initial_jitter, cfg.initial_jitter, 4)
    ws.q_s[:4] += jitter

    ws.theta_r0 = _contact_angle(ws, cfg)
    return ws


def run(cfg: SimConfig) -> Trajectory:
    """Simulate for the configured duration; deterministic given the config."""
    ws = initial_state(cfg)
    n_steps = int(round(cfg.duration / cfg.dt))
    # every step writes its decimation block's row, so a row ends up holding
    # the block's last (logged) step; trailing steps of an incomplete block
    # go to a spare row that is dropped
    data = np.empty((n_steps // cfg.decimation + 1, len(SIM_RECORD_FIELDS)))
    for k in range(n_steps):
        ws = _advance(ws, cfg, data[k // cfg.decimation])
    meta = {
        "dt": cfg.dt,
        "duration": cfg.duration,
        "integrator": cfg.integrator,
        "terrain_mode": cfg.terrain_mode,
        "decimation": cfg.decimation,
        "seed": cfg.seed,
        "v_target": cfg.gait.v_target,
        "h_com": cfg.h_com,
        "robot_weight": (
            (cfg.sagittal.m_b + 2 * cfg.sagittal.m_t + 2 * cfg.sagittal.m_c)
            * cfg.sagittal.g
        ),
        "cycle_period": cfg.gait.cycle_period,
        "stance_duration": cfg.gait.stance_duration,
    }
    return Trajectory(data[: n_steps // cfg.decimation], meta)


def integrate_free(
    params: dyn.SagittalParams,
    q0: np.ndarray,
    dq0: np.ndarray,
    dt: float,
    n_steps: int,
    method: str = "rk4",
):
    """Ballistic sub-case: zero torque, zero contact force, full 7-DoF flight.

    Returns the final (q, dq).  Used for energy-conservation verification.
    """
    zero_tau = np.zeros(4)
    no_force = dyn.GrfSagittal()

    def acc(q, dq):
        return dyn.sagittal_accel(params, dyn.SagittalState(q, dq), zero_tau, no_force)

    q = np.array(q0, dtype=float)
    dq = np.array(dq0, dtype=float)
    for _ in range(n_steps):
        q, dq = _ode_step(method, q, dq, acc, dt)
    return q, dq
