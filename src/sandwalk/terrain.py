"""Granular ground reaction forces and terrain parameter calibration.

Local stresses follow the granular resistive-force description: a surface
element's stress per unit depth depends only on the element attack angle
beta and the motion direction gamma, not on speed.  The stress magnitudes
come from the standard generic Fourier coefficient table (normalized so a
horizontal element penetrating straight down sees 1 N/cm^3), rescaled by a
media stiffness multiplier and the calibrated scaling factor zeta.

Sagittal forces integrate the stress over the triangular solidification
wedge bounded by the internal friction angle, giving the quadratic depth
law F = alpha/(2 tan phi_s) * W * z^2.  The lateral force is the bulldozing
resistance, saturating with accumulated lateral displacement over the
length scale lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from operator import mul

from .dynamics import check_ranges

__all__ = [
    "TerrainParams",
    "PenetrationRecord",
    "CalibrationResult",
    "CalibrationError",
    "local_stress",
    "sagittal_forces",
    "lateral_force",
    "bulldozing_stress",
    "calibrate",
]

# N/cm^3 -> N/m^3
_STRESS_UNIT = 1.0e6


# Fourier coefficients of the direction-dependent local stresses, in N/cm^3
# of the reference medium: the vertical stress series uses the A (cosine)
# and B (sine) terms, the horizontal series the C (cosine) and D (sine)
# terms, all over the harmonics (m, n) in {(0,0), (1,0), (0,1), (1,1),
# (-1,1)} of (2 m beta + n gamma).
_A00, _A10, _B01, _B11, _BM11 = 0.206, 0.169, 0.358, 0.212, 0.055
_C01, _C11, _CM11, _D10 = 0.253, -0.124, 0.007, 0.088


@dataclass(frozen=True)
class TerrainParams:
    """Granular media description."""

    phi_s_deg: float = 38.0            # internal friction angle [deg]
    zeta: float = 1.36                 # calibrated local-stress scaling factor
    lam: float = 0.03                  # bulldozing saturation length [m]
    width: float = 0.05                # foot width [m]
    sand_level: float = 0.0            # surface height [m]
    alpha_scale: float = 8.0           # media stiffness relative to the generic table

    def __post_init__(self) -> None:
        check_ranges(self, ("zeta", "lam", "width", "alpha_scale"), bounded=("phi_s_deg",))
        if not 0.0 < self.phi_s_deg < 90.0:
            raise ValueError("phi_s_deg must lie in (0, 90)")
        if not math.isfinite(self.sand_level):
            raise ValueError("sand_level must be finite")

    @cached_property
    def phi_s(self) -> float:
        """The internal friction angle in radians."""
        return math.radians(self.phi_s_deg)

    @cached_property
    def _wedge(self) -> tuple[float, float, float, float, float]:
        """Per-terrain constants of the wedge law (see ``sagittal_forces``):
        2 phi_s with its cosine and sine, the stress factor zeta *
        alpha_scale * 1e6 and the wedge denominator 2 tan phi_s."""
        two_phi = 2 * self.phi_s
        return (two_phi, math.cos(two_phi), math.sin(two_phi),
                self.zeta * self.alpha_scale * _STRESS_UNIT, 2.0 * math.tan(self.phi_s))


@dataclass(frozen=True)
class PenetrationRecord:
    """One plate penetration measurement."""

    displacement: float  # depth [m] (vertical test) or travel [m] (horizontal)
    force: float         # [N]


@dataclass(frozen=True)
class CalibrationResult:
    zeta: float
    lam: float
    residual_vertical: float
    residual_horizontal: float


class CalibrationError(ValueError):
    """Raised for degenerate or insufficient penetration data."""


def local_stress(
    beta: float,
    gamma: float,
    zeta: float,
    scale: float = 1.0,
) -> tuple[float, float]:
    """Local stresses per unit depth (alpha_x, alpha_z) in N/m^3.

    ``beta`` is the element attack angle, ``gamma`` the motion direction
    angle with the vertical component measured upward (sinking motion has
    gamma < 0).  A NaN gamma marks an undefined motion direction: the
    tangential stress is zero and the normal stress takes the static
    bearing value of straight-down penetration.  Horizontal motion
    reversal mirrors the element, flipping the sign of alpha_x.
    """
    k = zeta * scale * _STRESS_UNIT
    if math.isnan(gamma):
        g_pen = math.pi / 2  # static bearing at the penetration branch
        return 0.0, _stresses(k, 2 * beta, math.cos(2 * beta), math.sin(2 * beta), g_pen)[1]
    vx = math.cos(gamma)
    vz = math.sin(gamma)  # upward component
    sign = 1.0
    if vx < 0.0:
        vx = -vx
        beta = -beta
        sign = -1.0
    g_pen = math.atan2(-vz, vx)  # positive when moving into the media
    a_x, a_z = _stresses(k, 2 * beta, math.cos(2 * beta), math.sin(2 * beta), g_pen)
    return sign * a_x, a_z


def _stresses(k: float, two_beta: float, cos_2b: float, sin_2b: float,
              g: float) -> tuple[float, float]:
    """(k alpha_x, k alpha_z) of the generic Fourier series at the attack
    angle beta, given as 2 beta with its cosine and sine, and at the
    penetration angle ``g``."""
    a_x = (_D10 * sin_2b + _C01 * math.cos(g) + _C11 * math.cos(two_beta + g)
           + _CM11 * math.cos(-two_beta + g))
    a_z = (_A00 + _A10 * cos_2b + _B01 * math.sin(g) + _B11 * math.sin(two_beta + g)
           + _BM11 * math.sin(-two_beta + g))
    return k * a_x, k * a_z


def sagittal_forces(terrain: TerrainParams, depth: float, gamma: float) -> tuple[float, float]:
    """Sagittal ground reaction force (F_x, F_z) [N] on the stance foot at
    the sinkage ``depth`` below the initial contact (positive down) and the
    sagittal velocity direction ``gamma`` = atan2(dz_up, dx), NaN for an
    undefined direction.

    F_j = zeta * alpha_j(phi_s, gamma) * W * z^2 / (2 tan phi_s): the wedge
    face sits at the internal friction angle phi_s.  Zero depth
    gives zero force; the horizontal component opposes the slip direction
    and the vertical component opposes penetration (it turns tensile on the
    extraction branch).
    """
    if depth < 0.0:
        raise ValueError("sinkage depth must be non-negative")
    if depth == 0.0:
        return 0.0, 0.0
    two_phi, cos_2phi, sin_2phi, k, two_tan = terrain._wedge
    vx = math.cos(gamma)  # NaN for a NaN gamma
    vz = math.sin(gamma)
    sign = 1.0
    if vx < 0.0:
        # the wedge face rides the leading side of a symmetric foot, so fold
        # the motion into the positive-horizontal frame and sign the drag
        # afterwards
        sign = -1.0
        gamma = math.atan2(vz, -vx)
        vx, vz = math.cos(gamma), math.sin(gamma)
    if vx >= 0.0:
        a_x, a_z = _stresses(k, two_phi, cos_2phi, sin_2phi, math.atan2(-vz, vx))
    else:  # no direction: the static bearing of straight-down penetration
        a_x, a_z = 0.0, _stresses(k, two_phi, cos_2phi, sin_2phi, math.pi / 2)[1]
    geom = terrain.width * (depth ** 2 / two_tan)
    return -sign * a_x * geom, a_z * geom


def bulldozing_stress(terrain: TerrainParams) -> float:
    """Lateral stress per unit depth on the vertical foot side [N/m^3]."""
    a_x, _ = local_stress(math.pi / 2, 0.0, terrain.zeta, terrain.alpha_scale)
    return abs(a_x)


def lateral_force(terrain: TerrainParams, depth: float, y_slip: float) -> float:
    """Lateral bulldozing force F_y [N] at the sinkage ``depth``, opposing
    the accumulated signed lateral displacement ``y_slip``.

    F_y = lambda (1 - exp(-|y_s|/lambda)) * alpha_y * z^2/2, signed against
    the slip direction.  Zero when either the slip or the depth vanishes;
    strictly increasing and saturating in |y_s|.
    """
    if depth < 0.0:
        raise ValueError("sinkage depth must be non-negative")
    y = abs(y_slip)
    if y == 0.0 or depth == 0.0:
        return 0.0
    a_y = bulldozing_stress(terrain)
    g_z = 0.5 * depth ** 2
    magnitude = terrain.lam * (1.0 - math.exp(-y / terrain.lam)) * a_y * g_z
    return -math.copysign(magnitude, y_slip)


# ---------------------------------------------------------------------------
# calibration from plate penetration tests
# ---------------------------------------------------------------------------

def _vertical_model(terrain: TerrainParams, depths: list, plate_width: float) -> list[float]:
    """Plate force-depth law used for the vertical fit, at unit zeta."""
    _, a_z = local_stress(terrain.phi_s, -math.pi / 2, 1.0, terrain.alpha_scale)
    k = a_z * plate_width / (2.0 * math.tan(terrain.phi_s))
    return [k * (z * z) for z in depths]


def _dot(a, b) -> float:
    """The dot product of two float sequences, its sum exact before one rounding."""
    return math.fsum(map(mul, a, b))


def calibrate(
    vertical: list[PenetrationRecord],
    horizontal: list[PenetrationRecord],
    nominal: TerrainParams,
    plate_width: float | None = None,
    plate_depth: float = 0.02,
) -> CalibrationResult:
    """Least-squares fit of zeta and lambda from penetration test data.

    zeta comes from the vertical force-depth curve (linear least squares on
    the quadratic depth law); lambda from the horizontal force-displacement
    curve (1-D golden-section least squares on the saturating bulldozing
    law at the given side-plate depth).  Requires at least five strictly
    positive-displacement records per direction and non-degenerate forces.
    """
    width = nominal.width if plate_width is None else plate_width
    for name, value in (("plate_width", width), ("plate_depth", plate_depth)):
        if not (math.isfinite(value) and value > 0.0):
            raise CalibrationError(f"{name} must be finite and > 0, got {value!r}")
    if len(vertical) < 5 or len(horizontal) < 5:
        raise CalibrationError("need at least 5 records per direction")
    z = [float(r.displacement) for r in vertical]
    f_v = [float(r.force) for r in vertical]
    y = [float(r.displacement) for r in horizontal]
    f_h = [float(r.force) for r in horizontal]
    if any(d <= 0.0 for d in z + y):
        raise CalibrationError("displacements must be strictly positive")
    if not any(f != 0.0 for f in f_v) or not any(f != 0.0 for f in f_h):
        raise CalibrationError("all-zero forces cannot constrain the fit")

    basis = _vertical_model(nominal, z, width)
    denom = _dot(basis, basis)
    if denom <= 0.0:
        raise CalibrationError("degenerate vertical basis")
    zeta = _dot(basis, f_v) / denom
    if zeta <= 0.0:
        raise CalibrationError("vertical data imply a non-positive zeta")
    miss_v = [f - zeta * b for f, b in zip(f_v, basis)]
    res_v = math.sqrt(_dot(miss_v, miss_v))

    a_y = bulldozing_stress(replace(nominal, zeta=zeta))
    amp = a_y * 0.5 * plate_depth ** 2

    def sse(lam: float) -> float:
        miss = [lam * (1.0 - math.exp(-d / lam)) * amp - f for d, f in zip(y, f_h)]
        return _dot(miss, miss)

    lam = _golden_min(sse, 1e-5, 10.0)
    res_h = math.sqrt(sse(lam))
    return CalibrationResult(zeta=zeta, lam=lam, residual_vertical=res_v,
                             residual_horizontal=res_h)


def _golden_min(fun, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Golden-section minimum of a unimodal function, bracketed in log space."""
    # coarse log-spaced scan to bracket the minimum
    grid = [lo * (hi / lo) ** (k / 199) for k in range(200)]
    vals = [fun(g) for g in grid]
    i = min(range(len(vals)), key=vals.__getitem__)
    a = grid[max(0, i - 1)]
    b = grid[min(len(grid) - 1, i + 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol * max(1.0, abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)
