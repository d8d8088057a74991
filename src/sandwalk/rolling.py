"""Rolling-contact kinematics of a convex stance-foot sole.

The sole contour is z_r = S(x_r) in the foot-local frame, downward-opening
(S convex, minimum at the sole's lowest point when the foot is level).  For
a foot pitched by an angle ``pitch`` the instantaneous contact is the
contour point whose world tangent is horizontal, S'(x_r) = tan(pitch); the
foot orientation angle at a contact point is theta_r = atan(S'(x_r)).
"""

from __future__ import annotations

import csv
import math

import numpy as np

__all__ = [
    "FootShape",
    "ContactOutsideSoleError",
    "NoRotationError",
    "GAMMA_UNDEFINED",
    "lowest_point",
    "orientation_angle",
    "rolling_angle",
    "velocity_angle",
    "effective_radius",
]

#: Flag value for an undefined motion direction (intrusion speed below the
#: threshold); force code maps it to zero tangential stress.
GAMMA_UNDEFINED = float("nan")


class ContactOutsideSoleError(ValueError):
    """The lowest point fell on the contour boundary (contact left the sole)."""


class NoRotationError(ValueError):
    """Pitch rate below the rotation threshold; effective radius unbounded."""


class FootShape:
    """Convex sole contour with a twice-differentiable parameterization."""

    def __init__(self, value, slope, x_min: float, x_max: float, kind: str):
        self._value = value
        self._slope = slope
        self.x_min = float(x_min)
        self.x_max = float(x_max)
        self.kind = kind

    def value(self, x: float) -> float:
        return float(self._value(x))

    def slope(self, x: float) -> float:
        return float(self._slope(x))

    @classmethod
    def semicylinder(cls, radius: float) -> "FootShape":
        """Circular sole of the given radius, apex at the origin."""
        if radius <= 0.0:
            raise ValueError("radius must be strictly positive")
        r = float(radius)

        def val(x):
            return r - math.sqrt(max(r * r - x * x, 0.0))

        def slp(x):
            return x / math.sqrt(max(r * r - x * x, 1e-300))

        shape = cls(val, slp, -r, r, "semicylinder")
        shape.radius = r
        return shape

    @classmethod
    def from_table(cls, x: np.ndarray, z: np.ndarray) -> "FootShape":
        """Smooth interpolant through tabulated contour samples.

        Needs at least 16 strictly increasing x samples; the natural cubic
        spline through them must stay convex (non-negative curvature).
        """
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        if x.ndim != 1 or x.shape != z.shape or x.size < 16:
            raise ValueError("need at least 16 contour samples of equal length")
        if np.any(np.diff(x) <= 0.0):
            raise ValueError("contour x samples must be strictly increasing")
        m = _natural_spline_moments(x, z)
        if np.any(m < -1e-9):
            raise ValueError("contour interpolant is not convex")

        def val(xq):
            return _spline_eval(x, z, m, xq)[0]

        def slp(xq):
            return _spline_eval(x, z, m, xq)[1]

        return cls(val, slp, x[0], x[-1], "tabulated")

    @classmethod
    def from_csv(cls, path) -> "FootShape":
        """Read a tabulated contour with header ``x_r_m,z_r_m``."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["x_r_m", "z_r_m"]:
                raise ValueError(f"{path}: expected header 'x_r_m,z_r_m'")
            xs, zs = [], []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    xs.append(float(row[0]))
                    zs.append(float(row[1]))
                except (IndexError, ValueError) as exc:
                    raise ValueError(f"{path}:{lineno}: malformed contour row") from exc
        return cls.from_table(np.array(xs), np.array(zs))


def _natural_spline_moments(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Second derivatives of the natural cubic spline at the knots."""
    n = x.size
    h = np.diff(x)
    rhs = np.zeros(n)
    rhs[1:-1] = 6.0 * ((y[2:] - y[1:-1]) / h[1:] - (y[1:-1] - y[:-2]) / h[:-1])
    # tridiagonal solve (Thomas algorithm), natural boundary moments = 0
    a = np.zeros(n)
    b = np.ones(n)
    c = np.zeros(n)
    a[1:-1] = h[:-1]
    b[1:-1] = 2.0 * (h[:-1] + h[1:])
    c[1:-1] = h[1:]
    cp = np.zeros(n)
    dp = np.zeros(n)
    cp[0] = c[0] / b[0]
    dp[0] = rhs[0] / b[0]
    for i in range(1, n):
        den = b[i] - a[i] * cp[i - 1]
        cp[i] = c[i] / den
        dp[i] = (rhs[i] - a[i] * dp[i - 1]) / den
    m = np.zeros(n)
    m[-1] = dp[-1]
    for i in range(n - 2, -1, -1):
        m[i] = dp[i] - cp[i] * m[i + 1]
    return m


def _spline_eval(x: np.ndarray, y: np.ndarray, m: np.ndarray, xq: float):
    i = int(np.clip(np.searchsorted(x, xq) - 1, 0, x.size - 2))
    h = x[i + 1] - x[i]
    t = xq - x[i]
    u = x[i + 1] - xq
    val = (
        m[i] * u ** 3 / (6 * h)
        + m[i + 1] * t ** 3 / (6 * h)
        + (y[i] / h - m[i] * h / 6) * u
        + (y[i + 1] / h - m[i + 1] * h / 6) * t
    )
    der = (
        -m[i] * u ** 2 / (2 * h)
        + m[i + 1] * t ** 2 / (2 * h)
        + (y[i + 1] - y[i]) / h
        - (m[i + 1] - m[i]) * h / 6
    )
    return float(val), float(der)


def lowest_point(shape: FootShape, foot_pitch: float, tol: float = 1e-10):
    """Contour point (x_r, z_r) lowest in the world frame for a pitched foot.

    Solved by bisection on the world-tangent-horizontal condition
    S'(x_r) = tan(pitch); unique for a convex contour.  Raises
    ContactOutsideSoleError when the solution sits on the contour boundary
    or the pitch leaves the representable range.
    """
    if abs(foot_pitch) >= math.pi / 2:
        raise ContactOutsideSoleError(
            f"pitch {foot_pitch:.4f} rad puts the contact off the curved sole"
        )
    target = math.tan(foot_pitch)
    eps = 1e-12 * max(1.0, shape.x_max - shape.x_min)
    lo = shape.x_min + eps
    hi = shape.x_max - eps
    f_lo = shape.slope(lo) - target
    f_hi = shape.slope(hi) - target
    if f_lo > 0.0 or f_hi < 0.0:
        raise ContactOutsideSoleError(
            f"contact for pitch {foot_pitch:.4f} rad leaves the curved sole"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if shape.slope(mid) - target <= 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    return x, shape.value(x)


def orientation_angle(shape: FootShape, contact: tuple[float, float]) -> float:
    """Foot orientation angle theta_r = atan(S'(x_r)) at a contact point."""
    x = contact[0]
    if not shape.x_min < x < shape.x_max:
        raise ContactOutsideSoleError("contact point outside the contour interior")
    return math.atan(shape.slope(x))


def rolling_angle(theta_r0: float, theta_r1: float) -> float:
    """Rolling angle accumulated since stance start, theta_r1 - theta_r0."""
    return theta_r1 - theta_r0


def velocity_angle(dx: float, dz: float, eps: float = 1e-6) -> float:
    """Direction angle gamma = atan2(dz, dx) of the intrusion velocity.

    ``dz`` is the upward rate of the contact coordinate.  Below the speed
    threshold the direction is undefined and GAMMA_UNDEFINED (NaN) is
    returned.
    """
    if math.hypot(dx, dz) < eps:
        return GAMMA_UNDEFINED
    return math.atan2(dz, dx)


def effective_radius(v: tuple[float, float], dtheta_r: float, eps: float = 1e-4) -> float:
    """Effective rolling radius, contact speed over foot pitch rate.

    Raises NoRotationError when |dtheta_r| < eps (pure translation).
    """
    if abs(dtheta_r) < eps:
        raise NoRotationError(f"pitch rate {dtheta_r:.2e} rad/s below threshold")
    return math.hypot(v[0], v[1]) / abs(dtheta_r)
