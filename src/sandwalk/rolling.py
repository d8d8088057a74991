"""Rolling-contact kinematics of the semicylindrical stance-foot sole.

The sole is a circle of radius r whose lowest point, with the foot level,
is the origin of the foot-local frame: z_r = S(x_r) = r - sqrt(r^2 - x_r^2)
on -r < x_r < r.  For a foot pitched by ``pitch`` the contact is the sole
point whose world tangent is horizontal, S'(x_r) = tan(pitch), which has
the closed form x_r = r sin(pitch).  The foot orientation angle at a
contact point is theta_r = atan(S'(x_r)), equal to the pitch.
"""

from __future__ import annotations

import math

from .dynamics import check_ranges

__all__ = [
    "FootShape",
    "ContactOutsideSoleError",
    "GAMMA_UNDEFINED",
    "lowest_point",
    "orientation_angle",
    "velocity_angle",
    "effective_radius",
]

#: Flag value for an undefined motion direction (intrusion speed below the
#: threshold); force code maps it to zero tangential stress.
GAMMA_UNDEFINED = float("nan")


class ContactOutsideSoleError(ValueError):
    """The contact reached the rim of the sole (contact left the sole)."""


class FootShape:
    """Semicylindrical sole of a given radius, apex at the origin."""

    def __init__(self, radius: float):
        self.radius = float(radius)
        check_ranges(self, ("radius",))

    def value(self, x: float) -> float:
        """Sole height z_r = S(x_r) above the apex."""
        r = self.radius
        return r - math.sqrt(max(r * r - x * x, 0.0))

    def slope(self, x: float) -> float:
        """Sole slope S'(x_r)."""
        r = self.radius
        return x / math.sqrt(max(r * r - x * x, 1e-300))


def lowest_point(shape: FootShape, foot_pitch: float):
    """Sole point (x_r, z_r) lowest in the world frame for a pitched foot:
    x_r = r sin(pitch), z_r = r - sqrt(r^2 - x_r^2).

    Raises ContactOutsideSoleError unless |pitch| < pi/2 and the contact
    lies strictly inside the sole (r^2 - x_r^2 > 0), which also rejects
    pitches so close to pi/2 that the contact rounds onto the rim.
    """
    r = shape.radius
    x = r * math.sin(foot_pitch)
    if not (abs(foot_pitch) < math.pi / 2 and r * r - x * x > 0.0):
        raise ContactOutsideSoleError(
            f"pitch {foot_pitch:.4f} rad puts the contact off the curved sole"
        )
    return x, shape.value(x)


def orientation_angle(shape: FootShape, contact: tuple[float, float]) -> float:
    """Foot orientation angle theta_r = atan(S'(x_r)) at a contact point."""
    x, r = contact[0], shape.radius
    if not -r < x < r:
        raise ContactOutsideSoleError("contact point outside the sole interior")
    return math.atan(shape.slope(x))


def velocity_angle(dx: float, dz: float) -> float:
    """Direction angle gamma = atan2(dz, dx) of the intrusion velocity.

    ``dz`` is the upward rate of the contact coordinate.  Below the speed
    threshold of 1e-6 m/s the direction is undefined and GAMMA_UNDEFINED
    (NaN) is returned.
    """
    if math.hypot(dx, dz) < 1e-6:
        return GAMMA_UNDEFINED
    return math.atan2(dz, dx)


def effective_radius(v: tuple[float, float], dtheta_r: float) -> float:
    """Effective rolling radius, contact speed over foot pitch rate.

    Below the rotation threshold |dtheta_r| < 1e-4 rad/s (pure translation
    or a still foot) it is ``math.inf``, the limit of |v| / |dtheta_r|.
    """
    if abs(dtheta_r) < 1e-4:
        return math.inf
    return math.hypot(v[0], v[1]) / abs(dtheta_r)
