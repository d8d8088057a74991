"""Planar single-stance dynamics of a biped with foot slip and sinkage.

Two decoupled models share the stance-foot intrusion coordinates:

* sagittal: 7 DoF, ``q = [q1 q2 q3 q4 q5 x_s z]`` with absolute link angles
  (stance thigh, stance calf, swing thigh, swing calf, trunk) measured from
  the world vertical, longitudinal contact slip x_s and the vertical contact
  coordinate z;
* frontal: 5 DoF, ``q = [p1 p2 p3 y_s z]`` (stance leg, pelvis crossbar,
  swing leg, lateral slip, shared vertical coordinate).

The vertical intrusion coordinate is measured upward and is zero at initial
contact, so it runs negative while the foot is sunk; sinkage depth is its
negation.  The contact Jacobians are coordinate selectors, which puts the
ground reaction force components directly on the slip/intrusion rows.

The mass layout follows the reduced single-stance picture: the hip rides
rigidly on the contact coordinates, the stance thigh and calf hang from the
hip with centers of mass at a_1 and a_2, the trunk points up from the hip
with its center of mass at l_b, and the swing thigh/calf enter through their
rotational inertia only.  Consequently the slip and intrusion rows carry the
riding mass M_s = m_b + m_t + m_c and depend on q1, q2, q5 alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "SagittalParams",
    "FrontalParams",
    "assemble_sagittal",
    "solve_sand_block",
    "assemble_frontal",
    "sagittal_energy",
    "frontal_energy",
]


def _rod_inertia(mass: float, length: float) -> float:
    return mass * length ** 2 / 12.0


def check_ranges(params, positive=(), non_negative=(), bounded=()) -> None:
    """Range checks of float fields, written so that NaN fails them.

    Every named field that is +-inf fails first, with "<name> must be
    finite"; ``bounded`` fields get only that check, the caller tests the
    rest of their range.
    """
    for name in (*positive, *non_negative, *bounded):
        v = getattr(params, name)
        if isinstance(v, float) and math.isinf(v):
            raise ValueError(f"{name} must be finite")
    for name in positive:
        if not getattr(params, name) > 0.0:
            raise ValueError(f"{name} must be strictly positive")
    for name in non_negative:
        if not getattr(params, name) >= 0.0:
            raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class SagittalParams:
    """Masses and geometry of the sagittal five-link model.  The links are
    slender rods, the trunk 2 l_b long."""

    m_b: float = 5.0   # trunk mass [kg]
    m_t: float = 1.0   # thigh mass [kg]
    m_c: float = 0.5   # calf mass, foot included [kg]
    l_t: float = 0.14  # thigh length, hip to knee [m]
    l_c: float = 0.28  # calf length, knee to foot center [m]
    l_b: float = 0.15  # hip to trunk CoM [m]
    a_1: float = 0.07  # hip to thigh CoM [m]
    a_2: float = 0.13  # knee to calf CoM [m]
    g: float = 9.81

    def __post_init__(self) -> None:
        check_ranges(self, ("m_b", "m_t", "m_c", "l_t", "l_c", "l_b", "a_1", "a_2", "g"))
        if self.a_1 > self.l_t:
            raise ValueError("a_1 must not exceed l_t, the thigh length")
        if self.a_2 > self.l_c:
            raise ValueError("a_2 must not exceed l_c, the calf length")

    @property
    def total_riding_mass(self) -> float:
        """M_s, the mass carried by the contact coordinates."""
        return self.m_b + self.m_t + self.m_c

    @cached_property
    def total_mass(self) -> float:
        """Trunk plus both legs."""
        return self.m_b + 2.0 * self.m_t + 2.0 * self.m_c

    @cached_property
    def _constants(self):
        """Configuration-independent terms: the constant diagonal of D as
        floats, the lever arms k1 (thigh), k2 (calf), kb (trunk), k12 (knee
        coupling) and the riding weight M_s g."""
        m_s = self.total_riding_mass
        i_t, i_c = _rod_inertia(self.m_t, self.l_t), _rod_inertia(self.m_c, self.l_c)
        diag = tuple(float(d) for d in (
            self.m_t * self.a_1 ** 2 + self.m_c * self.l_t ** 2 + i_t,
            self.m_c * self.a_2 ** 2 + i_c,
            # swing links enter as pivoting inertias about their suspension
            # points, without reaction on the contact coordinates
            i_t + self.m_t * self.a_1 ** 2,
            i_c + self.m_c * self.a_2 ** 2,
            self.m_b * self.l_b ** 2 + _rod_inertia(self.m_b, 2 * self.l_b),
            m_s, m_s,
        ))
        return (diag, self.m_t * self.a_1 + self.m_c * self.l_t, self.m_c * self.a_2,
                self.m_b * self.l_b, self.m_c * self.l_t * self.a_2, m_s * self.g)


@dataclass(frozen=True)
class FrontalParams:
    """Masses and geometry of the frontal three-link model.  The links are
    slender rods, both legs l_1 long, the crossbar b long."""

    m_b: float = 5.0   # trunk mass [kg]
    m_1: float = 1.5   # stance leg mass [kg]
    m_2: float = 1.5   # swing leg mass [kg]
    l_1: float = 0.46  # contact to stance hip [m]
    d_1: float = 0.23  # contact to stance-leg CoM [m]
    d_2: float = 0.20  # swing hip to swing-leg CoM [m]
    b: float = 0.12    # hip spacing [m]
    g: float = 9.81

    def __post_init__(self) -> None:
        check_ranges(self, ("m_b", "m_1", "m_2", "l_1", "d_1", "d_2", "b", "g"))
        if self.d_1 > self.l_1:
            raise ValueError("d_1 must not exceed l_1, the stance leg length")

    @property
    def total_mass(self) -> float:
        """M_f, trunk plus both legs."""
        return self.m_b + self.m_1 + self.m_2

    @cached_property
    def _constants(self):
        """Configuration-independent terms: the constant diagonal of D as
        floats, the lever arms k1 (stance leg), k2 (crossbar), k3 (swing
        leg), the couplings lean-crossbar, lean-swing and crossbar-swing, and
        M_f g."""
        m_f = self.total_mass
        diag = tuple(float(d) for d in (
            self.m_1 * self.d_1 ** 2 + (self.m_b + self.m_2) * self.l_1 ** 2
            + _rod_inertia(self.m_1, self.l_1),
            (0.25 * self.m_b + self.m_2) * self.b ** 2 + _rod_inertia(self.m_b, self.b),
            self.m_2 * self.d_2 ** 2 + _rod_inertia(self.m_2, self.l_1),
            m_f, m_f,
        ))
        k2 = (0.5 * self.m_b + self.m_2) * self.b
        return (diag, self.m_1 * self.d_1 + (self.m_b + self.m_2) * self.l_1, k2,
                self.m_2 * self.d_2, k2 * self.l_1, self.m_2 * self.l_1 * self.d_2,
                self.m_2 * self.b * self.d_2, m_f * self.g)


# Both planes share one structure: the diagonal of D is constant and each
# off-diagonal D_ij depends on q_i and q_j alone.  The Christoffel
# construction C_ij = 1/2 sum_k (dD_ij/dq_k + dD_ik/dq_j - dD_jk/dq_i) dq_k,
# which makes dD/dt - 2C skew-symmetric, then reduces to
# C_ij = (dD_ij/dq_j) dq_j for i != j and C_ii = 0.

# ---------------------------------------------------------------------------
# sagittal plane
# ---------------------------------------------------------------------------

def assemble_sagittal(params: SagittalParams, q, dq):
    """Nonzero entries of the inertia matrix D, the Coriolis matrix C and
    the gravity vector G as floats, from coordinates ``q`` and rates ``dq``
    (float sequences; entries past the seventh are not read).

    Returns ``(diag, d, c, g)``: ``diag`` the constant diagonal of D, one
    tuple per parameter set; ``d`` the entries D01, D05, D06, D15, D16,
    D45, D46, which D mirrors about its diagonal; ``c`` the entries C01,
    C10, C50, C60, C51, C61, C54, C64; ``g`` all seven entries of G.  Every
    other entry is zero.

    D is symmetric positive definite for positive rotational inertias; the
    slip row of ``D qdd + C dq + G`` is
    ``M_s x_s'' + g1(q1) + g2(q2) + g5(q5)`` and the intrusion row is
    ``M_s z'' + h1 + h2 + h5 + M_s g``, both independent of the swing
    coordinates and of all rotational inertias.
    """
    q1, q2, q5 = q[0], q[1], q[4]
    v1, v2, v5 = dq[0], dq[1], dq[4]
    diag, k1, k2, kb, k12, weight = params._constants
    s1, c1 = math.sin(q1), math.cos(q1)
    s2, c2 = math.sin(q2), math.cos(q2)
    s5, c5 = math.sin(q5), math.cos(q5)
    p12 = k12 * math.sin(q1 - q2)  # dD_01/dq_2
    g = params.g
    return (
        diag,
        (k12 * math.cos(q1 - q2), -k1 * c1, k1 * s1, -k2 * c2, k2 * s2, kb * c5, -kb * s5),
        (p12 * v2, -p12 * v1, k1 * s1 * v1, k1 * c1 * v1, k2 * s2 * v2, k2 * c2 * v2,
         -kb * s5 * v5, -kb * c5 * v5),
        (g * k1 * s1, g * k2 * s2, 0.0, 0.0, -g * kb * s5, 0.0, weight),
    )


def solve_sand_block(diag, d, r):
    """Accelerations (a0, a1, a5, a6) of the sagittal rows (0, 1, 5, 6), the
    block that stays coupled on sand, from the entries ``diag`` and ``d`` of
    ``assemble_sagittal`` and the right-hand side ``r = (r0, r1, r5, r6)``.

    The block is [[A, B], [B^T, diag(d55, d66)]] with A the stance-leg 2x2
    and B its coupling to the contact rows.  Rows 5 and 6 are eliminated
    onto the Schur complement S = A - B diag(d55, d66)^-1 B^T, which is
    solved by ``solve2``; rows 5 and 6 are then back-substituted.  D is
    symmetric positive definite, so d55, d66 and S are too and no pivoting
    is needed.  Python floats throughout, in the order written here, so the
    bytes of the result depend on no BLAS or LAPACK kernel.
    """
    d00, d11, _, _, _, d55, d66 = diag
    d01, d05, d06, d15, d16, _, _ = d
    r0, r1, r5, r6 = r
    # B diag(d55, d66)^-1
    u05, u06, u15, u16 = d05 / d55, d06 / d66, d15 / d55, d16 / d66
    s00 = d00 - u05 * d05 - u06 * d06
    s01 = d01 - u05 * d15 - u06 * d16
    s11 = d11 - u15 * d15 - u16 * d16
    a0, a1 = solve2(s00, s01, s01, s11, r0 - u05 * r5 - u06 * r6, r1 - u15 * r5 - u16 * r6)
    return a0, a1, (r5 - d05 * a0 - d15 * a1) / d55, (r6 - d06 * a0 - d16 * a1) / d66


def solve2(a, b, c, d, r0, r1) -> tuple[float, float]:
    """Solution of the 2x2 system [[a, b], [c, d]] x = (r0, r1) by Cramer's
    rule."""
    det = a * d - b * c
    return (d * r0 - b * r1) / det, (a * r1 - c * r0) / det


def sagittal_energy(params: SagittalParams, q, dq) -> tuple[float, float]:
    """(kinetic, potential) energy of the sagittal model [J], from the
    entries of ``assemble_sagittal``.

    The potential is referenced to the configuration with all angles zero
    and the contact at its initial location: M_s g z for the riding mass
    on z, plus g (kb cos q5 - k1 cos q1 - k2 cos q2), the mass-weighted
    heights of the trunk and the stance leg about the hip, which are
    g (D45 + D05 + D15).
    """
    (m0, m1, m2, m3, m4, m5, m6), d, _, _ = assemble_sagittal(params, q, dq)
    d01, d05, d06, d15, d16, d45, d46 = d
    v0, v1, v2, v3, v4, v5, v6 = dq[:7]
    _, k1, k2, kb, _, weight = params._constants
    kinetic = (0.5 * (m0 * v0 * v0 + m1 * v1 * v1 + m2 * v2 * v2 + m3 * v3 * v3
                      + m4 * v4 * v4 + m5 * v5 * v5 + m6 * v6 * v6)
               + v0 * (d01 * v1 + d05 * v5 + d06 * v6) + v1 * (d15 * v5 + d16 * v6)
               + v4 * (d45 * v5 + d46 * v6))
    return kinetic, weight * q[6] + params.g * (d05 + d15 + d45 - kb + k1 + k2)


# ---------------------------------------------------------------------------
# frontal plane
# ---------------------------------------------------------------------------

def assemble_frontal(params: FrontalParams, q, dq):
    """Nonzero entries of the frontal D, C and G as floats, from coordinates
    ``q`` and rates ``dq`` (float sequences; entries past the third are not
    read).

    Returns ``(diag, d, c, g)``: ``diag`` the constant diagonal of D, one
    tuple per parameter set; ``d`` the entries D01, D02, D03, D04, D12,
    D13, D14, D23, D24, which D mirrors about its diagonal; ``c`` the
    entries C01, C02, C10, C12, C20, C21, C30, C31, C32, C40, C41, C42;
    ``g`` all five entries of G.  Every other entry is zero.

    The lateral slip row of the assembled system reads
    ``M_f y_s'' + f1(p1) + f2(p2) + f3(p3)`` with the composite lever arms
    (m_1 d_1 + (m_b + m_2) l_1), (m_b/2 + m_2) b and m_2 d_2.
    """
    q1, q2, q3 = q[0], q[1], q[2]
    v1, v2, v3 = dq[0], dq[1], dq[2]
    diag, k1, k2, k3, k12, k13, k23, weight = params._constants
    s1, c1 = math.sin(q1), math.cos(q1)
    s2, c2 = math.sin(q2), math.cos(q2)
    s3, c3 = math.sin(q3), math.cos(q3)
    # partials of the angle-angle couplings: dD_01/dq_2, dD_02/dq_1, dD_12/dq_3
    p12 = k12 * math.sin(q1 + q2)
    p13 = k13 * math.sin(q1 - q3)
    p23 = -k23 * math.sin(q2 + q3)
    g = params.g
    return (
        diag,
        (-k12 * math.cos(q1 + q2), -k13 * math.cos(q1 - q3), -k1 * c1, -k1 * s1,
         k23 * math.cos(q2 + q3), k2 * c2, -k2 * s2, k3 * c3, k3 * s3),
        (p12 * v2, -p13 * v3, p12 * v1, p23 * v3, p13 * v1, p23 * v2,
         k1 * s1 * v1, -k2 * s2 * v2, -k3 * s3 * v3,
         -k1 * c1 * v1, -k2 * c2 * v2, k3 * c3 * v3),
        (-g * k1 * s1, -g * k2 * s2, g * k3 * s3, 0.0, weight),
    )


def frontal_energy(params: FrontalParams, q, dq) -> tuple[float, float]:
    """(kinetic, potential) energy of the frontal model [J], from the
    entries of ``assemble_frontal``: M_f g z plus
    g (k1 cos p1 + k2 cos p2 - k3 cos p3), the mass-weighted heights of the
    links above the contact, which are g (D13 - D03 - D23)."""
    (m0, m1, m2, m3, m4), d, _, _ = assemble_frontal(params, q, dq)
    d01, d02, d03, d04, d12, d13, d14, d23, d24 = d
    v0, v1, v2, v3, v4 = dq[:5]
    kinetic = (0.5 * (m0 * v0 * v0 + m1 * v1 * v1 + m2 * v2 * v2 + m3 * v3 * v3
                      + m4 * v4 * v4)
               + v0 * (d01 * v1 + d02 * v2 + d03 * v3 + d04 * v4)
               + v1 * (d12 * v2 + d13 * v3 + d14 * v4) + v2 * (d23 * v3 + d24 * v4))
    return kinetic, params._constants[-1] * q[4] + params.g * (d13 - d03 - d23)
