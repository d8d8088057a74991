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

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SagittalParams",
    "FrontalParams",
    "SagittalState",
    "FrontalState",
    "GrfSagittal",
    "assemble_sagittal",
    "sagittal_accel",
    "assemble_frontal",
    "sagittal_energy",
    "frontal_energy",
]


def _rod_inertia(mass: float, length: float) -> float:
    return mass * length ** 2 / 12.0


@dataclass(frozen=True)
class SagittalParams:
    """Masses, geometry and inertias of the sagittal five-link model."""

    m_b: float = 5.0   # trunk mass [kg]
    m_t: float = 1.0   # thigh mass [kg]
    m_c: float = 0.5   # calf mass, foot included [kg]
    l_t: float = 0.14  # thigh length, hip to knee [m]
    l_c: float = 0.28  # calf length, knee to foot center [m]
    l_b: float = 0.15  # hip to trunk CoM [m]
    a_1: float = 0.07  # hip to thigh CoM [m]
    a_2: float = 0.13  # knee to calf CoM [m]
    # Rotational inertias about each link CoM; None selects the slender-rod
    # value m l^2 / 12.  Zero reproduces the pure point-mass intrusion rows.
    i_b: float | None = None
    i_t: float | None = None
    i_c: float | None = None
    g: float = 9.81

    def __post_init__(self) -> None:
        for name in ("m_b", "m_t", "m_c", "l_t", "l_c", "l_b", "a_1", "a_2", "g"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.a_1 > self.l_t:
            raise ValueError("a_1 must not exceed the thigh length")
        if self.a_2 > self.l_c:
            raise ValueError("a_2 must not exceed the calf length")
        for name in ("i_b", "i_t", "i_c"):
            v = getattr(self, name)
            if v is not None and v < 0.0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def total_riding_mass(self) -> float:
        """M_s, the mass carried by the contact coordinates."""
        return self.m_b + self.m_t + self.m_c

    @property
    def inertia_b(self) -> float:
        return self.i_b if self.i_b is not None else _rod_inertia(self.m_b, 2 * self.l_b)

    @property
    def inertia_t(self) -> float:
        return self.i_t if self.i_t is not None else _rod_inertia(self.m_t, self.l_t)

    @property
    def inertia_c(self) -> float:
        return self.i_c if self.i_c is not None else _rod_inertia(self.m_c, self.l_c)


@dataclass(frozen=True)
class FrontalParams:
    """Masses, geometry and inertias of the frontal three-link model."""

    m_b: float = 5.0   # trunk mass [kg]
    m_1: float = 1.5   # stance leg mass [kg]
    m_2: float = 1.5   # swing leg mass [kg]
    l_1: float = 0.46  # contact to stance hip [m]
    d_1: float = 0.23  # contact to stance-leg CoM [m]
    d_2: float = 0.20  # swing hip to swing-leg CoM [m]
    b: float = 0.12    # hip spacing [m]
    i_1: float | None = None
    i_2: float | None = None
    i_bar: float | None = None
    g: float = 9.81

    def __post_init__(self) -> None:
        for name in ("m_b", "m_1", "m_2", "l_1", "d_1", "d_2", "b"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.d_1 > self.l_1:
            raise ValueError("d_1 must not exceed the stance leg length")
        for name in ("i_1", "i_2", "i_bar"):
            v = getattr(self, name)
            if v is not None and v < 0.0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def total_mass(self) -> float:
        """M_f, trunk plus both legs."""
        return self.m_b + self.m_1 + self.m_2

    @property
    def inertia_1(self) -> float:
        return self.i_1 if self.i_1 is not None else _rod_inertia(self.m_1, self.l_1)

    @property
    def inertia_2(self) -> float:
        return self.i_2 if self.i_2 is not None else _rod_inertia(self.m_2, self.l_1)

    @property
    def inertia_bar(self) -> float:
        return self.i_bar if self.i_bar is not None else _rod_inertia(self.m_b, self.b)


def _as_vector(x, n: int, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.shape != (n,):
        raise ValueError(f"{name} must have {n} components, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


@dataclass
class SagittalState:
    """Augmented sagittal coordinates and their rates.

    ``q = [q1 q2 q3 q4 q5 x_s z]``; z is the upward contact coordinate
    (``sinkage`` gives the positive-down depth).
    """

    q: np.ndarray = field(default_factory=lambda: np.zeros(7))
    dq: np.ndarray = field(default_factory=lambda: np.zeros(7))

    def __post_init__(self) -> None:
        self.q = _as_vector(self.q, 7, "q")
        self.dq = _as_vector(self.dq, 7, "dq")

    @property
    def sinkage(self) -> float:
        """Depth of the contact below its initial location [m], >= 0."""
        return max(0.0, -float(self.q[6]))


@dataclass
class FrontalState:
    """Augmented frontal coordinates ``q = [p1 p2 p3 y_s z]`` and rates."""

    q: np.ndarray = field(default_factory=lambda: np.zeros(5))
    dq: np.ndarray = field(default_factory=lambda: np.zeros(5))

    def __post_init__(self) -> None:
        self.q = _as_vector(self.q, 5, "q")
        self.dq = _as_vector(self.dq, 5, "dq")


@dataclass(frozen=True)
class GrfSagittal:
    """Ground reaction force on the stance foot in the sagittal plane [N]."""

    f_x: float = 0.0
    f_z: float = 0.0


def _coriolis_from_partials(dD: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """Coriolis matrix from Christoffel symbols of the first kind.

    ``dD[k, i, j] = dD_ij/dq_k``.  The construction guarantees that
    (dD/dt - 2C) is skew-symmetric.
    """
    t1 = np.einsum("kij,k->ij", dD, dq)
    t2 = np.einsum("jik,k->ij", dD, dq)
    t3 = np.einsum("ijk,k->ij", dD, dq)
    return 0.5 * (t1 + t2 - t3)


# ---------------------------------------------------------------------------
# sagittal plane
# ---------------------------------------------------------------------------

def _sagittal_terms(p: SagittalParams, q: np.ndarray):
    """Mass matrix, its configuration partials, and the gravity vector."""
    s1, c1 = np.sin(q[0]), np.cos(q[0])
    s2, c2 = np.sin(q[1]), np.cos(q[1])
    s5, c5 = np.sin(q[4]), np.cos(q[4])
    # composite lever arms of the riding masses
    k1 = p.m_t * p.a_1 + p.m_c * p.l_t   # thigh angle
    k2 = p.m_c * p.a_2                   # calf angle
    kb = p.m_b * p.l_b                   # trunk angle
    k12 = p.m_c * p.l_t * p.a_2
    m_s = p.total_riding_mass

    D = np.zeros((7, 7))
    D[0, 0] = p.m_t * p.a_1 ** 2 + p.m_c * p.l_t ** 2 + p.inertia_t
    D[1, 1] = p.m_c * p.a_2 ** 2 + p.inertia_c
    # swing links enter as pivoting inertias about their suspension points,
    # without reaction on the contact coordinates
    D[2, 2] = p.inertia_t + p.m_t * p.a_1 ** 2
    D[3, 3] = p.inertia_c + p.m_c * p.a_2 ** 2
    D[4, 4] = p.m_b * p.l_b ** 2 + p.inertia_b
    D[5, 5] = m_s
    D[6, 6] = m_s
    D[0, 1] = k12 * np.cos(q[0] - q[1])
    D[0, 5] = -k1 * c1
    D[0, 6] = k1 * s1
    D[1, 5] = -k2 * c2
    D[1, 6] = k2 * s2
    D[4, 5] = kb * c5
    D[4, 6] = -kb * s5
    D = D + np.triu(D, 1).T

    dD = np.zeros((7, 7, 7))
    s12 = np.sin(q[0] - q[1])

    def sym(k, i, j, v):
        dD[k, i, j] = v
        dD[k, j, i] = v

    sym(0, 0, 1, -k12 * s12)
    sym(0, 0, 5, k1 * s1)
    sym(0, 0, 6, k1 * c1)
    sym(1, 0, 1, k12 * s12)
    sym(1, 1, 5, k2 * s2)
    sym(1, 1, 6, k2 * c2)
    sym(4, 4, 5, -kb * s5)
    sym(4, 4, 6, -kb * c5)

    G = np.zeros(7)
    G[0] = p.g * k1 * s1
    G[1] = p.g * k2 * s2
    G[4] = -p.g * kb * s5
    G[6] = m_s * p.g
    return D, dD, G


def assemble_sagittal(params: SagittalParams, state: SagittalState):
    """Inertia matrix D, Coriolis matrix C and gravity vector G.

    D is symmetric positive definite for positive rotational inertias; the
    slip row of ``D qdd + C dq + G`` is
    ``M_s x_s'' + g1(q1) + g2(q2) + g5(q5)`` and the intrusion row is
    ``M_s z'' + h1 + h2 + h5 + M_s g``, both independent of the swing
    coordinates and of all rotational inertias.
    """
    D, dD, G = _sagittal_terms(params, state.q)
    C = _coriolis_from_partials(dD, state.dq)
    return D, C, G


def sagittal_accel(
    params: SagittalParams,
    state: SagittalState,
    tau: np.ndarray,
    grf: GrfSagittal,
) -> np.ndarray:
    """Forward dynamics: solve D qdd = B tau + J^T F - C dq - G.

    ``tau`` actuates coordinates 1-4 (B = [I4, 0]^T); the contact Jacobian
    selects the slip and intrusion rows, so F_x and F_z load rows 6 and 7
    directly.  Raises numpy.linalg.LinAlgError if D cannot be factorized
    (corrupt parameters).
    """
    tau = _as_vector(tau, 4, "tau")
    D, C, G = assemble_sagittal(params, state)
    rhs = -C @ state.dq - G
    rhs[:4] += tau
    rhs[5] += grf.f_x
    rhs[6] += grf.f_z
    return np.linalg.solve(D, rhs)


def sagittal_energy(params: SagittalParams, state: SagittalState) -> tuple[float, float]:
    """(kinetic, potential) energy of the sagittal model [J].

    The potential is referenced to the configuration with all angles zero
    and the contact at its initial location.
    """
    D, _, _ = _sagittal_terms(params, state.q)
    kinetic = 0.5 * float(state.dq @ D @ state.dq)
    q = state.q
    z = q[6]
    potential = params.g * (
        params.m_b * (z + params.l_b * np.cos(q[4]))
        + params.m_t * (z - params.a_1 * np.cos(q[0]))
        + params.m_c * (z - params.l_t * np.cos(q[0]) - params.a_2 * np.cos(q[1]))
    )
    ref = params.g * (
        params.m_b * params.l_b - params.m_t * params.a_1
        - params.m_c * (params.l_t + params.a_2)
    )
    return kinetic, float(potential - ref)


# ---------------------------------------------------------------------------
# frontal plane
# ---------------------------------------------------------------------------

def _frontal_terms(p: FrontalParams, q: np.ndarray):
    s1, c1 = np.sin(q[0]), np.cos(q[0])
    s2, c2 = np.sin(q[1]), np.cos(q[1])
    s3, c3 = np.sin(q[2]), np.cos(q[2])
    # stance leg leans the hip toward -y for positive p1; crossbar points
    # toward the swing hip; the swing leg hangs below its hip.
    k1 = p.m_1 * p.d_1 + (p.m_b + p.m_2) * p.l_1
    k2 = (0.5 * p.m_b + p.m_2) * p.b
    k3 = p.m_2 * p.d_2
    m_f = p.total_mass

    D = np.zeros((5, 5))
    D[0, 0] = p.m_1 * p.d_1 ** 2 + (p.m_b + p.m_2) * p.l_1 ** 2 + p.inertia_1
    D[1, 1] = (0.25 * p.m_b + p.m_2) * p.b ** 2 + p.inertia_bar
    D[2, 2] = p.m_2 * p.d_2 ** 2 + p.inertia_2
    D[3, 3] = m_f
    D[4, 4] = m_f
    D[0, 1] = -k2 * p.l_1 * np.cos(q[0] + q[1])
    D[0, 2] = -p.m_2 * p.l_1 * p.d_2 * np.cos(q[0] - q[2])
    D[1, 2] = p.m_2 * p.b * p.d_2 * np.cos(q[1] + q[2])
    D[0, 3] = -k1 * c1
    D[0, 4] = -k1 * s1
    D[1, 3] = k2 * c2
    D[1, 4] = -k2 * s2
    D[2, 3] = k3 * c3
    D[2, 4] = k3 * s3
    D = D + np.triu(D, 1).T

    dD = np.zeros((5, 5, 5))

    def sym(k, i, j, v):
        dD[k, i, j] = v
        dD[k, j, i] = v

    s01 = np.sin(q[0] + q[1])
    s02 = np.sin(q[0] - q[2])
    s12 = np.sin(q[1] + q[2])
    sym(0, 0, 1, k2 * p.l_1 * s01)
    sym(1, 0, 1, k2 * p.l_1 * s01)
    sym(0, 0, 2, p.m_2 * p.l_1 * p.d_2 * s02)
    sym(2, 0, 2, -p.m_2 * p.l_1 * p.d_2 * s02)
    sym(1, 1, 2, -p.m_2 * p.b * p.d_2 * s12)
    sym(2, 1, 2, -p.m_2 * p.b * p.d_2 * s12)
    sym(0, 0, 3, k1 * s1)
    sym(0, 0, 4, -k1 * c1)
    sym(1, 1, 3, -k2 * s2)
    sym(1, 1, 4, -k2 * c2)
    sym(2, 2, 3, -k3 * s3)
    sym(2, 2, 4, k3 * c3)

    G = np.zeros(5)
    G[0] = -p.g * k1 * s1
    G[1] = -p.g * k2 * s2
    G[2] = p.g * k3 * s3
    G[4] = m_f * p.g
    return D, dD, G


def assemble_frontal(params: FrontalParams, state: FrontalState):
    """Inertia, Coriolis and gravity terms of the frontal model.

    The lateral slip row of the assembled system reads
    ``M_f y_s'' + f1(p1) + f2(p2) + f3(p3)`` with the composite lever arms
    (m_1 d_1 + (m_b + m_2) l_1), (m_b/2 + m_2) b and m_2 d_2.
    """
    D, dD, G = _frontal_terms(params, state.q)
    C = _coriolis_from_partials(dD, state.dq)
    return D, C, G


def frontal_energy(params: FrontalParams, state: FrontalState) -> tuple[float, float]:
    """(kinetic, potential) energy of the frontal model [J]."""
    D, _, _ = _frontal_terms(params, state.q)
    kinetic = 0.5 * float(state.dq @ D @ state.dq)
    q = state.q
    z = q[4]
    c1, c2, c3 = np.cos(q[0]), np.cos(q[1]), np.cos(q[2])
    potential = params.g * (
        params.m_1 * (z + params.d_1 * c1)
        + params.m_b * (z + params.l_1 * c1 + 0.5 * params.b * c2)
        + params.m_2 * (z + params.l_1 * c1 + params.b * c2 - params.d_2 * c3)
    )
    return kinetic, float(potential)
