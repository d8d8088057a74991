"""Dynamics assembly tests: printed-row consistency, structure, energy."""

import numpy as np
import pytest

from sandwalk.dynamics import (
    FrontalParams,
    FrontalState,
    GrfSagittal,
    SagittalParams,
    SagittalState,
    frontal_matrices,
    sagittal_matrices,
    frontal_energy,
    sagittal_accel,
    sagittal_energy,
)
from sandwalk.sim import integrate_free


def slip_row_closed_form(p, q, dq, qdd):
    """Independent evaluation of the longitudinal slip equation."""
    k1 = p.m_t * p.a_1 + p.m_c * p.l_t
    k2 = p.m_c * p.a_2
    kb = p.m_b * p.l_b
    g1 = k1 * (-np.cos(q[0]) * qdd[0] + np.sin(q[0]) * dq[0] ** 2)
    g2 = k2 * (-np.cos(q[1]) * qdd[1] + np.sin(q[1]) * dq[1] ** 2)
    g5 = kb * np.cos(q[4]) * qdd[4] - kb * np.sin(q[4]) * dq[4] ** 2
    return p.total_riding_mass * qdd[5] + g1 + g2 + g5


def intrusion_row_closed_form(p, q, dq, qdd):
    """Independent evaluation of the vertical intrusion equation."""
    k1 = p.m_t * p.a_1 + p.m_c * p.l_t
    k2 = p.m_c * p.a_2
    kb = p.m_b * p.l_b
    h1 = k1 * (np.sin(q[0]) * qdd[0] + np.cos(q[0]) * dq[0] ** 2)
    h2 = k2 * (np.sin(q[1]) * qdd[1] + np.cos(q[1]) * dq[1] ** 2)
    h5 = -kb * np.sin(q[4]) * qdd[4] - kb * np.cos(q[4]) * dq[4] ** 2
    return p.total_riding_mass * qdd[6] + h1 + h2 + h5 + p.total_riding_mass * p.g


def lateral_row_closed_form(p, q, dq, qdd):
    """Independent evaluation of the lateral slip equation."""
    k1 = p.m_1 * p.d_1 + (p.m_b + p.m_2) * p.l_1
    k2 = (0.5 * p.m_b + p.m_2) * p.b
    k3 = p.m_2 * p.d_2
    f1 = -k1 * (np.cos(q[0]) * qdd[0] - np.sin(q[0]) * dq[0] ** 2)
    f2 = k2 * (np.cos(q[1]) * qdd[1] - np.sin(q[1]) * dq[1] ** 2)
    f3 = k3 * (np.cos(q[2]) * qdd[2] - np.sin(q[2]) * dq[2] ** 2)
    return p.total_mass * qdd[3] + f1 + f2 + f3


def random_sagittal_params(rng):
    l_t = rng.uniform(0.1, 0.3)
    l_c = rng.uniform(0.1, 0.3)
    return SagittalParams(
        m_b=rng.uniform(2.0, 8.0),
        m_t=rng.uniform(0.5, 2.0),
        m_c=rng.uniform(0.2, 1.0),
        l_t=l_t,
        l_c=l_c,
        l_b=rng.uniform(0.05, 0.3),
        a_1=rng.uniform(0.3, 0.9) * l_t,
        a_2=rng.uniform(0.3, 0.9) * l_c,
    )


def random_frontal_params(rng):
    return FrontalParams(
        m_b=rng.uniform(2, 8),
        m_1=rng.uniform(0.5, 3),
        m_2=rng.uniform(0.5, 3),
        l_1=rng.uniform(0.3, 0.6),
        d_1=rng.uniform(0.1, 0.29),
        d_2=rng.uniform(0.1, 0.3),
        b=rng.uniform(0.05, 0.2),
    )


def test_sagittal_rows_match_closed_forms():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        p = random_sagittal_params(rng)
        q = rng.uniform(-1.5, 1.5, 7)
        dq = rng.uniform(-4.0, 4.0, 7)
        qdd = rng.uniform(-8.0, 8.0, 7)
        d, c, g = sagittal_matrices(p, SagittalState(q, dq))
        lhs = d @ qdd + c @ dq + g
        scale = max(1.0, abs(lhs[5]), abs(lhs[6]))
        worst = max(
            worst,
            abs(lhs[5] - slip_row_closed_form(p, q, dq, qdd)) / scale,
            abs(lhs[6] - intrusion_row_closed_form(p, q, dq, qdd)) / scale,
        )
    assert worst < 1e-9


def test_rows_independent_of_rotational_inertia():
    rng = np.random.default_rng(8)
    p0 = SagittalParams(i_b=0.0, i_t=0.0, i_c=0.0)
    q = rng.uniform(-1.0, 1.0, 7)
    dq = rng.uniform(-2.0, 2.0, 7)
    qdd = rng.uniform(-4.0, 4.0, 7)
    d, c, g = sagittal_matrices(p0, SagittalState(q, dq))
    lhs = d @ qdd + c @ dq + g
    assert abs(lhs[5] - slip_row_closed_form(p0, q, dq, qdd)) < 1e-10
    assert abs(lhs[6] - intrusion_row_closed_form(p0, q, dq, qdd)) < 1e-10


def test_inertia_matrix_spd_both_planes():
    rng = np.random.default_rng(9)
    ps = SagittalParams()
    pf = FrontalParams()
    for _ in range(200):
        st = SagittalState(rng.uniform(-1.5, 1.5, 7), rng.uniform(-2, 2, 7))
        d, _, _ = sagittal_matrices(ps, st)
        assert np.allclose(d, d.T)
        assert np.linalg.eigvalsh(d).min() > 0.0
        stf = FrontalState(rng.uniform(-1.5, 1.5, 5), rng.uniform(-2, 2, 5))
        df, _, _ = frontal_matrices(pf, stf)
        assert np.allclose(df, df.T)
        assert np.linalg.eigvalsh(df).min() > 0.0


def test_gravity_vector_upright_configuration():
    p = SagittalParams()
    _, _, g = sagittal_matrices(p, SagittalState(np.zeros(7), np.zeros(7)))
    assert np.allclose(g[:6], 0.0)
    assert g[6] == pytest.approx(p.total_riding_mass * p.g)


def test_free_fall_from_upright():
    p = SagittalParams()
    st = SagittalState(np.zeros(7), np.zeros(7))
    qdd = sagittal_accel(p, st, np.zeros(4), GrfSagittal())
    assert abs(qdd[5]) < 1e-12
    assert qdd[6] == pytest.approx(-p.g, rel=1e-12)


def test_static_vertical_support():
    # F_z equal to the riding weight balances the intrusion row at rest
    p = SagittalParams()
    st = SagittalState(np.zeros(7), np.zeros(7))
    qdd = sagittal_accel(p, st, np.zeros(4),
                         GrfSagittal(f_z=p.total_riding_mass * p.g))
    assert abs(qdd[6]) < 1e-10


def test_solve_matches_explicit_inverse():
    rng = np.random.default_rng(10)
    p = SagittalParams()
    for _ in range(50):
        st = SagittalState(rng.uniform(-1, 1, 7), rng.uniform(-2, 2, 7))
        tau = rng.uniform(-5, 5, 4)
        grf = GrfSagittal(*rng.uniform(-30, 30, 2))
        qdd = sagittal_accel(p, st, tau, grf)
        d, c, g = sagittal_matrices(p, st)
        rhs = -c @ st.dq - g
        rhs[:4] += tau
        rhs[5] += grf.f_x
        rhs[6] += grf.f_z
        assert np.abs(qdd - np.linalg.inv(d) @ rhs).max() < 1e-10


def test_frontal_row_matches_closed_form():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        p = random_frontal_params(rng)
        q = rng.uniform(-1.5, 1.5, 5)
        dq = rng.uniform(-4, 4, 5)
        qdd = rng.uniform(-8, 8, 5)
        d, c, g = frontal_matrices(p, FrontalState(q, dq))
        lhs = d @ qdd + c @ dq + g
        scale = max(1.0, abs(lhs[3]))
        worst = max(worst, abs(lhs[3] - lateral_row_closed_form(p, q, dq, qdd)) / scale)
    assert worst < 1e-9


def test_frontal_force_step_frozen_angles():
    p = FrontalParams()
    q = np.array([0.2, 1.3, -0.1, 0.0, 0.0])
    st = FrontalState(q, np.zeros(5))
    d, c, g = frontal_matrices(p, st)
    f_y = 12.0
    qdd = np.zeros(5)
    qdd[3] = f_y / p.total_mass
    lhs = d @ qdd + c @ st.dq + g
    assert lhs[3] == pytest.approx(f_y, rel=1e-12)


@pytest.mark.parametrize("plane", ["sagittal", "frontal"])
def test_skew_symmetry(plane):
    rng = np.random.default_rng(12)
    dt = 1e-6
    for _ in range(30):
        if plane == "sagittal":
            p = SagittalParams()
            q = rng.uniform(-1, 1, 7)
            dq = rng.uniform(-2, 2, 7)
            dp, c, _ = sagittal_matrices(p, SagittalState(q, dq))
            d_plus, _, _ = sagittal_matrices(p, SagittalState(q + dq * dt, dq))
            d_minus, _, _ = sagittal_matrices(p, SagittalState(q - dq * dt, dq))
        else:
            p = FrontalParams()
            q = rng.uniform(-1, 1, 5)
            dq = rng.uniform(-2, 2, 5)
            dp, c, _ = frontal_matrices(p, FrontalState(q, dq))
            d_plus, _, _ = frontal_matrices(p, FrontalState(q + dq * dt, dq))
            d_minus, _, _ = frontal_matrices(p, FrontalState(q - dq * dt, dq))
        d_dot = (d_plus - d_minus) / (2 * dt)
        s = d_dot - 2 * c
        assert np.abs(s + s.T).max() < 1e-6


@pytest.mark.parametrize("plane", ["sagittal", "frontal"])
def test_coriolis_matches_christoffel_of_numeric_partials(plane):
    # every entry of C against C_ij = 1/2 sum_k (d_k D_ij + d_j D_ik - d_i D_jk) dq_k
    # with dD from central differences of the assembled D
    rng = np.random.default_rng(15)
    h = 1e-6
    if plane == "sagittal":
        n, assemble, state, params = 7, sagittal_matrices, SagittalState, random_sagittal_params
    else:
        n, assemble, state, params = 5, frontal_matrices, FrontalState, random_frontal_params
    for _ in range(50):
        p = params(rng)
        q = rng.uniform(-1.5, 1.5, n)
        dq = rng.uniform(-4.0, 4.0, n)
        d_d = np.empty((n, n, n))  # d_d[k, i, j] = dD_ij/dq_k
        for k in range(n):
            step = np.zeros(n)
            step[k] = h
            d_d[k] = (assemble(p, state(q + step, dq))[0]
                      - assemble(p, state(q - step, dq))[0]) / (2 * h)
        christoffel = 0.5 * (np.einsum("kij,k->ij", d_d, dq)
                             + np.einsum("jik,k->ij", d_d, dq)
                             - np.einsum("ijk,k->ij", d_d, dq))
        _, c, _ = assemble(p, state(q, dq))
        assert np.abs(c - christoffel).max() < 1e-6


@pytest.mark.parametrize("plane", ["sagittal", "frontal"])
def test_gravity_is_potential_gradient(plane):
    rng = np.random.default_rng(13)
    eps = 1e-6
    for _ in range(20):
        if plane == "sagittal":
            p = SagittalParams()
            n = 7
            q = rng.uniform(-1, 1, n)
            _, _, g = sagittal_matrices(p, SagittalState(q, np.zeros(n)))
            pot = lambda qq: sagittal_energy(p, SagittalState(qq, np.zeros(n)))[1]
        else:
            p = FrontalParams()
            n = 5
            q = rng.uniform(-1, 1, n)
            _, _, g = frontal_matrices(p, FrontalState(q, np.zeros(n)))
            pot = lambda qq: frontal_energy(p, FrontalState(qq, np.zeros(n)))[1]
        for i in range(n):
            qp = q.copy()
            qp[i] += eps
            qm = q.copy()
            qm[i] -= eps
            grad = (pot(qp) - pot(qm)) / (2 * eps)
            assert abs(grad - g[i]) < 1e-6


def test_ballistic_energy_conservation():
    rng = np.random.default_rng(14)
    p = SagittalParams()
    q0 = rng.uniform(-0.5, 0.5, 7)
    dq0 = rng.uniform(-1.0, 1.0, 7)
    k0, v0 = sagittal_energy(p, SagittalState(q0, dq0))
    q1, dq1 = integrate_free(p, q0, dq0, 1e-4, 5000, method="rk4")
    k1, v1 = sagittal_energy(p, SagittalState(q1, dq1))
    assert abs((k1 + v1) - (k0 + v0)) / abs(k0 + v0) < 1e-6


def test_parameter_validation():
    with pytest.raises(ValueError):
        SagittalParams(m_b=-1.0)
    with pytest.raises(ValueError):
        SagittalParams(a_1=0.5, l_t=0.2)
    with pytest.raises(ValueError):
        FrontalParams(d_1=0.6, l_1=0.4)
    with pytest.raises(ValueError):
        SagittalState(np.zeros(6), np.zeros(7))
