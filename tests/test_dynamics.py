"""Dynamics assembly tests: printed-row consistency, structure, energy."""

import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import sandwalk
from sandwalk import dynamics, sim
from sandwalk.dynamics import (
    FrontalParams,
    SagittalParams,
    assemble_frontal,
    assemble_sagittal,
    frontal_energy,
    sagittal_energy,
    solve_sand_block,
)


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


# Dense oracle: D, C, G arrays, the 7x7 solve, flight and potentials by mass
SAG_AT = (((0, 1), (0, 5), (0, 6), (1, 5), (1, 6), (4, 5), (4, 6)),
          ((0, 1), (1, 0), (5, 0), (6, 0), (5, 1), (6, 1), (5, 4), (6, 4)))
FRONT_AT = (((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)),
            ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2),
             (4, 0), (4, 1), (4, 2)))


def _dense(assemble, at, p, q, dq):
    diag, d, c, g = assemble(p, np.asarray(q, float).tolist(), np.asarray(dq, float).tolist())
    big_d, big_c = np.diag(diag), np.zeros((len(diag), len(diag)))
    for (i, j), v in zip(at[0], d):
        big_d[i, j] = big_d[j, i] = v
    for (i, j), v in zip(at[1], c):
        big_c[i, j] = v
    return big_d, big_c, np.array(g)


sagittal_matrices = partial(_dense, assemble_sagittal, SAG_AT)  # (p, q, dq) -> D, C, G
frontal_matrices = partial(_dense, assemble_frontal, FRONT_AT)


def sagittal_accel(p, q, dq, tau=np.zeros(4), f=np.zeros(2)):
    """Solve D qdd = B tau + J^T F - C dq - G: tau on rows 0-3, F on 5, 6."""
    d, c, g = sagittal_matrices(p, q, dq)
    rhs = -c @ np.asarray(dq, float) - g
    rhs[:4] += tau
    rhs[5:] += f
    return np.linalg.solve(d, rhs)


def integrate_free(p, q0, dq0, dt, n_steps, method="rk4"):
    """Zero torque and contact force, all 7 DoF in flight; the final (q, dq)."""
    y = np.concatenate((q0, dq0)).astype(float).tolist()
    for _ in range(n_steps):
        y = sim._ode_step(method, y, lambda y: sagittal_accel(p, y[:7], y[7:]).tolist(), dt)
    return np.array(y[:7]), np.array(y[7:])


def sagittal_potential(p, q):  # zero at q = 0
    z, c1, c2, c5 = q[6], np.cos(q[0]), np.cos(q[1]), np.cos(q[4])
    ref = p.g * (p.m_b * p.l_b - p.m_t * p.a_1 - p.m_c * (p.l_t + p.a_2))
    return p.g * (p.m_b * (z + p.l_b * c5) + p.m_t * (z - p.a_1 * c1)
                  + p.m_c * (z - p.l_t * c1 - p.a_2 * c2)) - ref


def frontal_potential(p, q):
    z, c1, c2, c3 = q[4], np.cos(q[0]), np.cos(q[1]), np.cos(q[2])
    return p.g * (p.m_1 * (z + p.d_1 * c1) + p.m_b * (z + p.l_1 * c1 + 0.5 * p.b * c2)
                  + p.m_2 * (z + p.l_1 * c1 + p.b * c2 - p.d_2 * c3))


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
        d, c, g = sagittal_matrices(p, q, dq)
        lhs = d @ qdd + c @ dq + g
        scale = max(1.0, abs(lhs[5]), abs(lhs[6]))
        worst = max(
            worst,
            abs(lhs[5] - slip_row_closed_form(p, q, dq, qdd)) / scale,
            abs(lhs[6] - intrusion_row_closed_form(p, q, dq, qdd)) / scale,
        )
    assert worst < 1e-9


def test_rows_independent_of_rotational_inertia(monkeypatch):
    # point-mass links: a fresh parameter set builds its constants without
    # the slender-rod inertias
    monkeypatch.setattr(dynamics, "_rod_inertia", lambda mass, length: 0.0)
    rng = np.random.default_rng(8)
    p0 = SagittalParams()
    assert p0._constants[0][2:5] == (p0.m_t * p0.a_1 ** 2, p0.m_c * p0.a_2 ** 2,
                                     p0.m_b * p0.l_b ** 2)
    q = rng.uniform(-1.0, 1.0, 7)
    dq = rng.uniform(-2.0, 2.0, 7)
    qdd = rng.uniform(-4.0, 4.0, 7)
    d, c, g = sagittal_matrices(p0, q, dq)
    lhs = d @ qdd + c @ dq + g
    assert abs(lhs[5] - slip_row_closed_form(p0, q, dq, qdd)) < 1e-10
    assert abs(lhs[6] - intrusion_row_closed_form(p0, q, dq, qdd)) < 1e-10


def test_inertia_matrix_spd_both_planes():
    rng = np.random.default_rng(9)
    ps = SagittalParams()
    pf = FrontalParams()
    for _ in range(200):
        d, _, _ = sagittal_matrices(ps, rng.uniform(-1.5, 1.5, 7), rng.uniform(-2, 2, 7))
        assert np.allclose(d, d.T)
        assert np.linalg.eigvalsh(d).min() > 0.0
        df, _, _ = frontal_matrices(pf, rng.uniform(-1.5, 1.5, 5), rng.uniform(-2, 2, 5))
        assert np.allclose(df, df.T)
        assert np.linalg.eigvalsh(df).min() > 0.0


def test_gravity_vector_upright_configuration():
    p = SagittalParams()
    _, _, g = sagittal_matrices(p, np.zeros(7), np.zeros(7))
    assert np.allclose(g[:6], 0.0)
    assert g[6] == pytest.approx(p.total_riding_mass * p.g)


def _upright_sand_block(p, f_z):
    """Accelerations (a0, a1, a5, a6) at rest in the upright configuration
    under a vertical contact force ``f_z``, from the step's sand solve."""
    diag, d, _, g = assemble_sagittal(p, [0.0] * 7, [0.0] * 7)
    return solve_sand_block(diag, d, (-g[0], -g[1], -g[5], f_z - g[6]))


def test_free_fall_from_upright():
    p = SagittalParams()
    qdd = _upright_sand_block(p, 0.0)
    assert abs(qdd[2]) < 1e-12
    assert qdd[3] == pytest.approx(-p.g, rel=1e-12)


def test_static_vertical_support():
    # F_z equal to the riding weight balances the intrusion row at rest
    p = SagittalParams()
    qdd = _upright_sand_block(p, p.total_riding_mass * p.g)
    assert abs(qdd[3]) < 1e-10


def test_solve_matches_explicit_inverse():
    rng = np.random.default_rng(10)
    p = SagittalParams()
    for _ in range(50):
        q, dq = rng.uniform(-1, 1, 7), rng.uniform(-2, 2, 7)
        tau = rng.uniform(-5, 5, 4)
        f_x, f_z = rng.uniform(-30, 30, 2)
        qdd = sagittal_accel(p, q, dq, tau, (f_x, f_z))
        d, c, g = sagittal_matrices(p, q, dq)
        rhs = -c @ dq - g
        rhs[:4] += tau
        rhs[5] += f_x
        rhs[6] += f_z
        assert np.abs(qdd - np.linalg.inv(d) @ rhs).max() < 1e-10


def test_frontal_row_matches_closed_form():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        p = random_frontal_params(rng)
        q = rng.uniform(-1.5, 1.5, 5)
        dq = rng.uniform(-4, 4, 5)
        qdd = rng.uniform(-8, 8, 5)
        d, c, g = frontal_matrices(p, q, dq)
        lhs = d @ qdd + c @ dq + g
        scale = max(1.0, abs(lhs[3]))
        worst = max(worst, abs(lhs[3] - lateral_row_closed_form(p, q, dq, qdd)) / scale)
    assert worst < 1e-9


def test_frontal_force_step_frozen_angles():
    p = FrontalParams()
    q = np.array([0.2, 1.3, -0.1, 0.0, 0.0])
    dq = np.zeros(5)
    d, c, g = frontal_matrices(p, q, dq)
    f_y = 12.0
    qdd = np.zeros(5)
    qdd[3] = f_y / p.total_mass
    lhs = d @ qdd + c @ dq + g
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
            dp, c, _ = sagittal_matrices(p, q, dq)
            d_plus, _, _ = sagittal_matrices(p, q + dq * dt, dq)
            d_minus, _, _ = sagittal_matrices(p, q - dq * dt, dq)
        else:
            p = FrontalParams()
            q = rng.uniform(-1, 1, 5)
            dq = rng.uniform(-2, 2, 5)
            dp, c, _ = frontal_matrices(p, q, dq)
            d_plus, _, _ = frontal_matrices(p, q + dq * dt, dq)
            d_minus, _, _ = frontal_matrices(p, q - dq * dt, dq)
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
        n, assemble, params = 7, sagittal_matrices, random_sagittal_params
    else:
        n, assemble, params = 5, frontal_matrices, random_frontal_params
    for _ in range(50):
        p = params(rng)
        q = rng.uniform(-1.5, 1.5, n)
        dq = rng.uniform(-4.0, 4.0, n)
        d_d = np.empty((n, n, n))  # d_d[k, i, j] = dD_ij/dq_k
        for k in range(n):
            step = np.zeros(n)
            step[k] = h
            d_d[k] = (assemble(p, q + step, dq)[0] - assemble(p, q - step, dq)[0]) / (2 * h)
        christoffel = 0.5 * (np.einsum("kij,k->ij", d_d, dq)
                             + np.einsum("jik,k->ij", d_d, dq)
                             - np.einsum("ijk,k->ij", d_d, dq))
        _, c, _ = assemble(p, q, dq)
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
            _, _, g = sagittal_matrices(p, q, np.zeros(n))
            pot = lambda qq: sagittal_energy(p, qq, np.zeros(n))[1]
        else:
            p = FrontalParams()
            n = 5
            q = rng.uniform(-1, 1, n)
            _, _, g = frontal_matrices(p, q, np.zeros(n))
            pot = lambda qq: frontal_energy(p, qq, np.zeros(n))[1]
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
    k0, v0 = sagittal_energy(p, q0, dq0)
    q1, dq1 = integrate_free(p, q0, dq0, 1e-4, 5000, method="rk4")
    k1, v1 = sagittal_energy(p, q1, dq1)
    assert abs((k1 + v1) - (k0 + v0)) / abs(k0 + v0) < 1e-6


@pytest.mark.parametrize("plane", ["sagittal", "frontal"])
def test_float_energies_match_the_oracle(plane):
    # kinetic energy against 1/2 dq^T D dq of the dense D, potential against
    # the sum over the masses, on random states and parameter sets
    rng = np.random.default_rng(16)
    if plane == "sagittal":
        n, params, energy = 7, random_sagittal_params, sagittal_energy
        matrices, potential = sagittal_matrices, sagittal_potential
    else:
        n, params, energy = 5, random_frontal_params, frontal_energy
        matrices, potential = frontal_matrices, frontal_potential
    worst = 0.0
    for _ in range(1000):
        p = params(rng)
        q, dq = rng.uniform(-1.5, 1.5, n), rng.uniform(-4.0, 4.0, n)
        kinetic, pot = energy(p, q.tolist(), dq.tolist())
        d = matrices(p, q, dq)[0]
        for got, want in ((kinetic, 0.5 * dq @ d @ dq), (pot, potential(p, q))):
            worst = max(worst, abs(got - want) / abs(want))
    assert worst < 1e-12


def test_dynamics_imports_without_numpy():
    # the program is Python floats and the standard library: every module
    # of the package loads with numpy unimportable
    package = Path(sandwalk.__file__).parent
    modules = sorted(f"sandwalk.{path.stem}" for path in package.glob("*.py")
                     if path.stem != "__init__")
    assert {"sandwalk.dynamics", "sandwalk.trajectory", "sandwalk.cli"} <= set(modules)
    code = (f"import sys; sys.path.insert(0, {str(package.parent)!r}); "
            f"sys.modules['numpy'] = None; import {', '.join(modules)}")
    subprocess.run([sys.executable, "-c", code], check=True)


def test_parameter_validation():
    with pytest.raises(ValueError):
        SagittalParams(m_b=-1.0)
    with pytest.raises(ValueError):
        SagittalParams(a_1=0.5, l_t=0.2)
    with pytest.raises(ValueError):
        FrontalParams(d_1=0.6, l_1=0.4)
