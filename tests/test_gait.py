"""Gait tests: cycloid, leg IK, the actuation map of the controller, joint
tracking."""

import math

import numpy as np
import pytest

from sandwalk import sim
from sandwalk.gait import (
    KD,
    KP,
    GaitConfig,
    UnreachableTargetError,
    cycloid_swing,
    frontal_to_hip_angles,
    frontal_torques_to_hips,
    hip_torques_to_frontal,
    leg_ik,
    track_joints,
)


def leg_fk(l_t, l_c, thigh, calf):
    """Foot-center position relative to the hip for absolute link angles."""
    return (
        -l_t * math.sin(thigh) - l_c * math.sin(calf),
        -l_t * math.cos(thigh) - l_c * math.cos(calf),
    )


# The 6x5 matrix S with q_a = S q_s for the actuators in stance-first order
# (stance hip, thigh, calf, swing hip, thigh, calf) and q_s = (stance thigh,
# stance calf, swing thigh, swing calf, trunk) absolute, the same for both
# stance sides; the hip rows are zero.
SAGITTAL_MAP = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0, -1.0],   # thigh minus trunk
    [-1.0, 1.0, 0.0, 0.0, 0.0],   # calf minus thigh
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0, -1.0],
    [0.0, 0.0, -1.0, 1.0, 0.0],
])


def controlled(side, rng, trunk_rate=True, hip_rates=True):
    """The stacked state of the default config's start, on a ``side``
    stance (0 left, 1 right), with random sagittal rates (the trunk's only
    if ``trunk_rate``) and, if ``hip_rates``, a random swing-leg rate p3'; and
    ``sim._control``'s output there (torques, measured actuator rates,
    tau_s, tau_f)."""
    cfg = sim.SimConfig()
    ws = sim.initial_state(cfg)
    ws.stance = side
    y = np.array(ws.y)
    y[:5] += rng.uniform(-0.3, 0.3, 5)
    y[9:14] = rng.uniform(-3.0, 3.0, 5) * [1, 1, 1, 1, trunk_rate]
    y[16] = rng.uniform(-2.0, 2.0) * hip_rates
    ws.y = y.tolist()
    return y, sim._control(ws, cfg)


def test_cycloid_endpoints_and_apex():
    L, h = 0.08, 0.1
    assert cycloid_swing(0.0, L, h) == pytest.approx((0.0, 0.0), abs=1e-15)
    x1, z1 = cycloid_swing(1.0, L, h)
    assert x1 == pytest.approx(L, rel=1e-12)
    assert z1 == pytest.approx(0.0, abs=1e-12)
    xm, zm = cycloid_swing(0.5, L, h)
    assert xm == pytest.approx(L / 2, rel=1e-12)
    assert zm == pytest.approx(h, rel=1e-12)


def test_cycloid_zero_vertical_velocity_at_ends():
    L, h = 0.08, 0.1
    eps = 1e-6
    dz0 = (cycloid_swing(eps, L, h)[1] - cycloid_swing(0.0, L, h)[1]) / eps
    dz1 = (cycloid_swing(1.0, L, h)[1] - cycloid_swing(1.0 - eps, L, h)[1]) / eps
    assert abs(dz0) < 1e-5
    assert abs(dz1) < 1e-5
    with pytest.raises(ValueError):
        cycloid_swing(1.2, L, h)


def test_gait_config_step_length_law():
    g = GaitConfig(cycle_period=0.4, duty=0.5, v_target=0.3)
    assert g.step_length == pytest.approx(0.3 * 0.4 * 0.5)
    with pytest.raises(ValueError):
        GaitConfig(duty=1.5)


def test_ik_near_extension_straight_down():
    l_t, l_c = 0.14, 0.28
    thigh, calf = leg_ik(l_t, l_c, (0.0, -(l_t + l_c) * (1 - 1e-6)))
    assert abs(thigh - calf) < 5e-3  # near-zero knee flexion


def test_ik_fk_roundtrip():
    rng = np.random.default_rng(21)
    l_t, l_c = 0.14, 0.28
    for _ in range(1000):
        r = rng.uniform(abs(l_t - l_c) * 1.05, (l_t + l_c) * 0.995)
        ang = rng.uniform(-1.2, 1.2)
        target = (-r * math.sin(ang), -r * math.cos(ang))
        thigh, calf = leg_ik(l_t, l_c, target)
        fk = leg_fk(l_t, l_c, thigh, calf)
        assert math.hypot(fk[0] - target[0], fk[1] - target[1]) < 1e-10


def test_ik_unreachable_targets():
    with pytest.raises(UnreachableTargetError):
        leg_ik(0.14, 0.28, (0.0, 0.0))
    with pytest.raises(UnreachableTargetError):
        leg_ik(0.14, 0.28, (0.0, -0.5))
    with pytest.raises(UnreachableTargetError):
        leg_ik(0.14, 0.28, (0.0, -0.1))


def test_ik_knee_backward_branch():
    l_t, l_c = 0.2, 0.2
    thigh, calf = leg_ik(l_t, l_c, (0.0, -0.32))
    knee_x = -l_t * math.sin(thigh)
    assert knee_x < 0.0  # knee behind the hip-foot chord


def test_sagittal_map_linearity_and_constance():
    # the controller's measured actuator rates are dq_a = S dq_s on either
    # stance side, with the (stance, swing) hip rates -p1' + p2' and
    # -p2' + p3' in rows 0 and 3, where the held lean and crossbar rest
    rng = np.random.default_rng(22)
    for side in (0, 1):
        for _ in range(100):
            y, (_, dq_a, _, _) = controlled(side, rng)
            expected = SAGITTAL_MAP @ y[9:14]
            expected[[0, 3]] = 0.0, y[16]
            assert np.abs(np.array(dq_a) - expected).max() < 1e-15


def test_sagittal_roundtrip():
    # the thigh and calf rows of the controller's dq_a and the trunk rate give
    # back the five sagittal rates, and its tau_s is S^T tau_a on the
    # actuated angles (the trunk row is not actuated)
    rng = np.random.default_rng(23)
    rows = [1, 2, 4, 5]  # the thighs and calves
    for side in (0, 1):
        for _ in range(100):
            y, (tau_a, dq_a, tau_s, _) = controlled(side, rng)
            back = np.linalg.solve(np.vstack([SAGITTAL_MAP[rows], np.eye(5)[4]]),
                                   [*np.array(dq_a)[rows], y[13]])
            assert np.abs(back - y[9:14]).max() < 1e-12
            assert np.abs(np.array(tau_s) - (SAGITTAL_MAP.T @ tau_a)[:4]).max() < 1e-12


def test_power_invariance_on_actuated_subspace():
    # with the trunk held and the hips at rest, the controller's actuator
    # power equals the power of tau_s on the four actuated sagittal rates
    rng = np.random.default_rng(24)
    for side in (0, 1):
        for _ in range(100):
            y, (tau_a, dq_a, tau_s, _) = controlled(side, rng, trunk_rate=False,
                                                    hip_rates=False)
            assert np.dot(tau_a, dq_a) == pytest.approx(np.dot(tau_s, y[9:13]), rel=1e-12,
                                                        abs=1e-12)


def test_frontal_hip_relations():
    q1, q4 = frontal_to_hip_angles(np.array([0.0, 0.0, 0.0]))
    assert q1 == pytest.approx(0.0)
    assert q4 == pytest.approx(math.pi)
    tf2, tf3 = hip_torques_to_frontal(2.0, 0.5)
    assert tf2 == pytest.approx(1.5)
    assert tf3 == pytest.approx(0.5)
    # round trips: the lean p1 recovers p2 = q1 + p1 and p3 = q4 - pi + p2
    p = np.array([0.05, 1.5, -0.2])
    q1, q4 = frontal_to_hip_angles(p)
    p2 = q1 + p[0]
    assert np.allclose([p2, q4 - math.pi + p2], p[1:])
    assert frontal_torques_to_hips(tf2, tf3) == pytest.approx((2.0, 0.5))


def test_tracking_zero_error_and_saturation():
    kp, kd, limit = KP * 2, KD * 2, 60.0
    zero = track_joints(np.ones(6), np.zeros(6), np.ones(6), np.zeros(6), kp, kd, limit)
    assert np.allclose(zero, 0.0)
    sat = track_joints(np.full(6, 100.0), np.zeros(6), np.zeros(6), np.zeros(6),
                       kp, kd, limit)
    assert np.allclose(sat, limit)
    # the float loop equals the array form bit for bit, saturated and NaN
    # entries included
    rng = np.random.default_rng(4)
    for _ in range(200):
        q_ref, dq_ref, q, dq = rng.normal(0.0, [[0.5], [5.0], [0.5], [5.0]], (4, 6))
        q[rng.integers(6)] = math.nan
        tau = track_joints(*(x.tolist() for x in (q_ref, dq_ref, q, dq)), kp, kd, limit)
        expected = np.clip(np.array(kp) * (q_ref - q) + np.array(kd) * (dq_ref - dq),
                           -limit, limit)
        assert np.array(tau).tobytes() == expected.tobytes()
        assert np.isnan(tau).sum() == 1


def test_step_response_matches_linear_system():
    """PD on a pure inertia tracks the closed-form second-order response."""
    inertia = 0.02
    kp, kd = 8.0, 0.4
    gains = (6 * (kp,), 6 * (kd,), 1e6)  # kp and kd on every joint, no saturation
    q_ref = np.zeros(6)
    q_ref[1] = 0.3
    q = np.zeros(6)
    dq = np.zeros(6)
    dt = 1e-5
    t_end = 0.5

    # analytic underdamped response of I x'' + kd x' + kp x = kp x_ref
    wn = math.sqrt(kp / inertia)
    zeta = kd / (2 * math.sqrt(kp * inertia))
    wd = wn * math.sqrt(1 - zeta ** 2)

    def analytic(t):
        e = math.exp(-zeta * wn * t)
        return 0.3 * (1 - e * (math.cos(wd * t) + zeta * wn / wd * math.sin(wd * t)))

    n = int(t_end / dt)
    for k in range(n):
        tau = track_joints(q_ref, np.zeros(6), q, dq, *gains)
        ddq = tau[1] / inertia
        # rk4 on the single joint
        def f(x, v):
            t_ = track_joints(q_ref, np.zeros(6),
                              np.array([0, x, 0, 0, 0, 0.0]),
                              np.array([0, v, 0, 0, 0, 0.0]), *gains)[1]
            return t_ / inertia
        x, v = q[1], dq[1]
        k1 = (v, f(x, v))
        k2 = (v + dt / 2 * k1[1], f(x + dt / 2 * k1[0], v + dt / 2 * k1[1]))
        k3 = (v + dt / 2 * k2[1], f(x + dt / 2 * k2[0], v + dt / 2 * k2[1]))
        k4 = (v + dt * k3[1], f(x + dt * k3[0], v + dt * k3[1]))
        q[1] = x + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        dq[1] = v + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    assert q[1] == pytest.approx(analytic(t_end), rel=0.02)
