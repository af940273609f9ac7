"""Outer pixel loop, attitude PD, mixer, and the full controller pipeline."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadtrack.controller import (GRAVITY, AttitudeGains, BodyCommand,
                                  ControllerGains, ControllerState,
                                  MixerGeometry, MotorCommand, PixelErrors,
                                  Setpoints, VisualController, attitude_control,
                                  desired_force, desired_rotation,
                                  desired_yaw, mix, motor_wrench,
                                  next_pitch_accel, pixel_errors, setpoints,
                                  thrust_from_force)
from quadtrack.errors import (DegenerateForceError, DegenerateHeadingError,
                              TimeRegressionError)
from quadtrack.geometry import (CameraModel, is_rotation, rot_x, rot_y, rot_z,
                                vee, zyx_matrix)

CAM = CameraModel.from_vfov(960, 544, 1.047)
GAINS = ControllerGains()
INERTIA = np.array([0.02, 0.02, 0.04])


# ---------------------------------------------------------------------------
# setpoints
# ---------------------------------------------------------------------------


def test_setpoints_level_camera_centered():
    sp = setpoints(CAM, 0.0)
    assert sp == (480.0, 272.0, False)


def test_setpoints_track_pitch():
    # sy = (H/2)(1 - 2 pitch / vfov)
    sp = setpoints(CAM, 0.1)
    assert sp.sy == pytest.approx(272.0 * (1.0 - 0.2 / 1.047), abs=1e-12)
    assert sp.sy == pytest.approx(220.042, abs=1e-3)
    assert not sp.saturated
    # pitching by the half field of view drives the setpoint to the border
    sp = setpoints(CAM, 1.047 / 2.0)
    assert sp.sy == pytest.approx(0.0, abs=1e-9)


def test_setpoints_clamped_outside_image():
    sp = setpoints(CAM, 0.6)
    assert sp.sy == 0.0 and sp.saturated
    sp = setpoints(CAM, -0.6)
    assert sp.sy == 544.0 and sp.saturated


def test_setpoints_literal_variant_mixes_units():
    sp = setpoints(CAM, 0.1, literal=True)
    assert sp.sy == pytest.approx(272.0 - 0.2 / 1.047, abs=1e-12)


@given(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
def test_setpoints_monotone_in_pitch(p1, p2):
    lo, hi = min(p1, p2), max(p1, p2)
    assert setpoints(CAM, lo).sy >= setpoints(CAM, hi).sy
    if hi - lo >= 1e-9:  # gaps resolvable in float are strict
        assert setpoints(CAM, lo).sy > setpoints(CAM, hi).sy


# ---------------------------------------------------------------------------
# pixel errors
# ---------------------------------------------------------------------------


def test_pixel_errors_sign_and_first_call():
    state = ControllerState()
    sp = Setpoints(480.0, 272.0, False)
    err = pixel_errors(state, sp, (500.0, 250.0), 0.0)
    assert err == (-20.0, 22.0, 0.0, 0.0)


def test_pixel_errors_zero_at_setpoint():
    state = ControllerState()
    sp = Setpoints(480.0, 272.0, False)
    err = pixel_errors(state, sp, (480.0, 272.0), 0.0)
    assert err == (0.0, 0.0, 0.0, 0.0)


def test_pixel_errors_derivative_converges_to_drift_rate():
    # target drifting +10 px/s: after 1 s of 100 Hz ticks the filtered
    # derivative of ew = sx - x sits within 2% of -10
    state = ControllerState()
    sp = Setpoints(480.0, 272.0, False)
    for k in range(101):
        t = k * 0.01
        err = pixel_errors(state, sp, (480.0 + 10.0 * t, 272.0), t)
    assert err.dew == pytest.approx(-10.0, rel=0.02)
    assert err.deh == pytest.approx(0.0, abs=1e-9)


def test_pixel_errors_zero_dt_keeps_filter_state():
    state = ControllerState()
    sp = Setpoints(480.0, 272.0, False)
    pixel_errors(state, sp, (470.0, 272.0), 0.0)
    a = pixel_errors(state, sp, (460.0, 272.0), 0.1)
    b = pixel_errors(state, sp, (450.0, 272.0), 0.1)
    assert b.dew == a.dew and b.ew == 30.0


def test_pixel_errors_time_regression_raises():
    state = ControllerState()
    sp = Setpoints(480.0, 272.0, False)
    pixel_errors(state, sp, (480.0, 272.0), 1.0)
    with pytest.raises(TimeRegressionError):
        pixel_errors(state, sp, (480.0, 272.0), 0.9)


# ---------------------------------------------------------------------------
# pitch-acceleration complementary filter
# ---------------------------------------------------------------------------


def test_pitch_accel_first_step():
    assert next_pitch_accel(0.0, GAINS) == pytest.approx(0.425, abs=1e-15)


def test_pitch_accel_geometric_rise():
    # from zero: hat_n = target (1 - beta^n)
    hat = 0.0
    for n in range(1, 30):
        hat = next_pitch_accel(hat, GAINS)
        assert hat == pytest.approx(0.5 * (1.0 - 0.15 ** n), abs=1e-12)


def test_pitch_accel_beta_endpoints():
    frozen = ControllerGains(beta=1.0)
    assert next_pitch_accel(0.2, frozen) == 0.2
    instant = ControllerGains(beta=0.0)
    assert next_pitch_accel(0.2, instant) == instant.pitch_accel


# ---------------------------------------------------------------------------
# force, thrust, yaw, attitude references
# ---------------------------------------------------------------------------


def test_desired_force_hover():
    err = PixelErrors(0.0, 0.0, 0.0, 0.0)
    f = desired_force(err, np.eye(3), 0.0, GAINS)
    assert np.allclose(f, [0.0, 0.0, 1.3 * GRAVITY], atol=1e-12)


def test_desired_force_height_error_maps_to_thrust():
    err = PixelErrors(0.0, 100.0, 0.0, 0.0)
    f = desired_force(err, np.eye(3), 0.0, GAINS)
    assert np.allclose(f, [0.0, 0.0, 1.3 * (0.08 * 100.0 + GRAVITY)], atol=1e-12)


def test_desired_force_forward_reference():
    err = PixelErrors(0.0, 0.0, 0.0, 0.0)
    f = desired_force(err, np.eye(3), 0.5, GAINS)
    assert np.allclose(f, [0.65, 0.0, 1.3 * GRAVITY], atol=1e-12)


def test_desired_force_floor_clamp():
    err = PixelErrors(0.0, -200.0, 0.0, 0.0)
    f = desired_force(err, np.eye(3), 0.0, GAINS)
    assert f[2] == pytest.approx(0.1 * 1.3 * GRAVITY, abs=1e-12)
    assert f[0] == 0.0 and f[1] == 0.0


def test_desired_force_literal_flips_gravity_into_floor():
    # the raw published sign gives negative hover thrust; the floor is all
    # that keeps it airborne
    err = PixelErrors(0.0, 0.0, 0.0, 0.0)
    f = desired_force(err, np.eye(3), 0.0, GAINS, literal=True)
    assert f[2] == pytest.approx(0.1 * 1.3 * GRAVITY, abs=1e-12)


def test_thrust_from_force_level_and_tilted():
    f = np.array([0.0, 0.0, 1.3 * GRAVITY])
    assert thrust_from_force(f, np.eye(3)) == pytest.approx(1.3 * GRAVITY, abs=1e-12)
    # body z horizontal: the demand has no body-z component
    assert thrust_from_force(f, rot_x(math.pi / 2.0)) == pytest.approx(0.0, abs=1e-12)


@given(st.floats(-math.pi, math.pi), st.floats(-1.4, 1.4),
       st.floats(-math.pi, math.pi), st.floats(-5.0, 5.0),
       st.floats(-5.0, 5.0), st.floats(0.5, 30.0))
def test_thrust_is_force_along_body_z(yaw, pitch, roll, fx, fy, fz):
    R = zyx_matrix(yaw, pitch, roll)
    f = np.array([fx, fy, fz])
    tau = thrust_from_force(f, R)
    assert tau == max(0.0, float(f @ R[:, 2]))
    assert tau <= np.linalg.norm(f) + 1e-12


def test_desired_yaw_increment_and_wrap():
    err = PixelErrors(100.0, 0.0, 0.0, 0.0)
    assert desired_yaw(0.0, err, GAINS, 0.01) == pytest.approx(0.095, abs=1e-12)
    zero = PixelErrors(0.0, 0.0, 0.0, 0.0)
    assert desired_yaw(0.4, zero, GAINS, 0.01) == pytest.approx(0.4, abs=1e-15)
    wrapped = desired_yaw(math.pi - 0.01, err, GAINS, 0.01)
    assert wrapped == pytest.approx(-math.pi + 0.085, abs=1e-12)


def test_desired_rotation_hover_is_identity():
    R = desired_rotation(np.array([0.0, 0.0, 1.3 * GRAVITY]), 0.0)
    assert np.array_equal(R, np.eye(3))


def test_desired_rotation_tilts_thrust_axis():
    a = math.radians(10.0)
    f = 1.3 * GRAVITY * np.array([math.sin(a), 0.0, math.cos(a)])
    R = desired_rotation(f, 0.0)
    assert np.allclose(R[:, 2], [math.sin(a), 0.0, math.cos(a)], atol=1e-12)
    assert is_rotation(R, tol=1e-9)


@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(2.0, 40.0),
       st.floats(-math.pi, math.pi))
def test_desired_rotation_orthonormal_and_aligned(fx, fy, fz, yaw):
    f = np.array([fx, fy, fz])
    R = desired_rotation(f, yaw)
    assert is_rotation(R, tol=1e-9)
    assert np.allclose(R[:, 2], f / np.linalg.norm(f), atol=1e-12)


def test_desired_rotation_degenerate_inputs():
    with pytest.raises(DegenerateForceError):
        desired_rotation(np.array([0.0, 0.0, 1e-7]), 0.0)
    with pytest.raises(DegenerateForceError):
        desired_rotation(np.zeros(3), 0.0)
    # force along the heading direction leaves no lateral axis
    with pytest.raises(DegenerateHeadingError):
        desired_rotation(np.array([5.0, 0.0, 0.0]), 0.0)


# ---------------------------------------------------------------------------
# attitude loop
# ---------------------------------------------------------------------------


def _ref_desired_rotation(f_des, yaw_des):
    r3 = f_des / np.linalg.norm(f_des)
    h = np.array([math.cos(yaw_des), math.sin(yaw_des), 0.0])
    r2 = np.cross(r3, h)
    r2 = r2 / np.linalg.norm(r2)
    return np.column_stack([np.cross(r2, r3), r2, r3])


def _ref_attitude_control(R, omega, R_des, gains, J):
    e_R = 0.5 * vee(R_des.T @ R - R.T @ R_des)
    return (-np.asarray(gains.kr) * e_R - np.asarray(gains.kw) * omega
            + np.cross(omega, J * omega))


def _random_rotation(rng):
    return zyx_matrix(rng.uniform(-math.pi, math.pi), rng.uniform(-1.5, 1.5),
                      rng.uniform(-math.pi, math.pi))


def test_controller_cross_bit_identical_to_numpy():
    rng = np.random.default_rng(3)
    for i in range(200):
        f = rng.normal(0.0, 5.0, size=3) + np.array([0.0, 0.0, 12.0])
        yaw = rng.uniform(-math.pi, math.pi)
        assert np.array_equal(desired_rotation(f, yaw), _ref_desired_rotation(f, yaw)), i
        R, R_des = _random_rotation(rng), _random_rotation(rng)
        omega = rng.normal(0.0, 300.0 if i % 4 == 0 else 3.0, size=3)
        J = rng.uniform(0.002, 0.05, size=3)
        assert np.array_equal(attitude_control(R, omega, R_des, AttitudeGains(), J),
                              _ref_attitude_control(R, omega, R_des, AttitudeGains(), J)), i


def test_attitude_zero_error_zero_rate_zero_torque():
    R = zyx_matrix(0.3, 0.2, -0.1)
    tau = attitude_control(R, np.zeros(3), R, AttitudeGains(), INERTIA)
    assert np.allclose(tau, 0.0, atol=1e-15)


def test_attitude_small_angle_proportional():
    d = 1e-3
    tau = attitude_control(rot_x(d), np.zeros(3), np.eye(3),
                           AttitudeGains(), INERTIA)
    assert np.allclose(tau, [-2.0 * math.sin(d), 0.0, 0.0], atol=1e-15)


def test_attitude_rate_damping():
    w = np.array([0.0, 0.0, 1.0])
    tau = attitude_control(np.eye(3), w, np.eye(3), AttitudeGains(), INERTIA)
    assert np.allclose(tau, [0.0, 0.0, -0.15], atol=1e-15)


def test_attitude_gyroscopic_feedforward():
    w = np.array([1.0, 2.0, 3.0])
    J = np.array([0.02, 0.03, 0.04])
    tau = attitude_control(np.eye(3), w, np.eye(3), AttitudeGains(), J)
    kw = np.array(AttitudeGains().kw)
    want = -kw * w + np.cross(w, J * w)
    assert np.allclose(tau, want, atol=1e-15)
    # full inertia matrix input agrees with the diagonal shortcut
    tau2 = attitude_control(np.eye(3), w, np.eye(3), AttitudeGains(), np.diag(J))
    assert np.allclose(tau, tau2, atol=1e-15)


# ---------------------------------------------------------------------------
# mixer
# ---------------------------------------------------------------------------


GEOM = MixerGeometry()


def test_mix_hover_split_evenly():
    cmd = mix(5.2, np.zeros(3), GEOM)
    assert np.allclose(cmd.thrusts, 1.3, atol=1e-12)
    assert not cmd.saturated


def test_mix_zero_command():
    cmd = mix(0.0, np.zeros(3), GEOM)
    assert np.array_equal(cmd.thrusts, np.zeros(4))
    assert not cmd.saturated


def test_mix_pure_yaw_moves_diagonal_pairs():
    cmd = mix(4.0, np.array([0.0, 0.0, 0.0064]), GEOM)
    f = cmd.thrusts
    x = 0.0064 / (4.0 * GEOM.yaw_coeff)
    assert np.allclose([f[0], f[2]], 1.0 + x, atol=1e-12)
    assert np.allclose([f[1], f[3]], 1.0 - x, atol=1e-12)
    assert sum(f) == pytest.approx(4.0, abs=1e-12)


def test_mix_round_trips_through_forward_map():
    rng = np.random.default_rng(4)
    for _ in range(50):
        thrust = rng.uniform(1.0, 28.0)
        torques = rng.uniform(-0.2, 0.2, size=3)
        cmd = mix(thrust, torques, GEOM)
        got_thrust, got_torques = motor_wrench(cmd, GEOM)
        assert got_thrust == pytest.approx(thrust, abs=1e-9)
        if not cmd.saturated:
            assert np.allclose(got_torques, torques, atol=1e-9)
        assert np.all(cmd.thrusts >= -1e-12)
        assert np.all(cmd.thrusts <= GEOM.max_thrust + 1e-12)


def test_mix_saturation_scales_torque_keeps_collective():
    thrust = 20.0
    torques = np.array([2.0, -1.5, 0.3])
    cmd = mix(thrust, torques, GEOM)
    assert cmd.saturated
    got_thrust, got_torques = motor_wrench(cmd, GEOM)
    assert got_thrust == pytest.approx(thrust, abs=1e-9)
    ratios = got_torques / torques
    assert np.allclose(ratios, ratios[0], atol=1e-9)
    assert 0.0 < ratios[0] < 1.0
    assert np.max(cmd.thrusts) <= GEOM.max_thrust + 1e-12
    assert np.min(cmd.thrusts) >= -1e-12


def test_mix_collective_overflow_and_underflow():
    over = mix(40.0, np.array([0.1, 0.0, 0.0]), GEOM)
    assert over.saturated and np.array_equal(over.thrusts, np.full(4, 8.0))
    under = mix(-1.0, np.zeros(3), GEOM)
    assert under.saturated and np.array_equal(under.thrusts, np.zeros(4))


def per_call_allocation(geom):
    """The mixer matrix as it was built on every call."""
    a = geom.arm_length / math.sqrt(2.0)
    k = geom.yaw_coeff
    return np.array([[1.0, 1.0, 1.0, 1.0], [-a, a, a, -a], [-a, -a, a, a],
                     [k, -k, k, -k]])


def per_call_mix(thrust, torques, geom):
    f = np.linalg.solve(per_call_allocation(geom),
                        np.array([thrust, *torques], dtype=float))
    base = thrust / 4.0
    if base > geom.max_thrust:
        return MotorCommand(np.full(4, geom.max_thrust), True)
    if base < 0.0:
        return MotorCommand(np.zeros(4), True)
    d = f - base
    scale = 1.0
    for i in range(4):
        if base + d[i] > geom.max_thrust and d[i] > 0:
            scale = min(scale, (geom.max_thrust - base) / d[i])
        elif base + d[i] < 0.0 and d[i] < 0:
            scale = min(scale, base / -d[i])
    if scale < 1.0:
        return MotorCommand(base + scale * d, True)
    return MotorCommand(f, False)


def test_mixer_matrix_built_once_is_bit_identical():
    rng = np.random.default_rng(11)
    saturated = 0
    for _ in range(300):
        geom = MixerGeometry(rng.uniform(0.05, 0.5), rng.uniform(0.001, 0.05),
                             rng.uniform(2.0, 15.0))
        assert geom.allocation is geom.allocation
        assert not geom.allocation.flags.writeable
        assert np.array_equal(geom.allocation, per_call_allocation(geom))
        for _ in range(2):  # the second call reads the kept matrix
            thrust = rng.uniform(-1.0, 4.5 * geom.max_thrust)
            torques = rng.normal(size=3) * 10.0 ** rng.uniform(-3, 0)
            got, want = mix(thrust, torques, geom), per_call_mix(thrust, torques, geom)
            assert np.array_equal(got.thrusts, want.thrusts)
            assert got.saturated == want.saturated
            saturated += got.saturated
            thrusts = rng.uniform(0.0, geom.max_thrust, 4)
            got_thrust, got_torques = motor_wrench(MotorCommand(thrusts, False), geom)
            u = per_call_allocation(geom) @ thrusts
            assert got_thrust == float(u[0])
            assert np.array_equal(got_torques, u[1:])
    assert 50 < saturated < 550


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def make_controller(**kw):
    return VisualController(CAM, ControllerGains(), AttitudeGains(),
                            MixerGeometry(), INERTIA, dt=0.01, **kw)


def test_hover_tick_level_equilibrium():
    ctl = make_controller()
    cmd, motors = ctl.hover_tick(0.0, np.eye(3), np.zeros(3))
    assert cmd.thrust == pytest.approx(1.3 * GRAVITY, abs=1e-12)
    assert np.array_equal(cmd.rotation_des, np.eye(3))
    assert np.allclose(motors.thrusts, 1.3 * GRAVITY / 4.0, atol=1e-12)
    assert not motors.saturated
    assert cmd.errors == (0.0, 0.0, 0.0, 0.0)


def test_hover_tick_preserves_heading():
    ctl = make_controller()
    R = rot_z(0.7)
    cmd, _ = ctl.hover_tick(0.0, R, np.zeros(3))
    assert cmd.yaw_des == pytest.approx(0.7, abs=1e-12)
    assert np.allclose(cmd.rotation_des, R, atol=1e-12)


def test_tick_centered_target_requests_forward_lean():
    ctl = make_controller()
    cmd, motors = ctl.tick(0.0, (480.0, 272.0), np.eye(3), np.zeros(3))
    assert cmd.errors.ew == 0.0 and cmd.errors.eh == 0.0
    assert cmd.pitch_accel_hat == pytest.approx(0.425, abs=1e-12)
    assert np.allclose(cmd.force_des, [1.3 * 0.425, 0.0, 1.3 * GRAVITY],
                       atol=1e-12)
    assert cmd.thrust == pytest.approx(1.3 * GRAVITY, abs=1e-12)
    assert cmd.yaw_des == 0.0
    # desired attitude pitches the thrust axis toward the target
    assert cmd.rotation_des[0, 2] > 0.0
    assert is_rotation(cmd.rotation_des, tol=1e-9)


def test_tick_command_record_schema():
    ctl = make_controller()
    cmd, motors = ctl.tick(0.0, (500.0, 250.0), np.eye(3), np.zeros(3))
    rec = ctl.command_record(0.0, cmd, motors)
    assert rec["t"] == 0.0
    assert rec["ew"] == -20.0 and rec["eh"] == 22.0
    assert rec["thrust"] == cmd.thrust
    assert abs(np.linalg.norm(rec["quat_des"]) - 1.0) < 1e-12
    assert rec["quat_des"][0] >= 0.0
    assert rec["sp_sat"] is False and rec["motor_sat"] is False


def test_body_command_container():
    bc = BodyCommand(5.0, np.zeros(3))
    assert bc.thrust == 5.0 and np.array_equal(bc.torques, np.zeros(3))


def test_gains_validation():
    with pytest.raises(ValueError):
        ControllerGains(beta=1.5)
    with pytest.raises(ValueError):
        ControllerGains(mass=0.0)
    assert ControllerGains(beta=1.0).beta == 1.0
    assert ControllerGains(beta=0.0).beta == 0.0


def test_default_gains_published_values():
    g = ControllerGains()
    assert (g.kp_roll, g.kd_roll) == (0.05, 0.001)
    assert (g.kp_thrust, g.kd_thrust) == (0.08, 0.00025)
    assert (g.kp_yaw, g.kd_yaw) == (0.095, 0.0004)
    assert g.beta == 0.15 and g.mass == 1.3
