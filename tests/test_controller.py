"""Outer pixel loop, attitude PD, mixer, and the full controller pipeline."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadtrack.controller import (GRAVITY, AttitudeGains, BodyCommand,
                                  ControlCommand, ControllerGains, ControllerState,
                                  MixerGeometry, MotorCommand, PixelErrors,
                                  Setpoints, VisualController, attitude_control,
                                  desired_force, desired_rotation,
                                  desired_yaw, mix, motor_wrench,
                                  next_pitch_accel, pixel_errors, setpoints,
                                  thrust_from_force)
from quadtrack.errors import (ControllerAbort, DegenerateForceError,
                              DegenerateHeadingError, TimeRegressionError)
from quadtrack.geometry import (CameraModel, cross3, is_rotation,
                                pitch_yaw_from_rotation, quat_from_rotation,
                                rot_x, rot_y, rot_z, vee, zyx_matrix)

CAM = CameraModel.from_vfov(960, 544, 1.047)
GAINS = ControllerGains()
INERTIA = np.array([0.02, 0.02, 0.04])
U = 2.0 ** -53  # unit roundoff of binary64


def gamma(n):
    """gamma_n = n u / (1 - n u): the relative error bound of n roundings
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.1)."""
    return n * U / (1.0 - n * U)


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


def test_thrust_from_force_keeps_nan_and_clamps_finite_demands():
    # max(0.0, nan) is 0.0, which would hide a NaN demand from the tick's
    # finiteness check; every other demand keeps max(0.0, x) bit for bit
    level = np.eye(3).tolist()
    assert math.isnan(thrust_from_force((0.0, 0.0, math.nan), level))
    for z in (0.0, -0.0, -3.0, 5e-324, -5e-324, 7.25, math.inf, -math.inf):
        got, want = thrust_from_force((0.0, 0.0, z), level), max(0.0, z)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), z
    rng = np.random.default_rng(12)
    for _ in range(200):
        f, R = rng.normal(0.0, 10.0, 3).tolist(), _random_rotation(rng).tolist()
        (_, _, r02), (_, _, r12), (_, _, r22) = R
        assert thrust_from_force(f, R) == max(0.0, r02 * f[0] + r12 * f[1] + r22 * f[2])


@given(st.floats(-math.pi, math.pi), st.floats(-1.4, 1.4),
       st.floats(-math.pi, math.pi), st.floats(-5.0, 5.0),
       st.floats(-5.0, 5.0), st.floats(0.5, 30.0))
def test_thrust_is_force_along_body_z(yaw, pitch, roll, fx, fy, fz):
    R = zyx_matrix(yaw, pitch, roll)
    f = np.array([fx, fy, fz])
    tau = thrust_from_force(f, R)
    # two 3-term dot products, each within gamma_3 |f|.|R e3| of the exact
    # value whatever their order of summation
    assert abs(tau - max(0.0, float(f @ R[:, 2]))) <= 2 * gamma(3) * (np.abs(f) @ np.abs(R[:, 2]))
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
    R = np.asarray(desired_rotation(f, 0.0))
    assert np.allclose(R[:, 2], [math.sin(a), 0.0, math.cos(a)], atol=1e-12)
    assert is_rotation(R, tol=1e-9)


@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(2.0, 40.0),
       st.floats(-math.pi, math.pi))
def test_desired_rotation_orthonormal_and_aligned(fx, fy, fz, yaw):
    f = np.array([fx, fy, fz])
    R = np.asarray(desired_rotation(f, yaw))
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


def test_desired_rotation_survives_overflowing_sum_of_squares():
    # |f|^2 overflows above ~1e154 per component; the norm does not
    R = np.asarray(desired_rotation((3e200, 0.0, 4e200), 0.0))
    assert np.allclose(R[:, 2], [0.6, 0.0, 0.8], rtol=0.0, atol=1e-15)
    assert is_rotation(R, tol=1e-12)


# ---------------------------------------------------------------------------
# kept numpy forms: the controller as it ran on arrays, the oracles' reference
# ---------------------------------------------------------------------------


def ref_desired_force(err, R, pitch_accel_hat, gains, literal=False):
    a_body = np.array([
        pitch_accel_hat,
        gains.kp_roll * err.ew + gains.kd_roll * err.dew,
        gains.kp_thrust * err.eh + gains.kd_thrust * err.deh,
    ])
    g = np.array([0.0, 0.0, -GRAVITY])
    if literal:
        f = gains.mass * (R @ a_body + g)
    else:
        f = gains.mass * (R @ a_body - g)
    floor = gains.min_thrust_frac * gains.mass * GRAVITY
    if f[2] < floor:
        f = f.copy()
        f[2] = floor
    return f


def ref_thrust_from_force(f_des, R):
    return max(0.0, float((R.T @ f_des)[2]))


def ref_desired_rotation(f_des, yaw_des):
    n = np.linalg.norm(f_des)
    if n <= 1e-6:
        raise DegenerateForceError(f"force demand norm {n:.3e} too small")
    r3 = f_des / n
    h = (math.cos(yaw_des), math.sin(yaw_des), 0.0)
    r2 = np.array(cross3(r3, h))
    n2 = np.linalg.norm(r2)
    if n2 <= 1e-6:
        raise DegenerateHeadingError("heading parallel to thrust axis")
    r2 = r2 / n2
    r1 = np.array(cross3(r2, r3))
    return np.column_stack([r1, r2, r3])


def ref_attitude_control(R, omega, R_des, gains, inertia):
    e_R = 0.5 * vee(R_des.T @ R - R.T @ R_des)
    J = np.asarray(inertia, dtype=float)
    Jw = J * omega if J.ndim == 1 else J @ omega
    return (-np.asarray(gains.kr) * e_R - np.asarray(gains.kw) * omega
            + cross3(omega, Jw))


def ref_quat_from_rotation(R):
    R = np.asarray(R, dtype=float)
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s, (R[2, 1] - R[1, 2]) / s,
                      (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s])
    else:
        i = int(np.argmax([R[0, 0], R[1, 1], R[2, 2]]))
        if i == 0:
            s = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
            q = np.array([(R[2, 1] - R[1, 2]) / s, 0.25 * s,
                          (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s])
        elif i == 1:
            s = math.sqrt(1.0 - R[0, 0] + R[1, 1] - R[2, 2]) * 2.0
            q = np.array([(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s,
                          0.25 * s, (R[1, 2] + R[2, 1]) / s])
        else:
            s = math.sqrt(1.0 - R[0, 0] - R[1, 1] + R[2, 2]) * 2.0
            q = np.array([(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s,
                          (R[1, 2] + R[2, 1]) / s, 0.25 * s])
    q = q / np.linalg.norm(q)
    if q[0] < 0.0:
        q = -q
    return q


class RefController(VisualController):
    """tick, hover_tick and command_record as they ran on numpy arrays."""

    def tick(self, t, target_xy, R, omega):
        pitch, yaw = pitch_yaw_from_rotation(R)
        sp = setpoints(self.cam, pitch, self.literal)
        err = pixel_errors(self.state, sp, target_xy, t, self.deriv_tau)
        self.state.pitch_accel_hat = next_pitch_accel(
            self.state.pitch_accel_hat, self.gains)
        f_des = ref_desired_force(err, R, self.state.pitch_accel_hat,
                                  self.gains, self.literal)
        tau_d = ref_thrust_from_force(f_des, R)
        yaw_d = desired_yaw(yaw, err, self.gains, self.dt)
        R_des = ref_desired_rotation(f_des, yaw_d)
        torques = ref_attitude_control(R, omega, R_des, self.att_gains, self.inertia)
        motors = per_call_mix(tau_d, torques, self.geom)
        return ControlCommand(tau_d, yaw_d, R_des, err, sp,
                              self.state.pitch_accel_hat, f_des), motors

    def hover_tick(self, t, R, omega):
        _, yaw = pitch_yaw_from_rotation(R)
        f_des = np.array([0.0, 0.0, self.gains.mass * GRAVITY])
        tau_d = ref_thrust_from_force(f_des, R)
        R_des = ref_desired_rotation(f_des, yaw)
        torques = ref_attitude_control(R, omega, R_des, self.att_gains, self.inertia)
        motors = per_call_mix(tau_d, torques, self.geom)
        err = PixelErrors(0.0, 0.0, 0.0, 0.0)
        sp = Setpoints(self.cam.width / 2.0, self.cam.height / 2.0, False)
        return ControlCommand(tau_d, yaw, R_des, err, sp, 0.0, f_des), motors

    def command_record(self, t, cmd, motors):
        rec = super().command_record(t, cmd, motors)
        rec["quat_des"] = ref_quat_from_rotation(cmd.rotation_des)
        return rec


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


# ---------------------------------------------------------------------------
# error bounds between the float forms and the kept numpy forms
#
# Each piece is bounded given each side's own inputs: the exact piece's
# sensitivity to the input difference, plus each side's rounding.  A dot
# product of n terms, in any order and with or without fused multiply-add,
# is within gamma_n of its exact value relative to the sum of the terms'
# magnitudes (Higham sec. 3.1); numpy's 3x3 products (BLAS) and the float
# forms differ only there, in the norms and in the 4x4 solve.
# ---------------------------------------------------------------------------


def force_bound(err, R, pitch_accel_hat, gains):
    """|f_n - f_r|: per side, R a_b is a 3-term dot product (gamma_3), then
    one addition of g and one product with m: within gamma_5 m (|R||a| + |g|).
    The floor clamp is 1-Lipschitz."""
    a = np.abs([pitch_accel_hat,
                gains.kp_roll * err.ew + gains.kd_roll * err.dew,
                gains.kp_thrust * err.eh + gains.kd_thrust * err.deh])
    return 2 * gamma(5) * gains.mass * (np.abs(R) @ a + np.array([0.0, 0.0, GRAVITY]))


def thrust_bound(R, f_n, f_r):
    """|thrust_n - thrust_r|: R e3 . f is linear in f, and each side's 3-term
    dot product is within gamma_3 |R e3|.|f|; max(0, .) is 1-Lipschitz."""
    r = np.abs(R[:, 2])
    return r @ np.abs(f_n - f_r) + gamma(3) * (r @ (np.abs(f_n) + np.abs(f_r)))


def rotation_bound(f_n, f_r, yaw):
    """Frobenius bound on |R_des,n - R_des,r| with the columns r1, r2, r3.

    r3 = f/|f|: the exact map moves by at most 2|df|/|f|, and each side's
    norm (3 squares summed, a square root) and division leave it within
    gamma_5 of the unit vector.  r3 x h (h the shared heading) adds
    |dr3| |h| plus each side's cross-product rounding, sqrt(2) gamma_2 |r3||h|
    <= 2 gamma_3.  Normalizing by n2 = |r3 x h| moves by 2/n2 times that,
    plus gamma_5 per side; n2 is bounded below from the reference's own
    force.  r1 = r2 x r3 moves by |dr2| + |dr3| (unit vectors) plus
    2 gamma_3 per side."""
    df = np.linalg.norm(f_n - f_r)
    e3 = 2.0 * df / min(np.linalg.norm(f_n), np.linalg.norm(f_r)) + 2 * gamma(5)
    h = np.array([math.cos(yaw), math.sin(yaw), 0.0])
    d_raw = (1 + U) * e3 + 4 * gamma(3)
    n2_lo = (np.linalg.norm(np.cross(f_r / np.linalg.norm(f_r), h)) * (1 - gamma(10))
             - (1 + U) * e3 - 2 * gamma(3))
    assert n2_lo > 0.0
    e2 = 2.0 * d_raw / n2_lo + 2 * gamma(5)
    e1 = (1 + gamma(5)) * (e2 + e3) + 4 * gamma(3)
    return e1 + e2 + e3


def torque_bound(R, omega, Rd_n, Rd_r, gains, J):
    """|tau_n - tau_r|, elementwise.  eR_i = 0.5 (P - Q) with P, Q 3-term dot
    products of columns of R_des and R: per side within
    0.5 gamma_4 (|P| + |Q|) evaluated on magnitudes, and the exact eR is
    linear in R_des, so it moves by 0.5 (|dR_des|^T|R| + |R|^T|dR_des|) at
    (i, j).  tau_i = -kr_i eR_i - kw_i w_i + c_i takes three more roundings
    per side; kw_i w_i and c_i = (w x J w)_i are the same bits on both
    sides."""
    A, dD = np.abs(R), np.abs(Rd_n - Rd_r)
    e_r = 0.5 * vee(Rd_r.T @ R - R.T @ Rd_r)
    c = np.abs(np.cross(omega, J * omega))
    out = np.empty(3)
    for i, (a, b) in enumerate(((2, 1), (0, 2), (1, 0))):
        err = sum(0.5 * gamma(4) * ((np.abs(D).T @ A)[a, b] + (A.T @ np.abs(D))[a, b])
                  for D in (Rd_n, Rd_r))
        de = 0.5 * ((dD.T @ A)[a, b] + (A.T @ dD)[a, b]) + err
        kr, kw = abs(gains.kr[i]), abs(gains.kw[i])
        out[i] = (kr * de * (1 + gamma(3))
                  + 2 * gamma(3) * (kr * (abs(e_r[i]) + de) + kw * abs(omega[i]) + c[i]))
    return out


def abs_allocation_inverse(geom):
    """|A^-1| = |A|^T diag(1 / |row_j|^2), the rows of A being orthogonal."""
    A = geom.allocation
    return np.abs(A).T / (A * A).sum(axis=1)


def mix_bound(u_n, u_r, geom):
    """|mix(*u_n) - per_call_mix(*u_r)|, elementwise, when both take the same
    branch.

    Unsaturated thrusts f = A^-1 u: the float side applies A^-1 (each entry
    within gamma_5: four squares summed, one division) in a 4-term dot
    product, within gamma_9 |A^-1||u|.  The reference's LU solve with
    partial pivoting solves (A + dA) f = u with |dA| <= gamma_12 |L||U|
    (Higham Thm 9.4), |L| <= 1 and |U| <= 2^3 max|A| (growth bound), so
    |df| <= 32 gamma_12 max|A| |A^-1| 1 sum|f|.

    Saturation scales d = f - base by s = min(1, phi_i), phi_i =
    (max - base)/d_i for d_i > 0 and base/-d_i for d_i < 0.  With dd and
    db bounds on |d_n - d_r| and |base_n - base_r|, each phi moves by at
    most (dc + phi dd)/(|d| - dd) plus its two roundings; the thrusts
    base + s d move by db + s dd + ds |d| plus two roundings per side.  A
    collective outside [0, 4 max] gives the same constant thrusts."""
    A, Ai = geom.allocation, abs_allocation_inverse(geom)
    base = u_r[0] / 4.0
    if base > geom.max_thrust or base < 0.0:
        return np.zeros(4)
    f_r = np.linalg.solve(A, u_r)
    du = np.abs(u_n - u_r)
    df = (Ai @ du + gamma(9) * (Ai @ np.abs(u_n))
          + 32 * gamma(12) * np.abs(A).max() * Ai.sum(axis=1) * np.abs(f_r).sum())
    db = du[0] / 4.0
    d, dd = f_r - base, df + db
    s, ds = 1.0, 0.0
    for di, ddi in zip(d, dd):
        if abs(di) <= ddi:
            # the sign is not resolved, but phi is >= 1 either way
            assert min(geom.max_thrust - base, base) >= abs(di) + ddi
            continue
        c = geom.max_thrust - base if di > 0 else base
        phi = c / abs(di)
        dphi = (db + 2 * U * (abs(c) + db) + phi * ddi) / (abs(di) - ddi) + 2 * U * phi
        s = min(s, phi)
        if phi - dphi < 1.0:
            ds = max(ds, dphi)
    if s == 1.0 and ds == 0.0:
        return df
    return (db + (s + ds) * dd + ds * np.abs(d)
            + 2 * gamma(2) * (abs(base) + db + (s + ds) * (np.abs(d) + dd)))


def _random_rotation(rng):
    return zyx_matrix(rng.uniform(-math.pi, math.pi), rng.uniform(-1.5, 1.5),
                      rng.uniform(-math.pi, math.pi))


def test_controller_pieces_match_numpy_within_rounding():
    rng = np.random.default_rng(3)
    for i in range(400):
        R, R_des = _random_rotation(rng), _random_rotation(rng)
        Rl = R.tolist()
        err = PixelErrors(*rng.normal(0.0, 200.0, size=2), *rng.normal(0.0, 2e3, size=2))
        gains = ControllerGains(mass=rng.uniform(0.3, 3.0))
        hat, literal = rng.uniform(0.0, 2.0), i % 3 == 0
        f = desired_force(err, Rl, hat, gains, literal)
        want = ref_desired_force(err, R, hat, gains, literal)
        assert np.all(np.abs(np.array(f) - want) <= force_bound(err, R, hat, gains)), i
        assert abs(thrust_from_force(f, Rl) - ref_thrust_from_force(want, R)) \
            <= thrust_bound(R, np.array(f), want), i

        f = rng.normal(0.0, 5.0, size=3) + np.array([0.0, 0.0, 12.0])
        yaw = rng.uniform(-math.pi, math.pi)
        got = np.asarray(desired_rotation(tuple(f.tolist()), yaw))
        assert np.linalg.norm(got - ref_desired_rotation(f, yaw)) \
            <= rotation_bound(f, f, yaw), i

        omega = rng.normal(0.0, 300.0 if i % 4 == 0 else 3.0, size=3)
        J = rng.uniform(0.002, 0.05, size=3)
        got = attitude_control(Rl, omega.tolist(), R_des.tolist(), AttitudeGains(), J.tolist())
        want = ref_attitude_control(R, omega, R_des, AttitudeGains(), J)
        assert np.all(np.abs(np.array(got) - want)
                      <= torque_bound(R, omega, R_des, R_des, AttitudeGains(), J)), i


# ---------------------------------------------------------------------------
# attitude loop
# ---------------------------------------------------------------------------


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


def test_mixer_matrix_built_once_is_bit_identical():
    rng = np.random.default_rng(11)
    for _ in range(300):
        geom = MixerGeometry(rng.uniform(0.05, 0.5), rng.uniform(0.001, 0.05),
                             rng.uniform(2.0, 15.0))
        assert geom.allocation is geom.allocation
        assert not geom.allocation.flags.writeable
        assert np.array_equal(geom.allocation, per_call_allocation(geom))
        assert geom.allocation_inverse is geom.allocation_inverse
        for _ in range(2):  # the second call reads the kept matrix
            thrusts = rng.uniform(0.0, geom.max_thrust, 4)
            got_thrust, got_torques = motor_wrench(MotorCommand(thrusts, False), geom)
            u = per_call_allocation(geom) @ thrusts
            assert got_thrust == float(u[0])
            assert np.array_equal(got_torques, u[1:])


def test_mix_matches_lu_solve_within_rounding():
    # the kept LU-solve mixer within mix_bound, the same saturation flag on
    # every case, and unsaturated thrusts within gamma_9 |A^-1||u| of the
    # exact solution (rational arithmetic on the same float A and u; A^-1 is
    # A^T diag(1/|row_j|^2) exactly, the rows being orthogonal)
    rng = np.random.default_rng(11)
    saturated = 0
    for i in range(600):
        geom = MixerGeometry(rng.uniform(0.05, 0.5), rng.uniform(0.001, 0.05),
                             rng.uniform(2.0, 15.0))
        thrust = rng.uniform(-1.0, 4.5 * geom.max_thrust)
        torques = rng.normal(size=3) * 10.0 ** rng.uniform(-3, 0)
        got, want = mix(thrust, tuple(torques.tolist()), geom), per_call_mix(thrust, torques, geom)
        assert got.saturated == want.saturated, i
        saturated += got.saturated
        u = np.array([thrust, *torques])
        assert np.all(np.abs(got.thrusts - want.thrusts) <= mix_bound(u, u, geom)), i
        if 0.0 <= thrust <= 4.0 * geom.max_thrust and not got.saturated:
            A = [[Fraction(x) for x in row] for row in geom.allocation.tolist()]
            sq = [sum(x * x for x in row) for row in A]
            exact = [sum(A[j][k] * Fraction(u[j]) / sq[j] for j in range(4))
                     for k in range(4)]
            bound = gamma(9) * (abs_allocation_inverse(geom) @ np.abs(u))
            for k in range(4):
                assert abs(Fraction(float(got.thrusts[k])) - exact[k]) <= Fraction(bound[k]), i
    assert 100 < saturated < 500


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
    assert cmd.rotation_des[0][2] > 0.0
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


def _tick_case(rng, i):
    gains = ControllerGains(kp_roll=rng.uniform(0.01, 0.2), kp_thrust=rng.uniform(0.02, 0.3),
                            pitch_accel=rng.uniform(0.0, 3.0), mass=rng.uniform(0.5, 3.0))
    geom = MixerGeometry(rng.uniform(0.08, 0.4), rng.uniform(0.005, 0.04),
                         rng.uniform(3.0, 15.0))
    J = rng.uniform(0.005, 0.05, size=3)
    args = (CAM, gains, AttitudeGains(), geom, J, 0.01)
    literal = i % 3 == 0
    return (VisualController(*args, literal=literal), RefController(*args, literal=literal))


def test_tick_matches_numpy_tick_within_rounding():
    # Seeded corpus: 150 controllers (random gains, mass, geometry, inertia;
    # every third with the literal equations), each run for 8 ticks at random
    # attitudes, body rates and targets (wild on odd ticks, gentle on even
    # ones), the
    # first two of every other controller as hover ticks.  Scalars from the
    # unchanged pieces (errors, setpoints, yaw, the accel reference) are the
    # same bits; each array output is within its stage's bound given the two
    # sides' own inputs to that stage; the saturation flags are equal.
    rng = np.random.default_rng(8)
    seen = {"tick": 0, "hover": 0, "sp_sat": 0, "motor_sat": 0, "unsat": 0}
    for i in range(150):
        new, ref = _tick_case(rng, i)
        for k in range(8):
            t = 0.01 * k
            # even ticks are gentle (near level, slow, the target near the
            # setpoint), so that the mix does not always saturate
            gentle = k % 2 == 0
            tilt = 0.05 if gentle else 1.2
            R = zyx_matrix(rng.uniform(-math.pi, math.pi), rng.uniform(-tilt, tilt),
                           rng.uniform(-tilt, tilt))
            omega = rng.normal(0.0, 0.1 if gentle else 20.0 if k % 3 else 1.0, size=3)
            if i % 2 == 0 and k < 2:
                (cmd, motors), (want, want_motors) = (
                    c.hover_tick(t, R, omega) for c in (new, ref))
                seen["hover"] += 1
            else:
                spread = 20.0 if gentle else 700.0
                xy = (480.0 + rng.uniform(-spread, spread), 272.0 + rng.uniform(-spread, spread))
                try:
                    want, want_motors = ref.tick(t, xy, R, omega)
                except (DegenerateForceError, DegenerateHeadingError) as e:
                    with pytest.raises(type(e)):
                        new.tick(t, xy, R, omega)
                    continue
                cmd, motors = new.tick(t, xy, R, omega)
                seen["tick"] += 1
            case = (i, k)
            assert cmd.errors == want.errors and cmd.setpoints == want.setpoints, case
            assert cmd.yaw_des == want.yaw_des, case
            assert cmd.pitch_accel_hat == want.pitch_accel_hat, case
            assert new.state == ref.state, case
            f, f_r = np.array(cmd.force_des), want.force_des
            assert np.all(np.abs(f - f_r) <= force_bound(cmd.errors, R, cmd.pitch_accel_hat,
                                                         new.gains)), case
            assert abs(cmd.thrust - want.thrust) <= thrust_bound(R, f, f_r), case
            Rd = np.asarray(cmd.rotation_des)
            assert np.linalg.norm(Rd - want.rotation_des) <= rotation_bound(f, f_r, cmd.yaw_des), case
            # the tick's torques and rotor thrusts are these calls' bits
            tau = attitude_control(R.tolist(), omega.tolist(), cmd.rotation_des,
                                   new.att_gains, new.inertia)
            assert np.array_equal(motors.thrusts, mix(cmd.thrust, tau, new.geom).thrusts), case
            tau_r = ref_attitude_control(R, omega, want.rotation_des, ref.att_gains, ref.inertia)
            assert np.all(np.abs(np.array(tau) - tau_r)
                          <= torque_bound(R, omega, Rd, want.rotation_des, new.att_gains,
                                          new.inertia)), case
            assert motors.saturated == want_motors.saturated, case
            assert np.all(np.abs(motors.thrusts - want_motors.thrusts)
                          <= mix_bound(np.array([cmd.thrust, *tau]),
                                       np.array([want.thrust, *tau_r]), new.geom)), case
            seen["sp_sat"] += cmd.setpoints.saturated
            seen["motor_sat"] += motors.saturated
            seen["unsat"] += not motors.saturated
    assert seen["hover"] == 150 and seen["tick"] > 1000, seen
    assert min(seen["sp_sat"], seen["motor_sat"], seen["unsat"]) > 50, seen


def test_command_record_matches_numpy_form():
    # given the same command, every field is the same value; the quaternion
    # differs only in its normalization: each side's norm of the same four
    # floats (4 squares summed, a square root) and the division leave each
    # component within gamma_5 of the exact unit quaternion's
    rng = np.random.default_rng(9)
    for i in range(300):
        new, ref = _tick_case(rng, i)
        R = zyx_matrix(rng.uniform(-math.pi, math.pi), rng.uniform(-1.2, 1.2),
                       rng.uniform(-0.8, 0.8))
        cmd, motors = new.tick(0.0, (rng.uniform(0, 960), rng.uniform(0, 544)), R,
                               rng.normal(0.0, 1.0, size=3))
        got = new.command_record(0.25, cmd, motors)
        want = ref.command_record(0.25, dataclasses.replace(
            cmd, rotation_des=np.asarray(cmd.rotation_des)), motors)
        q, q_r = np.array(got.pop("quat_des")), want.pop("quat_des")
        assert got == want, i
        assert np.all(np.abs(q - q_r) <= 2 * gamma(6) * np.abs(q_r)), i
        assert np.sign(q[0]) == np.sign(q_r[0]), i
    # the same bound over every branch of Shepperd's method: a positive
    # trace, or the largest diagonal entry at 0, 1 or 2
    branches = [0, 0, 0, 0]
    for i in range(2000):
        R = _random_rotation(rng)
        q, q_r = np.array(quat_from_rotation(R.tolist())), ref_quat_from_rotation(R)
        assert np.all(np.abs(q - q_r) <= 2 * gamma(6) * np.abs(q_r)), i
        d = np.diag(R)
        branches[0 if d.sum() > 0.0 else 1 + int(np.argmax(d))] += 1
    assert min(branches) > 100, branches


# ---------------------------------------------------------------------------
# fail closed
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("hover", [False, True], ids=["tick", "hover_tick"])
def test_non_finite_output_aborts_naming_the_controller_and_time(hover):
    ctl = make_controller()
    omega = np.array([np.nan, 0.0, 0.0])
    with pytest.raises(ControllerAbort, match=r"^controller: non-finite torques at t=0\.250000 s$") as e:
        if hover:
            ctl.hover_tick(0.25, np.eye(3), omega)
        else:
            ctl.tick(0.25, (480.0, 272.0), np.eye(3), omega)
    assert e.value.t == 0.25


@pytest.mark.parametrize("gains,name", [
    (dict(kp_thrust=1e307, kp_roll=1e307), "thrust"),
    (dict(kp_yaw=1e307), "R_des")], ids=["force", "yaw"])
def test_huge_gains_abort_on_non_finite_attitude(gains, name):
    # an overflowed force demand's inf - inf is NaN, which the thrust keeps,
    # so the thrust is the first non-finite output; an infinite yaw
    # reference wraps to NaN with the thrust still finite, so the first one
    # is the desired attitude
    ctl = VisualController(CAM, ControllerGains(**gains),
                           AttitudeGains(), MixerGeometry(), INERTIA, dt=0.01)
    with pytest.raises(ControllerAbort, match=rf"non-finite {name} at t=0\.000000 s"):
        ctl.tick(0.0, (10.0, 10.0), rot_x(0.2), np.zeros(3))


def test_finite_outputs_whose_sum_overflows_do_not_abort():
    # torques of -1e308 about x and y (rate damping with kw = 1e308): their
    # sum overflows, every entry is finite, and the long arms keep the
    # allocation's products finite
    ctl = VisualController(CAM, ControllerGains(), AttitudeGains(kw=(1e308, 1e308, 0.0)),
                           MixerGeometry(arm_length=10.0), INERTIA, dt=0.01)
    cmd, motors = ctl.hover_tick(0.0, np.eye(3), np.array([1.0, 1.0, 0.0]))
    assert np.isfinite(motors.thrusts).all() and motors.saturated
    torques = attitude_control(np.eye(3).tolist(), (1.0, 1.0, 0.0), cmd.rotation_des,
                               ctl.att_gains, INERTIA.tolist())
    assert all(map(math.isfinite, torques)) and math.isinf(sum(torques))


def test_mixer_geometry_rejects_singular_allocation():
    for kw in ({"arm_length": 0.0}, {"yaw_coeff": 0.0}, {"max_thrust": -1.0}):
        with pytest.raises(ValueError, match="must be positive"):
            MixerGeometry(**kw)
