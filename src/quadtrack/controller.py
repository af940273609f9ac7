"""Model-free image-space flight controller with SO(3) attitude loop.

Outer loop (runs at the control rate, consuming the tracker's predicted box
center): pixel errors against an image setpoint are mapped straight to a
desired body acceleration

    a_b = [a_pitch_hat,  kp_roll*e_w + kd_roll*de_w,  kp_thrust*e_h + kd_thrust*de_h]

in body axes (x forward, y left, z up), where a_pitch_hat is a fixed forward
acceleration reference smoothed through a complementary filter (the "how
fast to chase" knob -- no range estimate exists in a monocular setup).  The
desired world force is f_d = m (R a_b - g) with g = [0, 0, -9.81], so at
zero errors and level attitude the commanded thrust is exactly m*g.

The vertical setpoint moves with pitch: s_y = (H/2) (1 - 2*pitch/vfov).  For
small angles that equals the pixel shift f*pitch a pitched camera imposes on
a forward target, so pitching to accelerate does not get mistaken for the
target moving vertically.

Inner loop: geometric attitude PD on SO(3) with gyroscopic feedforward, then
an X-configuration mixer that scales torques down (preserving collective
thrust) when a rotor would leave [0, max_thrust].

A literal_equations flag retains the raw published forms of the setpoint
(s_y = H/2 - 2*pitch/vfov, mixing pixels with radians) and the force
(f_d = m (R a_b + g), which inverts the hover thrust sign) for fidelity
experiments; both are off by default because neither closes a stable loop.

A tick runs on Python floats: R and omega are read once with .tolist(), and
the pieces below (force, thrust, desired attitude, torques, mix) take and
return floats and tuples, 3x3s as three rows.  The mixer applies the
allocation inverse, kept as floats on the MixerGeometry, instead of a
solve.  Only the rotor thrusts leave as an array.  A tick fails closed: a
non-finite thrust, desired attitude, torque or rotor thrust raises
ControllerAbort with the tick time, instead of reaching the plant or the
command log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (ControllerAbort, DegenerateForceError,
                     DegenerateHeadingError, TimeRegressionError)
from .geometry import (CameraModel, cross3, pitch_yaw_from_rotation,
                       quat_from_rotation, wrap_angle)

GRAVITY = 9.81  # m/s^2
GRAVITY_VEC = (0.0, 0.0, -GRAVITY)

DERIV_TAU = 0.05  # s, time constant of the pixel-error derivative filter


@dataclass(frozen=True)
class ControllerGains:
    """Outer-loop gains (pixel error -> m/s^2 or rad)."""

    kp_roll: float = 0.05
    kd_roll: float = 0.001
    kp_thrust: float = 0.08
    kd_thrust: float = 0.00025
    kp_yaw: float = 0.095
    kd_yaw: float = 0.0004
    beta: float = 0.15            # complementary-filter retention
    pitch_accel: float = 0.5      # forward acceleration reference, m/s^2
    mass: float = 1.3             # kg
    min_thrust_frac: float = 0.1  # floor on f_d_z, fraction of hover weight

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        if self.mass <= 0:
            raise ValueError("mass must be positive")


@dataclass(frozen=True)
class AttitudeGains:
    kr: tuple = (2.0, 2.0, 0.8)
    kw: tuple = (0.3, 0.3, 0.15)


@dataclass(frozen=True)
class MixerGeometry:
    """X configuration; rotors at +-45 deg, diagonal pairs co-rotating."""

    arm_length: float = 0.17       # m, hub to rotor
    yaw_coeff: float = 0.016       # m, drag torque per unit thrust
    max_thrust: float = 8.0        # N per rotor

    def __post_init__(self):
        # a zero arm or yaw coefficient makes the allocation singular
        if not (self.arm_length > 0 and self.yaw_coeff > 0 and self.max_thrust > 0):
            raise ValueError("arm_length, yaw_coeff and max_thrust must be positive")

    @cached_property
    def allocation(self) -> np.ndarray:
        """Rows: collective, roll, pitch, yaw.  Columns: rotors FR, FL, RL, RR.

        Built on first use and kept (read-only) with the frozen geometry.
        """
        a = self.arm_length / math.sqrt(2.0)
        k = self.yaw_coeff
        A = np.array([
            [1.0, 1.0, 1.0, 1.0],
            [-a, a, a, -a],
            [-a, -a, a, a],
            [k, -k, k, -k],
        ])
        A.flags.writeable = False
        return A

    @cached_property
    def allocation_inverse(self) -> tuple:
        """The inverse of `allocation`, as four rows of floats.

        The allocation's rows are mutually orthogonal (exactly so in floating
        point: their products are sums of +-a^2, +-ak and +-a, +-k that
        cancel in pairs), so A^-1 = A^T diag(1 / |row_j|^2)."""
        A = self.allocation.tolist()
        sq = [sum(x * x for x in row) for row in A]
        return tuple(tuple(A[j][i] / sq[j] for j in range(4)) for i in range(4))


@dataclass
class ControllerState:
    """Mutable bits the outer loop carries between ticks."""

    pitch_accel_hat: float = 0.0
    prev_e: tuple[float, float] | None = None
    de_filt: tuple[float, float] = (0.0, 0.0)
    last_t: float | None = None


class Setpoints(NamedTuple):
    sx: float
    sy: float
    saturated: bool


class PixelErrors(NamedTuple):
    ew: float
    eh: float
    dew: float
    deh: float


@dataclass(frozen=True)
class BodyCommand:
    """Collective thrust (N) plus body torques (N m)."""

    thrust: float
    torques: np.ndarray  # (3,)


@dataclass(frozen=True)
class MotorCommand:
    thrusts: np.ndarray  # (4,) rotor thrusts, N
    saturated: bool


@dataclass(frozen=True)
class ControlCommand:
    """Outer-loop outputs recorded per tick."""

    thrust: float
    yaw_des: float
    rotation_des: tuple       # three rows of three floats
    errors: PixelErrors
    setpoints: Setpoints
    pitch_accel_hat: float
    force_des: tuple          # (3,) world-frame force demand, N


# ---------------------------------------------------------------------------
# outer loop pieces
# ---------------------------------------------------------------------------


def setpoints(cam: CameraModel, pitch: float, literal: bool = False) -> Setpoints:
    """Image-space target setpoint as a function of current pitch."""
    sx = cam.width / 2.0
    if literal:
        sy = cam.height / 2.0 - 2.0 * pitch / cam.vfov
    else:
        sy = (cam.height / 2.0) * (1.0 - 2.0 * pitch / cam.vfov)
    saturated = False
    if sy < 0.0 or sy > cam.height:
        sy = min(float(cam.height), max(0.0, sy))
        saturated = True
    return Setpoints(sx, sy, saturated)


def pixel_errors(state: ControllerState, sp: Setpoints, target_xy,
                 t: float, deriv_tau: float = DERIV_TAU) -> PixelErrors:
    """Errors e = setpoint - target, with low-passed backward-difference rates.

    First call after reset returns zero derivatives.  The first-order filter
    (time constant deriv_tau) makes the derivative estimate insensitive to
    the call rate.  Mutates `state`.
    """
    ew = sp.sx - float(target_xy[0])
    eh = sp.sy - float(target_xy[1])
    if state.last_t is None:
        state.prev_e = (ew, eh)
        state.de_filt = (0.0, 0.0)
        state.last_t = t
        return PixelErrors(ew, eh, 0.0, 0.0)
    dt = t - state.last_t
    if dt < 0.0:
        raise TimeRegressionError(f"controller tick at t={t!r} after t={state.last_t!r}")
    if dt > 0.0:
        raw = ((ew - state.prev_e[0]) / dt, (eh - state.prev_e[1]) / dt)
        a = dt / (deriv_tau + dt)
        state.de_filt = (state.de_filt[0] + a * (raw[0] - state.de_filt[0]),
                         state.de_filt[1] + a * (raw[1] - state.de_filt[1]))
    state.prev_e = (ew, eh)
    state.last_t = t
    return PixelErrors(ew, eh, state.de_filt[0], state.de_filt[1])


def next_pitch_accel(prev_hat: float, gains: ControllerGains) -> float:
    """One complementary-filter step toward the acceleration reference:
    hat <- beta*hat + (1-beta)*target.  From zero this traces the geometric
    approach target*(1 - beta^n) -- a cheap jerk limiter."""
    return gains.beta * prev_hat + (1.0 - gains.beta) * gains.pitch_accel


def desired_force(err: PixelErrors, R, pitch_accel_hat: float,
                  gains: ControllerGains, literal: bool = False) -> tuple:
    """World-frame force demand f_d = m (R a_b - g), floor-clamped in z.

    R is the attitude's rows (a 3x3 array or its .tolist()); the result is
    a 3-tuple of floats."""
    a0 = pitch_accel_hat
    a1 = gains.kp_roll * err.ew + gains.kd_roll * err.dew
    a2 = gains.kp_thrust * err.eh + gains.kd_thrust * err.deh
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = R
    x0 = r00 * a0 + r01 * a1 + r02 * a2
    x1 = r10 * a0 + r11 * a1 + r12 * a2
    x2 = r20 * a0 + r21 * a1 + r22 * a2
    gx, gy, gz = GRAVITY_VEC
    m = gains.mass
    if literal:
        f = (m * (x0 + gx), m * (x1 + gy), m * (x2 + gz))
    else:
        f = (m * (x0 - gx), m * (x1 - gy), m * (x2 - gz))
    floor = gains.min_thrust_frac * gains.mass * GRAVITY
    if f[2] < floor:
        f = (f[0], f[1], floor)
    return f


def thrust_from_force(f_des, R) -> float:
    """Collective thrust: body-z component of the force demand, clamped at
    0.  A NaN demand stays NaN, so the tick's finiteness check names the
    thrust."""
    f0, f1, f2 = f_des
    (_, _, r02), (_, _, r12), (_, _, r22) = R
    x = float(r02 * f0 + r12 * f1 + r22 * f2)
    return 0.0 if x <= 0.0 else x


def desired_yaw(yaw: float, err: PixelErrors, gains: ControllerGains,
                dt: float) -> float:
    """Incremental yaw reference, wrapped to (-pi, pi]."""
    return wrap_angle(yaw + (gains.kp_yaw * err.ew + gains.kd_yaw * err.dew) * dt)


def desired_rotation(f_des, yaw_des: float) -> tuple:
    """Attitude whose body z axis carries f_des with heading yaw_des, as
    three rows of floats.

    r3 = f_des/|f_des| exactly; the heading vector h = [cos, sin, 0] is
    completed to an orthonormal right-handed frame via r2 = r3 x h (normalized),
    r1 = r2 x r3, so hover with zero yaw gives the identity.
    """
    f0, f1, f2 = f_des
    n = math.sqrt(f0 * f0 + f1 * f1 + f2 * f2)
    if n == math.inf:
        # the sum of squares overflows for components above ~1e154
        n = math.hypot(f0, f1, f2)
    if n <= 1e-6:
        raise DegenerateForceError(f"force demand norm {n:.3e} too small")
    r3 = (f0 / n, f1 / n, f2 / n)
    x, y, z = cross3(r3, (math.cos(yaw_des), math.sin(yaw_des), 0.0))
    n2 = math.sqrt(x * x + y * y + z * z)
    if n2 <= 1e-6:
        raise DegenerateHeadingError("heading parallel to thrust axis")
    r2 = (x / n2, y / n2, z / n2)
    r1 = cross3(r2, r3)
    return tuple(zip(r1, r2, r3))


# ---------------------------------------------------------------------------
# attitude loop and mixer
# ---------------------------------------------------------------------------


def attitude_control(R, omega, R_des, gains: AttitudeGains, inertia) -> tuple:
    """Geometric PD torque: -kR o eR - kw o omega + omega x J omega,
    with eR = 0.5 vee(R_des^T R - R^T R_des).

    R and R_des are rows (arrays or nested sequences), `inertia` the body
    diagonal or the full 3x3; the result is a 3-tuple of floats.  Entry
    (i, j) of R_des^T R is column i of R_des dotted with column j of R, and
    (R^T R_des)[i][j] is the same product with the roles swapped; vee takes
    the entries (2, 1), (0, 2) and (1, 0)."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = R
    (d00, d01, d02), (d10, d11, d12), (d20, d21, d22) = R_des
    e0 = 0.5 * ((d02 * a01 + d12 * a11 + d22 * a21)
                - (a02 * d01 + a12 * d11 + a22 * d21))
    e1 = 0.5 * ((d00 * a02 + d10 * a12 + d20 * a22)
                - (a00 * d02 + a10 * d12 + a20 * d22))
    e2 = 0.5 * ((d01 * a00 + d11 * a10 + d21 * a20)
                - (a01 * d00 + a11 * d10 + a21 * d20))
    wx, wy, wz = omega
    J = inertia.tolist() if isinstance(inertia, np.ndarray) else inertia
    if isinstance(J[0], (list, tuple)):
        Jw = tuple(j0 * wx + j1 * wy + j2 * wz for j0, j1, j2 in J)
    else:
        Jw = (J[0] * wx, J[1] * wy, J[2] * wz)
    c0, c1, c2 = cross3(omega, Jw)
    (kr0, kr1, kr2), (kw0, kw1, kw2) = gains.kr, gains.kw
    return (-kr0 * e0 - kw0 * wx + c0,
            -kr1 * e1 - kw1 * wy + c1,
            -kr2 * e2 - kw2 * wz + c2)


def mix(thrust: float, torques, geom: MixerGeometry) -> MotorCommand:
    """Allocate 4 rotor thrusts; on saturation shrink the torque component
    toward pure collective (collective has priority and is preserved).

    The unsaturated thrusts are the allocation inverse (rows of floats kept
    on the geometry) applied to (thrust, torques)."""
    base = thrust / 4.0
    if base > geom.max_thrust:
        # Even pure collective is infeasible; clamp and report.
        return MotorCommand(np.full(4, geom.max_thrust), True)
    if base < 0.0:
        return MotorCommand(np.zeros(4), True)
    tx, ty, tz = torques
    f = [c0 * thrust + c1 * tx + c2 * ty + c3 * tz
         for c0, c1, c2, c3 in geom.allocation_inverse]
    d = [fi - base for fi in f]
    scale = 1.0
    for di in d:
        if base + di > geom.max_thrust and di > 0:
            scale = min(scale, (geom.max_thrust - base) / di)
        elif base + di < 0.0 and di < 0:
            scale = min(scale, base / -di)
    if scale < 1.0:
        return MotorCommand(np.array([base + scale * di for di in d]), True)
    return MotorCommand(np.array(f), False)


def motor_wrench(cmd: MotorCommand, geom: MixerGeometry) -> tuple[float, np.ndarray]:
    """Forward map: rotor thrusts -> (collective, body torques)."""
    u = geom.allocation @ cmd.thrusts
    return float(u[0]), u[1:]


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


class VisualController:
    """Outer pixel loop + attitude loop + mixer, one call per control tick."""

    def __init__(self, cam: CameraModel, gains: ControllerGains,
                 att_gains: AttitudeGains, geom: MixerGeometry, inertia,
                 dt: float, deriv_tau: float = DERIV_TAU, literal: bool = False):
        self.cam = cam
        self.gains = gains
        self.att_gains = att_gains
        self.geom = geom
        self.inertia = np.asarray(inertia, dtype=float)
        self.dt = dt
        self.deriv_tau = deriv_tau
        self.literal = literal
        self.state = ControllerState()

    def tick(self, t: float, target_xy, R: np.ndarray,
             omega: np.ndarray) -> tuple[ControlCommand, MotorCommand]:
        Rl = R.tolist()
        pitch, yaw = pitch_yaw_from_rotation(Rl)
        sp = setpoints(self.cam, pitch, self.literal)
        err = pixel_errors(self.state, sp, target_xy, t, self.deriv_tau)
        self.state.pitch_accel_hat = next_pitch_accel(
            self.state.pitch_accel_hat, self.gains)
        f_des = desired_force(err, Rl, self.state.pitch_accel_hat,
                              self.gains, self.literal)
        yaw_d = desired_yaw(yaw, err, self.gains, self.dt)
        return self._attitude(t, Rl, omega, f_des, yaw_d, err, sp,
                              self.state.pitch_accel_hat)

    def hover_tick(self, t: float, R: np.ndarray,
                   omega: np.ndarray) -> tuple[ControlCommand, MotorCommand]:
        """Level-hover hold for the phase before the tracker locks."""
        Rl = R.tolist()
        _, yaw = pitch_yaw_from_rotation(Rl)
        f_des = (0.0, 0.0, self.gains.mass * GRAVITY)
        err = PixelErrors(0.0, 0.0, 0.0, 0.0)
        sp = Setpoints(self.cam.width / 2.0, self.cam.height / 2.0, False)
        return self._attitude(t, Rl, omega, f_des, yaw, err, sp, 0.0)

    def _attitude(self, t, Rl, omega, f_des, yaw_d, err, sp, pitch_accel_hat):
        """Thrust, desired attitude, torques and rotor thrusts for a force
        demand and heading; raises ControllerAbort when any of them is not
        finite."""
        tau_d = thrust_from_force(f_des, Rl)
        R_des = desired_rotation(f_des, yaw_d)
        torques = attitude_control(Rl, omega.tolist(), R_des, self.att_gains,
                                   self.inertia)
        motors = mix(tau_d, torques, self.geom)
        rotors = motors.thrusts.tolist()
        # one sum is finite when every entry is; only a non-finite (or
        # overflowed) sum pays for naming the culprit entry by entry
        if not math.isfinite(tau_d + sum(R_des[0]) + sum(R_des[1])
                             + sum(R_des[2]) + sum(torques) + sum(rotors)):
            outputs = (("thrust", (tau_d,)),
                       ("R_des", R_des[0] + R_des[1] + R_des[2]),
                       ("torques", torques), ("rotor thrusts", rotors))
            for name, values in outputs:
                if not all(map(math.isfinite, values)):
                    raise ControllerAbort(t, f"non-finite {name}")
        cmd = ControlCommand(tau_d, yaw_d, R_des, err, sp, pitch_accel_hat, f_des)
        return cmd, motors

    def command_record(self, t: float, cmd: ControlCommand,
                       motors: MotorCommand) -> dict:
        return {
            "t": t,
            "ew": cmd.errors.ew,
            "eh": cmd.errors.eh,
            "dew": cmd.errors.dew,
            "deh": cmd.errors.deh,
            "thrust": cmd.thrust,
            "yaw_des": cmd.yaw_des,
            # an array, which the log writer formats in one pass
            "quat_des": np.array(quat_from_rotation(cmd.rotation_des)),
            "a_pitch": cmd.pitch_accel_hat,
            "sp_sat": bool(cmd.setpoints.saturated),
            "motor_sat": bool(motors.saturated),
        }
