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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateForceError, DegenerateHeadingError,
                     TimeRegressionError)
from .geometry import (CameraModel, cross3, pitch_yaw_from_rotation, vee,
                       wrap_angle)

GRAVITY = 9.81  # m/s^2

DEFAULT_GAINS = dict(kp_roll=0.05, kd_roll=0.001, kp_thrust=0.08,
                     kd_thrust=0.00025, kp_yaw=0.095, kd_yaw=0.0004)


@dataclass(frozen=True)
class ControllerGains:
    """Outer-loop gains (pixel error -> m/s^2 or rad)."""

    kp_roll: float = DEFAULT_GAINS["kp_roll"]
    kd_roll: float = DEFAULT_GAINS["kd_roll"]
    kp_thrust: float = DEFAULT_GAINS["kp_thrust"]
    kd_thrust: float = DEFAULT_GAINS["kd_thrust"]
    kp_yaw: float = DEFAULT_GAINS["kp_yaw"]
    kd_yaw: float = DEFAULT_GAINS["kd_yaw"]
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
    rotation_des: np.ndarray  # (3,3)
    errors: PixelErrors
    setpoints: Setpoints
    pitch_accel_hat: float
    force_des: np.ndarray


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
                 t: float, deriv_tau: float = 0.05) -> PixelErrors:
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


def desired_force(err: PixelErrors, R: np.ndarray, pitch_accel_hat: float,
                  gains: ControllerGains, literal: bool = False) -> np.ndarray:
    """World-frame force demand f_d = m (R a_b - g), floor-clamped in z."""
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


def thrust_from_force(f_des: np.ndarray, R: np.ndarray) -> float:
    """Collective thrust: body-z component of the force demand, >= 0."""
    return max(0.0, float((R.T @ f_des)[2]))


def desired_yaw(yaw: float, err: PixelErrors, gains: ControllerGains,
                dt: float) -> float:
    """Incremental yaw reference, wrapped to (-pi, pi]."""
    return wrap_angle(yaw + (gains.kp_yaw * err.ew + gains.kd_yaw * err.dew) * dt)


def desired_rotation(f_des: np.ndarray, yaw_des: float) -> np.ndarray:
    """Attitude whose body z axis carries f_des with heading yaw_des.

    r3 = f_des/|f_des| exactly; the heading vector h = [cos, sin, 0] is
    completed to an orthonormal right-handed frame via r2 = r3 x h (normalized),
    r1 = r2 x r3, so hover with zero yaw gives the identity.
    """
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


# ---------------------------------------------------------------------------
# attitude loop and mixer
# ---------------------------------------------------------------------------


def attitude_control(R: np.ndarray, omega: np.ndarray, R_des: np.ndarray,
                     gains: AttitudeGains, inertia) -> np.ndarray:
    """Geometric PD torque: -kR o eR - kw o omega + omega x J omega,
    with eR = 0.5 vee(R_des^T R - R^T R_des)."""
    e_R = 0.5 * vee(R_des.T @ R - R.T @ R_des)
    J = np.asarray(inertia, dtype=float)
    Jw = J * omega if J.ndim == 1 else J @ omega
    return (-np.asarray(gains.kr) * e_R - np.asarray(gains.kw) * omega
            + cross3(omega, Jw))


def mix(thrust: float, torques: np.ndarray, geom: MixerGeometry) -> MotorCommand:
    """Allocate 4 rotor thrusts; on saturation shrink the torque component
    toward pure collective (collective has priority and is preserved)."""
    u = np.array([thrust, torques[0], torques[1], torques[2]], dtype=float)
    f = np.linalg.solve(geom.allocation, u)
    base = thrust / 4.0
    saturated = False
    if base > geom.max_thrust:
        # Even pure collective is infeasible; clamp and report.
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
        saturated = True
        f = base + scale * d
    return MotorCommand(f, saturated)


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
                 dt: float, deriv_tau: float = 0.05, literal: bool = False):
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
        pitch, yaw = pitch_yaw_from_rotation(R)
        sp = setpoints(self.cam, pitch, self.literal)
        err = pixel_errors(self.state, sp, target_xy, t, self.deriv_tau)
        self.state.pitch_accel_hat = next_pitch_accel(
            self.state.pitch_accel_hat, self.gains)
        f_des = desired_force(err, R, self.state.pitch_accel_hat,
                              self.gains, self.literal)
        tau_d = thrust_from_force(f_des, R)
        yaw_d = desired_yaw(yaw, err, self.gains, self.dt)
        R_des = desired_rotation(f_des, yaw_d)
        torques = attitude_control(R, omega, R_des, self.att_gains, self.inertia)
        motors = mix(tau_d, torques, self.geom)
        cmd = ControlCommand(tau_d, yaw_d, R_des, err, sp,
                             self.state.pitch_accel_hat, f_des)
        return cmd, motors

    def hover_tick(self, t: float, R: np.ndarray,
                   omega: np.ndarray) -> tuple[ControlCommand, MotorCommand]:
        """Level-hover hold for the phase before the tracker locks."""
        _, yaw = pitch_yaw_from_rotation(R)
        f_des = np.array([0.0, 0.0, self.gains.mass * GRAVITY])
        tau_d = thrust_from_force(f_des, R)
        R_des = desired_rotation(f_des, yaw)
        torques = attitude_control(R, omega, R_des, self.att_gains, self.inertia)
        motors = mix(tau_d, torques, self.geom)
        err = PixelErrors(0.0, 0.0, 0.0, 0.0)
        sp = Setpoints(self.cam.width / 2.0, self.cam.height / 2.0, False)
        cmd = ControlCommand(tau_d, yaw, R_des, err, sp, 0.0, f_des)
        return cmd, motors

    def command_record(self, t: float, cmd: ControlCommand,
                       motors: MotorCommand) -> dict:
        from .geometry import quat_from_rotation

        return {
            "t": t,
            "ew": cmd.errors.ew,
            "eh": cmd.errors.eh,
            "dew": cmd.errors.dew,
            "deh": cmd.errors.deh,
            "thrust": cmd.thrust,
            "yaw_des": cmd.yaw_des,
            "quat_des": quat_from_rotation(cmd.rotation_des),
            "a_pitch": cmd.pitch_accel_hat,
            "sp_sat": bool(cmd.setpoints.saturated),
            "motor_sat": bool(motors.saturated),
        }
