"""Deterministic closed-loop simulator.

Plant: standard rigid-body quadrotor,

    p' = v
    v' = (tau/m) R e3 + [0, 0, -9.81]
    R' = R hat(omega)
    J omega' = torque - omega x J omega

integrated with fixed-step RK4 at the physics rate, on Python floats, and
projected back onto SO(3) after every step by Newton's polar iteration,
with the SVD nearest rotation as its fallback.  The step (`dynamics_step`)
maps the state as 18 floats, p (3), v (3), R row-major (9) and omega (3),
to the stepped 18 floats.  The closed loop carries those floats from step
to step, checks them for finiteness after every step, and builds the
`QuadState` the sensors read (arrays) only when a sensor reads the platform
after at least one step ran: at most once per control tick or camera
frame, not once per physics step.  A QuadState is immutable by convention,
so the sensor views derived from it (the camera pose, the body rates in
camera axes and the heading) are each built once, at their first read, and
kept on the state: a still scripted platform builds each view once per
run.  The step is written out as one straight-line block, every stage a
set of local names, in the operation order of the elementwise form: stage
states x + a * k, the sum x + dt/6 * (k1 + 2 k2 + 2 k3 + k4) left to right,
R hat(omega) as row-cross-omega products and omega x J omega as np.cross
computes it.  The
projection converges in one Newton step on every physics step of the
bundled closed-loop scenarios (corridor_approach 8000, static_target 5900,
sprint_7ms 10000 steps).  Motors are ideal by default: the wrench, four
floats from `motor_wrench` (thrust, then three body torques) that `run`
holds in one name, is computed from the commanded rotor thrusts once per
control tick and zero-order-held over the physics steps up to the next tick.
An optional first-order lag models spin-up; the realized thrusts, and so the
wrench, then move on every physics step.

Scheduling: the sensor layer (`sensor_stream`) merges the control/gyro and
camera streams by timestamp, control first on ties, and reads the platform,
a callable t -> state at the latest physics tick at or before t (a scripted
closed form, or the closed loop's integration of every physics step up to
t), so sensors always observe a fully integrated state.  Event times are
k/rate with integer k; per simulated second each stream carries exactly
`rate` events.  All randomness (detector noise, gyro noise, object latents)
flows from one seeded generator in a fixed draw order, so a (scenario, seed)
pair fixes every output byte.

The camera is rigidly mounted looking along body x: camera X right = -body y,
camera Y down = -body z, camera Z forward = +body x.  A scenario may script
the camera platform (`camera_script.scripted`: held at its start position
and yawed on a sine, still at amplitude 0) instead of flying the closed loop;
commands are still computed and logged but not applied, which gives
tracker-only scenarios an actuation-independent detection stream.  The
sensor layer reads no tracker state (its frame-time gyro rule reads the
stream's own history), and the tracker draws nothing (appearance memory
follows the accepted detection's descriptor), so a scripted stream is
independent of the tracker, and a closed-loop stream depends on it only
through the flight.

The scene is the scenario's objects section: `build_scene` pairs each
ObjectConfig with its latent in object-id order, and each camera frame's
`scene_step` evaluates every object's ObjectConfig.at(t).  The sensor
layer computes each camera frame's object views (box, occluded fraction)
once, by `frame_views`, and hands them to the detector, and the target's
to the ground-truth row; a box beyond the float range is a DetectorAbort at
the frame's time.  Object positions, the camera pose and each camera-frame
point are Python floats (`camera_point` states its summation order), and
the row's box is an (x, y, w, h) tuple, so no array is built per viewed
object and no BLAS kernel decides a bit of the views.  The controller tick
runs on Python floats and raises ControllerAbort on a non-finite output, so
a bad command never reaches the plant or commands.jsonl.  The detector, the
plant and the scorer run on the scenario's own detector, quad and metrics
sections; the camera, controller and tracker are built from their sections
by CameraConfig.build, ControllerParams.build and TrackerParams.build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import QuadConfig, Scenario, scenario_hash
from .controller import GRAVITY_VEC, motor_wrench
from .detection import GyroSample, ObjectView, SyntheticDetector, frame_views
from .errors import DetectorAbort, MetricsError, SimulationAbort
# project_box is not called here (the frame views carry the truth boxes),
# but perfbench/tracing.py wraps it under this module's name
from .geometry import (CameraPose, nearest_rotation,  # noqa: F401
                       pitch_yaw_from_rotation, project_box, rot_z)
from .logio import write_events, write_jsonl, write_summary
from .metrics import Metrics, compute_metrics
from .scene import scene_step
from .tracker import MIN_BOX_SIZE, Tracker, at_prompt

# camera-from-body: rows are the camera axes expressed in body coordinates.
CAMERA_FROM_BODY = np.array([
    [0.0, -1.0, 0.0],   # camera x (right)  = -body y
    [0.0, 0.0, -1.0],   # camera y (down)   = -body z
    [1.0, 0.0, 0.0],    # camera z (forward) = body x
])


@dataclass(eq=False)
class QuadState:
    """The plant state as the sensors read it, in arrays.  The closed loop
    integrates the 18-float form (`floats`) and builds a QuadState from it
    only when a sensor reads the platform after a physics step.

    Immutable by convention: nothing assigns or writes a field after
    construction.  So each sensor view of the state (`pose`, `camera_rate`,
    `yaw`) is computed at its first read, on its own, and every later read
    at this state reuses it."""

    p: np.ndarray                        # world position, m
    v: np.ndarray                        # world velocity, m/s
    R: np.ndarray                        # world-from-body
    omega: np.ndarray                    # body rates, rad/s

    @cached_property
    def pose(self) -> CameraPose:
        """Camera rigidly at the body origin: world-from-camera rotation, as
        rows of floats, and the position, as floats.  The mount's entries
        are 0 and +-1, so every product and sum of R @ CAMERA_FROM_BODY.T
        is exact, and its bits do not depend on the BLAS kernel."""
        return CameraPose(tuple(map(tuple, (self.R @ CAMERA_FROM_BODY.T).tolist())),
                          tuple(self.p.tolist()))

    @cached_property
    def camera_rate(self) -> tuple:
        """The body rates in camera axes, as three Python floats."""
        return tuple((CAMERA_FROM_BODY @ self.omega).tolist())

    @cached_property
    def yaw(self) -> float:
        """The heading; ValueError within 1e-6 rad of gimbal lock (and
        nothing kept, so every read raises)."""
        return pitch_yaw_from_rotation(self.R)[1]

    @classmethod
    def from_floats(cls, y) -> QuadState:
        """The state of 18 floats laid out as `floats` returns them."""
        return cls(np.array(y[0:3]), np.array(y[3:6]),
                   np.array(y[6:15]).reshape(3, 3), np.array(y[15:18]))

    def floats(self) -> tuple:
        """p (3), v (3), R row-major (9), omega (3), as 18 Python floats."""
        return tuple(self.p.tolist() + self.v.tolist() + self.R.ravel().tolist()
                     + self.omega.tolist())


# Newton polar iteration: stop once no entry moves by more than a few ulps
# of 1 (the entries of a rotation are at most 1 in magnitude); from an RK4
# step's near-rotation that takes one iteration on every physics step of the
# bundled closed-loop scenarios.
POLAR_TOL = 1e-15
POLAR_MAX_ITER = 8


def _project_rotation(X) -> tuple | list:
    """Nearest rotation to the 3x3 matrix X given as nine floats, row-major,
    returned as nine floats in the same layout.

    Newton's polar iteration X <- (X + X^-T) / 2 (Higham, SIAM J. Sci.
    Stat. Comput. 7(4), 1986) converges quadratically to the orthogonal
    polar factor, which is the nearest rotation when det(X) > 0; X^-T is
    the cofactor matrix over the determinant.  When det(X) <= 0 (the polar
    factor is then a reflection) or the iteration has not converged within
    POLAR_MAX_ITER steps, the SVD projection `nearest_rotation` is used, so
    the result is always a proper rotation.  An iterate has converged when
    every entry moved by at most POLAR_TOL; a NaN move never passes.
    """
    a0, a1, a2, b0, b1, b2, c0, c1, c2 = X
    tol = POLAR_TOL
    for _ in range(POLAR_MAX_ITER):
        # X^-T = cofactor(X) / det(X); the cofactor rows are b x c, c x a
        # and a x b for the rows a, b, c of X
        k0, k1, k2 = b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0
        k3, k4, k5 = c1 * a2 - c2 * a1, c2 * a0 - c0 * a2, c0 * a1 - c1 * a0
        k6, k7, k8 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
        det = a0 * k0 + a1 * k1 + a2 * k2
        if not det > 0.0:
            break
        d = 0.5 / det
        y0, y1, y2 = 0.5 * a0 + d * k0, 0.5 * a1 + d * k1, 0.5 * a2 + d * k2
        y3, y4, y5 = 0.5 * b0 + d * k3, 0.5 * b1 + d * k4, 0.5 * b2 + d * k5
        y6, y7, y8 = 0.5 * c0 + d * k6, 0.5 * c1 + d * k7, 0.5 * c2 + d * k8
        if (-tol <= y0 - a0 <= tol and -tol <= y1 - a1 <= tol
                and -tol <= y2 - a2 <= tol and -tol <= y3 - b0 <= tol
                and -tol <= y4 - b1 <= tol and -tol <= y5 - b2 <= tol
                and -tol <= y6 - c0 <= tol and -tol <= y7 - c1 <= tol
                and -tol <= y8 - c2 <= tol):
            return y0, y1, y2, y3, y4, y5, y6, y7, y8
        a0, a1, a2, b0, b1, b2, c0, c1, c2 = y0, y1, y2, y3, y4, y5, y6, y7, y8
    return nearest_rotation(np.array(X).reshape(3, 3)).ravel().tolist()


def dynamics_step(y, wrench, params: QuadConfig, dt: float) -> tuple:
    """One RK4 step under a zero-order-held wrench, then SO(3) projection,
    on the plant state as 18 floats: p (3), v (3), R row-major (9) and
    omega (3), the layout of `QuadState.floats`.  It returns the stepped
    state as a tuple of 18 Python floats in the same layout.  The wrench is
    `motor_wrench`'s four floats, thrust (N), then body torques (N m).

    The step is one straight-line block of Python float expressions: p, v
    and omega one component at a time and R as nine floats, each stage's
    state and derivative local names (no per-stage lists or helper calls).
    It keeps the elementwise form's operands and order: a stage state is
    x + a * k (a = dt/2, dt/2, dt), the sum is x + c * (k1 + 2 * k2 +
    2 * k3 + k4) left to right with c = dt/6, row i of R hat(w) is row i of
    R cross w, and omega x J omega has np.cross's products and differences.
    v' = (thrust/m) R e3 + g adds g's zero components too (they turn a -0.0
    product into +0.0).  tests/test_simulator.py keeps the list-wise form
    as a bit-exact oracle.  The stepped R is projected onto SO(3) by
    Newton's polar iteration, falling back to the SVD `nearest_rotation` on
    a reflection or without convergence (see `_project_rotation`); one
    Newton step converges on every physics step of the bundled closed-loop
    scenarios.  A non-finite R is returned unprojected for the caller's
    finiteness check, which runs on the returned floats.
    """
    thrust, tx, ty, tz = wrench
    s = thrust / params.mass
    jx, jy, jz = params.inertia_floats
    gx, gy, gz = GRAVITY_VEC
    (px, py, pz, vx, vy, vz, r00, r01, r02, r10, r11, r12, r20, r21, r22,
     wx, wy, wz) = y
    h = 0.5 * dt

    # stage 1 at (v, R, w)
    hx, hy, hz = jx * wx, jy * wy, jz * wz
    dv1x, dv1y, dv1z = s * r02 + gx, s * r12 + gy, s * r22 + gz
    dR1_00, dR1_01, dR1_02 = (r01 * wz - r02 * wy, r02 * wx - r00 * wz,
                              r00 * wy - r01 * wx)
    dR1_10, dR1_11, dR1_12 = (r11 * wz - r12 * wy, r12 * wx - r10 * wz,
                              r10 * wy - r11 * wx)
    dR1_20, dR1_21, dR1_22 = (r21 * wz - r22 * wy, r22 * wx - r20 * wz,
                              r20 * wy - r21 * wx)
    dw1x, dw1y, dw1z = ((tx - (wy * hz - wz * hy)) / jx,
                        (ty - (wz * hx - wx * hz)) / jy,
                        (tz - (wx * hy - wy * hx)) / jz)
    # stage 2 at (v, R, w) + h k1
    v2x, v2y, v2z = vx + h * dv1x, vy + h * dv1y, vz + h * dv1z
    ux, uy, uz = wx + h * dw1x, wy + h * dw1y, wz + h * dw1z
    q00, q01, q02 = r00 + h * dR1_00, r01 + h * dR1_01, r02 + h * dR1_02
    q10, q11, q12 = r10 + h * dR1_10, r11 + h * dR1_11, r12 + h * dR1_12
    q20, q21, q22 = r20 + h * dR1_20, r21 + h * dR1_21, r22 + h * dR1_22
    hx, hy, hz = jx * ux, jy * uy, jz * uz
    dv2x, dv2y, dv2z = s * q02 + gx, s * q12 + gy, s * q22 + gz
    dR2_00, dR2_01, dR2_02 = (q01 * uz - q02 * uy, q02 * ux - q00 * uz,
                              q00 * uy - q01 * ux)
    dR2_10, dR2_11, dR2_12 = (q11 * uz - q12 * uy, q12 * ux - q10 * uz,
                              q10 * uy - q11 * ux)
    dR2_20, dR2_21, dR2_22 = (q21 * uz - q22 * uy, q22 * ux - q20 * uz,
                              q20 * uy - q21 * ux)
    dw2x, dw2y, dw2z = ((tx - (uy * hz - uz * hy)) / jx,
                        (ty - (uz * hx - ux * hz)) / jy,
                        (tz - (ux * hy - uy * hx)) / jz)
    # stage 3 at (v, R, w) + h k2
    v3x, v3y, v3z = vx + h * dv2x, vy + h * dv2y, vz + h * dv2z
    ux, uy, uz = wx + h * dw2x, wy + h * dw2y, wz + h * dw2z
    q00, q01, q02 = r00 + h * dR2_00, r01 + h * dR2_01, r02 + h * dR2_02
    q10, q11, q12 = r10 + h * dR2_10, r11 + h * dR2_11, r12 + h * dR2_12
    q20, q21, q22 = r20 + h * dR2_20, r21 + h * dR2_21, r22 + h * dR2_22
    hx, hy, hz = jx * ux, jy * uy, jz * uz
    dv3x, dv3y, dv3z = s * q02 + gx, s * q12 + gy, s * q22 + gz
    dR3_00, dR3_01, dR3_02 = (q01 * uz - q02 * uy, q02 * ux - q00 * uz,
                              q00 * uy - q01 * ux)
    dR3_10, dR3_11, dR3_12 = (q11 * uz - q12 * uy, q12 * ux - q10 * uz,
                              q10 * uy - q11 * ux)
    dR3_20, dR3_21, dR3_22 = (q21 * uz - q22 * uy, q22 * ux - q20 * uz,
                              q20 * uy - q21 * ux)
    dw3x, dw3y, dw3z = ((tx - (uy * hz - uz * hy)) / jx,
                        (ty - (uz * hx - ux * hz)) / jy,
                        (tz - (ux * hy - uy * hx)) / jz)
    # stage 4 at (v, R, w) + dt k3
    v4x, v4y, v4z = vx + dt * dv3x, vy + dt * dv3y, vz + dt * dv3z
    ux, uy, uz = wx + dt * dw3x, wy + dt * dw3y, wz + dt * dw3z
    q00, q01, q02 = r00 + dt * dR3_00, r01 + dt * dR3_01, r02 + dt * dR3_02
    q10, q11, q12 = r10 + dt * dR3_10, r11 + dt * dR3_11, r12 + dt * dR3_12
    q20, q21, q22 = r20 + dt * dR3_20, r21 + dt * dR3_21, r22 + dt * dR3_22
    hx, hy, hz = jx * ux, jy * uy, jz * uz
    dv4x, dv4y, dv4z = s * q02 + gx, s * q12 + gy, s * q22 + gz
    dR4_00, dR4_01, dR4_02 = (q01 * uz - q02 * uy, q02 * ux - q00 * uz,
                              q00 * uy - q01 * ux)
    dR4_10, dR4_11, dR4_12 = (q11 * uz - q12 * uy, q12 * ux - q10 * uz,
                              q10 * uy - q11 * ux)
    dR4_20, dR4_21, dR4_22 = (q21 * uz - q22 * uy, q22 * ux - q20 * uz,
                              q20 * uy - q21 * ux)
    dw4x, dw4y, dw4z = ((tx - (uy * hz - uz * hy)) / jx,
                        (ty - (uz * hx - ux * hz)) / jy,
                        (tz - (ux * hy - uy * hx)) / jz)

    c = dt / 6.0
    R1 = [r00 + c * (dR1_00 + 2 * dR2_00 + 2 * dR3_00 + dR4_00),
          r01 + c * (dR1_01 + 2 * dR2_01 + 2 * dR3_01 + dR4_01),
          r02 + c * (dR1_02 + 2 * dR2_02 + 2 * dR3_02 + dR4_02),
          r10 + c * (dR1_10 + 2 * dR2_10 + 2 * dR3_10 + dR4_10),
          r11 + c * (dR1_11 + 2 * dR2_11 + 2 * dR3_11 + dR4_11),
          r12 + c * (dR1_12 + 2 * dR2_12 + 2 * dR3_12 + dR4_12),
          r20 + c * (dR1_20 + 2 * dR2_20 + 2 * dR3_20 + dR4_20),
          r21 + c * (dR1_21 + 2 * dR2_21 + 2 * dR3_21 + dR4_21),
          r22 + c * (dR1_22 + 2 * dR2_22 + 2 * dR3_22 + dR4_22)]
    if all(map(math.isfinite, R1)):
        R1 = _project_rotation(R1)
    return (px + c * (vx + 2 * v2x + 2 * v3x + v4x),
            py + c * (vy + 2 * v2y + 2 * v3y + v4y),
            pz + c * (vz + 2 * v2z + 2 * v3z + v4z),
            vx + c * (dv1x + 2 * dv2x + 2 * dv3x + dv4x),
            vy + c * (dv1y + 2 * dv2y + 2 * dv3y + dv4y),
            vz + c * (dv1z + 2 * dv2z + 2 * dv3z + dv4z),
            *R1,
            wx + c * (dw1x + 2 * dw2x + 2 * dw3x + dw4x),
            wy + c * (dw1y + 2 * dw2y + 2 * dw3y + dw4y),
            wz + c * (dw1z + 2 * dw2z + 2 * dw3z + dw4z))


def imu_sample(t: float, state: QuadState, sigma: float,
               rng: np.random.Generator) -> GyroSample:
    """Body rates mapped into the camera frame (the state's `camera_rate`)
    plus white noise.

    The noise draw is consumed even at sigma = 0 to keep the run's draw
    order independent of the noise setting.  The noise is scaled and added
    on Python floats, where an overflow is an unwarned inf, and a
    non-finite noise sample (the rates themselves are finite) raises
    SimulationAbort at t.
    """
    g0, g1, g2 = rng.normal(0.0, 1.0, size=3).tolist()
    n0, n1, n2 = g0 * sigma, g1 * sigma, g2 * sigma
    if not math.isfinite(n0 + n1 + n2) and not all(map(math.isfinite, (n0, n1, n2))):
        raise SimulationAbort(t, "gyro sample is not finite")
    r0, r1, r2 = state.camera_rate
    return GyroSample(t, np.array((r0 + n0, r1 + n1, r2 + n2)))


def camera_pose(state: QuadState) -> CameraPose:
    """Camera rigidly at the body origin: world-from-camera rotation (the
    state's `pose`, built at its first read)."""
    return state.pose


# ---------------------------------------------------------------------------
# camera platform scripts, sensor layer and closed loop
# ---------------------------------------------------------------------------


class _Script:
    """Scripted platform: t -> the state at the latest physics tick at or
    before t, at the start position and yawed by amplitude sin(2 pi t /
    period): built once per tick a sensor reads, once in all at amplitude 0."""

    def __init__(self, scenario: Scenario):
        cs, self.hz = scenario.camera_script, scenario.rates.physics_hz
        self.amplitude, self.w0 = cs.amplitude, 2.0 * math.pi / cs.period
        self.p0 = np.asarray(scenario.quad.start_position, dtype=float)
        self.yaw0 = scenario.quad.start_yaw
        self.tick = self.state = None

    def __call__(self, t: float) -> QuadState:
        a, k = self.amplitude, 0
        if a != 0.0:
            k = math.floor(t * self.hz)  # then undo the product's rounding
            k += (k + 1) / self.hz <= t
            k -= k / self.hz > t
        if k != self.tick:
            w0, t = self.w0, k / self.hz
            if math.isinf(w0 * t):
                raise SimulationAbort(t, "scripted yaw phase is not finite")
            self.tick, self.state = k, QuadState(
                self.p0.copy(), np.zeros(3), rot_z(self.yaw0 + a * math.sin(w0 * t)),
                np.array([0.0, 0.0, a * w0 * math.cos(w0 * t)]))
        return self.state


@dataclass
class RunArtifacts:
    scenario: Scenario
    events: list                 # GyroSample | DetectionSet, in stream order
    tracker_trace: list[dict]
    command_trace: list[dict]
    truth_trace: list[dict]
    metrics: Metrics | None
    counts: dict
    summary: dict
    # one list per frame the live tracker stepped (not the initialization
    # frame): its candidates' three weight-free cues (s_iou, s_ekf, s_map),
    # in candidate order; kept in memory for the ablation, never written
    frame_scores: list


def _event_count(duration: float, rate: int) -> int:
    n = duration * rate
    r = round(n)
    return int(r) if abs(n - r) < 1e-6 else math.ceil(n)


def build_scene(scenario: Scenario, rng: np.random.Generator) -> list[tuple]:
    """The scene: (ObjectConfig, latent) pairs in object-id order, which is
    the order scene_step evaluates them in.  Detectable objects draw their
    latent vectors from `rng` in that order (part of the run's fixed draw
    order); occluders get None."""
    objects = []
    for oc in sorted(scenario.objects, key=lambda o: o.obj_id):
        latent = None
        if not oc.occluder:
            raw = rng.normal(0.0, 1.0, size=scenario.detector.descriptor_dim)
            latent = raw / np.linalg.norm(raw)
        objects.append((oc, latent))
    return objects


def _truth_record(t: float, quad: QuadState, view: ObjectView, cam) -> dict:
    target, box, occl = view
    center = None if box is None else box.center
    in_view = (center is not None and 0.0 <= center[0] <= cam.width
               and 0.0 <= center[1] <= cam.height)
    try:
        yaw = quad.yaw
    except ValueError as e:
        raise SimulationAbort(t, str(e)) from e
    qx, qy, _ = quad.p.tolist()
    tx, ty, _ = target.center
    dx, dy = qx - tx, qy - ty
    # the distance is at most |dx| + |dy|, so np.hypot overflows only when
    # that sum does; only then is it taken without numpy's overflow warning
    # and checked
    if math.isfinite(abs(dx) + abs(dy)):
        dist = float(np.hypot(dx, dy))
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            dist = float(np.hypot(dx, dy))
        if not math.isfinite(dist):
            raise SimulationAbort(t, "ground-truth distance is not finite")
    return {
        "t": t,
        "box": None if box is None else (box.x, box.y, box.w, box.h),
        "center": center,
        "occluded": occl,
        "in_view": bool(in_view),
        "quad_p": quad.pose.position,
        "quad_yaw": yaw,
        "target_p": target.center,
        "dist_xy": dist,
    }


CONTROL, CAMERA = "control", "camera"


def sensor_stream(sc: Scenario, platform, truth_trace: list):
    """The sensor layer: yields (kind, event) in stream order, control-rate
    gyro samples (CONTROL) and camera frames (CAMERA) on one schedule,
    control first on ties.  It owns the seeded generator, the scene, the
    detector and the gyro, reads `platform(t)`, the state at the latest
    physics tick at or before t, and appends each frame's ground-truth row
    to `truth_trace`.  Once the prompt frame has passed, a frame whose last
    event is older than it is preceded by a gyro sample at its time."""
    cam = sc.camera.build()
    rng = np.random.default_rng(sc.seed)
    objects = build_scene(sc, rng)
    # the target's index in each frame's views (build_scene's id order)
    target = [oc.obj_id for oc, _ in objects if not oc.occluder].index(sc.target_id)
    detector = SyntheticDetector(sc.detector, rng)
    n_ctrl = _event_count(sc.duration, sc.rates.control_hz)
    n_cam = _event_count(sc.duration, sc.rates.camera_hz)
    prompted, last_t = False, -math.inf
    ic = icam = 0
    while ic < n_ctrl or icam < n_cam:
        t_c = ic / sc.rates.control_hz if ic < n_ctrl else math.inf
        t = icam / sc.rates.camera_hz if icam < n_cam else math.inf
        if t_c <= t:
            last_t = t_c
            yield CONTROL, imu_sample(t_c, platform(t_c), sc.quad.gyro_noise, rng)
            ic += 1
            continue
        quad = platform(t)
        snapshot, pose = scene_step(objects, t), camera_pose(quad)
        try:
            views = frame_views(snapshot, pose, cam)
        except ValueError as e:     # a box beyond the float range
            raise DetectorAbort(t, str(e)) from e
        if prompted and last_t < t:
            yield CAMERA, imu_sample(t, quad, sc.quad.gyro_noise, rng)
        dets = detector.detect(views, t, cam)
        truth_trace.append(_truth_record(t, quad, views[target], cam))
        prompted = prompted or at_prompt(t, sc.prompt.t)
        last_t = t
        yield CAMERA, dets
        icam += 1


def run(scenario: Scenario) -> RunArtifacts:
    sc = scenario
    cam = sc.camera.build()
    frame_scores = []
    tracker = Tracker(sc.tracker.build(cam), frame_scores)
    controller = sc.controller.build(sc.quad, cam, sc.rates.control_hz)
    hz = sc.rates.physics_hz
    n_phys = _event_count(sc.duration, hz)

    events, tracker_trace, command_trace, truth_trace = [], [], [], []
    scripted = sc.camera_script.scripted
    # the commanded rotor thrusts, and the realized ones under motor lag,
    # four floats each
    commanded = rotor_thrusts = (0.0, 0.0, 0.0, 0.0)
    # ideal motors: the wrench changes only at a control tick, so it is
    # computed there and held; with lag it moves on every physics step
    hold_wrench = not scripted and sc.quad.motor_lag == 0.0
    wrench = motor_wrench(commanded, sc.quad.geometry) if hold_wrench else None
    quad = QuadState(np.asarray(sc.quad.start_position, float), np.zeros(3),
                     rot_z(sc.quad.start_yaw), np.zeros(3))
    y = quad.floats()  # the state the physics steps carry
    ip, last_phys_t = 1, 0.0

    def fly(t: float) -> QuadState:
        # integrate every physics step at or before t on the floats, then
        # build the state the sensors read if any step ran since the last
        nonlocal quad, y, wrench, rotor_thrusts, ip, last_phys_t
        ip0 = ip
        while ip <= n_phys and ip / hz <= t:
            t_p = ip / hz
            dt = t_p - last_phys_t
            if not hold_wrench:
                a = 1.0 - math.exp(-dt / sc.quad.motor_lag)
                # r + a (c - r) per rotor: the array form's operations
                r0, r1, r2, r3 = rotor_thrusts
                c0, c1, c2, c3 = commanded
                rotor_thrusts = (r0 + a * (c0 - r0), r1 + a * (c1 - r1),
                                 r2 + a * (c2 - r2), r3 + a * (c3 - r3))
                wrench = motor_wrench(rotor_thrusts, sc.quad.geometry)
            y = dynamics_step(y, wrench, sc.quad, dt)
            # a finite sum means finite entries; finite entries can overflow it
            if not math.isfinite(sum(y)) and not all(map(math.isfinite, y)):
                raise SimulationAbort(last_phys_t,
                                      "non-finite state after the last good state")
            last_phys_t = t_p
            ip += 1
        if ip != ip0:
            quad = QuadState.from_floats(y)
        return quad

    platform = _Script(sc) if scripted else fly
    for kind, ev in sensor_stream(sc, platform, truth_trace):
        events.append(ev)
        row = tracker.feed(ev, (sc.prompt.x, sc.prompt.y), sc.prompt.t)
        if row is not None:
            tracker_trace.append(row)
        if kind == CONTROL:
            t, state = ev.t, platform(ev.t)
            if tracker.initialized:
                px, py = predicted_center(tracker)
                cmd, motors = controller.tick(t, (px, py), state.R, state.omega)
            else:
                cmd, motors = controller.hover_tick(t, state.R, state.omega)
            command_trace.append(controller.command_record(t, cmd, motors))
            commanded = motors.thrusts
            if hold_wrench:
                wrench = motor_wrench(commanded, sc.quad.geometry)

    final = platform(n_phys / hz)
    # a flown run is kept when the scorer finds nothing to score; its
    # summary says why its metrics are null
    metrics = metrics_error = None
    if tracker_trace:
        try:
            metrics = compute_metrics(tracker_trace, truth_trace, sc.metrics)
        except MetricsError as e:
            metrics_error = str(e)
    counts = {"physics": n_phys,
              "control": _event_count(sc.duration, sc.rates.control_hz),
              "camera": _event_count(sc.duration, sc.rates.camera_hz)}
    summary = {
        "schema_version": 1,
        "scenario": sc.name,
        "scenario_hash": scenario_hash(sc),
        "seed": sc.seed,
        "duration_s": sc.duration,
        "counts": counts,
        "metrics": None if metrics is None else metrics.as_dict(),
        "final_quad_p": final.pose.position,
        "final_dist_xy": truth_trace[-1]["dist_xy"] if truth_trace else None,
    }
    if metrics_error is not None:
        summary["metrics_error"] = metrics_error
    return RunArtifacts(sc, events, tracker_trace, command_trace, truth_trace,
                        metrics, counts, summary, frame_scores)


def predicted_center(tracker: Tracker) -> tuple[float, float]:
    """The center of the tracker's predicted box, the controller's input:
    `predicted_box`'s clamp and `BoundingBox.center`'s expression, on the
    filter mean's floats, with no box built."""
    x, y, w, h, _, _ = tracker.state.ekf.m
    return (x + max(MIN_BOX_SIZE, w) / 2.0, y + max(MIN_BOX_SIZE, h) / 2.0)


# ---------------------------------------------------------------------------
# output directory
# ---------------------------------------------------------------------------


def write_run(art: RunArtifacts, out_dir) -> None:
    """Persist the four streams plus summary, which embeds the scenario.
    Files are byte-deterministic for a fixed (scenario, seed)."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    write_events(os.path.join(out_dir, "events.jsonl"), art.events)
    write_jsonl(os.path.join(out_dir, "tracker.jsonl"), art.tracker_trace)
    write_jsonl(os.path.join(out_dir, "commands.jsonl"), art.command_trace)
    write_jsonl(os.path.join(out_dir, "groundtruth.jsonl"), art.truth_trace)
    write_summary(os.path.join(out_dir, "summary.json"), art.summary,
                  art.scenario.to_dict())
