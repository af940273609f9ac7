"""Deterministic closed-loop simulator.

Plant: standard rigid-body quadrotor,

    p' = v
    v' = (tau/m) R e3 + [0, 0, -9.81]
    R' = R hat(omega)
    J omega' = torque - omega x J omega

integrated with fixed-step RK4 at the physics rate, on Python floats (R as
nine floats), and projected back onto SO(3) after every step by Newton's
polar iteration, with the SVD nearest rotation as its fallback.  Motors are
ideal by default: the wrench is computed from the commanded rotor thrusts
once per control tick and zero-order-held over the physics steps up to the
next tick.  An optional first-order lag models spin-up; the realized
thrusts, and so the wrench, then move on every physics step.

Scheduling: three periodic event streams -- physics (integrate the interval
ending at t), control/gyro, camera -- merged by timestamp with ties ordered
physics < control < camera, so sensors always observe a fully integrated
state.  Event times are k/rate with integer k; per simulated second the
stream carries exactly `rate` events.  All randomness (detector noise, gyro
noise, object latents) flows from one seeded generator in a fixed draw
order, so a (scenario, seed) pair fixes every output byte.

The camera is rigidly mounted looking along body x: camera X right = -body y,
camera Y down = -body z, camera Z forward = +body x.  Scenarios may script
the camera platform ("static", "yaw_sine") instead of flying the closed loop;
commands are still computed and logged but not applied, which gives
tracker-only scenarios an actuation-independent detection stream.  The
tracker draws nothing (appearance memory follows the accepted detection's
descriptor), so a scripted stream is independent of the tracker, and a
closed-loop stream depends on it only through the flight.

Each camera frame transforms each object into the camera frame once: the
detector keeps the frame's per-object views (box, occluded fraction), and
the ground-truth row reads the target's from them.  The controller tick runs
on Python floats and raises ControllerAbort on a non-finite output, so a bad
command never reaches the plant or commands.jsonl.  The layers are built
from the scenario by QuadConfig.build, ControllerParams.build and
TrackerParams.build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import Scenario, scenario_hash
from .controller import (BodyCommand, MixerGeometry, MotorCommand,
                         motor_wrench)
from .detection import GyroSample, SyntheticDetector
from .errors import SimulationAbort
# project_box is no longer called here (the detector's frame views carry the
# truth boxes), but perfbench/tracing.py wraps it under this module's name
from .geometry import (CameraPose, nearest_rotation,  # noqa: F401
                       pitch_yaw_from_rotation, project_box, rot_z)
from .logio import write_events, write_jsonl, write_summary
from .metrics import Metrics, compute_metrics
from .scene import SceneObject, scene_step
from .tracker import Tracker, predicted_box

GRAVITY = 9.81
GRAVITY_VEC = (0.0, 0.0, -GRAVITY)

# camera-from-body: rows are the camera axes expressed in body coordinates.
CAMERA_FROM_BODY = np.array([
    [0.0, -1.0, 0.0],   # camera x (right)  = -body y
    [0.0, 0.0, -1.0],   # camera y (down)   = -body z
    [1.0, 0.0, 0.0],    # camera z (forward) = body x
])


@dataclass
class QuadParams:
    mass: float = 1.3
    inertia: tuple = (0.01, 0.01, 0.02)  # kg m^2, body-diagonal
    geometry: MixerGeometry = field(default_factory=MixerGeometry)
    motor_lag: float = 0.0               # s; 0 = ideal motors


@dataclass
class QuadState:
    p: np.ndarray                        # world position, m
    v: np.ndarray                        # world velocity, m/s
    R: np.ndarray                        # world-from-body
    omega: np.ndarray                    # body rates, rad/s


def _deriv(R, w, s, torque, J):
    """(v', R', omega') at one RK4 stage under specific thrust s = thrust/m;
    p' = v needs no work.  The 3-vectors are lists of floats and R is the
    stage's nine floats, row-major.  Row i of R hat(w) is row i of R cross w,
    and omega x J omega has np.cross's products and differences."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = R
    wx, wy, wz = w
    jx, jy, jz = J
    tx, ty, tz = torque
    gx, gy, gz = GRAVITY_VEC
    hx, hy, hz = jx * wx, jy * wy, jz * wz
    dv = [s * r02 + gx, s * r12 + gy, s * r22 + gz]
    dR = [r01 * wz - r02 * wy, r02 * wx - r00 * wz, r00 * wy - r01 * wx,
          r11 * wz - r12 * wy, r12 * wx - r10 * wz, r10 * wy - r11 * wx,
          r21 * wz - r22 * wy, r22 * wx - r20 * wz, r20 * wy - r21 * wx]
    dw = [(tx - (wy * hz - wz * hy)) / jx, (ty - (wz * hx - wx * hz)) / jy,
          (tz - (wx * hy - wy * hx)) / jz]
    return dv, dR, dw


def _axpy(x, a, y):
    return [xi + a * yi for xi, yi in zip(x, y)]


def _rk4_sum(x, c, k1, k2, k3, k4):
    return [xi + c * (a + 2 * b + 2 * d + e)
            for xi, a, b, d, e in zip(x, k1, k2, k3, k4)]


# Newton polar iteration: stop once no entry moves by more than a few ulps
# of 1 (the entries of a rotation are at most 1 in magnitude); from an RK4
# step's near-rotation that takes one or two iterations.
POLAR_TOL = 1e-15
POLAR_MAX_ITER = 8


def _project_rotation(X) -> np.ndarray:
    """Nearest rotation to the 3x3 matrix X given as nine floats, row-major.

    Newton's polar iteration X <- (X + X^-T) / 2 (Higham, SIAM J. Sci.
    Stat. Comput. 7(4), 1986) converges quadratically to the orthogonal
    polar factor, which is the nearest rotation when det(X) > 0; X^-T is
    the cofactor matrix over the determinant.  When det(X) <= 0 (the polar
    factor is then a reflection) or the iteration has not converged within
    POLAR_MAX_ITER steps, the SVD projection `nearest_rotation` is used, so
    the result is always a proper rotation.
    """
    a0, a1, a2, b0, b1, b2, c0, c1, c2 = X
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
        if max(abs(y0 - a0), abs(y1 - a1), abs(y2 - a2),
               abs(y3 - b0), abs(y4 - b1), abs(y5 - b2),
               abs(y6 - c0), abs(y7 - c1), abs(y8 - c2)) <= POLAR_TOL:
            return np.array(((y0, y1, y2), (y3, y4, y5), (y6, y7, y8)))
        a0, a1, a2, b0, b1, b2, c0, c1, c2 = y0, y1, y2, y3, y4, y5, y6, y7, y8
    return nearest_rotation(np.array(X).reshape(3, 3))


def dynamics_step(state: QuadState, cmd: BodyCommand, params: QuadParams,
                  dt: float) -> QuadState:
    """One RK4 step under a zero-order-held wrench, then SO(3) projection.

    The whole step runs on Python floats: p, v and omega one component at a
    time and R as nine floats, with the elementwise form's operations (x + h*k
    per stage, x + dt/6*(k1 + 2k2 + 2k3 + k4) at the end).  The stepped R is
    projected onto SO(3) by Newton's polar iteration, falling back to the SVD
    `nearest_rotation` on a reflection or without convergence (see
    `_project_rotation`).  A non-finite R is returned unprojected for the
    caller's finiteness check.
    """
    torque = np.asarray(cmd.torques, dtype=float).tolist()
    s, J = cmd.thrust / params.mass, [float(j) for j in params.inertia]
    p, v, w = state.p.tolist(), state.v.tolist(), state.omega.tolist()
    R = state.R.ravel().tolist()
    h = 0.5 * dt

    dv1, dR1, dw1 = _deriv(R, w, s, torque, J)
    v2, w2 = _axpy(v, h, dv1), _axpy(w, h, dw1)
    dv2, dR2, dw2 = _deriv(_axpy(R, h, dR1), w2, s, torque, J)
    v3, w3 = _axpy(v, h, dv2), _axpy(w, h, dw2)
    dv3, dR3, dw3 = _deriv(_axpy(R, h, dR2), w3, s, torque, J)
    v4, w4 = _axpy(v, dt, dv3), _axpy(w, dt, dw3)
    dv4, dR4, dw4 = _deriv(_axpy(R, dt, dR3), w4, s, torque, J)

    c = dt / 6.0
    p1 = _rk4_sum(p, c, v, v2, v3, v4)
    v1 = _rk4_sum(v, c, dv1, dv2, dv3, dv4)
    w1 = _rk4_sum(w, c, dw1, dw2, dw3, dw4)
    R1 = _rk4_sum(R, c, dR1, dR2, dR3, dR4)
    if all(map(math.isfinite, R1)):
        R1 = _project_rotation(R1)
    else:
        R1 = np.array(R1).reshape(3, 3)
    return QuadState(np.array(p1), np.array(v1), R1, np.array(w1))


def imu_sample(t: float, state: QuadState, sigma: float,
               rng: np.random.Generator) -> GyroSample:
    """Body rates mapped into the camera frame plus white noise.

    The noise draw is consumed even at sigma = 0 to keep the run's draw
    order independent of the noise setting.
    """
    noise = rng.normal(0.0, 1.0, size=3) * sigma
    return GyroSample(t, CAMERA_FROM_BODY @ state.omega + noise)


def camera_pose(state: QuadState) -> CameraPose:
    """Camera rigidly at the body origin: world-from-camera rotation."""
    return CameraPose(state.R @ CAMERA_FROM_BODY.T, state.p)


# ---------------------------------------------------------------------------
# camera platform scripts
# ---------------------------------------------------------------------------


class _Script:
    """Closed-form platform state for non-closed-loop scenarios."""

    def __init__(self, scenario: Scenario):
        cs = scenario.camera_script
        self.mode = cs.mode
        self.amplitude = cs.amplitude
        self.period = cs.period
        self.p0 = np.asarray(scenario.quad.start_position, dtype=float)
        self.yaw0 = scenario.quad.start_yaw

    def state_at(self, t: float) -> QuadState:
        if self.mode == "static":
            yaw, rate = self.yaw0, 0.0
        else:  # yaw_sine
            w0 = 2.0 * math.pi / self.period
            yaw = self.yaw0 + self.amplitude * math.sin(w0 * t)
            rate = self.amplitude * w0 * math.cos(w0 * t)
        return QuadState(self.p0.copy(), np.zeros(3), rot_z(yaw),
                         np.array([0.0, 0.0, rate]))


# ---------------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------------


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


def _event_count(duration: float, rate: int) -> int:
    n = duration * rate
    r = round(n)
    return int(r) if abs(n - r) < 1e-6 else math.ceil(n)


def build_scene(scenario: Scenario, rng: np.random.Generator) -> list[SceneObject]:
    """Instantiate scene objects; detectable ones draw their latent vectors
    from `rng` in object-id order (part of the run's fixed draw order)."""
    objects = []
    for oc in sorted(scenario.objects, key=lambda o: o.obj_id):
        latent = None
        if not oc.occluder:
            raw = rng.normal(0.0, 1.0, size=scenario.detector.descriptor_dim)
            latent = raw / np.linalg.norm(raw)
        objects.append(SceneObject(oc.obj_id, np.asarray(oc.size, float),
                                   oc.motion.build(), oc.occluder, latent))
    return objects


def run(scenario: Scenario) -> RunArtifacts:
    sc = scenario
    cam = sc.camera.build()
    rng = np.random.default_rng(sc.seed)
    objects = build_scene(sc, rng)
    detector = SyntheticDetector(sc.detector.build(), rng)
    tracker = Tracker(sc.tracker.build(cam))
    prompt_xy = (sc.prompt.x, sc.prompt.y)
    params = sc.quad.build()
    controller = sc.controller.build(params, cam, sc.rates.control_hz)

    scripted = sc.camera_script.mode != "dynamic"
    script = _Script(sc) if scripted else None
    quad = (script.state_at(0.0) if scripted else
            QuadState(np.asarray(sc.quad.start_position, float), np.zeros(3),
                      rot_z(sc.quad.start_yaw), np.zeros(3)))

    n_phys = _event_count(sc.duration, sc.rates.physics_hz)
    n_ctrl = _event_count(sc.duration, sc.rates.control_hz)
    n_cam = _event_count(sc.duration, sc.rates.camera_hz)

    events: list = []
    tracker_trace: list[dict] = []
    command_trace: list[dict] = []
    truth_trace: list[dict] = []
    wrench = MotorCommand(np.zeros(4), False)
    # ideal motors: the wrench changes only at a control tick, so it is
    # computed there and held; with lag it moves on every physics step
    hold_wrench = not scripted and params.motor_lag == 0.0
    applied = (BodyCommand(*motor_wrench(wrench, params.geometry))
               if hold_wrench else None)
    rotor_thrusts = np.zeros(4)  # realized thrusts when motor lag is on
    last_phys_t = 0.0
    ip, ic, icam = 1, 0, 0
    PHYS, CTRL, CAM = 0, 1, 2

    def truth_record(t: float) -> dict:
        # the target's view of the frame the detector just projected
        target, box, occl = next(v for v in detector.views
                                 if v.state.obj_id == sc.target_id)
        center = None if box is None else box.center
        in_view = (center is not None and 0.0 <= center[0] <= cam.width
                   and 0.0 <= center[1] <= cam.height)
        _, yaw = pitch_yaw_from_rotation(quad.R)
        return {
            "t": t,
            "box": None if box is None else box.as_array(),
            "center": center,
            "occluded": occl,
            "in_view": bool(in_view),
            "quad_p": quad.p,
            "quad_yaw": yaw,
            "target_p": target.center,
            "dist_xy": float(np.hypot(*(quad.p[:2] - target.center[:2]))),
        }

    while ip <= n_phys or ic < n_ctrl or icam < n_cam:
        t_p = ip / sc.rates.physics_hz if ip <= n_phys else math.inf
        t_c = ic / sc.rates.control_hz if ic < n_ctrl else math.inf
        t_k = icam / sc.rates.camera_hz if icam < n_cam else math.inf
        t, kind = min((t_p, PHYS), (t_c, CTRL), (t_k, CAM))

        if kind == PHYS:
            if not scripted:
                dt = t - last_phys_t
                if not hold_wrench:
                    a = 1.0 - math.exp(-dt / params.motor_lag)
                    rotor_thrusts = rotor_thrusts + a * (wrench.thrusts - rotor_thrusts)
                    applied = BodyCommand(*motor_wrench(
                        MotorCommand(rotor_thrusts, False), params.geometry))
                quad = dynamics_step(quad, applied, params, dt)
                # one sum is finite when every entry is; recheck entry by
                # entry only when it is not, as finite entries can overflow it
                if not math.isfinite(sum(quad.p.tolist() + quad.v.tolist()
                                         + quad.R.ravel().tolist()
                                         + quad.omega.tolist())) \
                        and not np.isfinite(np.concatenate(
                            (quad.p, quad.v, quad.R.ravel(), quad.omega))).all():
                    raise SimulationAbort(last_phys_t, "non-finite state")
            last_phys_t = t
            ip += 1
            continue

        if scripted:
            # sensors read the state held at the most recent physics tick
            quad = script.state_at(last_phys_t)
        if kind == CTRL:
            gyro = imu_sample(t, quad, sc.quad.gyro_noise, rng)
            events.append(gyro)
            tracker.feed(gyro, prompt_xy, sc.prompt.t)
            if tracker.initialized:
                px, py = predicted_center(tracker)
                cmd, motors = controller.tick(t, (px, py), quad.R, quad.omega)
            else:
                cmd, motors = controller.hover_tick(t, quad.R, quad.omega)
            command_trace.append(controller.command_record(t, cmd, motors))
            wrench = motors
            if hold_wrench:
                applied = BodyCommand(*motor_wrench(wrench, params.geometry))
            ic += 1
            continue

        # camera frame
        snapshot = scene_step(objects, t)
        pose = camera_pose(quad)
        if tracker.initialized and tracker.state.ekf.t < t:
            gyro = imu_sample(t, quad, sc.quad.gyro_noise, rng)
            events.append(gyro)
            tracker.feed(gyro, prompt_xy, sc.prompt.t)
        dets = detector.detect(snapshot, pose, cam)
        events.append(dets)
        truth_trace.append(truth_record(t))
        row = tracker.feed(dets, prompt_xy, sc.prompt.t)
        if row is not None:
            tracker_trace.append(row)
        icam += 1

    if scripted:
        quad = script.state_at(last_phys_t)
    metrics = (compute_metrics(tracker_trace, truth_trace, sc.metrics.build())
               if tracker_trace else None)
    counts = {"physics": n_phys, "control": n_ctrl, "camera": n_cam}
    summary = {
        "schema_version": 1,
        "scenario": sc.name,
        "scenario_hash": scenario_hash(sc),
        "seed": sc.seed,
        "duration_s": sc.duration,
        "counts": counts,
        "metrics": None if metrics is None else metrics.as_dict(),
        "final_quad_p": quad.p,
        "final_dist_xy": truth_trace[-1]["dist_xy"] if truth_trace else None,
    }
    return RunArtifacts(sc, events, tracker_trace, command_trace, truth_trace,
                        metrics, counts, summary)


def predicted_center(tracker: Tracker) -> tuple[float, float]:
    return predicted_box(tracker.state.ekf).center


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
