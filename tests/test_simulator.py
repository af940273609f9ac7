"""Rigid-body plant, IMU, scene scripts, and the merged event loop."""

import dataclasses
import json
import math
import os
import warnings

import numpy as np
import pytest

from quadtrack import cli, detection, scenarios, simulator
from quadtrack.config import (CameraScriptConfig, DetectorParams,
                              MotionConfig, ObjectConfig, PromptConfig,
                              QuadConfig, RatesConfig, Scenario, save_scenario)
from quadtrack.controller import BodyCommand
from quadtrack.detection import DetectionSet, GyroSample
from quadtrack.errors import (ControllerAbort, FilterDegenerateError,
                              SimulationAbort)
from quadtrack.geometry import (is_rotation, nearest_rotation, rot_z,
                                zyx_matrix)
from quadtrack.logio import event_line
from quadtrack.replay import replay_track
from quadtrack.scene import (SceneObject, SinusoidMotion, StaticMotion,
                             WaypointMotion, scene_step)
from quadtrack.simulator import (CAMERA_FROM_BODY, QuadParams, QuadState,
                                 _event_count, camera_pose, dynamics_step,
                                 imu_sample, run, write_run)

GRAVITY = 9.81


def level_state(p=(0.0, 0.0, 1.5)):
    return QuadState(np.asarray(p, dtype=float), np.zeros(3), np.eye(3),
                     np.zeros(3))


def static_object(obj_id=0, position=(12.0, 0.0, 1.5), size=(0.6, 0.6),
                  occluder=False):
    return ObjectConfig(obj_id=obj_id, size=size, occluder=occluder,
                        motion=MotionConfig(mode="static", position=position))


def make_scenario(**kw):
    base = dict(
        name="unit",
        seed=5,
        duration=1.0,
        prompt=PromptConfig(480.0, 272.0, 0.0),
        objects=(static_object(),),
        target_id=0,
        detector=DetectorParams(center_noise_px=0.5, size_noise_frac=0.01,
                                feature_noise=0.05, p_dropout=0.0,
                                descriptor_dim=16),
    )
    base.update(kw)
    return Scenario(**base)


# ---------------------------------------------------------------------------
# plant
# ---------------------------------------------------------------------------


def test_free_fall_matches_kinematics():
    params = QuadParams()
    st = level_state(p=(0.0, 0.0, 100.0))
    t = 0.0
    for _ in range(1000):
        st = dynamics_step(st, BodyCommand(0.0, np.zeros(3)), params, 0.001)
        t += 0.001
    assert st.v[2] == pytest.approx(-GRAVITY * t, abs=1e-6)
    assert st.p[2] == pytest.approx(100.0 - 0.5 * GRAVITY * t * t, abs=1e-6)
    assert np.allclose(st.v[:2], 0.0, atol=1e-12)


def test_exact_hover_thrust_is_equilibrium():
    params = QuadParams()
    st = level_state()
    cmd = BodyCommand(params.mass * GRAVITY, np.zeros(3))
    for _ in range(1000):
        st = dynamics_step(st, cmd, params, 0.001)
    assert np.linalg.norm(st.v) < 1e-9
    assert np.allclose(st.p, [0.0, 0.0, 1.5], atol=1e-9)
    assert np.allclose(st.R, np.eye(3), atol=1e-12)


def test_constant_yaw_torque_spins_linearly():
    params = QuadParams()
    st = level_state()
    tau_z = 0.004
    cmd = BodyCommand(0.0, np.array([0.0, 0.0, tau_z]))
    for _ in range(1000):
        st = dynamics_step(st, cmd, params, 0.001)
    # J3 omega' = tau with the gyroscopic term vanishing for pure yaw spin
    want_rate = tau_z / params.inertia[2] * 1.0
    assert st.omega[2] == pytest.approx(want_rate, abs=1e-9)
    theta = 0.5 * tau_z / params.inertia[2]
    assert np.allclose(st.R, rot_z(theta), atol=1e-6)


def test_step_refinement_converges():
    # 10x finer RK4 reproduces the same trajectory: integration error is
    # far below the mixer/sensor scales
    params = QuadParams()
    cmd = BodyCommand(13.0, np.array([0.002, -0.001, 0.0005]))
    coarse = level_state()
    for _ in range(100):
        coarse = dynamics_step(coarse, cmd, params, 0.001)
    fine = level_state()
    for _ in range(1000):
        fine = dynamics_step(fine, cmd, params, 0.0001)
    assert np.allclose(coarse.p, fine.p, atol=1e-6)
    assert np.allclose(coarse.v, fine.v, atol=1e-6)
    assert np.max(np.abs(coarse.R - fine.R)) < 1e-6
    assert np.allclose(coarse.omega, fine.omega, atol=1e-6)


def test_torque_free_flight_conserves_energy():
    params = QuadParams()
    st = QuadState(np.array([0.0, 0.0, 50.0]), np.array([3.0, -2.0, 4.0]),
                   np.eye(3), np.array([0.3, -0.2, 0.4]))
    J = np.asarray(params.inertia)

    def energy(s):
        return (0.5 * params.mass * float(s.v @ s.v)
                + params.mass * GRAVITY * s.p[2]
                + 0.5 * float(s.omega @ (J * s.omega)))

    e0 = energy(st)
    cmd = BodyCommand(0.0, np.zeros(3))
    for _ in range(1000):
        st = dynamics_step(st, cmd, params, 0.001)
        assert is_rotation(st.R, tol=1e-9)
    assert energy(st) == pytest.approx(e0, rel=1e-6)


def test_rotation_stays_orthonormal_under_aggressive_commands():
    params = QuadParams()
    st = level_state()
    rng = np.random.default_rng(8)
    for _ in range(200):
        cmd = BodyCommand(rng.uniform(0.0, 30.0), rng.uniform(-0.5, 0.5, 3))
        st = dynamics_step(st, cmd, params, 0.001)
        assert is_rotation(st.R, tol=1e-9)


# ---------------------------------------------------------------------------
# IMU and camera mount
# ---------------------------------------------------------------------------


def test_imu_maps_body_rates_to_camera_axes():
    rng = np.random.default_rng(0)
    st = level_state()
    st.omega = np.array([0.0, 0.0, 0.7])  # body yaw
    g = imu_sample(1.0, st, 0.0, rng)
    assert g.t == 1.0
    assert np.allclose(g.w, [0.0, -0.7, 0.0], atol=1e-15)
    st.omega = np.array([0.5, 0.0, 0.0])  # body roll = camera forward axis
    g = imu_sample(1.0, st, 0.0, rng)
    assert np.allclose(g.w, [0.0, 0.0, 0.5], atol=1e-15)
    st.omega = np.zeros(3)
    g = imu_sample(1.0, st, 0.0, rng)
    assert np.array_equal(g.w, np.zeros(3))


def test_imu_noise_statistics():
    rng = np.random.default_rng(3)
    st = level_state()
    sigma = 0.01
    samples = np.array([imu_sample(0.0, st, sigma, rng).w for _ in range(100_000)])
    assert np.allclose(samples.mean(axis=0), 0.0, atol=3e-4)
    assert np.allclose(samples.std(axis=0), sigma, rtol=0.03)


def test_camera_mount_definition():
    # rows of the mount matrix are the camera axes in body coordinates
    assert np.array_equal(CAMERA_FROM_BODY @ np.array([0.0, -1.0, 0.0]),
                          [1.0, 0.0, 0.0])
    assert np.array_equal(CAMERA_FROM_BODY @ np.array([1.0, 0.0, 0.0]),
                          [0.0, 0.0, 1.0])
    assert abs(np.linalg.det(CAMERA_FROM_BODY) - 1.0) < 1e-12
    pose = camera_pose(level_state())
    assert np.array_equal(pose.rotation, CAMERA_FROM_BODY.T)
    assert np.array_equal(pose.position, [0.0, 0.0, 1.5])


# ---------------------------------------------------------------------------
# scene scripts
# ---------------------------------------------------------------------------


def test_static_motion():
    m = StaticMotion(np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(m.position(0.0), [1.0, 2.0, 3.0])
    assert np.array_equal(m.position(99.0), [1.0, 2.0, 3.0])


def test_waypoint_motion_interpolates_and_clamps():
    m = WaypointMotion([(0.0, np.array([0.0, 0.0, 0.0])),
                        (10.0, np.array([70.0, 0.0, 0.0]))])
    assert np.allclose(m.position(5.0), [35.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(m.position(2.0), [14.0, 0.0, 0.0], atol=1e-12)
    assert np.array_equal(m.position(-1.0), [0.0, 0.0, 0.0])
    assert np.array_equal(m.position(25.0), [70.0, 0.0, 0.0])


def test_waypoint_motion_validation():
    with pytest.raises(ValueError):
        WaypointMotion([(0.0, np.zeros(3))])
    with pytest.raises(ValueError):
        WaypointMotion([(0.0, np.zeros(3)), (0.0, np.ones(3))])
    with pytest.raises(ValueError):
        WaypointMotion([(1.0, np.zeros(3)), (0.5, np.ones(3))])


def test_sinusoid_motion_periodic():
    m = SinusoidMotion(np.array([5.0, 0.0, 1.0]), np.array([2.0, 0.0, 0.0]),
                       period=4.0, phase=0.3)
    for t in (0.0, 0.7, 2.1):
        assert np.allclose(m.position(t), m.position(t + 4.0), atol=1e-12)
    with pytest.raises(ValueError):
        SinusoidMotion(np.zeros(3), np.zeros(3), period=0.0)


def test_scene_step_orders_by_object_id():
    objs = [SceneObject(3, np.ones(3), StaticMotion(np.zeros(3))),
            SceneObject(1, np.ones(3), StaticMotion(np.ones(3)))]
    snap = scene_step(objs, 2.0)
    assert snap.t == 2.0
    assert [o.obj_id for o in snap.objects] == [1, 3]


# ---------------------------------------------------------------------------
# event scheduling
# ---------------------------------------------------------------------------


def test_event_count_rounding():
    assert _event_count(1.0, 60) == 60
    assert _event_count(10.0, 1000) == 10_000
    assert _event_count(0.05, 60) == 3
    assert _event_count(0.032, 60) == 2       # 1.92 events -> ceil
    assert _event_count(0.1 + 1e-12, 60) == 6  # within rounding tolerance


def test_run_emits_exact_event_counts():
    art = run(make_scenario())
    assert art.counts == {"physics": 1000, "control": 100, "camera": 60}
    dets = [e for e in art.events if isinstance(e, DetectionSet)]
    gyros = [e for e in art.events if isinstance(e, GyroSample)]
    assert len(dets) == 60
    assert len(gyros) >= 100
    assert len(art.command_trace) == 100
    assert len(art.truth_trace) == 60
    assert len(art.tracker_trace) == 60


def test_run_interleaves_gyro_before_detections():
    art = run(make_scenario())
    last_gyro_t = None
    for ev in art.events:
        if isinstance(ev, GyroSample):
            last_gyro_t = ev.t
        else:
            # after the tracker locks, every frame is predicted up to its
            # own timestamp before detections are consumed
            if ev.t > 0.0:
                assert last_gyro_t == ev.t


def test_run_event_times_on_rate_grid():
    art = run(make_scenario())
    for ev in art.events:
        if isinstance(ev, DetectionSet):
            assert abs(ev.t * 60.0 - round(ev.t * 60.0)) < 1e-9
    ts = [ev.t for ev in art.events]
    assert ts == sorted(ts)


def test_same_seed_reproduces_event_stream_bytes():
    sc = make_scenario()
    a = run(sc)
    b = run(sc)
    la = [event_line(e) for e in a.events]
    lb = [event_line(e) for e in b.events]
    assert la == lb
    assert a.summary["scenario_hash"] == b.summary["scenario_hash"]
    assert json.dumps(a.summary, default=str) == json.dumps(b.summary, default=str)


def test_different_seed_changes_stream():
    a = run(make_scenario())
    b = run(make_scenario(seed=6))
    assert [event_line(e) for e in a.events] != [event_line(e) for e in b.events]


def _bundled(name, seed, duration=None):
    sc = scenarios.get(name).with_seed(seed)
    return sc if duration is None else dataclasses.replace(sc, duration=duration)


def _exact(rows):
    # repr-precision JSON: equal strings mean bit-equal floats
    return [json.dumps(r, default=lambda a: a.tolist()) for r in rows]


@pytest.mark.parametrize("name,seed,duration", [
    ("false_positive_storm", 2, None),
    ("corridor_approach", 21, 2.0),
    ("occlusion_decoy", 7, None),
])
def test_live_tracker_trace_is_replay_of_own_stream(name, seed, duration):
    sc = _bundled(name, seed, duration)
    art = run(sc)
    replayed = replay_track(art.events, (sc.prompt.x, sc.prompt.y),
                            sc.prompt.t, sc.tracker.build(sc.camera.build()))
    assert _exact(replayed) == _exact(art.tracker_trace)


@pytest.mark.parametrize("name,seed", [
    ("false_positive_storm", 2),
    ("occlusion_decoy", 7),
    ("rotation_only", 41),
])
def test_scripted_stream_independent_of_tracker_weights(name, seed):
    sc = _bundled(name, seed)
    iou_only = dataclasses.replace(
        sc, tracker=dataclasses.replace(sc.tracker, weights=(3.0, 0.0, 0.0)))
    assert sc.tracker.weights == (3.0, 3.0, 4.0)
    assert ([event_line(e) for e in run(iou_only).events]
            == [event_line(e) for e in run(sc).events])


def test_scripted_camera_holds_position():
    sc = make_scenario(
        camera_script=CameraScriptConfig(mode="yaw_sine", amplitude=0.2,
                                         period=2.0),
        quad=QuadConfig(start_position=(0.0, 0.0, 1.5)),
    )
    art = run(sc)
    for row in art.truth_trace:
        assert np.array_equal(row["quad_p"], [0.0, 0.0, 1.5])
    # a yaw-sine platform reports its scripted rate through the gyro
    # (camera-frame y = -body z); sensors read the state held at the most
    # recent physics tick, hence the floor to the 1 kHz grid
    w0 = 2.0 * math.pi / 2.0
    for ev in art.events:
        if isinstance(ev, GyroSample):
            held_t = math.floor(ev.t * 1000.0 + 1e-9) / 1000.0
            want = -0.2 * w0 * math.cos(w0 * held_t)
            assert ev.w[1] == pytest.approx(want, abs=1e-12)
            assert ev.w[0] == 0.0 and ev.w[2] == 0.0


def test_closed_loop_hover_without_lock_stays_put():
    # prompt far in the future: the controller holds hover the whole run
    sc = make_scenario(prompt=PromptConfig(480.0, 272.0, t=30.0))
    art = run(sc)
    assert art.tracker_trace == []
    assert art.metrics is None
    assert np.linalg.norm(art.summary["final_quad_p"] - np.array([0.0, 0.0, 1.5])) < 1e-6


def test_motor_lag_smoke():
    sc = make_scenario(quad=QuadConfig(motor_lag=0.05),
                       prompt=PromptConfig(480.0, 272.0, t=30.0))
    art = run(sc)
    p = art.summary["final_quad_p"]
    assert np.all(np.isfinite(p))
    assert abs(p[2] - 1.5) < 0.5


def test_write_run_produces_full_directory(tmp_path):
    art = run(make_scenario(duration=0.5))
    out = tmp_path / "rundir"
    write_run(art, out)
    names = sorted(os.listdir(out))
    assert names == ["commands.jsonl", "events.jsonl", "groundtruth.jsonl",
                     "summary.json", "tracker.jsonl"]
    with open(out / "summary.json") as fp:
        summary = json.load(fp)
    assert summary["schema_version"] == 1
    assert summary["counts"] == {"physics": 500, "control": 50, "camera": 30}
    assert summary["scenario"] == "unit"
    with open(out / "events.jsonl") as fp:
        lines = fp.read().splitlines()
    assert len(lines) == len(art.events)


def test_simulation_abort_reports_last_good_time():
    err = SimulationAbort(1.234, "non-finite state")
    assert err.t == 1.234
    assert "1.234" in str(err) and "non-finite" in str(err)


BAD_STEP = 250  # physics step that goes non-finite; step 249 ends at 0.249 s


def _poison(what):
    """A dynamics_step whose BAD_STEP-th call goes non-finite: one output
    field set to NaN or inf, or (what == "torque") a NaN torque fed into
    the real step so that the whole state, R included, turns NaN."""
    real = simulator.dynamics_step
    calls = [0]

    def step(state, cmd, params, dt):
        calls[0] += 1
        if calls[0] != BAD_STEP:
            return real(state, cmd, params, dt)
        if what == "torque":
            return real(state, BodyCommand(cmd.thrust, np.array([np.nan, 0.0, 0.0])),
                        params, dt)
        out = real(state, cmd, params, dt)
        bad = getattr(out, what).copy()
        bad.flat[1] = np.inf if what == "v" else np.nan
        return dataclasses.replace(out, **{what: bad})

    return step


@pytest.mark.parametrize("what", ["p", "v", "R", "omega", "torque"])
def test_non_finite_state_aborts_at_last_good_time(monkeypatch, tmp_path,
                                                   capsys, what):
    sc = make_scenario()
    monkeypatch.setattr(simulator, "dynamics_step", _poison(what))
    with pytest.raises(SimulationAbort, match="non-finite state") as err:
        run(sc)
    assert err.value.t == (BAD_STEP - 1) / sc.rates.physics_hz

    monkeypatch.setattr(simulator, "dynamics_step", _poison(what))
    path = tmp_path / "unit.json"
    save_scenario(sc, path)
    assert cli.main(["sim", str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith(
        "abort: non-finite state (last good state at t=0.249000 s)")


def test_finite_state_whose_sum_overflows_does_not_abort(monkeypatch):
    # the post-step check sums the state; a sum that overflows on finite
    # entries is rechecked entry by entry and must not abort the run
    real = simulator.dynamics_step
    calls = [0]

    def step(state, cmd, params, dt):
        calls[0] += 1
        out = real(state, cmd, params, dt)
        if calls[0] == BAD_STEP:
            out = dataclasses.replace(out, p=np.array([1e308, 1e308, out.p[2]]))
        return out

    monkeypatch.setattr(simulator, "dynamics_step", step)
    art = run(make_scenario())
    assert calls[0] > BAD_STEP
    assert art.summary["final_quad_p"][:2].tolist() == [1e308, 1e308]


def test_each_frame_projects_each_object_once(monkeypatch):
    # the detector's views give the truth rows their boxes: one projection
    # per object per frame, none in the simulator itself
    calls = []
    real = detection.project_box

    def counting(*args):
        calls.append(args)
        return real(*args)

    def forbidden(*args):
        raise AssertionError("the simulator projects again")

    monkeypatch.setattr(detection, "project_box", counting)
    monkeypatch.setattr(simulator, "project_box", forbidden)
    sc = _bundled("occlusion_decoy", 1, 1.0)
    art = run(sc)
    assert len(calls) == len(art.truth_trace) * len(sc.objects) == 60 * 4


def test_non_finite_controller_output_aborts_the_run(tmp_path, capsys):
    # huge outer-loop gains overflow the force demand on a scripted camera:
    # the run stops in the controller, and the CLI exits 2 with one line
    # and writes no run directory
    sc = _bundled("false_positive_storm", 2)
    sc = dataclasses.replace(sc, duration=3.0, controller=dataclasses.replace(
        sc.controller, kp_thrust=1e307, kp_roll=1e307))
    with pytest.raises(ControllerAbort, match=r"^controller: non-finite R_des at t=") as err:
        run(sc)
    assert 0.0 < err.value.t < sc.duration

    path, out = tmp_path / "storm.json", tmp_path / "run"
    save_scenario(sc, path)
    assert cli.main(["sim", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"abort: {err.value}\n" and captured.out == ""
    assert not out.exists()


def test_filter_overflow_aborts_in_the_tracker():
    # huge centre noise and gyro noise with an aggressive pitch law: the
    # filter's covariance overflows in predict, and the run must abort there,
    # in the tracker, not later in the controller (DegenerateHeadingError)
    sc = _bundled("corridor_approach", 21)
    sc = dataclasses.replace(
        sc,
        detector=dataclasses.replace(sc.detector, center_noise_px=400.0),
        quad=dataclasses.replace(sc.quad, gyro_noise=1.0),
        controller=dataclasses.replace(sc.controller, pitch_accel=30.0))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            FilterDegenerateError, match="not finite after predict"):
        run(sc)


def test_filter_overflow_aborts_without_numpy_warnings():
    # the same repro with every warning an error: the filter's predict runs
    # on Python floats, so the overflow surfaces only as the typed abort
    sc = _bundled("corridor_approach", 21)
    sc = dataclasses.replace(
        sc,
        detector=dataclasses.replace(sc.detector, center_noise_px=400.0),
        quad=dataclasses.replace(sc.quad, gyro_noise=1.0),
        controller=dataclasses.replace(sc.controller, pitch_accel=30.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FilterDegenerateError,
                           match="not finite after predict at t=0.600000"):
            run(sc)


def test_dynamics_step_leaves_non_finite_attitude_unprojected():
    # an SVD of a NaN matrix raises (and of an inf one may not return), so
    # the step hands a non-finite state back for the caller's check
    st = QuadState(np.zeros(3), np.zeros(3), np.eye(3), np.array([np.nan, 0.0, 0.0]))
    out = dynamics_step(st, BodyCommand(10.0, np.zeros(3)), QuadParams(), 0.001)
    assert not np.all(np.isfinite(out.R))


# ---------------------------------------------------------------------------
# step oracle: the elementwise numpy RK4 with an SVD projection, which
# dynamics_step must match within a rounding-error bound derived below
# ---------------------------------------------------------------------------


def _ref_hat(w):
    wx, wy, wz = (float(v) for v in w)
    return np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]])


def _ref_nearest_rotation(M):
    U, _, Vt = np.linalg.svd(M)
    D = np.diag([1.0, 1.0, np.sign(np.linalg.det(U @ Vt))])
    return U @ D @ Vt


def _ref_deriv(p, v, R, w, thrust, torque, params):
    m = params.mass
    J = np.asarray(params.inertia)
    dv = (thrust / m) * R[:, 2] + np.array([0.0, 0.0, -GRAVITY])
    dR = R @ _ref_hat(w)
    dw = (torque - np.cross(w, J * w)) / J
    return v, dv, dR, dw


def _ref_rk4(state, cmd, params, dt):
    """(p, v, R, omega) after one RK4 step, R not yet projected."""
    thrust, torque = cmd.thrust, np.asarray(cmd.torques, dtype=float)
    p, v, R, w = state.p, state.v, state.R, state.omega

    k1 = _ref_deriv(p, v, R, w, thrust, torque, params)
    k2 = _ref_deriv(p + 0.5 * dt * k1[0], v + 0.5 * dt * k1[1],
                    R + 0.5 * dt * k1[2], w + 0.5 * dt * k1[3], thrust, torque, params)
    k3 = _ref_deriv(p + 0.5 * dt * k2[0], v + 0.5 * dt * k2[1],
                    R + 0.5 * dt * k2[2], w + 0.5 * dt * k2[3], thrust, torque, params)
    k4 = _ref_deriv(p + dt * k3[0], v + dt * k3[1],
                    R + dt * k3[2], w + dt * k3[3], thrust, torque, params)

    p1 = p + (dt / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    v1 = v + (dt / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    R1 = R + (dt / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
    w1 = w + (dt / 6.0) * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])
    return p1, v1, R1, w1


def _ref_dynamics_step(state, cmd, params, dt):
    p1, v1, R1, w1 = _ref_rk4(state, cmd, params, dt)
    return QuadState(p1, v1, _ref_nearest_rotation(R1), w1)


U = 2.0 ** -53                                 # unit roundoff of float64
GAMMA_32 = 32 * U / (1 - 32 * U)
PROJECTION_ALLOWANCE = 16 * U


def _oracle_cases():
    """200 random (state, cmd, params, dt); every 4th state spins at
    ~300 rad/s, so that some steps leave SO(3) far enough to take the
    projection's reflection branch."""
    rng = np.random.default_rng(2024)
    for i in range(200):
        params = QuadParams(mass=rng.uniform(0.3, 3.0),
                            inertia=tuple(rng.uniform(0.002, 0.05, size=3)))
        rate_scale = 300.0 if i % 4 == 0 else 3.0
        state = QuadState(rng.normal(0.0, 10.0, size=3), rng.normal(0.0, 3.0, size=3),
                          zyx_matrix(rng.uniform(-math.pi, math.pi),
                                     rng.uniform(-1.5, 1.5),
                                     rng.uniform(-math.pi, math.pi)),
                          rng.normal(0.0, rate_scale, size=3))
        thrust = 0.0 if i % 5 == 0 else rng.uniform(0.0, 40.0)
        cmd = BodyCommand(thrust, rng.normal(0.0, 0.3, size=3))
        yield i, state, cmd, params, rng.uniform(1e-4, 2e-2)


def _ref_magnitudes(state, cmd, params, dt):
    """The reference step evaluated on absolute values: for p, v and the
    unprojected R, every term's magnitude summed (the body rates of the
    four stages taken from the reference itself)."""
    torque = np.asarray(cmd.torques, dtype=float)
    p, v, R, w = state.p, state.v, state.R, state.omega
    rates = [w]
    for a in (0.5 * dt, 0.5 * dt, dt):
        rates.append(w + a * _ref_deriv(p, v, R, rates[-1], cmd.thrust, torque,
                                        params)[3])
    s, g = abs(cmd.thrust / params.mass), np.array([0.0, 0.0, GRAVITY])
    A, av = np.abs(R), np.abs(v)
    stage, kR, kv, vs = A, [], [], [av]
    for a, rate in zip((0.5 * dt, 0.5 * dt, dt, None), rates):
        kR.append(stage @ np.abs(_ref_hat(rate)))
        kv.append(s * stage[:, 2] + g)
        if a is not None:
            stage = A + a * kR[-1]
            vs.append(av + a * kv[-1])
    c = dt / 6.0
    return (np.abs(p) + c * (vs[0] + 2 * vs[1] + 2 * vs[2] + vs[3]),
            av + c * (kv[0] + 2 * kv[1] + 2 * kv[2] + kv[3]),
            A + c * (kR[0] + 2 * kR[1] + 2 * kR[2] + kR[3]))


def test_dynamics_step_matches_numpy_rk4_within_rounding():
    # Both sides evaluate the same RK4 polynomial in the same inputs; only
    # the rounding differs (numpy's R @ hat(w) sums its products in another
    # order, possibly fused).  No entry of p, v or the unprojected R passes
    # through more than 32 roundings (about 25 for R), so each side is
    # within GAMMA_32 * M of the exact value, M being the step evaluated on
    # absolute values (Higham, Accuracy and Stability of Numerical
    # Algorithms, 2002, sec. 3.1); the two sides differ by at most twice
    # that.  omega's arithmetic is the same on both sides and stays exact.
    # The nearest rotation moves by at most kappa = 2 / (s2 + sign(det) s3)
    # times a Frobenius perturbation of its argument (s1 >= s2 >= s3 the
    # singular values): the polar factor's condition number, with the
    # smallest signed singular value flipped on the reflection branch.  Both
    # projections are backward stable: each returns the exact projection of
    # a matrix within PROJECTION_ALLOWANCE * |X|_F of its argument, up to an
    # orthogonality residual of PROJECTION_ALLOWANCE per side; the Newton
    # iteration stops with every entry within POLAR_TOL of its fixed point.
    for i, state, cmd, params, dt in _oracle_cases():
        got = dynamics_step(state, cmd, params, dt)
        want = _ref_dynamics_step(state, cmd, params, dt)
        Mp, Mv, MR = _ref_magnitudes(state, cmd, params, dt)
        assert np.all(np.abs(got.p - want.p) <= 2 * GAMMA_32 * Mp), i
        assert np.all(np.abs(got.v - want.v) <= 2 * GAMMA_32 * Mv), i
        assert np.array_equal(got.omega, want.omega), i
        X = _ref_rk4(state, cmd, params, dt)[2]
        sv = np.linalg.svd(X, compute_uv=False)
        kappa = 2.0 / (sv[1] + np.sign(np.linalg.det(X)) * sv[2])
        dX = (2 * GAMMA_32 * np.linalg.norm(MR)
              + 2 * PROJECTION_ALLOWANCE * np.linalg.norm(X))
        bound = kappa * dX + 2 * PROJECTION_ALLOWANCE + 3 * simulator.POLAR_TOL
        assert np.linalg.norm(got.R - want.R) <= bound, i


def test_dynamics_step_returns_a_rotation_on_every_oracle_state():
    for i, state, cmd, params, dt in _oracle_cases():
        assert is_rotation(dynamics_step(state, cmd, params, dt).R, tol=1e-12), i


@pytest.mark.parametrize("X", [
    # a reflection: det < 0
    np.diag([1.0, 1.0, -1.0]) @ zyx_matrix(0.3, -0.2, 1.1) * 1.01,
    # singular: det = 0
    np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]),
    # det > 0 with singular values 1e4 .. 1e-4: Newton needs ~14 steps
    zyx_matrix(0.3, -0.2, 1.1) @ np.diag([1e4, 1.0, 1e-4]),
], ids=["reflection", "singular", "no_convergence"])
def test_projection_fallback_equals_nearest_rotation(X):
    got = simulator._project_rotation(X.ravel().tolist())
    assert np.array_equal(got, nearest_rotation(X.copy()))
    assert is_rotation(got, tol=1e-12)


def test_dynamics_step_hands_fallback_result_back_unchanged(monkeypatch):
    # the spinning oracle states take the fallback; the step returns the SVD
    # projection of its own stepped R bit for bit
    seen = []

    def recording(M):
        seen.append(M.copy())
        return nearest_rotation(M)

    monkeypatch.setattr(simulator, "nearest_rotation", recording)
    fallbacks = 0
    for i, state, cmd, params, dt in _oracle_cases():
        seen.clear()
        got = dynamics_step(state, cmd, params, dt)
        if seen:
            fallbacks += 1
            assert np.array_equal(got.R, nearest_rotation(seen[0])), i
    assert fallbacks > 0
