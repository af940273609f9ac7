"""Rigid-body plant, IMU, scene scripts, and the merged event loop."""

import dataclasses
import json
import math
import os
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from quadtrack import cli, detection, scenarios, simulator
from quadtrack.config import (CameraScriptConfig, ObjectConfig, PromptConfig,
                              QuadConfig, RatesConfig, Scenario, save_scenario)
from quadtrack.detection import (DetectionSet, GyroSample,
                                 SyntheticDetectorConfig)
from quadtrack.errors import ControllerAbort, SimulationAbort, TrackerAbort
from quadtrack.geometry import nearest_rotation, pitch_yaw_from_rotation, rot_z
from quadtrack.logio import _json_compact, event_line
from quadtrack.replay import replay_track
from quadtrack.scene import scene_step
from quadtrack.simulator import (CAMERA_FROM_BODY, QuadState,
                                 _event_count, camera_pose, dynamics_step,
                                 imu_sample, predicted_center, run, write_run)
from quadtrack.tracker import EkfState, predicted_box

from conftest import is_rotation, rot_y, zyx_matrix

GRAVITY = 9.81


def level_state(p=(0.0, 0.0, 1.5)):
    return QuadState(np.asarray(p, dtype=float), np.zeros(3), np.eye(3),
                     np.zeros(3))


# where each field of QuadState sits among dynamics_step's 18 floats
FIELD_SLICE = {"p": slice(0, 3), "v": slice(3, 6), "R": slice(6, 15),
               "omega": slice(15, 18)}


def step_state(state, wrench, params, dt):
    """dynamics_step on a QuadState: the state's 18 floats stepped, and the
    stepped floats read back as a QuadState."""
    return QuadState.from_floats(dynamics_step(state.floats(), wrench, params, dt))


def static_object(obj_id=0, position=(12.0, 0.0, 1.5), size=(0.6, 0.6),
                  occluder=False):
    return ObjectConfig(obj_id=obj_id, size=size, occluder=occluder,
                        waypoints=((0.0, *position),))


def make_scenario(**kw):
    base = dict(
        name="unit",
        seed=5,
        duration=1.0,
        prompt=PromptConfig(480.0, 272.0, 0.0),
        objects=(static_object(),),
        target_id=0,
        detector=SyntheticDetectorConfig(center_noise_px=0.5, size_noise_frac=0.01,
                                         feature_noise=0.05, p_dropout=0.0,
                                         descriptor_dim=16),
    )
    base.update(kw)
    return Scenario(**base)


# ---------------------------------------------------------------------------
# plant
# ---------------------------------------------------------------------------


def test_free_fall_matches_kinematics():
    params = QuadConfig()
    st = level_state(p=(0.0, 0.0, 100.0))
    t = 0.0
    for _ in range(1000):
        st = step_state(st, (0.0, 0.0, 0.0, 0.0), params, 0.001)
        t += 0.001
    assert st.v[2] == pytest.approx(-GRAVITY * t, abs=1e-6)
    assert st.p[2] == pytest.approx(100.0 - 0.5 * GRAVITY * t * t, abs=1e-6)
    assert np.allclose(st.v[:2], 0.0, atol=1e-12)


def test_exact_hover_thrust_is_equilibrium():
    params = QuadConfig()
    st = level_state()
    wrench = (params.mass * GRAVITY, 0.0, 0.0, 0.0)
    for _ in range(1000):
        st = step_state(st, wrench, params, 0.001)
    assert np.linalg.norm(st.v) < 1e-9
    assert np.allclose(st.p, [0.0, 0.0, 1.5], atol=1e-9)
    assert np.allclose(st.R, np.eye(3), atol=1e-12)


def test_constant_yaw_torque_spins_linearly():
    params = QuadConfig()
    st = level_state()
    tau_z = 0.004
    wrench = (0.0, 0.0, 0.0, tau_z)
    for _ in range(1000):
        st = step_state(st, wrench, params, 0.001)
    # J3 omega' = tau with the gyroscopic term vanishing for pure yaw spin
    want_rate = tau_z / params.inertia[2] * 1.0
    assert st.omega[2] == pytest.approx(want_rate, abs=1e-9)
    theta = 0.5 * tau_z / params.inertia[2]
    assert np.allclose(st.R, rot_z(theta), atol=1e-6)


def test_step_refinement_converges():
    # 10x finer RK4 reproduces the same trajectory: integration error is
    # far below the mixer/sensor scales
    params = QuadConfig()
    wrench = (13.0, 0.002, -0.001, 0.0005)
    coarse = level_state()
    for _ in range(100):
        coarse = step_state(coarse, wrench, params, 0.001)
    fine = level_state()
    for _ in range(1000):
        fine = step_state(fine, wrench, params, 0.0001)
    assert np.allclose(coarse.p, fine.p, atol=1e-6)
    assert np.allclose(coarse.v, fine.v, atol=1e-6)
    assert np.max(np.abs(coarse.R - fine.R)) < 1e-6
    assert np.allclose(coarse.omega, fine.omega, atol=1e-6)


def test_torque_free_flight_conserves_energy():
    params = QuadConfig()
    st = QuadState(np.array([0.0, 0.0, 50.0]), np.array([3.0, -2.0, 4.0]),
                   np.eye(3), np.array([0.3, -0.2, 0.4]))
    J = np.asarray(params.inertia)

    def energy(s):
        return (0.5 * params.mass * float(s.v @ s.v)
                + params.mass * GRAVITY * s.p[2]
                + 0.5 * float(s.omega @ (J * s.omega)))

    e0 = energy(st)
    wrench = (0.0, 0.0, 0.0, 0.0)
    for _ in range(1000):
        st = step_state(st, wrench, params, 0.001)
        assert is_rotation(st.R, tol=1e-9)
    assert energy(st) == pytest.approx(e0, rel=1e-6)


def test_rotation_stays_orthonormal_under_aggressive_commands():
    params = QuadConfig()
    st = level_state()
    rng = np.random.default_rng(8)
    for _ in range(200):
        wrench = (rng.uniform(0.0, 30.0), *rng.uniform(-0.5, 0.5, 3).tolist())
        st = step_state(st, wrench, params, 0.001)
        assert is_rotation(st.R, tol=1e-9)


# ---------------------------------------------------------------------------
# IMU and camera mount
# ---------------------------------------------------------------------------


def test_quad_state_floats_round_trip_bytewise():
    # p, v, R row-major, omega; -0.0 keeps its sign both ways
    st = QuadState(np.array([1.0, -0.0, 3.5]), np.array([0.5, 0.0, -0.5]),
                   rot_z(0.3) * np.array([1.0, -1.0, 1.0]), np.array([-0.0, 0.1, 1e308]))
    y = st.floats()
    assert type(y) is tuple and all(type(x) is float for x in y)
    assert [x.hex() for x in y] == [x.hex() for x in (*st.p, *st.v, *st.R.ravel(),
                                                      *st.omega)]
    for state in [st, level_state()] + [c[1] for c in _oracle_cases()]:
        back = QuadState.from_floats(state.floats())
        for f in FIELD_SLICE:
            a, b = getattr(back, f), getattr(state, f)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f


def test_dynamics_step_returns_python_floats(monkeypatch):
    # an np.float64 in the step keeps the bits but costs the speed
    fallbacks = []

    def counting(M):
        fallbacks.append(1)
        return nearest_rotation(M)

    monkeypatch.setattr(simulator, "nearest_rotation", counting)
    for i, state, wrench, params, dt in _oracle_cases():
        out = dynamics_step(state.floats(), wrench, params, dt)
        assert type(out) is tuple and len(out) == 18, i
        assert all(type(x) is float for x in out), i
    assert fallbacks  # the SVD fallback's floats are checked too


def test_imu_maps_body_rates_to_camera_axes():
    # one state per case: a state is immutable by convention, and it keeps
    # its camera-frame rate from the first read
    def spinning(omega):
        return QuadState(np.array([0.0, 0.0, 1.5]), np.zeros(3), np.eye(3),
                         np.array(omega))

    rng = np.random.default_rng(0)
    g = imu_sample(1.0, spinning([0.0, 0.0, 0.7]), 0.0, rng)  # body yaw
    assert g.t == 1.0
    assert np.allclose(g.w, [0.0, -0.7, 0.0], atol=1e-15)
    # body roll = camera forward axis
    g = imu_sample(1.0, spinning([0.5, 0.0, 0.0]), 0.0, rng)
    assert np.allclose(g.w, [0.0, 0.0, 0.5], atol=1e-15)
    g = imu_sample(1.0, spinning([0.0, 0.0, 0.0]), 0.0, rng)
    assert np.array_equal(g.w, np.zeros(3))


def _hex(a):
    return [float(v).hex() for v in np.ravel(a)]


@pytest.mark.parametrize("name", scenarios.names())
def test_sensor_views_equal_a_fresh_computation(name, monkeypatch):
    # Each camera frame's pose and truth-row yaw, and each gyro sample,
    # equal by float.hex what the sensor layer computed before a state kept
    # its views: R Cᵀ, p and the ZYX yaw of a copy of the state read, and
    # C omega plus the sample's noise (drawn again from a copy of the
    # generator).  The scripted platforms at amplitude 0 read one state
    # throughout.
    sc = _bundled(name, scenarios.get(name).seed, 0.6)
    real_pose, real_imu = simulator.camera_pose, simulator.imu_sample
    poses, samples = [], []

    def pose(state):
        got = real_pose(state)
        poses.append((state, got))
        return got

    def imu(t, state, sigma, rng):
        copy = np.random.default_rng()
        copy.bit_generator.state = rng.bit_generator.state
        got = real_imu(t, state, sigma, rng)
        samples.append((state, got, copy.normal(0.0, 1.0, size=3) * sigma))
        return got

    monkeypatch.setattr(simulator, "camera_pose", pose)
    monkeypatch.setattr(simulator, "imu_sample", imu)
    art = run(sc)
    assert len(poses) == len(art.truth_trace) == 36
    assert len(samples) >= 60
    for (state, got), row in zip(poses, art.truth_trace):
        R, p = state.R.copy(), state.p.copy()
        assert _hex(got.rotation) == _hex(R @ CAMERA_FROM_BODY.T)
        assert _hex(got.position) == _hex(p)
        assert _hex([row["quad_yaw"]]) == _hex([pitch_yaw_from_rotation(R)[1]])
    for state, got, noise in samples:
        rate = CAMERA_FROM_BODY @ state.omega.copy()
        assert _hex(state.camera_rate) == _hex(rate)  # signed zeros too
        assert _hex(got.w) == _hex(rate + np.array(noise.tolist()))
    if sc.camera_script.scripted and sc.camera_script.amplitude == 0.0:
        assert len({id(read[0]) for read in poses + samples}) == 1


def test_static_platform_builds_one_camera_pose(monkeypatch):
    # a static scripted platform hands every event one state, whose pose
    # is built at the first frame and reused by the other 59
    built = []

    class CountedPose(simulator.CameraPose):
        __slots__ = ()

        def __init__(self, rotation, position):
            built.append(rotation)
            super().__init__(rotation, position)

    monkeypatch.setattr(simulator, "CameraPose", CountedPose)
    sc = _bundled("occlusion_decoy", scenarios.get("occlusion_decoy").seed, 1.0)
    art = run(sc)
    assert len(art.truth_trace) == 60
    assert len(built) == 1


@pytest.mark.parametrize("start_yaw", [0.0, -0.0, 0.3, -1.2])
def test_a_still_script_is_a_cache_of_the_closed_form(start_yaw):
    # at amplitude 0 the script builds its state at tick 0 and hands it to
    # every later read.  Over more than one period of ticks, that state's
    # sensor views equal by float.hex those of the sine's closed-form state
    # at the tick read, and its fields equal the closed form's by ==: the
    # closed form has a rate of -0.0 where cos(w0 t) < 0, and a yaw of -0.0
    # from a -0.0 start where sin(w0 t) < 0, and the views wash those out
    period = 0.7
    sc = make_scenario(quad=QuadConfig(start_yaw=start_yaw),
                       camera_script=CameraScriptConfig(True, 0.0, period))
    script, hz, w0 = simulator._Script(sc), sc.rates.physics_hz, 2.0 * math.pi / period
    first = script(0.0)
    for k in range(round(1.5 * period * hz)):
        t = k / hz
        got = script(t)
        assert got is first
        want = QuadState(np.array(sc.quad.start_position), np.zeros(3),
                         rot_z(start_yaw + 0.0 * math.sin(w0 * t)),
                         np.array([0.0, 0.0, 0.0 * w0 * math.cos(w0 * t)]))
        assert _hex(got.pose.rotation) == _hex(want.pose.rotation), k
        assert _hex(got.pose.position) == _hex(want.pose.position), k
        assert _hex(got.camera_rate) == _hex(want.camera_rate), k
        assert _hex([got.yaw]) == _hex([want.yaw]), k
        for name in ("p", "v", "R", "omega"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (k, name)


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


def _path(*waypoints) -> ObjectConfig:
    return ObjectConfig(0, (0.6, 0.6), waypoints)


def _float_triple(p) -> bool:
    return type(p) is tuple and len(p) == 3 and all(type(v) is float for v in p)


def test_static_motion():
    # a one-waypoint object is the old `static` motion, bit for bit: its
    # position expression, np.asarray(p, float), is the oracle at every time
    rng = np.random.default_rng(29)
    positions = [(1.0, 2.0, 3.0), (10, 0, -2), (-0.0, 0.0, -0.0), (0, -0.0, 7),
                 *(tuple(rng.normal(0.0, 50.0, 3)) for _ in range(20)),
                 *(tuple(int(x) for x in rng.integers(-99, 99, 3)) for _ in range(5))]
    for p in positions:
        for t0 in (0.0, 0, -0.0, 2.5, *rng.uniform(-10.0, 10.0, 3)):
            o = _path((t0, *p))
            want = np.asarray(p, float)
            for t in (t0 - 1.0, t0 - 1e-12, t0, t0 + 1e-12, t0 + 1 / 60, t0 + 99.0,
                      -1e300, 1e300, -math.inf, math.inf, math.nan,
                      *rng.uniform(-20.0, 20.0, 5)):
                got = o.at(t)
                assert _float_triple(got), (p, t0, t)
                assert _hex(got) == _hex(want), (p, t0, t)


def test_waypoint_motion_interpolates_and_clamps():
    o = _path((0.0, 0.0, 0.0, 0.0), (10.0, 70.0, 0.0, 0.0))
    assert np.allclose(o.at(5.0), [35.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(o.at(2.0), [14.0, 0.0, 0.0], atol=1e-12)
    assert np.array_equal(o.at(-1.0), [0.0, 0.0, 0.0])
    assert np.array_equal(o.at(25.0), [70.0, 0.0, 0.0])


def test_waypoint_motion_validation():
    for waypoints, message in [
            ((), "waypoints needs >= 1 entry"),
            (((0.0, 1.0, 2.0), (1.0, 2.0, 3.0)), "waypoint entries are (t, x, y, z)"),
            # coordinates are finite numbers, and waypoint times increase
            (((0.0, 1.0, 2.0, "3"), (1.0, 2.0, 3.0, 4.0)),
             "waypoint entries are (t, x, y, z), finite numbers"),
            (((0.0, 1.0, math.nan, 3.0),),
             "waypoint entries are (t, x, y, z), finite numbers"),
            (((0.0, 0.0, 0.0, 0.0), (0.0, 1.0, 1.0, 1.0)),
             "waypoint times must be strictly increasing"),
            (((1.0, 0.0, 0.0, 0.0), (0.5, 1.0, 1.0, 1.0)),
             "waypoint times must be strictly increasing")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            _path(*waypoints)


def _reference_position(o: ObjectConfig, t: float) -> np.ndarray:
    """The position expressions of the motion classes ObjectConfig.at
    replaced, kept as the bit-for-bit reference: the static form for one
    waypoint, the array form between waypoints."""
    if len(o.waypoints) == 1:
        return np.asarray(o.waypoints[0][1:], dtype=float)
    wps = [(w[0], w[1:]) for w in o.waypoints]
    if t <= wps[0][0]:
        return np.asarray(wps[0][1], dtype=float)
    for (t0, p0), (t1, p1) in zip(wps, wps[1:]):
        if t <= t1:
            a = (t - t0) / (t1 - t0)
            return (1.0 - a) * np.asarray(p0, float) + a * np.asarray(p1, float)
    return np.asarray(wps[-1][1], dtype=float)


def test_motion_at_matches_the_reference_bit_for_bit():
    paths = [
        _path((0.0, 1.5, -2, 0.3)),
        _path((0, 10, 0, 1.5), (2.5, 12.25, 0.1, 1.5), (7.0, 30.0, -3.7, 2.0),
              (9.9, 31.0, -3.7, 0.9)),
        # a signed zero at the last waypoint, reached at its exact time
        _path((0.0, 4.0, 0.0, 1.5), (1.0, -0.0, -0.0, 0.0)),
    ]
    rng = np.random.default_rng(12)
    # before, at, between and after the waypoint times, plus random times
    times = [-1.0, 0.0, 1e-9, 1.0, 1.3, 2.5, 2.5 + 1e-12, 4.0, 7.0, 9.9, 9.9 + 1e-9,
             12.0, 1 / 60, 301 / 60, *rng.uniform(-1.0, 11.0, 200).tolist()]
    for o in paths:
        for t in times:
            got, want = o.at(t), _reference_position(o, t)
            assert _float_triple(got), (o, t)
            assert _hex(got) == _hex(want), (o, t)


def test_predicted_center_is_the_predicted_box_center():
    # without the box: the same expressions, the width and height clamp
    # included (every 3rd mean has w, h below MIN_BOX_SIZE)
    rng = np.random.default_rng(8)
    for i in range(300):
        mean = rng.normal(0.0, 300.0, size=6)
        if i % 3 == 0:
            mean[2:4] = rng.uniform(-5.0, 1.0, size=2)
        ekf = EkfState(mean, np.eye(6), 0.0)
        tracker = SimpleNamespace(state=SimpleNamespace(ekf=ekf))
        assert predicted_center(tracker) == predicted_box(ekf).center


def test_scene_step_orders_by_object_id():
    sc = make_scenario(objects=(static_object(3, position=(0.0, 0.0, 0.0)),
                                static_object(1, position=(1.0, 1.0, 1.0))),
                       target_id=1)
    objs = simulator.build_scene(sc, np.random.default_rng(0))
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


@pytest.mark.parametrize("name,seed,duration", [
    ("occlusion_decoy", 1, None),          # the default seeds
    ("false_positive_storm", 2, None),
    ("rotation_only", 41, None),
    ("occlusion_decoy", 7001, 10.0),       # held out
    ("false_positive_storm", 7002, None),
    ("rotation_only", 7041, None),
])
def test_sensor_layer_alone_reproduces_the_run_stream(name, seed, duration):
    # the scripted platform and the sensor layer, with no tracker and no
    # controller, give run()'s events and truth rows
    sc = _bundled(name, seed, duration)
    art = run(sc)
    truth = []
    stream = list(simulator.sensor_stream(sc, simulator._Script(sc), truth))
    assert [event_line(e) for _, e in stream] == [event_line(e) for e in art.events]
    assert [_json_compact(r) for r in truth] == [_json_compact(r) for r in art.truth_trace]
    assert _exact(truth) == _exact(art.truth_trace)
    # the frame-time gyro samples belong to their frames
    gyros = [k for k, e in stream if isinstance(e, GyroSample)]
    assert gyros.count(simulator.CONTROL) == art.counts["control"]


def test_scripted_camera_holds_position():
    sc = make_scenario(
        camera_script=CameraScriptConfig(scripted=True, amplitude=0.2,
                                         period=2.0),
        quad=QuadConfig(start_position=(0.0, 0.0, 1.5)),
    )
    art = run(sc)
    for row in art.truth_trace:
        assert row["quad_p"] == (0.0, 0.0, 1.5)
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
    assert math.dist(art.summary["final_quad_p"], (0.0, 0.0, 1.5)) < 1e-6


def test_motor_lag_smoke():
    sc = make_scenario(quad=QuadConfig(motor_lag=0.05),
                       prompt=PromptConfig(480.0, 272.0, t=30.0))
    art = run(sc)
    p = art.summary["final_quad_p"]
    assert all(map(math.isfinite, p))
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
    err = SimulationAbort(1.234, "non-finite state after the last good state")
    assert err.t == 1.234
    assert str(err) == "physics: non-finite state after the last good state at t=1.234000 s"


BAD_STEP = 250  # physics step that goes non-finite; step 249 ends at 0.249 s


def _poison(what):
    """A dynamics_step whose BAD_STEP-th call goes non-finite: the second
    entry of one field's slice of the returned floats set to NaN or inf,
    or (what == "torque") a NaN roll torque fed into the real step as the
    wrench (thrust, nan, 0.0, 0.0), so that the whole state, R included,
    turns NaN."""
    real = simulator.dynamics_step
    calls = [0]

    def step(y, wrench, params, dt):
        calls[0] += 1
        if calls[0] != BAD_STEP:
            return real(y, wrench, params, dt)
        if what == "torque":
            return real(y, (wrench[0], math.nan, 0.0, 0.0), params, dt)
        out = list(real(y, wrench, params, dt))
        out[FIELD_SLICE[what].start + 1] = math.inf if what == "v" else math.nan
        return tuple(out)

    return step


@pytest.mark.parametrize("what", ["p", "v", "R", "omega", "torque"])
def test_non_finite_state_aborts_at_last_good_time(monkeypatch, tmp_path,
                                                   capsys, what):
    sc = make_scenario()
    monkeypatch.setattr(simulator, "dynamics_step", _poison(what))
    with pytest.raises(SimulationAbort, match="^physics: non-finite state") as err:
        run(sc)
    assert err.value.t == (BAD_STEP - 1) / sc.rates.physics_hz

    monkeypatch.setattr(simulator, "dynamics_step", _poison(what))
    path = tmp_path / "unit.json"
    save_scenario(sc, path)
    assert cli.main(["sim", str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == (
        "abort: physics: non-finite state after the last good state at t=0.249000 s\n")


def test_gimbal_lock_in_a_truth_row_aborts_in_physics(monkeypatch):
    # from physics step 12 (t = 0.012 s) the plant sits at pitch pi/2, a
    # finite state; the frame at 1/60 s reads it before the next control
    # tick, and the truth row, not pitch_yaw_from_rotation's bare
    # ValueError, names the layer and the frame time
    real = simulator.dynamics_step
    calls = [0]

    def step(y, wrench, params, dt):
        calls[0] += 1
        out = real(y, wrench, params, dt)
        if calls[0] < 12:
            return out
        return out[:6] + tuple(rot_y(math.pi / 2).ravel().tolist()) + out[15:]

    monkeypatch.setattr(simulator, "dynamics_step", step)
    with pytest.raises(SimulationAbort) as err:
        run(make_scenario())
    assert str(err.value) == ("physics: pitch 1.57079633 within 1e-6 of gimbal lock "
                              "at t=0.016667 s")


def test_finite_state_whose_sum_overflows_does_not_abort(monkeypatch):
    # the post-step check sums the state; a sum that overflows on finite
    # entries is rechecked entry by entry and must not abort the run
    real = simulator.dynamics_step
    calls = [0]

    def step(y, wrench, params, dt):
        calls[0] += 1
        out = real(y, wrench, params, dt)
        if calls[0] == BAD_STEP:
            out = (1e308, 1e308) + out[2:]
        return out

    monkeypatch.setattr(simulator, "dynamics_step", step)
    art = run(make_scenario())
    assert calls[0] > BAD_STEP
    assert art.summary["final_quad_p"][:2] == (1e308, 1e308)


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


# the target (id 3) after an occluder and two other detectable objects,
# listed out of id order; the occluder covers part of the target's box, and
# the yawing camera sweeps it past the target
_BEHIND_OTHERS = make_scenario(
    duration=2.0, target_id=3,
    camera_script=CameraScriptConfig(scripted=True, amplitude=0.3, period=2.0),
    objects=(static_object(2, (12.0, -2.0, 1.5)), static_object(3),
             static_object(1, (12.0, 2.0, 1.5)),
             static_object(0, (6.0, 0.1, 1.5), (0.3, 0.3), occluder=True)))


@pytest.mark.parametrize("sc", [_bundled("occlusion_decoy", 1, 4.0), _BEHIND_OTHERS],
                         ids=["occlusion_decoy", "target_behind_others"])
def test_each_camera_frame_computes_its_views_once_and_hands_them_on(monkeypatch,
                                                                     sc):
    # one frame_views call per camera frame, and the frame's truth row takes
    # the target's view of that call, found here by its id
    frames = []
    real = simulator.frame_views

    def recording(*args):
        frames.append(real(*args))
        return frames[-1]

    monkeypatch.setattr(simulator, "frame_views", recording)
    art = run(sc)
    assert len(frames) == art.counts["camera"] == len(art.truth_trace)
    occluded = 0
    for views, row in zip(frames, art.truth_trace):
        view = next(v for v in views if v.state.obj_id == sc.target_id)
        b = view.box
        want = None if b is None else (b.x, b.y, b.w, b.h)
        # the row's box is the view's (x, y, w, h), by float.hex
        assert type(row["box"]) is type(want) and _bits(row["box"]) == _bits(want)
        assert row["occluded"] == view.occluded
        assert row["target_p"] is view.state.center
        occluded += view.occluded > 0.0
    assert occluded > 0


def _bits(a):
    return None if a is None else _hex(a)


def test_non_finite_controller_output_aborts_the_run(tmp_path, capsys):
    # huge outer-loop gains overflow the force demand to NaN on a scripted
    # camera: the run stops in the controller, which names the thrust (the
    # first output the NaN reaches), and the CLI exits 2 with one line and
    # writes no run directory
    sc = _bundled("false_positive_storm", 2)
    sc = dataclasses.replace(sc, duration=3.0, controller=dataclasses.replace(
        sc.controller, kp_thrust=1e307, kp_roll=1e307))
    with pytest.raises(ControllerAbort, match=r"^controller: non-finite thrust at t=") as err:
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
    # in the tracker, not later in the controller (a degenerate heading)
    sc = _bundled("corridor_approach", 21)
    sc = dataclasses.replace(
        sc,
        detector=dataclasses.replace(sc.detector, center_noise_px=400.0),
        quad=dataclasses.replace(sc.quad, gyro_noise=1.0),
        controller=dataclasses.replace(sc.controller, pitch_accel=30.0))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            TrackerAbort, match="^tracker: filter mean or covariance is not finite after predict"):
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
        with pytest.raises(TrackerAbort, match="^tracker: filter mean or covariance is not "
                                               "finite after predict at t=0.600000 s$"):
            run(sc)


def test_boxes_whose_areas_overflow_score_and_log(tmp_path):
    # size noise of 1e160 gives detections whose areas overflow a float;
    # without gyro compensation the filter follows them, so the predicted
    # box overflows too.  Scores stay numbers (a NaN would reach the log
    # writer as a ValueError) and nothing warns.
    sc = _bundled("rotation_only", 0, 0.5)
    sc = dataclasses.replace(
        sc, detector=dataclasses.replace(sc.detector, size_noise_frac=1e160),
        tracker=dataclasses.replace(sc.tracker, gyro_compensation=False))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        art = run(sc)
        write_run(art, tmp_path / "run")
    scores = [r[k] for r in art.tracker_trace for k in ("s_iou", "s_ekf", "s_total")
              if r[k] is not None]
    assert len(scores) > 50 and all(map(math.isfinite, scores))
    assert max(min(np.asarray(r["pred"]).tolist()[2:]) for r in art.tracker_trace) > 1e155


def test_dynamics_step_leaves_non_finite_attitude_unprojected():
    # an SVD of a NaN matrix raises (and of an inf one may not return), so
    # the step hands a non-finite state back for the caller's check
    st = QuadState(np.zeros(3), np.zeros(3), np.eye(3), np.array([np.nan, 0.0, 0.0]))
    out = dynamics_step(st.floats(), (10.0, 0.0, 0.0, 0.0), QuadConfig(), 0.001)
    assert not all(map(math.isfinite, out[FIELD_SLICE["R"]]))


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


def _ref_rk4(state, wrench, params, dt):
    """(p, v, R, omega) after one RK4 step, R not yet projected."""
    thrust, torque = wrench[0], np.asarray(wrench[1:], dtype=float)
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


def _ref_dynamics_step(state, wrench, params, dt):
    p1, v1, R1, w1 = _ref_rk4(state, wrench, params, dt)
    return QuadState(p1, v1, _ref_nearest_rotation(R1), w1)


U = 2.0 ** -53                                 # unit roundoff of float64
GAMMA_32 = 32 * U / (1 - 32 * U)
PROJECTION_ALLOWANCE = 16 * U


def _oracle_cases():
    """200 random (state, wrench, params, dt); every 4th state spins at
    ~300 rad/s, so that some steps leave SO(3) far enough to take the
    projection's reflection branch."""
    rng = np.random.default_rng(2024)
    for i in range(200):
        params = QuadConfig(mass=rng.uniform(0.3, 3.0),
                            inertia=tuple(rng.uniform(0.002, 0.05, size=3)))
        rate_scale = 300.0 if i % 4 == 0 else 3.0
        state = QuadState(rng.normal(0.0, 10.0, size=3), rng.normal(0.0, 3.0, size=3),
                          zyx_matrix(rng.uniform(-math.pi, math.pi),
                                     rng.uniform(-1.5, 1.5),
                                     rng.uniform(-math.pi, math.pi)),
                          rng.normal(0.0, rate_scale, size=3))
        thrust = 0.0 if i % 5 == 0 else rng.uniform(0.0, 40.0)
        wrench = (thrust, *rng.normal(0.0, 0.3, size=3).tolist())
        yield i, state, wrench, params, rng.uniform(1e-4, 2e-2)


def _ref_magnitudes(state, wrench, params, dt):
    """The reference step evaluated on absolute values: for p, v and the
    unprojected R, every term's magnitude summed (the body rates of the
    four stages taken from the reference itself)."""
    thrust, torque = wrench[0], np.asarray(wrench[1:], dtype=float)
    p, v, R, w = state.p, state.v, state.R, state.omega
    rates = [w]
    for a in (0.5 * dt, 0.5 * dt, dt):
        rates.append(w + a * _ref_deriv(p, v, R, rates[-1], thrust, torque,
                                        params)[3])
    s, g = abs(thrust / params.mass), np.array([0.0, 0.0, GRAVITY])
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
    for i, state, wrench, params, dt in _oracle_cases():
        got = step_state(state, wrench, params, dt)
        want = _ref_dynamics_step(state, wrench, params, dt)
        Mp, Mv, MR = _ref_magnitudes(state, wrench, params, dt)
        assert np.all(np.abs(got.p - want.p) <= 2 * GAMMA_32 * Mp), i
        assert np.all(np.abs(got.v - want.v) <= 2 * GAMMA_32 * Mv), i
        assert np.array_equal(got.omega, want.omega), i
        X = _ref_rk4(state, wrench, params, dt)[2]
        sv = np.linalg.svd(X, compute_uv=False)
        kappa = 2.0 / (sv[1] + np.sign(np.linalg.det(X)) * sv[2])
        dX = (2 * GAMMA_32 * np.linalg.norm(MR)
              + 2 * PROJECTION_ALLOWANCE * np.linalg.norm(X))
        bound = kappa * dX + 2 * PROJECTION_ALLOWANCE + 3 * simulator.POLAR_TOL
        assert np.linalg.norm(got.R - want.R) <= bound, i


def test_dynamics_step_returns_a_rotation_on_every_oracle_state():
    for i, state, wrench, params, dt in _oracle_cases():
        assert is_rotation(step_state(state, wrench, params, dt).R, tol=1e-12), i


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
    assert all(type(x) is float for x in got) and len(got) == 9
    got = np.array(got).reshape(3, 3)
    assert got.tobytes() == nearest_rotation(X.copy()).tobytes()
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
    for i, state, wrench, params, dt in _oracle_cases():
        seen.clear()
        got = dynamics_step(state.floats(), wrench, params, dt)
        if seen:
            fallbacks += 1
            R = np.array(got[FIELD_SLICE["R"]]).reshape(3, 3)
            assert R.tobytes() == nearest_rotation(seen[0]).tobytes(), i
    assert fallbacks > 0


# ---------------------------------------------------------------------------
# bit-exact oracle: the list-wise step dynamics_step was written out from.
# The rounding bound above cannot see a 1-ulp change; this can.
# ---------------------------------------------------------------------------


def _deriv(R, w, s, torque, J):
    """(v', R', omega') at one RK4 stage under specific thrust s = thrust/m;
    p' = v needs no work.  The 3-vectors are lists of floats and R is the
    stage's nine floats, row-major.  Row i of R hat(w) is row i of R cross w,
    and omega x J omega has np.cross's products and differences."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = R
    wx, wy, wz = w
    jx, jy, jz = J
    tx, ty, tz = torque
    gx, gy, gz = 0.0, 0.0, -GRAVITY
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


def _listwise_projection(X):
    """Newton's polar iteration with a max(abs(...)) convergence test and a
    result built from nested tuples, SVD fallback as in the simulator."""
    a0, a1, a2, b0, b1, b2, c0, c1, c2 = X
    for _ in range(simulator.POLAR_MAX_ITER):
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
               abs(y6 - c0), abs(y7 - c1), abs(y8 - c2)) <= simulator.POLAR_TOL:
            return np.array(((y0, y1, y2), (y3, y4, y5), (y6, y7, y8)))
        a0, a1, a2, b0, b1, b2, c0, c1, c2 = y0, y1, y2, y3, y4, y5, y6, y7, y8
    return nearest_rotation(np.array(X).reshape(3, 3))


def _listwise_step(state, wrench, params, dt):
    """The step on lists; its torques are read from the wrench's last three
    entries through an array, whatever their type."""
    torque = np.asarray(wrench[1:], dtype=float).tolist()
    s, J = wrench[0] / params.mass, [float(j) for j in params.inertia]
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
        R1 = _listwise_projection(R1)
    else:
        R1 = np.array(R1).reshape(3, 3)
    return QuadState(np.array(p1), np.array(v1), R1, np.array(w1))


def _assert_same_bits(got, want, label):
    """dynamics_step's 18 floats `got` against the QuadState `want`, field
    by field; == compares values (-0.0 equals 0.0), the bytes also see the
    sign."""
    assert type(got) is tuple and len(got) == 18, label
    for f, sl in FIELD_SLICE.items():
        a, b = np.array(got[sl]), getattr(want, f).ravel()
        assert np.array_equal(a, b), (label, f)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), (label, f)


def test_dynamics_step_equals_the_listwise_step_bit_for_bit(monkeypatch):
    fallbacks = []

    def counting(M):
        fallbacks.append(1)
        return nearest_rotation(M)

    monkeypatch.setattr(simulator, "nearest_rotation", counting)
    for i, state, wrench, params, dt in _oracle_cases():
        _assert_same_bits(dynamics_step(state.floats(), wrench, params, dt),
                          _listwise_step(state, wrench, params, dt), i)
    assert fallbacks


def test_closed_loop_steps_equal_the_listwise_step_bit_for_bit(monkeypatch):
    # every physics step of 1 s of the corridor approach, on the states and
    # wrenches (four Python floats from motor_wrench) the closed loop
    # actually produces
    real, steps = simulator.dynamics_step, []

    def recording(y, wrench, params, dt):
        out = real(y, wrench, params, dt)
        steps.append((y, wrench, params, dt, out))
        return out

    monkeypatch.setattr(simulator, "dynamics_step", recording)
    run(dataclasses.replace(scenarios.get("corridor_approach"), duration=1.0))
    assert len(steps) == 1000
    for k, (y, wrench, params, dt, out) in enumerate(steps):
        assert len(wrench) == 4 and all(type(x) is float for x in wrench), k
        _assert_same_bits(out, _listwise_step(QuadState.from_floats(y), wrench, params, dt), k)


def test_closed_loop_builds_a_state_only_for_a_sensor_read(monkeypatch):
    # the physics steps carry floats; a QuadState is built for the start
    # state, then at most once per control tick or camera frame after t = 0
    # and once for the final state
    real_init, built = QuadState.__init__, [0]

    def counting(self, *args, **kw):
        built[0] += 1
        real_init(self, *args, **kw)

    monkeypatch.setattr(QuadState, "__init__", counting)
    art = run(dataclasses.replace(scenarios.get("corridor_approach"), duration=1.0))
    counts = art.counts
    assert counts == {"physics": 1000, "control": 100, "camera": 60}
    assert 0 < built[0] <= counts["control"] + counts["camera"] + 1
