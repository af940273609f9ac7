"""Synthetic detector: failure injection, draw discipline, target features."""

import math

import numpy as np
import pytest

from quadtrack import detection
from quadtrack.detection import (DetectionSet, SyntheticDetector,
                                 SyntheticDetectorConfig)
from quadtrack.errors import DetectorAbort
from quadtrack.geometry import (MIN_VIEW_DEPTH, BoundingBox, CameraModel,
                                CameraPose, camera_depth, covered_fraction,
                                iou, project_box, project_point, zyx_matrix)
from quadtrack.scene import ObjectState, SceneSnapshot

CAM = CameraModel.from_focal(960, 544, 500.0)
POSE = CameraPose(np.eye(3), np.zeros(3))
DIM = 8


def unit(i, dim=DIM):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


def state(obj_id, center, size=(1.0, 1.0, 1.0), latent=None, occluder=False):
    return ObjectState(obj_id=obj_id, center=np.asarray(center, dtype=float),
                       size=np.asarray(size, dtype=float), occluder=occluder,
                       latent=latent)


def snap(objects, t=0.0):
    return SceneSnapshot(t=t, objects=objects)


def quiet_config(**kw):
    base = dict(center_noise_px=0.0, size_noise_frac=0.0, feature_noise=0.0,
                p_dropout=0.0, fp_rate=0.0, p_duplicate=0.0,
                descriptor_dim=DIM)
    base.update(kw)
    return SyntheticDetectorConfig(**base)


# ---------------------------------------------------------------------------
# clean path
# ---------------------------------------------------------------------------


def test_noiseless_detection_reproduces_projection_exactly():
    det = SyntheticDetector(quiet_config(), np.random.default_rng(0))
    target = state(1, (0.0, 0.0, 10.0), latent=unit(0))
    out = det.detect(snap([target]), POSE, CAM)
    assert len(out) == 1
    expected = project_box(CAM, POSE, target.center, target.size)
    assert out.detections[0].box == expected
    assert np.allclose(out.detections[0].descriptor, unit(0), atol=1e-12)
    assert 0.5 <= out.detections[0].confidence <= 1.0


def test_detection_set_carries_frame_time():
    det = SyntheticDetector(quiet_config(), np.random.default_rng(0))
    out = det.detect(snap([], t=1.25), POSE, CAM)
    assert isinstance(out, DetectionSet)
    assert out.t == 1.25 and len(out) == 0


def test_total_dropout_gives_empty_frames():
    det = SyntheticDetector(quiet_config(p_dropout=1.0), np.random.default_rng(3))
    target = state(1, (0.0, 0.0, 10.0), latent=unit(0))
    for _ in range(20):
        assert len(det.detect(snap([target]), POSE, CAM)) == 0


def test_duplicate_probability_one_doubles_each_object():
    det = SyntheticDetector(quiet_config(p_duplicate=1.0), np.random.default_rng(0))
    target = state(1, (0.0, 0.0, 10.0), latent=unit(0))
    out = det.detect(snap([target]), POSE, CAM)
    assert len(out) == 2
    assert out.detections[0].box == out.detections[1].box


# ---------------------------------------------------------------------------
# false positives
# ---------------------------------------------------------------------------


def test_false_positive_rate_matches_poisson_mean():
    # empty scene, lambda = 2: sample mean over 1e4 frames sits in a
    # +/- 4 sigma band around 2
    det = SyntheticDetector(quiet_config(fp_rate=2.0), np.random.default_rng(11))
    counts = [len(det.detect(snap([], t=i * 0.1), POSE, CAM)) for i in range(10_000)]
    assert 1.94 <= float(np.mean(counts)) <= 2.06


def test_false_positive_geometry_and_confidence():
    det = SyntheticDetector(quiet_config(fp_rate=5.0), np.random.default_rng(1))
    for _ in range(50):
        for d in det.detect(snap([]), POSE, CAM).detections:
            cx, cy = d.box.center
            assert 0.0 <= cx <= CAM.width and 0.0 <= cy <= CAM.height
            assert 20.0 <= d.box.w <= 160.0 and 20.0 <= d.box.h <= 160.0
            assert 0.3 <= d.confidence <= 0.9
            assert abs(np.linalg.norm(d.descriptor) - 1.0) < 1e-9


def test_all_descriptors_unit_norm_under_noise():
    cfg = quiet_config(center_noise_px=2.0, size_noise_frac=0.05,
                       feature_noise=0.4, fp_rate=2.0, p_duplicate=0.3)
    det = SyntheticDetector(cfg, np.random.default_rng(5))
    objs = [state(1, (0.0, 0.0, 10.0), latent=unit(0)),
            state(2, (1.0, 0.5, 12.0), latent=unit(1))]
    seen = 0
    for i in range(40):
        for d in det.detect(snap(objs, t=i * 0.05), POSE, CAM).detections:
            assert abs(np.linalg.norm(d.descriptor) - 1.0) < 1e-9
            seen += 1
    assert seen > 0


# ---------------------------------------------------------------------------
# determinism and draw discipline
# ---------------------------------------------------------------------------


def _frames(cfg, seed, objs, n=30):
    det = SyntheticDetector(cfg, np.random.default_rng(seed))
    return [det.detect(snap(objs, t=i * 0.05), POSE, CAM) for i in range(n)]


def test_same_seed_same_output():
    cfg = quiet_config(center_noise_px=2.0, size_noise_frac=0.05,
                       feature_noise=0.1, p_dropout=0.2, fp_rate=1.0)
    objs = [state(1, (0.0, 0.0, 10.0), latent=unit(0))]
    a = _frames(cfg, 42, objs)
    b = _frames(cfg, 42, objs)
    for fa, fb in zip(a, b):
        assert len(fa) == len(fb)
        for da, db in zip(fa.detections, fb.detections):
            assert da.box == db.box
            assert da.confidence == db.confidence
            assert np.array_equal(da.descriptor, db.descriptor)


def test_occlusion_threshold_monotone_on_fixed_seed():
    # raising the suppression threshold can only reveal detections, never
    # hide them, because gated objects still consume their noise draws
    objs = [
        state(1, (0.0, 0.0, 10.0), latent=unit(0)),
        state(2, (0.3, 0.0, 5.0), size=(1.0, 1.0, 1.0), occluder=True),
    ]
    cfg_kw = dict(center_noise_px=1.0, size_noise_frac=0.02,
                  feature_noise=0.1, p_dropout=0.3)
    low = _frames(quiet_config(occlusion_threshold=0.6, **cfg_kw), 7, objs)
    high = _frames(quiet_config(occlusion_threshold=0.95, **cfg_kw), 7, objs)
    assert all(len(h) >= len(l) for l, h in zip(low, high))
    assert sum(len(h) for h in high) > sum(len(l) for l in low)


# ---------------------------------------------------------------------------
# occlusion and visibility gates
# ---------------------------------------------------------------------------


def test_occluder_in_front_suppresses_but_behind_does_not():
    target = state(1, (0.0, 0.0, 10.0), latent=unit(0))
    front = state(2, (0.3, 0.0, 5.0), occluder=True)   # covers ~0.9 of target
    behind = state(3, (0.0, 0.0, 15.0), size=(4.0, 4.0, 4.0), occluder=True)
    det = SyntheticDetector(quiet_config(), np.random.default_rng(0))
    assert len(det.detect(snap([target, front]), POSE, CAM)) == 0
    assert len(det.detect(snap([target, behind]), POSE, CAM)) == 1


def test_occluders_themselves_are_never_reported():
    wall = state(2, (0.0, 0.0, 5.0), size=(3.0, 3.0, 1.0), occluder=True)
    det = SyntheticDetector(quiet_config(), np.random.default_rng(0))
    assert len(det.detect(snap([wall]), POSE, CAM)) == 0


def test_object_outside_image_is_culled():
    det = SyntheticDetector(quiet_config(), np.random.default_rng(0))
    off = state(1, (100.0, 0.0, 10.0), latent=unit(0))   # u ~ 5480 px
    assert len(det.detect(snap([off]), POSE, CAM)) == 0
    # straddling the left border still counts as in-image
    edge = state(1, (-9.65, 0.0, 10.0), latent=unit(0))
    out = det.detect(snap([edge]), POSE, CAM)
    assert len(out) == 1 and out.detections[0].box.x < 0.0


def test_object_behind_camera_not_detected():
    det = SyntheticDetector(quiet_config(), np.random.default_rng(0))
    assert len(det.detect(snap([state(1, (0.0, 0.0, -10.0), latent=unit(0))]),
                          POSE, CAM)) == 0


# ---------------------------------------------------------------------------
# target-conditioned descriptor query
# ---------------------------------------------------------------------------


def test_extract_feature_exact_box_returns_latent():
    det = SyntheticDetector(quiet_config(), np.random.default_rng(0))
    target = state(1, (0.0, 0.0, 10.0), latent=unit(0))
    box = project_box(CAM, POSE, target.center, target.size)
    f = det.extract_target_feature(snap([target]), POSE, CAM, box)
    assert np.allclose(f, unit(0), atol=1e-12)


def test_extract_feature_picks_max_overlap_object():
    a = state(1, (0.0, 0.0, 10.0), latent=unit(0))
    b = state(2, (0.2, 0.0, 10.0), latent=unit(1))
    det = SyntheticDetector(quiet_config(), np.random.default_rng(0))
    box_a = project_box(CAM, POSE, a.center, a.size)
    box_b = project_box(CAM, POSE, b.center, b.size)
    # brute-force argmax over true boxes agrees with the query for both
    assert iou(box_a, box_a) > iou(box_a, box_b)
    f = det.extract_target_feature(snap([a, b]), POSE, CAM, box_a)
    assert np.allclose(f, unit(0), atol=1e-12)
    f = det.extract_target_feature(snap([a, b]), POSE, CAM, box_b)
    assert np.allclose(f, unit(1), atol=1e-12)


def test_extract_feature_tie_breaks_to_lower_id():
    a = state(1, (0.0, 0.0, 10.0), latent=unit(0))
    b = state(2, (0.0, 0.0, 10.0), latent=unit(1))   # identical projection
    det = SyntheticDetector(quiet_config(), np.random.default_rng(0))
    box = project_box(CAM, POSE, a.center, a.size)
    f = det.extract_target_feature(snap([a, b]), POSE, CAM, box)
    assert np.allclose(f, unit(0), atol=1e-12)


def test_extract_feature_disjoint_box_is_random_unit():
    target = state(1, (0.0, 0.0, 10.0), latent=unit(0, 256))
    det = SyntheticDetector(quiet_config(descriptor_dim=256),
                            np.random.default_rng(9))
    far = BoundingBox(800.0, 10.0, 40.0, 40.0)
    f = det.extract_target_feature(snap([target]), POSE, CAM, far)
    assert abs(np.linalg.norm(f) - 1.0) < 1e-9
    # a 256-dim random direction is nearly orthogonal to the latent
    assert abs(float(f @ unit(0, 256))) < 0.5


def test_extract_feature_noise_stays_near_latent():
    target = state(1, (0.0, 0.0, 10.0), latent=unit(0, 256))
    det = SyntheticDetector(quiet_config(descriptor_dim=256, feature_noise=0.02),
                            np.random.default_rng(2))
    box = project_box(CAM, POSE, target.center, target.size)
    f = det.extract_target_feature(snap([target]), POSE, CAM, box)
    # cos ~ 1/sqrt(1 + dim sigma^2) ~ 0.95 at sigma 0.02
    assert float(f @ unit(0, 256)) > 0.9


# ---------------------------------------------------------------------------
# frame geometry: one transform per object, the same bits as two passes
# ---------------------------------------------------------------------------


def ref_project_point(cam, pose, p_world):
    pc = pose.rotation.T @ (np.asarray(p_world, dtype=float) - pose.position)
    if pc[2] <= MIN_VIEW_DEPTH:
        return None
    return (cam.focal * pc[0] / pc[2] + cam.cx, cam.focal * pc[1] / pc[2] + cam.cy)


def ref_camera_depth(pose, p_world):
    return float((pose.rotation.T @ (np.asarray(p_world, dtype=float) - pose.position))[2])


def ref_project_box(cam, pose, center, size):
    center = np.asarray(center, dtype=float)
    uv = ref_project_point(cam, pose, center)
    if uv is None:
        return None
    depth = ref_camera_depth(pose, center)
    w = cam.focal * float(size[0]) / depth
    h = cam.focal * float(size[1]) / depth
    if w < 1.0 or h < 1.0:
        return None
    return BoundingBox(uv[0] - w / 2.0, uv[1] - h / 2.0, w, h)


def ref_frame_geometry(snapshot, pose, cam):
    """The two-pass geometry: project_box, then camera_depth, per object."""
    projected, occluders = [], []
    for st in snapshot.objects:
        box = ref_project_box(cam, pose, st.center, st.size)
        depth = ref_camera_depth(pose, st.center)
        if st.occluder:
            if box is not None:
                occluders.append((box, depth))
        else:
            projected.append((st, box, depth))
    out = []
    for st, box, depth in projected:
        frac = 0.0
        if box is not None:
            nearer = [b for b, d in occluders if d < depth]
            if nearer:
                frac = covered_fraction(box, nearer)
        out.append((st, box, frac))
    return out


def ref_truth(snapshot, pose, cam, target_id):
    """The truth row's box and occluded fraction, projected once more."""
    target = next(o for o in snapshot.objects if o.obj_id == target_id)
    box = ref_project_box(cam, pose, target.center, target.size)
    occl = 0.0
    if box is not None:
        occl = next(f for st, b, f in ref_frame_geometry(snapshot, pose, cam)
                    if st.obj_id == target_id)
    return box, occl


def _bits(box):
    return None if box is None else tuple(float(v).hex() for v in box.as_array())


def _random_scene(rng):
    """A random camera pose and 2-7 objects placed in its frame: some behind
    the camera, some too small or far to span a pixel, and occluders set on
    the ray to a detectable object, in front of it or behind it."""
    R = zyx_matrix(rng.uniform(-math.pi, math.pi), rng.uniform(-1.4, 1.4),
                   rng.uniform(-math.pi, math.pi))
    pose = CameraPose(R, rng.normal(0.0, 20.0, size=3))
    objs = []
    for i in range(int(rng.integers(2, 8))):
        pc = np.array([rng.uniform(-8.0, 8.0), rng.uniform(-5.0, 5.0),
                       rng.uniform(-10.0, 60.0)])
        size = tuple(10.0 ** rng.uniform(-2.0, 0.5, size=3))
        occluder = bool(objs) and rng.uniform() < 0.4
        if occluder and rng.uniform() < 0.7:
            # on the ray to an earlier object, at a random fraction of its range
            prev = R.T @ (objs[int(rng.integers(len(objs)))].center - pose.position)
            pc = prev * rng.uniform(0.2, 1.5)
            size = tuple(10.0 ** rng.uniform(-0.5, 0.5, size=3))
        objs.append(state(i, pose.position + R @ pc, size=size, occluder=occluder,
                          latent=None if occluder else unit(i % DIM)))
    return snap(objs), pose


def test_frame_geometry_bit_identical_to_two_pass_form():
    rng = np.random.default_rng(17)
    seen = {"behind": 0, "subpixel": 0, "occluded": 0, "visible": 0}
    for i in range(600):
        scene, pose = _random_scene(rng)
        for st in scene.objects:
            assert _bits(project_box(CAM, pose, st.center, st.size)) \
                == _bits(ref_project_box(CAM, pose, st.center, st.size)), i
            assert project_point(CAM, pose, st.center) == ref_project_point(CAM, pose, st.center), i
            assert camera_depth(pose, st.center) == ref_camera_depth(pose, st.center), i
        det = SyntheticDetector(quiet_config(), np.random.default_rng(i))
        det.detect(scene, pose, CAM)
        want = ref_frame_geometry(scene, pose, CAM)
        assert [v.state for v in det.views] == [st for st, _, _ in want], i
        assert [(_bits(v.box), v.occluded) for v in det.views] \
            == [(_bits(b), f) for _, b, f in want], i
        for v in det.views:
            box, occl = ref_truth(scene, pose, CAM, v.state.obj_id)
            assert (_bits(v.box), v.occluded) == (_bits(box), occl), i
            depth = ref_camera_depth(pose, v.state.center)
            seen["behind"] += depth <= MIN_VIEW_DEPTH
            seen["subpixel"] += depth > MIN_VIEW_DEPTH and v.box is None
            seen["occluded"] += v.occluded > 0.0
            seen["visible"] += v.box is not None
    assert min(seen.values()) > 100, seen


def test_detect_transforms_and_projects_each_object_once(monkeypatch):
    counts = {"camera_point": 0, "project_box": 0}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name in counts:
        monkeypatch.setattr(detection, name, counting(name, getattr(detection, name)))
    scene, pose = _random_scene(np.random.default_rng(4))
    SyntheticDetector(quiet_config(), np.random.default_rng(0)).detect(scene, pose, CAM)
    assert counts == {"camera_point": len(scene.objects),
                      "project_box": len(scene.objects)}


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_rejects_out_of_range_values():
    with pytest.raises(ValueError):
        SyntheticDetectorConfig(p_dropout=1.5)
    with pytest.raises(ValueError):
        SyntheticDetectorConfig(occlusion_threshold=-0.1)
    with pytest.raises(ValueError):
        SyntheticDetectorConfig(fp_rate=-1.0)
    with pytest.raises(ValueError):
        SyntheticDetectorConfig(descriptor_dim=0)


@pytest.mark.parametrize("name", ["center_noise_px", "size_noise_frac",
                                  "feature_noise", "fp_rate"])
@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
def test_config_rejects_negative_or_non_finite_noise(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
        SyntheticDetectorConfig(**{name: value})


@pytest.mark.parametrize("lo,hi", [(-50.0, -10.0), (0.0, 10.0), (30.0, 20.0),
                                   (20.0, math.inf), (math.nan, 20.0)])
def test_config_rejects_bad_false_positive_sizes(lo, hi):
    with pytest.raises(ValueError, match="0 < fp_size_min <= fp_size_max"):
        SyntheticDetectorConfig(fp_size_min=lo, fp_size_max=hi)


def test_config_accepts_equal_false_positive_sizes():
    assert SyntheticDetectorConfig(fp_size_min=30.0, fp_size_max=30.0).fp_size_max == 30.0


# ---------------------------------------------------------------------------
# runtime overflow
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # numpy overflow notes
@pytest.mark.parametrize("name,message", [
    ("center_noise_px", "box field . is not finite"),
    ("size_noise_frac", "box field . is not finite"),
    ("feature_noise", "descriptor norm is not finite"),
])
def test_noise_overflow_raises_detector_abort_with_frame_time(name, message):
    # on seed 6 every setting overflows: a centre draw beyond 1.8 sigma and
    # a positive size draw (a negative one clamps the box to 1 px)
    det = SyntheticDetector(quiet_config(**{name: 1e308}), np.random.default_rng(6))
    target = state(1, (0.0, 0.0, 10.0), latent=unit(0))
    with pytest.raises(DetectorAbort, match=f"^detector: {message}.* at t=1.250000 s$") as err:
        det.detect(snap([target], t=1.25), POSE, CAM)
    assert err.value.t == 1.25
