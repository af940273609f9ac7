"""Synthetic detector: failure injection, draw discipline, target features."""

import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadtrack import detection, scenarios, simulator
from quadtrack.detection import (Detection, DetectionSet, GyroSample,
                                 SyntheticDetector, SyntheticDetectorConfig,
                                 _in_image, frame_views)
from quadtrack.errors import DetectorAbort
from quadtrack.geometry import (MIN_VIEW_DEPTH, BoundingBox, CameraPose,
                                covered_fraction, iou)
from quadtrack.scene import ObjectState, SceneSnapshot

from conftest import (box_array, camera_from_focal, float_pose, project_world_box,
                      zyx_matrix)

CAM = camera_from_focal(960, 544, 500.0)
POSE = float_pose(np.eye(3), np.zeros(3))
DIM = 8


def unit(i, dim=DIM):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


def state(obj_id, center, size=(1.0, 1.0, 1.0), latent=None, occluder=False):
    return ObjectState(obj_id=obj_id,
                       center=tuple(np.asarray(center, dtype=float).tolist()),
                       size=np.asarray(size, dtype=float), occluder=occluder,
                       latent=latent)


def snap(objects, t=0.0):
    return SceneSnapshot(t=t, objects=objects)


def detect(det, snapshot, pose=POSE, cam=CAM):
    """One frame's detections, from its views as the sensor layer hands
    them on."""
    return det.detect(frame_views(snapshot, pose, cam), snapshot.t, cam)


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
    out = detect(det, snap([target]))
    assert len(out) == 1
    expected = project_world_box(CAM, POSE, target.center, target.size)
    assert out.detections[0].box == expected
    assert np.allclose(out.detections[0].descriptor, unit(0), atol=1e-12)
    assert 0.5 <= out.detections[0].confidence <= 1.0


def test_detection_set_carries_frame_time():
    det = SyntheticDetector(quiet_config(), np.random.default_rng(0))
    out = detect(det, snap([], t=1.25))
    assert isinstance(out, DetectionSet)
    assert out.t == 1.25 and len(out) == 0


@pytest.mark.parametrize("cls,args,want", [
    (Detection, (BoundingBox(1.0, 2.0, 3.0, 4.0), 0.75, np.array([1.0, -0.0])),
     "Detection(box=BoundingBox(x=1.0, y=2.0, w=3.0, h=4.0), confidence=0.75, "
     "descriptor=array([ 1., -0.]))"),
    (GyroSample, (0.5, np.array([0.1, 0.0, -0.2])),
     "GyroSample(t=0.5, w=array([ 0.1,  0. , -0.2]))"),
    (CameraPose, (((1.0, 0.0), (-0.0, 1.0)), (0.0, 2.5)),
     "CameraPose(rotation=((1.0, 0.0), (-0.0, 1.0)), position=(0.0, 2.5))"),
], ids=["Detection", "GyroSample", "CameraPose"])
def test_event_values_are_slotted_with_identity_equality(cls, args, want):
    # the frozen dataclasses (eq=False) they replaced: positional or keyword
    # fields, equal only to themselves, a repr by value; and no __dict__
    names = cls.__slots__
    a, b = cls(*args), cls(**dict(zip(names, args)))
    assert all(getattr(a, n) is v and getattr(b, n) is v
               for n, v in zip(names, args))
    assert a == a and a != b and hash(a) != hash(b)
    assert repr(a) == repr(b) == want
    assert not hasattr(a, "__dict__")
    back = pickle.loads(pickle.dumps(a))
    assert type(back) is cls and repr(back) == want


def test_total_dropout_gives_empty_frames():
    det = SyntheticDetector(quiet_config(p_dropout=1.0), np.random.default_rng(3))
    target = state(1, (0.0, 0.0, 10.0), latent=unit(0))
    for _ in range(20):
        assert len(detect(det, snap([target]))) == 0


def test_duplicate_probability_one_doubles_each_object():
    det = SyntheticDetector(quiet_config(p_duplicate=1.0), np.random.default_rng(0))
    target = state(1, (0.0, 0.0, 10.0), latent=unit(0))
    out = detect(det, snap([target]))
    assert len(out) == 2
    assert out.detections[0].box == out.detections[1].box


# ---------------------------------------------------------------------------
# false positives
# ---------------------------------------------------------------------------


def test_false_positive_rate_matches_poisson_mean():
    # empty scene, lambda = 2: sample mean over 1e4 frames sits in a
    # +/- 4 sigma band around 2
    det = SyntheticDetector(quiet_config(fp_rate=2.0), np.random.default_rng(11))
    counts = [len(detect(det, snap([], t=i * 0.1))) for i in range(10_000)]
    assert 1.94 <= float(np.mean(counts)) <= 2.06


def test_false_positive_geometry_and_confidence():
    det = SyntheticDetector(quiet_config(fp_rate=5.0), np.random.default_rng(1))
    for _ in range(50):
        for d in detect(det, snap([])).detections:
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
        for d in detect(det, snap(objs, t=i * 0.05)).detections:
            assert abs(np.linalg.norm(d.descriptor) - 1.0) < 1e-9
            seen += 1
    assert seen > 0


# ---------------------------------------------------------------------------
# determinism and draw discipline
# ---------------------------------------------------------------------------


def _frames(cfg, seed, objs, n=30):
    det = SyntheticDetector(cfg, np.random.default_rng(seed))
    return [detect(det, snap(objs, t=i * 0.05)) for i in range(n)]


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


def _det_bits(dets):
    return [(tuple(float(v).hex() for v in box_array(d.box)), d.confidence.hex(),
             d.descriptor.tobytes()) for d in dets]


@pytest.mark.parametrize("p_duplicate", [0.0, 1.0])
@pytest.mark.parametrize("gate", ["dropout", "occluder", "outside", "behind"])
def test_hidden_object_keeps_later_draws_bit_identical(gate, p_duplicate):
    # object 1 hidden by one gate: object 2's detections and every false
    # positive keep the bits of the frames where object 1 is visible
    kw = dict(center_noise_px=1.5, size_noise_frac=0.03, feature_noise=0.2,
              fp_rate=2.0, p_duplicate=p_duplicate)
    second = state(2, (3.0, 0.0, 10.0), latent=unit(1))
    shown = [state(1, (0.0, 0.0, 10.0), latent=unit(0)), second]
    hidden = {
        "dropout": shown,
        "occluder": shown + [state(3, (0.0, 0.0, 5.0), occluder=True)],
        "outside": [state(1, (100.0, 0.0, 10.0), latent=unit(0)), second],
        "behind": [state(1, (0.0, 0.0, -10.0), latent=unit(0)), second],
    }[gate]
    p_dropout = 0.5 if gate == "dropout" else 0.0
    ref = _frames(quiet_config(**kw), 11, shown, n=40)
    got = _frames(quiet_config(p_dropout=p_dropout, **kw), 11, hidden, n=40)
    k = 2 if p_duplicate else 1   # detections per object
    hid = 0
    for fr, fg in zip(ref, got):
        # per frame: object 1's k detections, object 2's k, false positives
        r, g = _det_bits(fr.detections), _det_bits(fg.detections)
        allowed = [r[k:]]
        if gate == "dropout":   # either object may lose its dropout draw
            allowed += [r, r[:k] + r[2 * k:], r[2 * k:]]
        assert g in allowed
        hid += g == r[k:]
    assert hid >= 5


# ---------------------------------------------------------------------------
# draws through the cheapest equal call: each form returns the floats of the
# plain call it replaces and leaves the generator in the same state
# ---------------------------------------------------------------------------

seeds = st.integers(0, 2**32 - 1)
BUNDLED_CAMERAS = sorted({(scenarios.get(n).camera.width, scenarios.get(n).camera.height)
                          for n in scenarios.names()})


def _twins(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _same_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


@given(seeds)
def test_gate_and_confidence_forms_equal_uniform(seed):
    plain, fast = _twins(seed)
    for _ in range(4):
        assert fast.random() == plain.uniform()
        assert 0.5 + 0.5 * fast.random() == plain.uniform(0.5, 1.0)
    assert _same_state(plain, fast)


@given(seeds, st.integers(1, 3))
def test_one_size_four_normal_equals_two_size_two(seed, n):
    plain, fast = _twins(seed)
    for _ in range(n):
        want = np.concatenate([plain.normal(0.0, 1.0, size=2),
                               plain.normal(0.0, 1.0, size=2)])
        assert fast.normal(0.0, 1.0, size=4).tobytes() == want.tobytes()
    assert _same_state(plain, fast)


sizes = st.floats(1e-3, 1e6)


@settings(max_examples=300)
@given(seeds, st.sampled_from(BUNDLED_CAMERAS), sizes,
       st.one_of(st.just(0.0), sizes, st.floats(0.0, 1e300)))
def test_false_positive_block_equals_five_uniforms(seed, camera, lo, extra):
    # extra = 0 is fp_size_min == fp_size_max
    width, height = camera
    hi = lo + extra
    plain, fast = _twins(seed)
    for _ in range(3):
        want = [plain.uniform(0.0, width), plain.uniform(0.0, height),
                plain.uniform(lo, hi), plain.uniform(lo, hi),
                plain.uniform(0.3, 0.9)]
        ux, uy, uw, uh, uc = fast.random(5).tolist()
        span = hi - lo
        got = [float(width) * ux, float(height) * uy, lo + span * uw,
               lo + span * uh, 0.3 + (0.9 - 0.3) * uc]
        assert [v.hex() for v in got] == [float(v).hex() for v in want]
    assert _same_state(plain, fast)


def ref_detect(det, snapshot, pose, cam):
    """`detect` with the plain numpy calls (uniform, two size-2 normals, a
    uniform per false-positive value) and the guarded `_unit`."""
    cfg, rng = det.cfg, det.rng

    def perturbed(box, latent, visible):
        dc = rng.normal(0.0, 1.0, size=2)
        ds = rng.normal(0.0, 1.0, size=2)
        conf = rng.uniform(0.5, 1.0)
        noise = rng.normal(0.0, 1.0, size=cfg.descriptor_dim)
        if not visible:
            return None
        dx, dy = [v * cfg.center_noise_px for v in dc.tolist()]
        sw, sh = [v * cfg.size_noise_frac for v in ds.tolist()]
        w = max(1.0, box.w * (1.0 + sw))
        h = max(1.0, box.h * (1.0 + sh))
        nb = BoundingBox(box.x + dx - (w - box.w) / 2.0,
                         box.y + dy - (h - box.h) / 2.0, w, h)
        return Detection(nb, float(conf), detection._unit(latent, noise, cfg.feature_noise))

    out = []
    for st_, box, frac in frame_views(snapshot, pose, cam):
        drop = rng.uniform() < cfg.p_dropout
        visible = (box is not None and frac < cfg.occlusion_threshold
                   and _in_image(box, cam))
        d = perturbed(box, st_.latent, visible)
        dup = perturbed(box, st_.latent, visible) if rng.uniform() < cfg.p_duplicate else None
        if visible and not drop:
            out += [d] if dup is None else [d, dup]
    for _ in range(int(rng.poisson(cfg.fp_rate) if cfg.fp_rate > 0 else 0)):
        cx = rng.uniform(0.0, cam.width)
        cy = rng.uniform(0.0, cam.height)
        w = rng.uniform(cfg.fp_size_min, cfg.fp_size_max)
        h = rng.uniform(cfg.fp_size_min, cfg.fp_size_max)
        conf = rng.uniform(0.3, 0.9)
        desc = detection._unit(rng.normal(0.0, 1.0, size=cfg.descriptor_dim))
        out.append(Detection(BoundingBox(cx - w / 2, cy - h / 2, w, h), float(conf), desc))
    return out


@pytest.mark.parametrize("fp_sizes", [(20.0, 160.0), (30.0, 30.0)])
def test_detect_equals_the_plain_call_detector(fp_sizes):
    # every failure mode on: dropout, duplicates, occlusion, false positives
    cfg = SyntheticDetectorConfig(center_noise_px=2.0, size_noise_frac=0.05,
                                  feature_noise=0.1, p_dropout=0.2, fp_rate=3.0,
                                  p_duplicate=0.3, descriptor_dim=16,
                                  fp_size_min=fp_sizes[0], fp_size_max=fp_sizes[1])
    objs = [state(1, (0.0, 0.0, 10.0), latent=unit(0, 16)),
            state(2, (1.0, 0.2, 8.0), latent=unit(1, 16)),
            state(3, (0.2, 0.0, 6.0), occluder=True)]
    fast = SyntheticDetector(cfg, np.random.default_rng(5))
    plain = SyntheticDetector(cfg, np.random.default_rng(5))
    n = 0
    for i in range(200):
        frame = snap(objs, t=i * 0.05)
        got = detect(fast, frame).detections
        assert _det_bits(got) == _det_bits(ref_detect(plain, frame, POSE, CAM)), i
        n += len(got)
    assert _same_state(fast.rng, plain.rng)
    assert n > 600


# ---------------------------------------------------------------------------
# occlusion and visibility gates
# ---------------------------------------------------------------------------


def test_occluder_in_front_suppresses_but_behind_does_not():
    target = state(1, (0.0, 0.0, 10.0), latent=unit(0))
    front = state(2, (0.3, 0.0, 5.0), occluder=True)   # covers ~0.9 of target
    behind = state(3, (0.0, 0.0, 15.0), size=(4.0, 4.0, 4.0), occluder=True)
    det = SyntheticDetector(quiet_config(), np.random.default_rng(0))
    assert len(detect(det, snap([target, front]))) == 0
    assert len(detect(det, snap([target, behind]))) == 1


def test_occluders_themselves_are_never_reported():
    wall = state(2, (0.0, 0.0, 5.0), size=(3.0, 3.0, 1.0), occluder=True)
    det = SyntheticDetector(quiet_config(), np.random.default_rng(0))
    assert len(detect(det, snap([wall]))) == 0


def test_object_outside_image_is_culled():
    det = SyntheticDetector(quiet_config(), np.random.default_rng(0))
    off = state(1, (100.0, 0.0, 10.0), latent=unit(0))   # u ~ 5480 px
    assert len(detect(det, snap([off]))) == 0
    # straddling the left border still counts as in-image
    edge = state(1, (-9.65, 0.0, 10.0), latent=unit(0))
    out = detect(det, snap([edge]))
    assert len(out) == 1 and out.detections[0].box.x < 0.0


def test_object_behind_camera_not_detected():
    det = SyntheticDetector(quiet_config(), np.random.default_rng(0))
    assert len(detect(det, snap([state(1, (0.0, 0.0, -10.0), latent=unit(0))]))) == 0


# ---------------------------------------------------------------------------
# target-conditioned descriptor query
# ---------------------------------------------------------------------------


def test_extract_feature_exact_box_returns_latent():
    det = SyntheticDetector(quiet_config(), np.random.default_rng(0))
    target = state(1, (0.0, 0.0, 10.0), latent=unit(0))
    box = project_world_box(CAM, POSE, target.center, target.size)
    f = det.extract_target_feature(snap([target]), POSE, CAM, box)
    assert np.allclose(f, unit(0), atol=1e-12)


def test_extract_feature_picks_max_overlap_object():
    a = state(1, (0.0, 0.0, 10.0), latent=unit(0))
    b = state(2, (0.2, 0.0, 10.0), latent=unit(1))
    det = SyntheticDetector(quiet_config(), np.random.default_rng(0))
    box_a = project_world_box(CAM, POSE, a.center, a.size)
    box_b = project_world_box(CAM, POSE, b.center, b.size)
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
    box = project_world_box(CAM, POSE, a.center, a.size)
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
    box = project_world_box(CAM, POSE, target.center, target.size)
    f = det.extract_target_feature(snap([target]), POSE, CAM, box)
    # cos ~ 1/sqrt(1 + dim sigma^2) ~ 0.95 at sigma 0.02
    assert float(f @ unit(0, 256)) > 0.9


# ---------------------------------------------------------------------------
# frame geometry: one transform per object, the same bits as two passes
# ---------------------------------------------------------------------------


def ref_camera_frame(pose, p_world):
    """R^T (p - position) in a fixed order: component j is sum_i R[i][j] d_i
    over i = 0, 1, 2, added left to right, whatever the BLAS kernel."""
    d = [float(a) - float(b) for a, b in zip(p_world, pose.position)]
    pc = []
    for j in range(3):
        acc = pose.rotation[0][j] * d[0]
        for i in (1, 2):
            acc = acc + pose.rotation[i][j] * d[i]
        pc.append(acc)
    return pc


def ref_project_point(cam, pose, p_world):
    pc = ref_camera_frame(pose, p_world)
    if pc[2] <= MIN_VIEW_DEPTH:
        return None
    return (cam.focal * pc[0] / pc[2] + cam.cx, cam.focal * pc[1] / pc[2] + cam.cy)


def ref_camera_depth(pose, p_world):
    return ref_camera_frame(pose, p_world)[2]


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
    return None if box is None else tuple(float(v).hex() for v in box_array(box))


def _random_scene(rng):
    """A random camera pose and 2-7 objects placed in its frame: some behind
    the camera, some too small or far to span a pixel, and occluders set on
    the ray to a detectable object, in front of it or behind it."""
    R = zyx_matrix(rng.uniform(-math.pi, math.pi), rng.uniform(-1.4, 1.4),
                   rng.uniform(-math.pi, math.pi))
    pose = float_pose(R, rng.normal(0.0, 20.0, size=3))
    position = np.array(pose.position)
    objs = []
    for i in range(int(rng.integers(2, 8))):
        pc = np.array([rng.uniform(-8.0, 8.0), rng.uniform(-5.0, 5.0),
                       rng.uniform(-10.0, 60.0)])
        size = tuple(10.0 ** rng.uniform(-2.0, 0.5, size=3))
        occluder = bool(objs) and rng.uniform() < 0.4
        if occluder and rng.uniform() < 0.7:
            # on the ray to an earlier object, at a random fraction of its range
            prev = R.T @ (np.array(objs[int(rng.integers(len(objs)))].center) - position)
            pc = prev * rng.uniform(0.2, 1.5)
            size = tuple(10.0 ** rng.uniform(-0.5, 0.5, size=3))
        objs.append(state(i, position + R @ pc, size=size, occluder=occluder,
                          latent=None if occluder else unit(i % DIM)))
    return snap(objs), pose


def test_frame_geometry_bit_identical_to_two_pass_form():
    rng = np.random.default_rng(17)
    seen = {"behind": 0, "subpixel": 0, "occluded": 0, "visible": 0}
    for i in range(600):
        scene, pose = _random_scene(rng)
        for st in scene.objects:
            assert _bits(project_world_box(CAM, pose, st.center, st.size)) \
                == _bits(ref_project_box(CAM, pose, st.center, st.size)), i
        views = frame_views(scene, pose, CAM)
        want = ref_frame_geometry(scene, pose, CAM)
        assert [v.state for v in views] == [st for st, _, _ in want], i
        assert [(_bits(v.box), v.occluded) for v in views] \
            == [(_bits(b), f) for _, b, f in want], i
        for v in views:
            box, occl = ref_truth(scene, pose, CAM, v.state.obj_id)
            assert (_bits(v.box), v.occluded) == (_bits(box), occl), i
            depth = ref_camera_depth(pose, v.state.center)
            seen["behind"] += depth <= MIN_VIEW_DEPTH
            seen["subpixel"] += depth > MIN_VIEW_DEPTH and v.box is None
            seen["occluded"] += v.occluded > 0.0
            seen["visible"] += v.box is not None
    assert min(seen.values()) > 100, seen


def test_frame_views_transforms_and_projects_each_object_once(monkeypatch):
    counts = {"camera_point": 0, "project_box": 0}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name in counts:
        monkeypatch.setattr(detection, name, counting(name, getattr(detection, name)))
    scene, pose = _random_scene(np.random.default_rng(4))
    views = frame_views(scene, pose, CAM)
    assert counts == {"camera_point": len(scene.objects),
                      "project_box": len(scene.objects)}
    # detect projects nothing: it reads the views it is handed
    SyntheticDetector(quiet_config(), np.random.default_rng(0)).detect(views, 0.0, CAM)
    assert counts == {"camera_point": len(scene.objects),
                      "project_box": len(scene.objects)}


def test_the_detector_keeps_no_frame_state():
    det = SyntheticDetector(quiet_config(), np.random.default_rng(0))
    detect(det, snap([state(1, (0.0, 0.0, 10.0), latent=unit(0))]))
    assert vars(det).keys() == {"cfg", "rng"}


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


@pytest.mark.parametrize("name,message", [
    ("center_noise_px", "box field . is not finite: -?inf"),
    ("size_noise_frac", "box field . is not finite: -?inf"),
    ("feature_noise", "descriptor norm is not finite: inf"),
])
def test_noise_overflow_raises_detector_abort_with_frame_time(name, message):
    # on seed 13 every setting overflows to inf: a centre draw beyond 1.8
    # sigma, a positive size draw (a negative one clamps the box to 1 px),
    # and a descriptor draw beyond 1.8 sigma (finite descriptor entries,
    # however large, are normalised).  The overflow is the typed abort
    # alone: every RuntimeWarning is an error here.
    det = SyntheticDetector(quiet_config(**{name: 1e308}), np.random.default_rng(13))
    target = state(1, (0.0, 0.0, 10.0), latent=unit(0))
    with pytest.raises(DetectorAbort, match=f"^detector: {message} at t=1.250000 s$") as err:
        detect(det, snap([target], t=1.25))
    assert err.value.t == 1.25


def test_unit_scales_finite_entries_whose_norm_overflows():
    # the plain norm of entries above ~1e154 overflows; the vector is then
    # scaled by its largest magnitude before normalising, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = detection._unit(np.array([3e200, -4e200, 0.0]))
    np.testing.assert_allclose(u, [0.6, -0.8, 0.0], rtol=1e-15)
    # the normal path keeps its bits
    v = np.random.default_rng(3).normal(size=256)
    assert np.array_equal(detection._unit(v), v / np.linalg.norm(v))
    with pytest.raises(ValueError, match="^descriptor norm is not finite: inf$"):
        detection._unit(np.array([np.inf, 1.0]))


def _guarded_unit(*args):
    """`_unit`'s guarded path: its result, or its ValueError's message."""
    try:
        return detection._unit(*args)
    except ValueError as e:
        return str(e)


@pytest.mark.parametrize("scale", [
    0.0, 0.1, 1e100, math.nextafter(1e100, math.inf), 1e150, 8e152, 1e200, 1e308])
def test_unit_fast_path_equals_the_guarded_path_on_both_sides_of_its_bound(scale):
    # a unit latent plus standard-normal noise: at and below 1e100 the fast
    # path, above it the guarded one; either way the bits or the message of
    # the guarded path, and no warning
    rng = np.random.default_rng(17)
    latent = rng.normal(0.0, 1.0, size=256)
    latent /= np.linalg.norm(latent)
    for _ in range(20):
        noise = rng.normal(0.0, 1.0, size=256)
        want = _guarded_unit(latent, noise, scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = detection._unit(latent, noise, scale, draws=True)
            except ValueError as e:
                got = str(e)
            if isinstance(want, str):
                assert got == want
            else:
                assert got.tobytes() == want.tobytes()
            # a draw alone always takes the fast path
            assert (detection._unit(noise, draws=True).tobytes()
                    == _guarded_unit(noise).tobytes())


def test_finite_feature_noise_beyond_the_norm_range_runs_to_the_end():
    # storm with feature_noise = 1e200: latent + noise is finite, so every
    # descriptor normalises and the run ends without a RuntimeWarning
    sc = scenarios.get("false_positive_storm")
    sc = dataclasses.replace(
        sc, detector=dataclasses.replace(sc.detector, feature_noise=1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        art = simulator.run(sc)
    assert len(art.truth_trace) == art.counts["camera"]
    assert all(np.isclose(np.linalg.norm(d.descriptor), 1.0)
               for ev in art.events if isinstance(ev, DetectionSet)
               for d in ev.detections)
