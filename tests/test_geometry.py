"""Boxes, IOU, pinhole projection, and rotation helpers."""

import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadtrack.geometry import (BoundingBox, CameraModel, CameraPose,
                                covered_fraction, cross3, iou, nearest_rotation,
                                pitch_yaw_from_rotation, quat_from_rotation,
                                rot_z, wrap_angle)

from conftest import (boxes, camera_from_focal, hat, is_rotation,
                      project_world_box, rot_x, rot_y, vee, zyx_matrix)

IDENTITY_POSE = CameraPose(np.eye(3), np.zeros(3))


# ---------------------------------------------------------------------------
# BoundingBox
# ---------------------------------------------------------------------------


def test_box_center_and_area():
    b = BoundingBox(10.0, 20.0, 30.0, 40.0)
    assert b.center == (25.0, 40.0)
    assert b.area == 1200.0


def test_box_rejects_nonpositive_extent():
    with pytest.raises(ValueError):
        BoundingBox(0, 0, 0.0, 10)
    with pytest.raises(ValueError):
        BoundingBox(0, 0, 10, -1.0)


def test_box_rejects_nonfinite():
    with pytest.raises(ValueError):
        BoundingBox(float("nan"), 0, 10, 10)
    with pytest.raises(ValueError):
        BoundingBox(0, float("inf"), 10, 10)


def test_box_messages_name_the_bad_field():
    with pytest.raises(ValueError, match="box field y is not finite: inf"):
        BoundingBox(0.0, float("inf"), 10.0, 10.0)
    with pytest.raises(ValueError, match="box field x is not finite: nan"):
        BoundingBox(float("nan"), float("-inf"), 10.0, 10.0)
    with pytest.raises(ValueError, match="positive extent, got w=10.0 h=0.0"):
        BoundingBox(0.0, 0.0, 10.0, 0.0)
    # numpy fields: the field's own repr and str
    with pytest.raises(ValueError, match=r"^box field w is not finite: np.float64\(inf\)$"):
        BoundingBox(0.0, 0.0, np.float64(np.inf), 1.0)
    with pytest.raises(ValueError, match="^box must have positive extent, got w=-1.0 h=2.0$"):
        BoundingBox(0.0, 0.0, np.float64(-1.0), 2.0)


def test_box_accepts_finite_fields_whose_sum_overflows():
    # validity is checked on one sum of the fields first; an overflowing
    # sum of finite fields falls back to the per-field check and passes
    b = BoundingBox(1e308, 1e308, 1e308, 1e308)
    assert b.x == 1e308 and b.h == 1e308


def test_box_with_numpy_fields_whose_sum_overflows_does_not_warn():
    # numpy scalars warn when their sum overflows, and Tier-1 turns a
    # RuntimeWarning into an error; the check sums Python floats instead
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = BoundingBox(0.0, np.float64(0.0), 1e308, 1e308)
    assert b.w == 1e308


def test_box_is_a_value_object():
    # equality, hash and repr by value, as the frozen dataclass it replaced
    b = BoundingBox(1.5, -2.25, 3.0, 4.0)
    same = BoundingBox(1.5, -2.25, 3.0, 4.0)
    assert b == same and not b != same and b is not same
    assert hash(b) == hash(same) == hash((1.5, -2.25, 3.0, 4.0))
    for other in (BoundingBox(1.5, -2.25, 3.0, 4.5), (1.5, -2.25, 3.0, 4.0), None):
        assert b != other and not b == other
    assert len({b, same, BoundingBox(0.0, 0.0, 1.0, 1.0)}) == 2
    assert repr(b) == "BoundingBox(x=1.5, y=-2.25, w=3.0, h=4.0)"
    assert repr(BoundingBox(np.float64(1.0), 0.0, 2.0, 3.0)) \
        == "BoundingBox(x=np.float64(1.0), y=0.0, w=2.0, h=3.0)"
    back = pickle.loads(pickle.dumps(b))
    assert back == b and type(back) is BoundingBox
    assert not hasattr(b, "__dict__")


def test_box_array_round_trip():
    b = BoundingBox(1.5, -2.25, 3.0, 4.0)
    assert BoundingBox.from_array(b.as_array()) == b


# ---------------------------------------------------------------------------
# IOU
# ---------------------------------------------------------------------------


def test_iou_identity():
    b = BoundingBox(3.0, 4.0, 10.0, 12.0)
    assert iou(b, b) == 1.0


def test_iou_disjoint_and_touching():
    assert iou(BoundingBox(0, 0, 10, 10), BoundingBox(20, 20, 5, 5)) == 0.0
    # shared edge has zero-area intersection
    assert iou(BoundingBox(0, 0, 10, 10), BoundingBox(10, 0, 10, 10)) == 0.0


def test_iou_known_overlap():
    # intersection 5x5 = 25, union 100 + 100 - 25 = 175
    v = iou(BoundingBox(0, 0, 10, 10), BoundingBox(5, 5, 10, 10))
    assert abs(v - 25.0 / 175.0) < 1e-15


def test_iou_nested_boxes():
    outer = BoundingBox(0, 0, 10, 10)
    inner = BoundingBox(2, 2, 5, 5)
    assert abs(iou(outer, inner) - 25.0 / 100.0) < 1e-15


@given(boxes(), boxes())
def test_iou_symmetric_and_bounded(a, b):
    v = iou(a, b)
    assert v == iou(b, a)
    assert 0.0 <= v <= 1.0


@given(boxes(), boxes(), st.floats(1e160, 1e300))
def test_iou_of_boxes_whose_areas_overflow_is_still_the_ratio(a, b, k):
    # scaled by k, every area is beyond the float range (inf - inf is NaN);
    # IOU, a ratio of areas, is the unscaled one up to rounding
    big = [BoundingBox(c.x * k, c.y * k, c.w * k, c.h * k) for c in (a, b)]
    assert math.isinf(big[0].area) and math.isinf(big[1].area)
    v = iou(*big)
    assert v == iou(big[1], big[0])
    assert 0.0 <= v <= 1.0 and abs(v - iou(a, b)) < 1e-9


@given(boxes(), boxes())
def test_iou_one_only_for_identical(a, b):
    if iou(a, b) == 1.0:
        assert max(abs(a.x - b.x), abs(a.y - b.y),
                   abs(a.w - b.w), abs(a.h - b.h)) < 1e-3


# ---------------------------------------------------------------------------
# covered_fraction
# ---------------------------------------------------------------------------


def test_covered_fraction_empty_and_full():
    t = BoundingBox(0, 0, 10, 10)
    assert covered_fraction(t, []) == 0.0
    assert covered_fraction(t, [BoundingBox(-5, -5, 30, 30)]) == 1.0


def test_covered_fraction_single_cover_matches_clipped_area():
    t = BoundingBox(0, 0, 10, 10)
    c = BoundingBox(5, 5, 10, 10)  # clips to 5x5
    assert abs(covered_fraction(t, [c]) - 0.25) < 1e-12


def test_covered_fraction_union_not_double_counted():
    # two covers overlapping each other: |A u B| = 50 + 50 - 25 = 75
    t = BoundingBox(0, 0, 10, 10)
    a = BoundingBox(0, 0, 5, 10)
    b = BoundingBox(2.5, 0, 5, 10)
    assert abs(covered_fraction(t, [a, b]) - 0.75) < 1e-12


@given(boxes(), st.lists(boxes(), max_size=4))
def test_covered_fraction_bounded(target, covers):
    assert 0.0 <= covered_fraction(target, covers) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_project_box_on_axis_cube():
    # 1 m sprite at 10 m with f = 500 px subtends 50 px about the center
    cam = camera_from_focal(960, 544, 500.0)
    box = project_world_box(cam, IDENTITY_POSE, (0.0, 0.0, 10.0), (1.0, 1.0))
    assert abs(box.x - 455.0) < 1e-9 and abs(box.y - 247.0) < 1e-9
    assert abs(box.w - 50.0) < 1e-9 and abs(box.h - 50.0) < 1e-9


def test_project_box_behind_and_subpixel():
    cam = camera_from_focal(960, 544, 500.0)
    assert project_world_box(cam, IDENTITY_POSE, (0.0, 0.0, -5.0), (1.0, 1.0)) is None
    # 1 cm at 10 m is 0.5 px: below the 1 px visibility floor
    assert project_world_box(cam, IDENTITY_POSE, (0.0, 0.0, 10.0), (0.01, 0.01)) is None


def test_project_box_not_clamped_to_border():
    cam = camera_from_focal(960, 544, 500.0)
    box = project_world_box(cam, IDENTITY_POSE, (-11.0, 0.0, 10.0), (1.0, 1.0))
    assert box is not None and box.x < 0.0


@given(st.floats(-3.0, 3.0), st.floats(-2.0, 2.0), st.floats(2.0, 50.0),
       st.floats(0.3, 4.0), st.floats(1.5, 20.0))
def test_projection_depth_invariance(x, y, z, s, k):
    # scaling a point along its view ray and its size by the same factor
    # leaves the projected box unchanged
    cam = camera_from_focal(960, 544, 500.0)
    near = project_world_box(cam, IDENTITY_POSE, (x, y, z), (s, s))
    far = project_world_box(cam, IDENTITY_POSE, (k * x, k * y, k * z), (k * s, k * s))
    if near is None or far is None:
        return
    assert np.max(np.abs(near.as_array() - far.as_array())) < 1e-9


# ---------------------------------------------------------------------------
# camera model invariants
# ---------------------------------------------------------------------------


def test_camera_model_focal_vfov_consistency():
    cam = CameraModel.from_vfov(960, 544, 1.047)
    assert abs(cam.focal - (544 / 2) / math.tan(1.047 / 2)) < 1e-9
    cam2 = camera_from_focal(960, 544, cam.focal)
    assert abs(cam2.vfov - 1.047) < 1e-12


def test_camera_model_rejects_inconsistent_intrinsics():
    with pytest.raises(ValueError):
        CameraModel(960, 544, 1.047, 500.0, 480.0, 272.0)
    with pytest.raises(ValueError):
        CameraModel.from_vfov(960, 544, 4.0)
    with pytest.raises(ValueError):
        CameraModel.from_vfov(0, 544, 1.047)


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------


def test_pitch_yaw_identity():
    assert pitch_yaw_from_rotation(np.eye(3)) == (0.0, 0.0)


def test_pitch_yaw_pure_yaw():
    pitch, yaw = pitch_yaw_from_rotation(rot_z(0.3))
    assert abs(pitch) < 1e-12 and abs(yaw - 0.3) < 1e-12


def test_pitch_yaw_pure_pitch():
    pitch, yaw = pitch_yaw_from_rotation(rot_y(-0.2))
    assert abs(pitch - (-0.2)) < 1e-12 and abs(yaw) < 1e-12


def test_pitch_yaw_gimbal_lock_raises():
    # a helper without a sim time: a bare ValueError, which the caller names
    with pytest.raises(ValueError, match="^pitch 1.57079633 within 1e-6 of gimbal lock$"):
        pitch_yaw_from_rotation(rot_y(math.pi / 2))
    with pytest.raises(ValueError, match="gimbal lock"):
        pitch_yaw_from_rotation(rot_y(-math.pi / 2 + 1e-9))


@given(st.floats(-math.pi, math.pi), st.floats(-1.4, 1.4),
       st.floats(-math.pi, math.pi))
def test_zyx_round_trip(yaw, pitch, roll):
    R = zyx_matrix(yaw, pitch, roll)
    p, y = pitch_yaw_from_rotation(R)
    assert abs(p - pitch) < 1e-9
    assert abs(wrap_angle(y - yaw)) < 1e-9


@given(st.floats(-20.0, 20.0))
def test_wrap_angle_range(a):
    w = wrap_angle(a)
    assert -math.pi < w <= math.pi
    # wrapping preserves the angle modulo 2 pi
    assert abs(math.remainder(w - a, 2.0 * math.pi)) < 1e-9


def test_wrap_angle_boundaries():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert abs(wrap_angle(3.0 * math.pi) - math.pi) < 1e-12
    assert wrap_angle(0.0) == 0.0


def test_wrap_angle_non_finite_is_nan():
    for a in (math.inf, -math.inf, math.nan):
        assert math.isnan(wrap_angle(a))


@given(st.floats(-math.pi, math.pi), st.floats(-1.4, 1.4),
       st.floats(-math.pi, math.pi))
def test_zyx_matrix_is_rotation(yaw, pitch, roll):
    assert is_rotation(zyx_matrix(yaw, pitch, roll), tol=1e-12)


def test_is_rotation_rejects_reflection_and_shape():
    M = np.diag([1.0, 1.0, -1.0])
    assert not is_rotation(M)
    assert not is_rotation(np.eye(2))


def test_nearest_rotation_projects_noisy_matrix():
    rng = np.random.default_rng(7)
    R = zyx_matrix(0.4, 0.2, -0.3)
    noisy = R + rng.normal(0.0, 1e-3, size=(3, 3))
    P = nearest_rotation(noisy)
    assert is_rotation(P, tol=1e-12)
    assert np.max(np.abs(P - R)) < 5e-3
    # already-orthonormal input is a fixed point
    assert np.max(np.abs(nearest_rotation(R) - R)) < 1e-12


def _diag_projection(M):
    U, _, Vt = np.linalg.svd(M)
    return U @ np.diag([1.0, 1.0, np.sign(np.linalg.det(U @ Vt))]) @ Vt


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["rotation", "reflection"])
def test_nearest_rotation_is_proper_and_matches_diag_formula(sign):
    rng = np.random.default_rng(11)
    for _ in range(50):
        R = zyx_matrix(*rng.uniform(-1.5, 1.5, size=3))
        M = R @ np.diag([1.0, 1.0, sign]) + rng.normal(0.0, 1e-2, size=(3, 3))
        assert np.sign(np.linalg.det(M)) == sign
        P = nearest_rotation(M)
        assert is_rotation(P, tol=1e-12)
        assert np.linalg.det(P) == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(P, _diag_projection(M))


def test_cross3_bit_identical_to_numpy():
    rng = np.random.default_rng(13)
    for scale in (1e-6, 1.0, 1e3, 1e150):
        for _ in range(100):
            a, b = rng.normal(0.0, scale, size=3), rng.normal(0.0, scale, size=3)
            assert np.array_equal(np.array(cross3(a.tolist(), b.tolist())), np.cross(a, b))
            assert np.array_equal(np.array(cross3(a, b)), np.cross(a, b))


def test_hat_vee_cross():
    w = np.array([0.3, -1.2, 2.0])
    v = np.array([1.0, 2.0, 3.0])
    assert np.allclose(hat(w) @ v, np.cross(w, v), atol=1e-15)
    assert np.allclose(vee(hat(w)), w, atol=1e-15)


@given(st.floats(-math.pi, math.pi), st.floats(-1.4, 1.4),
       st.floats(-math.pi, math.pi))
def test_quat_from_rotation_reconstructs(yaw, pitch, roll):
    R = zyx_matrix(yaw, pitch, roll)
    q = quat_from_rotation(R)
    assert abs(np.linalg.norm(q) - 1.0) < 1e-12
    assert q[0] >= 0.0
    # rebuild the rotation from the quaternion and compare
    w, x, y, z = q
    R2 = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
    assert np.max(np.abs(R2 - R)) < 1e-9


def test_quat_identity():
    assert np.allclose(quat_from_rotation(np.eye(3)), [1.0, 0.0, 0.0, 0.0])


def test_rot_xyz_against_trig():
    a = 0.37
    c, s = math.cos(a), math.sin(a)
    assert np.allclose(rot_x(a) @ [0, 1, 0], [0, c, s], atol=1e-15)
    assert np.allclose(rot_y(a) @ [0, 0, 1], [s, 0, c], atol=1e-15)
    assert np.allclose(rot_z(a) @ [1, 0, 0], [c, s, 0], atol=1e-15)
