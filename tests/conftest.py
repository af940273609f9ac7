"""Shared fixtures, strategies, test-only geometry helpers, and independent
oracles.

The oracles here are deliberately written from the documented behavior, not
from the library internals: the Jacobian oracle differentiates the actual
propagation map numerically, and the trace scorer restates the tracked-frame
rule in ~20 lines with its own inline IOU.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from quadtrack.geometry import (BoundingBox, CameraModel, camera_point,
                                project_box, rot_z)
from quadtrack.tracker import EkfState, TrackerConfig, ekf_predict
from quadtrack.detection import GyroSample

settings.register_profile(
    "repo",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repo")


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

coords = st.floats(-2000.0, 2000.0, allow_nan=False, allow_infinity=False)
extents = st.floats(0.5, 1500.0, allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw) -> BoundingBox:
    return BoundingBox(draw(coords), draw(coords), draw(extents), draw(extents))


@st.composite
def unit_vectors(draw, dim: int = 8) -> np.ndarray:
    vals = draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim))
    v = np.asarray(vals, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-6:
        v = np.zeros(dim)
        v[0] = 1.0
        n = 1.0
    return v / n


# ---------------------------------------------------------------------------
# geometry helpers that only tests need
# ---------------------------------------------------------------------------


def camera_from_focal(width: int, height: int, focal: float) -> CameraModel:
    """The centred pinhole camera of focal length `focal` px."""
    vfov = 2.0 * math.atan((height / 2.0) / focal)
    return CameraModel(width, height, vfov, focal, width / 2.0, height / 2.0)


def project_world_box(cam: CameraModel, pose, center, size):
    """project_box of a sprite centered at a world point: the point's
    camera_point, projected."""
    return project_box(cam, camera_point(pose, center), size)


def rot_x(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def zyx_matrix(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """R = Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    return rot_z(yaw) @ rot_y(pitch) @ rot_x(roll)


def is_rotation(R: np.ndarray, tol: float = 1e-9) -> bool:
    R = np.asarray(R)
    if R.shape != (3, 3):
        return False
    return (np.max(np.abs(R.T @ R - np.eye(3))) < tol
            and abs(np.linalg.det(R) - 1.0) < tol)


def hat(w) -> np.ndarray:
    """Skew matrix such that hat(w) @ v == cross(w, v)."""
    wx, wy, wz = w
    return np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]])


def vee(M: np.ndarray) -> np.ndarray:
    """Inverse of hat for skew-symmetric M."""
    return np.array([M[2, 1], M[0, 2], M[1, 0]])


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def cam() -> CameraModel:
    return CameraModel.from_vfov(960, 544, 1.047)


@pytest.fixture
def small_cam() -> CameraModel:
    return CameraModel.from_vfov(320, 240, 1.047)


# ---------------------------------------------------------------------------
# oracle: numerical Jacobian of the filter's mean propagation
# ---------------------------------------------------------------------------


def fd_transition_jacobian(mean: np.ndarray, w: np.ndarray, dt: float,
                           cam: CameraModel, compensate: bool = True,
                           step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of the predict step's mean map.

    Differentiates the implementation's own propagation (with process noise
    zeroed so only the mean map is exercised); the flow terms are quadratic
    in the state, so central differences are exact up to rounding.
    """
    cfg = TrackerConfig(camera=cam, q_diag=(0.0,) * 6,
                        gyro_compensation=compensate)
    gyro = GyroSample(dt, np.asarray(w, dtype=float))

    def propagate(x):
        s = EkfState(np.asarray(x, dtype=float), np.eye(6), 0.0)
        return ekf_predict(s, gyro, cfg).mean

    J = np.zeros((6, 6))
    for j in range(6):
        hi = np.array(mean, dtype=float)
        lo = np.array(mean, dtype=float)
        hi[j] += step
        lo[j] -= step
        J[:, j] = (propagate(hi) - propagate(lo)) / (2.0 * step)
    return J


# ---------------------------------------------------------------------------
# oracle: reference trace scorer
# ---------------------------------------------------------------------------


def reference_trace_score(rows, truths, iou_threshold: float = 0.3,
                          coast_credit: int = 60):
    """Independent restatement of the frame-scoring rule.

    rows/truths are index-aligned per camera frame.  A frame is tracked when
    (tracking and iou(selected, gt) >= thr) or (coasting and
    iou(pred, gt) >= thr and coast streak <= credit); frames without a truth
    box are skipped; scoring starts at the first tracking frame.  Returns
    (iou_pct, overlap_pct, tracked_pct, lock_lost_at).
    """
    def box_iou(a, b):
        ix = max(a[0], b[0])
        iy = max(a[1], b[1])
        ix2 = min(a[0] + a[2], b[0] + b[2])
        iy2 = min(a[1] + a[3], b[1] + b[3])
        if ix2 <= ix or iy2 <= iy:
            return 0.0
        inter = (ix2 - ix) * (iy2 - iy)
        return inter / (a[2] * a[3] + b[2] * b[3] - inter)

    start = next(i for i, r in enumerate(rows) if r["status"] == "tracking")
    iou_sum = 0.0
    n_track = n_overlap = n_scored = n_tracked = 0
    lost = None
    for r, g in zip(rows[start:], truths[start:]):
        if g["box"] is None:
            continue
        n_scored += 1
        if r["status"] == "tracking":
            v = box_iou(r["box"], g["box"])
            iou_sum += v
            n_track += 1
            n_overlap += v > 0.0
            ok = v >= iou_threshold
        else:
            ok = (box_iou(r["pred"], g["box"]) >= iou_threshold
                  and r["coast"] <= coast_credit)
        n_tracked += ok
        if not ok and lost is None:
            lost = float(r["t"])
    return (100.0 * iou_sum / n_track if n_track else 0.0,
            100.0 * n_overlap / n_track if n_track else 0.0,
            100.0 * n_tracked / n_scored,
            lost)


def random_trace(rng: np.random.Generator, n_frames: int):
    """Synthesize an aligned (tracker_rows, truth_rows) pair exercising every
    branch of the scoring rule: missing truth boxes, near and far selections,
    coasting streaks crossing the credit limit."""
    rows, truths = [], []
    coast = 0
    for i in range(n_frames):
        t = i / 60.0
        gt = None
        if i == 0 or rng.uniform() < 0.85:
            gt = [rng.uniform(0, 900), rng.uniform(0, 500),
                  rng.uniform(10, 80), rng.uniform(10, 80)]
        truths.append({"t": t, "box": gt})
        anchor = gt if gt is not None else [450.0, 250.0, 40.0, 40.0]
        if i == 0 or rng.uniform() < 0.65:
            coast = 0
            if rng.uniform() < 0.7:  # near the truth box
                box = [anchor[0] + rng.normal(0, 4), anchor[1] + rng.normal(0, 4),
                       max(5.0, anchor[2] * rng.uniform(0.8, 1.2)),
                       max(5.0, anchor[3] * rng.uniform(0.8, 1.2))]
            else:
                box = [rng.uniform(0, 900), rng.uniform(0, 500),
                       rng.uniform(10, 80), rng.uniform(10, 80)]
            rows.append({"t": t, "status": "tracking", "box": box,
                         "pred": box, "coast": 0})
        else:
            coast += int(rng.integers(1, 40)) if rng.uniform() < 0.15 else 1
            if rng.uniform() < 0.6:
                pred = [anchor[0] + rng.normal(0, 6), anchor[1] + rng.normal(0, 6),
                        max(5.0, anchor[2]), max(5.0, anchor[3])]
            else:
                pred = [rng.uniform(0, 900), rng.uniform(0, 500),
                        rng.uniform(10, 80), rng.uniform(10, 80)]
            rows.append({"t": t, "status": "coasting", "box": None,
                         "pred": pred, "coast": coast})
    return rows, truths
