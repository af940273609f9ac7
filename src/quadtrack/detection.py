"""Synthetic object detector with controllable failure injection.

Stands in for a learned detector+embedding front end: every detectable scene
object that projects into view yields a box plus a unit-norm descriptor
derived from the object's latent appearance vector.  Failure modes are
injected on top: center/size jitter, descriptor noise, dropouts, duplicate
boxes, Poisson false positives, and occlusion suppression.

Draw discipline: for a fixed seed the generator is consumed in a fixed order
(per object: dropout, center, size, confidence, descriptor, duplicate gate
[, duplicate draws]; then false positives), *regardless* of whether a gate
suppresses the detection.  Gates therefore never shift later draws, which
keeps e.g. the occlusion threshold monotone on a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DetectorAbort
from .geometry import (BoundingBox, CameraModel, CameraPose, camera_point,
                       covered_fraction, project_box)
from .scene import ObjectState, SceneSnapshot

DESCRIPTOR_DIM = 256


@dataclass(frozen=True)
class Detection:
    """One candidate box with its appearance descriptor (unit norm)."""

    box: BoundingBox
    confidence: float
    descriptor: np.ndarray


class ObjectView(NamedTuple):
    """One detectable object as a camera frame sees it."""

    state: ObjectState
    box: BoundingBox | None   # projected box; None when it does not project
    occluded: float           # fraction of the box behind nearer occluders


@dataclass
class DetectionSet:
    """All detections of one camera frame.  May be empty (total dropout)."""

    t: float
    detections: list[Detection] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.detections)


@dataclass(frozen=True)
class GyroSample:
    """Body rates mapped into the camera frame (rad/s) at time t."""

    t: float
    w: np.ndarray  # (3,) camera-frame angular velocity


@dataclass(frozen=True)
class SyntheticDetectorConfig:
    """Noise and failure-injection settings; also the scenario's detector
    section."""

    center_noise_px: float = 2.0       # sigma of additive center jitter, px
    size_noise_frac: float = 0.05      # sigma of multiplicative w/h jitter
    feature_noise: float = 0.1         # sigma per descriptor component
    p_dropout: float = 0.05            # per-object missed-detection probability
    fp_rate: float = 0.0               # Poisson mean of false positives per frame
    p_duplicate: float = 0.0           # probability of a second box per object
    occlusion_threshold: float = 0.6   # suppress when covered fraction >= this
    descriptor_dim: int = DESCRIPTOR_DIM
    fp_size_min: float = 20.0          # false-positive box edge range, px
    fp_size_max: float = 160.0

    def __post_init__(self):
        for name in ("p_dropout", "p_duplicate", "occlusion_threshold"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        for name in ("center_noise_px", "size_noise_frac", "feature_noise", "fp_rate"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if not (0.0 < self.fp_size_min <= self.fp_size_max
                and math.isfinite(self.fp_size_max)):
            raise ValueError("false-positive sizes must satisfy 0 < fp_size_min "
                             f"<= fp_size_max < inf, got {self.fp_size_min}, "
                             f"{self.fp_size_max}")
        if self.descriptor_dim <= 0:
            raise ValueError("descriptor_dim must be positive")


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    if not math.isfinite(n):
        raise ValueError(f"descriptor norm is not finite: {n!r}")
    return v / n


def _in_image(box: BoundingBox, cam) -> bool:
    """A detector only reports objects whose box intersects the frame."""
    return (box.x < cam.width and box.x + box.w > 0.0
            and box.y < cam.height and box.y + box.h > 0.0)


class SyntheticDetector:
    """Ground-truth-derived detector.  Deterministic given (config, rng state).

    `views` holds the per-object geometry of the last frame passed to
    `detect`, so that the frame's ground truth reads the same projection."""

    def __init__(self, cfg: SyntheticDetectorConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.rng = rng
        self.views: list[ObjectView] = []

    # -- frame geometry ---------------------------------------------------

    def _frame_geometry(self, snapshot: SceneSnapshot, pose: CameraPose,
                        cam: CameraModel) -> list[ObjectView]:
        """Transform each object into the camera frame once; the camera
        point gives both the projected box and the depth.  Returns a view of
        every detectable object, in snapshot order.  Occlusion counts only
        occluder boxes strictly nearer the camera than the object.
        """
        projected = []
        occluders = []
        for st in snapshot.objects:
            pc = camera_point(pose, st.center)
            box = project_box(cam, pose, st.center, st.size, pc)
            if st.occluder:
                if box is not None:
                    occluders.append((box, pc[2]))
            else:
                projected.append((st, box, pc[2]))
        views = []
        for st, box, depth in projected:
            frac = 0.0
            if box is not None:
                nearer = [b for b, d in occluders if d < depth]
                if nearer:
                    frac = covered_fraction(box, nearer)
            views.append(ObjectView(st, box, frac))
        return views

    # -- detection --------------------------------------------------------

    def _perturbed(self, box: BoundingBox, latent: np.ndarray, t: float) -> Detection:
        cfg = self.cfg
        rng = self.rng
        dc = rng.normal(0.0, 1.0, size=2) * cfg.center_noise_px
        ds = rng.normal(0.0, 1.0, size=2) * cfg.size_noise_frac
        conf = rng.uniform(0.5, 1.0)
        noise = rng.normal(0.0, 1.0, size=cfg.descriptor_dim) * cfg.feature_noise
        w = max(1.0, box.w * (1.0 + ds[0]))
        h = max(1.0, box.h * (1.0 + ds[1]))
        # Size scales about the (jittered) center; written as offsets from the
        # clean box so zero noise reproduces it bit-exactly.
        try:
            nb = BoundingBox(box.x + dc[0] - (w - box.w) / 2.0,
                             box.y + dc[1] - (h - box.h) / 2.0, w, h)
            desc = _unit(latent + noise)
        except ValueError as e:   # noise settings that overflow the float range
            raise DetectorAbort(t, str(e)) from e
        return Detection(nb, float(conf), desc)

    def detect(self, snapshot: SceneSnapshot, pose: CameraPose, cam: CameraModel) -> DetectionSet:
        """One camera frame worth of detections, in object-id order then
        duplicates then false positives (stable order feeds stable argmax
        tie-breaking downstream).  Keeps the frame's geometry in `views`.
        A perturbed box or descriptor that is not finite raises
        DetectorAbort."""
        cfg = self.cfg
        rng = self.rng
        out: list[Detection] = []
        self.views = self._frame_geometry(snapshot, pose, cam)
        for st, box, frac in self.views:
            # Draws are consumed even for suppressed objects (see module doc).
            drop = rng.uniform() < cfg.p_dropout
            visible = (box is not None and frac < cfg.occlusion_threshold
                       and _in_image(box, cam))
            det = self._perturbed(box, st.latent, snapshot.t) if visible else self._consume_object_draws()
            dup = rng.uniform() < cfg.p_duplicate
            dup_det = None
            if dup:
                dup_det = self._perturbed(box, st.latent, snapshot.t) if visible else self._consume_object_draws()
            if visible and not drop:
                out.append(det)
                if dup_det is not None:
                    out.append(dup_det)
        k = rng.poisson(cfg.fp_rate) if cfg.fp_rate > 0 else 0
        for _ in range(int(k)):
            cx = rng.uniform(0.0, cam.width)
            cy = rng.uniform(0.0, cam.height)
            w = rng.uniform(cfg.fp_size_min, cfg.fp_size_max)
            h = rng.uniform(cfg.fp_size_min, cfg.fp_size_max)
            conf = rng.uniform(0.3, 0.9)
            desc = _unit(rng.normal(0.0, 1.0, size=cfg.descriptor_dim))
            out.append(Detection(BoundingBox(cx - w / 2, cy - h / 2, w, h), float(conf), desc))
        return DetectionSet(snapshot.t, out)

    def _consume_object_draws(self) -> None:
        """Burn exactly the draws _perturbed would take, keeping draw order
        independent of visibility gates."""
        cfg = self.cfg
        self.rng.normal(0.0, 1.0, size=2)
        self.rng.normal(0.0, 1.0, size=2)
        self.rng.uniform()
        self.rng.normal(0.0, 1.0, size=cfg.descriptor_dim)
        return None

    # -- target-conditioned descriptor query -------------------------------

    def extract_target_feature(self, snapshot: SceneSnapshot, pose: CameraPose,
                               cam: CameraModel, box: BoundingBox) -> np.ndarray:
        """Descriptor of whatever ground-truth object `box` actually covers.

        Emulates masking the frame outside `box` and re-running the embedding:
        returns a noisy descriptor of the detectable object whose true
        projected box has maximal IOU with `box` (ties to the lowest object
        id).  If the box overlaps no object the result is a uniformly random
        unit vector -- tracking a wrong box pollutes appearance memory.
        """
        from .geometry import iou as _iou

        best = None
        best_iou = 0.0
        for st, pbox, _frac in self._frame_geometry(snapshot, pose, cam):
            if pbox is None:
                continue
            v = _iou(box, pbox)
            if v > best_iou:
                best_iou = v
                best = st
        noise = self.rng.normal(0.0, 1.0, size=self.cfg.descriptor_dim)
        if best is None:
            return _unit(noise)
        return _unit(best.latent + self.cfg.feature_noise * noise)
