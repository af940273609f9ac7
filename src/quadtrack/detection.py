"""Synthetic object detector with controllable failure injection.

Stands in for a learned detector+embedding front end: every detectable scene
object that projects into view yields a box plus a unit-norm descriptor
derived from the object's latent appearance vector.  Failure modes are
injected on top: center/size jitter, descriptor noise, dropouts, duplicate
boxes, Poisson false positives, and occlusion suppression.

The sensor layer computes each camera frame's object views once
(`frame_views`) and hands them to `detect`: the detector keeps no frame state.

Draw discipline: for a fixed seed the generator is consumed in a fixed order
(per object: dropout, center, size, confidence, descriptor, duplicate gate
[, duplicate draws]; then false positives), *regardless* of whether a gate
suppresses the detection.  `_perturbed` takes an object's draws before it
looks at the visibility gates, so gates never shift later draws, which
keeps e.g. the occlusion threshold monotone on a fixed seed.

Each draw goes through the cheapest numpy call that returns the same floats
and leaves the generator in the same state as the plain form would:

  - the dropout and duplicate gates are `rng.random()`, which is
    `rng.uniform()`: uniform(low, high) is low + (high - low) * random();
  - the confidence is 0.5 + 0.5 * rng.random(), numpy's uniform(0.5, 1.0);
  - the center and size jitter are one rng.normal(0.0, 1.0, size=4), which
    fills its slots in order as two size-2 calls would.  `normal(0.0, 1.0)`
    rather than `standard_normal`: normal adds 0.0, which makes a -0.0
    draw +0.0;
  - a false positive's center, size and confidence are one rng.random(5),
    each scaled as low + (high - low) * u with uniform's bounds; its
    descriptor is a normal draw of its own.

The false-positive count stays a `poisson` draw.
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


# Every entry of a standard-normal draw is below 14 in magnitude: numpy's
# ziggurat returns r + (-log1p(-u)) / r in its tail, with r = 3.6541528853610088
# and u <= 1 - 2**-53, so at most 3.66 + 36.74 / 3.65 < 13.8; elsewhere it
# returns less than r.  A latent is unit-norm.  So with scale <= _FAST_SCALE
# every entry of latent + noise * scale is below 1 + 14e100 < 2e101, its square
# below 4e202, and a dot over any dimension that fits in memory stays far
# below the float maximum, 1.8e308: nothing can overflow, so nothing warns.
# (A bound of 1e300 is not enough: at scale 8e152 the dot overflows.)
_FAST_SCALE = 1e100


def _unit(v: np.ndarray, noise: np.ndarray | None = None,
          scale: float = 0.0, draws: bool = False) -> np.ndarray:
    """v + noise * scale (v alone without noise), normalized.

    `draws` says that v is a unit latent or a standard-normal draw and noise
    a standard-normal draw, as the detector's own are.  Then a scale up to
    _FAST_SCALE cannot overflow, and the norm is sqrt(v . v), which is how
    np.linalg.norm computes a 1-D norm: the same bits.  Any other input
    takes the guarded path: noise settings near the float range overflow
    to inf unwarned, and the ValueError names the norm."""
    if draws and scale <= _FAST_SCALE:
        if noise is not None:
            v = v + noise * scale
        n = math.sqrt(v.dot(v))
        if n == 0.0:
            raise ValueError("cannot normalize a zero vector")
        return v / n
    with np.errstate(over="ignore"):
        if noise is not None:
            v = v + noise * scale
        n = np.linalg.norm(v)
    if not math.isfinite(n) and np.isfinite(v).all():
        # finite entries above ~1e154 overflow the plain norm: scale by the
        # largest magnitude first (the normal path keeps its bits)
        v = v / np.abs(v).max()
        n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    if not math.isfinite(n):
        raise ValueError(f"descriptor norm is not finite: {float(n)!r}")
    return v / n


def _in_image(box: BoundingBox, cam) -> bool:
    """A detector only reports objects whose box intersects the frame."""
    return (box.x < cam.width and box.x + box.w > 0.0
            and box.y < cam.height and box.y + box.h > 0.0)


def frame_views(snapshot: SceneSnapshot, pose: CameraPose,
                cam: CameraModel) -> list[ObjectView]:
    """The view of every detectable object in one camera frame, in snapshot
    order.  Each object is transformed into the camera frame once; the
    camera point gives both the projected box and the depth.  Occlusion
    counts only occluder boxes strictly nearer the camera than the object.
    Draws nothing.
    """
    projected = []
    occluders = []
    for st in snapshot.objects:
        pc = camera_point(pose, st.center)
        box = project_box(cam, pc, st.size)
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


class SyntheticDetector:
    """Ground-truth-derived detector.  Deterministic given (config, rng state)."""

    def __init__(self, cfg: SyntheticDetectorConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.rng = rng

    # -- detection --------------------------------------------------------

    def _perturbed(self, box: BoundingBox | None, latent: np.ndarray, t: float,
                   visible: bool) -> Detection | None:
        """One noisy detection of `box`, or None when the object is not
        visible.  The draws (center, size, confidence, descriptor) are taken
        first, visible or not, so that a gate never shifts later draws."""
        cfg = self.cfg
        rng = self.rng
        jitter = rng.normal(0.0, 1.0, size=4)   # center x, y; size w, h
        conf = 0.5 + 0.5 * rng.random()
        noise = rng.normal(0.0, 1.0, size=cfg.descriptor_dim)
        if not visible:
            return None
        # scaled on Python floats: the same products as numpy's, but an
        # overflow is an infinity that the box check reports, not a warning
        dx, dy, sw, sh = jitter.tolist()
        dx *= cfg.center_noise_px
        dy *= cfg.center_noise_px
        sw *= cfg.size_noise_frac
        sh *= cfg.size_noise_frac
        w = max(1.0, box.w * (1.0 + sw))
        h = max(1.0, box.h * (1.0 + sh))
        # Size scales about the (jittered) center; written as offsets from the
        # clean box so zero noise reproduces it bit-exactly.
        try:
            nb = BoundingBox(box.x + dx - (w - box.w) / 2.0,
                             box.y + dy - (h - box.h) / 2.0, w, h)
            desc = _unit(latent, noise, cfg.feature_noise, draws=True)
        except ValueError as e:   # noise settings that overflow the float range
            raise DetectorAbort(t, str(e)) from e
        return Detection(nb, conf, desc)

    def detect(self, views: list[ObjectView], t: float,
               cam: CameraModel) -> DetectionSet:
        """One camera frame worth of detections at time t, from the frame's
        `frame_views`: in object-id order then duplicates then false
        positives (stable order feeds stable argmax tie-breaking
        downstream).  A perturbed box or descriptor that is not finite
        raises DetectorAbort."""
        cfg = self.cfg
        rng = self.rng
        out: list[Detection] = []
        for st, box, frac in views:
            drop = rng.random() < cfg.p_dropout
            visible = (box is not None and frac < cfg.occlusion_threshold
                       and _in_image(box, cam))
            det = self._perturbed(box, st.latent, t, visible)
            dup = (self._perturbed(box, st.latent, t, visible)
                   if rng.random() < cfg.p_duplicate else None)
            if visible and not drop:
                out.append(det)
                if dup is not None:
                    out.append(dup)
        k = rng.poisson(cfg.fp_rate) if cfg.fp_rate > 0 else 0
        # uniform's bounds, as the doubles it converts them to; a low bound
        # of 0.0 adds nothing to the non-negative product
        width, height = float(cam.width), float(cam.height)
        lo = float(cfg.fp_size_min)
        span = float(cfg.fp_size_max) - lo
        for _ in range(int(k)):
            ux, uy, uw, uh, uc = rng.random(5).tolist()
            cx = width * ux
            cy = height * uy
            w = lo + span * uw
            h = lo + span * uh
            conf = 0.3 + (0.9 - 0.3) * uc
            desc = _unit(rng.normal(0.0, 1.0, size=cfg.descriptor_dim), draws=True)
            out.append(Detection(BoundingBox(cx - w / 2, cy - h / 2, w, h), conf, desc))
        return DetectionSet(t, out)

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
        for st, pbox, _frac in frame_views(snapshot, pose, cam):
            if pbox is None:
                continue
            v = _iou(box, pbox)
            if v > best_iou:
                best_iou = v
                best = st
        noise = self.rng.normal(0.0, 1.0, size=self.cfg.descriptor_dim)
        if best is None:
            return _unit(noise, draws=True)
        return _unit(best.latent, noise, self.cfg.feature_noise, draws=True)
