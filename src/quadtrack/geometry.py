"""Geometric primitives: pixel boxes, pinhole camera, SO(3) helpers.

Frame conventions used everywhere in this package:

  world   ENU, Z up, right-handed.
  body    X forward, Y left, Z up.  Attitude R is world-from-body.
  camera  Z forward (optical axis), X right, Y down.  Pixel u grows right,
          pixel v grows down, origin at the top-left image corner.

Angles follow the ZYX (yaw-pitch-roll) convention: R = Rz(yaw) Ry(pitch) Rx(roll).
With Z up this makes positive pitch tilt the nose *down* (forward axis gains a
negative Z component), which is the sign the image-space setpoint logic relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A projected point closer than this (camera Z, meters) counts as behind the lens.
MIN_VIEW_DEPTH = 1e-6


# ---------------------------------------------------------------------------
# pixel-space boxes
# ---------------------------------------------------------------------------


class BoundingBox:
    """Axis-aligned pixel box, top-left corner (x, y) plus width/height.

    Boxes may extend beyond the image bounds; only w > 0 and h > 0 are
    enforced.  Boxes are immutable by convention: value objects with
    equality, hash and repr by value, whose fields nothing assigns after
    construction.  A slotted class with a plain __init__, not a frozen
    dataclass, because every frame builds boxes and a frozen dataclass
    builds them several times slower.
    """

    __slots__ = ("x", "y", "w", "h")

    def __init__(self, x: float, y: float, w: float, h: float):
        # one sum is finite when every field is; only a non-finite (or
        # overflowed) sum or a bad extent pays for the per-field messages.
        # The sum is of Python floats, as numpy scalars warn on overflow.
        if not (math.isfinite(float(x) + float(y) + float(w) + float(h))
                and w > 0 and h > 0):
            for name, v in (("x", x), ("y", y), ("w", w), ("h", h)):
                if not math.isfinite(v):
                    raise ValueError(f"box field {name} is not finite: {v!r}")
            if w <= 0 or h <= 0:
                raise ValueError(f"box must have positive extent, got w={w} h={h}")
        self.x = x
        self.y = y
        self.w = w
        self.h = h

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.x, self.y, self.w, self.h)
                == (other.x, other.y, other.w, other.h))

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.w, self.h))

    def __repr__(self) -> str:
        return f"BoundingBox(x={self.x!r}, y={self.y!r}, w={self.w!r}, h={self.h!r})"

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)

    @property
    def area(self) -> float:
        return self.w * self.h

    @staticmethod
    def from_array(a) -> "BoundingBox":
        x, y, w, h = (float(v) for v in a)
        return BoundingBox(x, y, w, h)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two pixel boxes, in [0, 1].

    Identical boxes give exactly 1.0; disjoint or merely touching boxes give
    exactly 0.0.  Symmetric in its arguments by construction.
    """
    # field by field: BoundingBox.__eq__ builds two tuples per call, and
    # fields are finite, so this is the same test
    if a.x == b.x and a.y == b.y and a.w == b.w and a.h == b.h:
        return 1.0
    ix = max(a.x, b.x)
    iy = max(a.y, b.y)
    ix2 = min(a.x + a.w, b.x + b.w)
    iy2 = min(a.y + a.h, b.y + b.h)
    iw = ix2 - ix
    ih = iy2 - iy
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    # (x + w) - x can round past w, so cap: the true intersection never
    # exceeds either box's area, and the cap keeps the ratio inside [0, 1]
    inter = min(iw * ih, a.area, b.area)
    union = a.area + b.area - inter
    if not union < math.inf:
        # an area beyond the float range (inf - inf is NaN): the same ratio
        # with every length divided by the largest side, the product last
        # so that an inf * 0 = NaN loses to the caps
        m = max(a.w, a.h, b.w, b.h)
        sa, sb = (a.w / m) * (a.h / m), (b.w / m) * (b.h / m)
        inter = min(sa, sb, (iw / m) * (ih / m))
        union = sa + sb - inter
    return inter / union


def covered_fraction(target: BoundingBox, covers: list[BoundingBox]) -> float:
    """Fraction of `target`'s area covered by the union of `covers`.

    Exact union via coordinate compression (the cover count is tiny here, so
    the quadratic cell sweep is fine).
    """
    clipped = []
    tx2, ty2 = target.x + target.w, target.y + target.h
    for c in covers:
        x1 = max(target.x, c.x)
        y1 = max(target.y, c.y)
        x2 = min(tx2, c.x + c.w)
        y2 = min(ty2, c.y + c.h)
        if x2 > x1 and y2 > y1:
            clipped.append((x1, y1, x2, y2))
    if not clipped:
        return 0.0
    xs = sorted({v for r in clipped for v in (r[0], r[2])})
    ys = sorted({v for r in clipped for v in (r[1], r[3])})
    covered = 0.0
    for i in range(len(xs) - 1):
        cx = 0.5 * (xs[i] + xs[i + 1])
        for j in range(len(ys) - 1):
            cy = 0.5 * (ys[j] + ys[j + 1])
            if any(r[0] <= cx <= r[2] and r[1] <= cy <= r[3] for r in clipped):
                covered += (xs[i + 1] - xs[i]) * (ys[j + 1] - ys[j])
    return covered / target.area


# ---------------------------------------------------------------------------
# pinhole camera
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics.  Square pixels, no distortion.

    The vertical field of view and focal length are coupled through
    f = (H/2) / tan(vfov/2); the constructor checks the relation to 1e-9
    relative so a model can never carry inconsistent values.
    """

    width: int
    height: int
    vfov: float  # vertical field of view, rad
    focal: float  # px
    cx: float
    cy: float

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        if not 0.0 < self.vfov < math.pi:
            raise ValueError(f"vfov out of range (0, pi): {self.vfov}")
        expected = (self.height / 2.0) / math.tan(self.vfov / 2.0)
        if abs(expected - self.focal) > 1e-9 * max(1.0, abs(expected)):
            raise ValueError(
                f"inconsistent intrinsics: focal={self.focal}, "
                f"(H/2)/tan(vfov/2)={expected}"
            )

    @staticmethod
    def from_vfov(width: int, height: int, vfov: float) -> "CameraModel":
        if not 0.0 < vfov < math.pi:    # before tan(vfov / 2) can be 0
            raise ValueError(f"vfov out of range (0, pi): {vfov}")
        focal = (height / 2.0) / math.tan(vfov / 2.0)
        return CameraModel(width, height, vfov, focal, width / 2.0, height / 2.0)


class CameraPose:
    """Camera extrinsics: rotation is world-from-camera, as three rows of
    three floats, and position is the camera's world position, three
    floats.

    Immutable by convention, equal only to itself, with a repr by value;
    slotted, as `BoundingBox` is, because every camera frame reads one.
    """

    __slots__ = ("rotation", "position")

    def __init__(self, rotation, position):
        self.rotation = rotation  # three rows of three floats
        self.position = position  # three floats

    def __repr__(self) -> str:
        return f"CameraPose(rotation={self.rotation!r}, position={self.position!r})"


def camera_point(pose: CameraPose, p_world) -> tuple[float, float, float]:
    """Camera-frame (x, y, z) of a world point: R^T (p - position), on
    Python floats.

    The summation order is fixed: with d = p - position, component j is
    R[0][j]*d0 + R[1][j]*d1 + R[2][j]*d2, summed left to right, so the
    bits do not depend on the BLAS kernel (a matrix product would round as
    the kernel's dot product does, with or without FMA)."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = pose.rotation
    px, py, pz = pose.position
    x, y, z = p_world
    d0, d1, d2 = x - px, y - py, z - pz
    return (r00 * d0 + r10 * d1 + r20 * d2,
            r01 * d0 + r11 * d1 + r21 * d2,
            r02 * d0 + r12 * d1 + r22 * d2)


def project_box(cam: CameraModel, pc: tuple[float, float, float],
                size) -> BoundingBox | None:
    """Pixel bound of a camera-facing rectangle of physical extent (w, h)
    metres centered at the camera-frame point pc = (x, y, z), a
    `camera_point` (sprite model: apparent size scales as
    focal * extent / depth).

    Returns None (not visible) if the center lies behind the camera or the
    projection subtends less than one pixel in either dimension.  The result
    is *not* clamped to the image border.
    """
    x, y, z = pc
    if z <= MIN_VIEW_DEPTH:
        return None
    u = cam.focal * x / z + cam.cx
    v = cam.focal * y / z + cam.cy
    w = cam.focal * float(size[0]) / z
    h = cam.focal * float(size[1]) / z
    if w < 1.0 or h < 1.0:
        return None
    return BoundingBox(u - w / 2.0, v - h / 2.0, w, h)


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------


def rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]; a non-finite angle gives NaN, for the caller's
    finiteness check (math.fmod raises on an infinite one)."""
    if not math.isfinite(a):
        return math.nan
    w = math.fmod(a + math.pi, 2.0 * math.pi)
    if w < 0.0:
        w += 2.0 * math.pi
    w -= math.pi
    if w == -math.pi:
        w = math.pi
    return w


def pitch_yaw_from_rotation(R) -> tuple[float, float]:
    """(pitch, yaw) of a ZYX-factored rotation, given as a 3x3 array or
    its rows.

    pitch in [-pi/2, pi/2], yaw in (-pi, pi].  Raises ValueError within
    1e-6 rad of the gimbal-lock pitch +/- pi/2.
    """
    s = -float(R[2][0])
    s = max(-1.0, min(1.0, s))
    pitch = math.asin(s)
    if math.pi / 2.0 - abs(pitch) < 1e-6:
        raise ValueError(f"pitch {pitch:.8f} within 1e-6 of gimbal lock")
    yaw = math.atan2(float(R[1][0]), float(R[0][0]))
    return pitch, wrap_angle(yaw)


def nearest_rotation(M: np.ndarray) -> np.ndarray:
    """Orthogonal Procrustes projection of M onto SO(3): U diag(1, 1, d) Vt
    with d the sign of det(U Vt), formed by flipping U's last column only
    when U Vt is a reflection.  Its LAPACK SVD, and so its last bits,
    depend on the BLAS kernel; no bundled run reaches it."""
    U, _, Vt = np.linalg.svd(M)
    Q = U @ Vt
    if np.linalg.det(Q) < 0.0:
        U[:, 2] = -U[:, 2]
        Q = U @ Vt
    return Q


def cross3(a, b) -> tuple[float, float, float]:
    """a x b for two 3-vectors (any length-3 sequences).  The same products
    and differences as np.cross, so the same bits, without its per-call
    array overhead."""
    ax, ay, az = a
    bx, by, bz = b
    return (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)


def quat_from_rotation(R) -> tuple[float, float, float, float]:
    """Unit quaternion (w, x, y, z) with w >= 0 (Shepperd's method), from a
    3x3 array or its rows, as four floats."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = R
    tr = r00 + r11 + r22
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = (0.25 * s, (r21 - r12) / s, (r02 - r20) / s, (r10 - r01) / s)
    elif r00 >= r11 and r00 >= r22:   # the first largest diagonal entry
        s = math.sqrt(1.0 + r00 - r11 - r22) * 2.0
        q = ((r21 - r12) / s, 0.25 * s, (r01 + r10) / s, (r02 + r20) / s)
    elif r11 >= r22:
        s = math.sqrt(1.0 - r00 + r11 - r22) * 2.0
        q = ((r02 - r20) / s, (r01 + r10) / s, 0.25 * s, (r12 + r21) / s)
    else:
        s = math.sqrt(1.0 - r00 - r11 + r22) * 2.0
        q = ((r10 - r01) / s, (r02 + r20) / s, (r12 + r21) / s, 0.25 * s)
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if w / n < 0.0:
        n = -n
    return (w / n, x / n, y / n, z / n)
