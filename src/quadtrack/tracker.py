"""Multi-layer single-target box tracker.

Per frame the tracker picks, from the detector's candidate boxes, the one
maximizing a weighted sum of three cues (the first in list order on a tie):

  s_iou  overlap with the box accepted on the previous frame,
  s_ekf  overlap with the box predicted by a gyro-compensated
         constant-velocity Kalman filter,
  s_map  cosine similarity between the candidate's descriptor and the
         appearance memory, a running unit vector, clamped to [0, 1].

The cues carry no weights (`score`); the decision applies them
(`choose`, through `weighted_total`), so one frame's cues can be decided
again under other weights.

A frame whose best total falls below an acceptance threshold produces no
selection: the filter keeps predicting, the previous box and the memory
stay frozen, and the coast count runs until some candidate scores above
threshold again.  The tracker is coasting exactly while that count is > 0.

Filter state is x = [x, y, w, h, vx, vy] (top-left corner, size, corner
pixel velocity).  Between detections the state is propagated at gyro rate;
camera rotation enters as the rotational optical flow of the *box center* in
normalized coordinates,

    u'_rot = f (xn yn wx - (1 + xn^2) wy + yn wz)
    v'_rot = f ((1 + yn^2) wx - xn yn wy - xn wz)

with w the camera-frame angular rate, so ego-rotation does not masquerade as
target velocity.  The covariance uses the exact Jacobian of this map,
including the flow's dependence on (x, y, w, h) through the box center.

The whole filter runs on Python floats: its state carries the mean as 6
floats and the covariance as 21, its upper triangle row by row, so P is
symmetric by construction, and neither step's fast path calls numpy, so
no BLAS kernel decides a bit of it.  Both steps are written out in
straight-line code, reading p_ji for p_ij below the diagonal.  Predict
forms F P Fᵀ from F's structure (the identity but for two rows), with the
rotational flow and F's two rows inline.  Update takes its gain from a
4×4 Cholesky of the innovation covariance S and writes out the
Joseph-form covariance's upper triangle (Bucy & Joseph, Filtering for
Stochastic Processes with Applications to Guidance, 1968).  An S that the
Cholesky cannot vouch for goes to the exact gate (eigenvalues of S, then
an LU solve, through LAPACK), so every TrackerAbort on S comes from that
gate; only that degenerate path depends on the kernel.  Python floats
overflow to inf without a warning, so the finiteness check that ends each
step reports an overflow on the way.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .detection import Detection, DetectionSet, GyroSample
from .errors import TrackerAbort
from .geometry import BoundingBox, CameraModel, iou

log = logging.getLogger(__name__)

MIN_BOX_SIZE = 1.0       # px; filter mean w/h are clamped here
STALE_GYRO_DT = 0.1      # s; longer prediction gaps are flagged as stale
PROMPT_TOL = 1e-9        # s; a frame this close before the prompt time is the prompt frame
MAX_INNOVATION_COND = 1e12

DEFAULT_WEIGHTS = (3.0, 3.0, 4.0)
DEFAULT_Q_DIAG = (0.01, 0.01, 0.01, 0.01, 0.1, 0.1)
DEFAULT_R_DIAG = (0.5, 0.5, 0.5, 0.5)
DEFAULT_P0_DIAG = (10.0, 10.0, 10.0, 10.0, 100.0, 100.0)


@dataclass(frozen=True)
class TrackerWeights:
    """Cue weights (w_iou, w_ekf, w_map); the published default is (3, 3, 4)."""

    w_iou: float = DEFAULT_WEIGHTS[0]
    w_ekf: float = DEFAULT_WEIGHTS[1]
    w_map: float = DEFAULT_WEIGHTS[2]

    def __post_init__(self):
        # a NaN or infinite weight, or a total that overflows, is not finite
        if not math.isfinite(self.total):
            raise ValueError("weights and their total must be finite")
        if min(self.w_iou, self.w_ekf, self.w_map) < 0:
            raise ValueError("weights must be non-negative")
        if self.w_iou + self.w_ekf + self.w_map <= 0:
            raise ValueError("at least one weight must be positive")

    @property
    def total(self) -> float:
        return self.w_iou + self.w_ekf + self.w_map


@dataclass
class TrackerConfig:
    camera: CameraModel
    weights: TrackerWeights = field(default_factory=TrackerWeights)
    memory_alpha: float = 0.9           # memory retained per update
    acceptance_fraction: float = 0.05   # s_min = fraction * (sum of weights)
    q_diag: tuple = DEFAULT_Q_DIAG      # process noise PSD (px^2/s, px^2/s^3)
    r_diag: tuple = DEFAULT_R_DIAG      # measurement noise (px^2)
    p0_diag: tuple = DEFAULT_P0_DIAG    # initial covariance
    gyro_compensation: bool = True

    def __post_init__(self):
        if not 0.0 <= self.memory_alpha <= 1.0:
            raise ValueError("memory_alpha must be in [0, 1]")
        if self.acceptance_fraction < 0:
            raise ValueError("acceptance_fraction must be >= 0")
        for name, n in (("q_diag", 6), ("r_diag", 4), ("p0_diag", 6)):
            v = getattr(self, name)
            if len(v) != n or any(x < 0 for x in v):
                raise ValueError(f"{name} must be {n} non-negative entries")
        # the filter's noise diagonals, P0's upper triangle and the
        # acceptance threshold s_min, built once (not dataclass fields)
        self.q_floats = tuple(float(v) for v in self.q_diag)
        self.r_floats = tuple(float(v) for v in self.r_diag)
        self.p0_floats = tuple(float(self.p0_diag[i]) if i == j else 0.0
                               for i in range(6) for j in range(i, 6))
        self.s_min = self.acceptance_fraction * self.weights.total


class EkfState:
    """The filter at time t: mean x (6 floats) and covariance P (21 floats,
    its upper triangle row by row), held as Python floats between steps.
    Built from arrays as EkfState(mean, cov, t), cov 6×6 and exactly
    symmetric (a NaN mirroring a NaN), else ValueError; `mean` and `cov`
    read as new arrays, so writing to one leaves the state as it is."""

    __slots__ = ("m", "p", "t")
    _UPPER = np.triu_indices(6)     # p's order: p00…p05, p11…p15, …, p55

    def __init__(self, mean, cov, t: float):
        c = np.asarray(cov, dtype=float).reshape(6, 6)
        if not np.array_equal(c, c.T, equal_nan=True):
            raise ValueError("covariance must be exactly symmetric")
        self.m = tuple(np.asarray(mean, dtype=float).reshape(6).tolist())
        self.p = tuple(c[self._UPPER].tolist())
        self.t = t

    @property
    def mean(self) -> np.ndarray:  # (6,)
        return np.array(self.m)

    @property
    def cov(self) -> np.ndarray:   # (6,6)
        c = np.empty((6, 6))
        c[self._UPPER] = c.T[self._UPPER] = self.p
        return c


@dataclass(slots=True)
class TrackerState:
    """Filter, appearance memory (a unit vector), last accepted box, coast
    count (positive exactly while coasting) and last gyro rate."""

    ekf: EkfState
    memory: np.ndarray             # (D,), unit norm
    last_box: BoundingBox          # most recently *accepted* box
    coast_frames: int = 0
    last_gyro_w: np.ndarray = field(default_factory=lambda: np.zeros(3))


@dataclass(slots=True)
class StepResult:
    state: TrackerState
    selected: Detection | None
    scores: tuple[float, float, float, float] | None  # (s_iou, s_ekf, s_map, total)
    pred_box: BoundingBox  # prediction at frame time, before update


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def initialize(prompt_xy, dets: DetectionSet, cfg: TrackerConfig) -> TrackerState:
    """Lock onto the detection whose box center is nearest the prompt point.

    Ties keep the earliest detection in list order.  Raises TrackerAbort
    when the frame has no detections.
    """
    if not dets.detections:
        raise TrackerAbort(dets.t, "no detections at prompt time; cannot initialize")
    px, py = float(prompt_xy[0]), float(prompt_xy[1])
    chosen, best_d = dets.detections[0], math.inf
    for d in dets.detections:
        cx, cy = d.box.center
        dist = math.hypot(cx - px, cy - py)
        if dist < best_d:
            chosen, best_d = d, dist
    b = chosen.box
    state = _finite_state((b.x, b.y, b.w, b.h, 0.0, 0.0), cfg.p0_floats, dets.t, "initialize")
    norm = np.linalg.norm(chosen.descriptor)
    if norm == 0.0:
        raise TrackerAbort(dets.t, "chosen detection has a zero descriptor")
    return TrackerState(state, chosen.descriptor / norm, chosen.box)


# ---------------------------------------------------------------------------
# Kalman filter
# ---------------------------------------------------------------------------


def predict_jacobian(state: EkfState, w: np.ndarray, dt: float, cam: CameraModel,
                     compensate: bool = True) -> np.ndarray:
    """State-transition Jacobian F of one predict step: the identity but
    for rows 0 and 1, where dt and the partials (a, b, c, d) of the box
    center's rotational flow w.r.t. its normalized coordinates enter (all
    zero without gyro compensation).  This is F's one written definition;
    `ekf_predict` writes out the same entries with the same operations."""
    a = b = c = d = 0.0
    if compensate:
        f = cam.focal
        x, y, bw, bh, _, _ = state.m
        xn = (x + bw / 2.0 - cam.cx) / f
        yn = (y + bh / 2.0 - cam.cy) / f
        wx, wy, wz = w
        # d(du/f)/dxn etc.; multiplied back by f and the 1/f of d(xn)/dx
        # they become the pixel-space partials directly
        a = yn * wx - 2.0 * xn * wy
        b = xn * wx + wz
        c = -(yn * wy + wz)
        d = 2.0 * yn * wx - xn * wy
    return np.array([
        [1.0 + dt * a, dt * b, dt * a / 2.0, dt * b / 2.0, dt, 0.0],
        [dt * c, 1.0 + dt * d, dt * c / 2.0, dt * d / 2.0, 0.0, dt],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
    ])


def _finite_state(m: tuple, p: tuple, t: float, step: str) -> EkfState:
    """The state of floats m and p at t, taken as they are, or TrackerAbort
    naming the step at the filter time if an entry is NaN or infinite.
    The sum of every entry is non-finite when any entry is; only then, or
    if it overflowed, are the entries checked one by one."""
    if (not math.isfinite(sum(m) + sum(p))
            and not (all(map(math.isfinite, m)) and all(map(math.isfinite, p)))):
        raise TrackerAbort(t, f"filter mean or covariance is not finite after {step}")
    state = EkfState.__new__(EkfState)
    state.m = m
    state.p = p
    state.t = t
    return state


def ekf_predict(state: EkfState, gyro: GyroSample, cfg: TrackerConfig) -> EkfState:
    """Propagate to gyro.t under constant velocity plus rotational flow.

    dt = 0 is a no-op on the mean and adds no process noise.  A negative dt
    raises TrackerAbort; dt beyond STALE_GYRO_DT logs a warning but
    still propagates.

    Written out in straight-line code on Python floats, as the update is:
    the box center's rotational flow (du, dv) and its partials (a, b, c, d)
    (module docstring), F's rows 0 and 1, g0 = [f00 f01 f02 f03 dt 0] and
    g1 = [f10 f11 f12 f13 0 dt], with the entries and operations of
    `predict_jacobian`, then the upper triangle of F P Fᵀ + Q dt from F's
    structure: F is the identity but for those two rows, so only u0 = P g0,
    u1 = P g1 and the 2×2 corner gᵢ·uⱼ are computed; the block of rows and
    columns 2..5 is P's plus Q dt.

    Fails closed: a non-finite mean or covariance raises TrackerAbort.
    """
    t = gyro.t
    dt = t - state.t
    if dt < 0.0:
        raise TrackerAbort(t, f"gyro sample precedes the filter state ({state.t!r} s)")
    if dt > STALE_GYRO_DT:
        log.warning("stale gyro: dt=%.4f s exceeds %.2f s, propagating anyway",
                    dt, STALE_GYRO_DT)
    x, y, bw, bh, vx, vy = state.m
    if cfg.gyro_compensation:
        cam = cfg.camera
        f = cam.focal
        xn = (x + bw / 2.0 - cam.cx) / f
        yn = (y + bh / 2.0 - cam.cy) / f
        wx, wy, wz = gyro.w.tolist()
        du = f * (xn * yn * wx - (1.0 + xn * xn) * wy + yn * wz)
        dv = f * ((1.0 + yn * yn) * wx - xn * yn * wy - xn * wz)
        a = yn * wx - 2.0 * xn * wy
        b = xn * wx + wz
        c = -(yn * wy + wz)
        d = 2.0 * yn * wx - xn * wy
    else:
        du = dv = a = b = c = d = 0.0
    f00 = 1.0 + dt * a
    f01 = dt * b
    f02 = dt * a / 2.0
    f03 = dt * b / 2.0
    f10 = dt * c
    f11 = 1.0 + dt * d
    f12 = dt * c / 2.0
    f13 = dt * d / 2.0
    (p00, p01, p02, p03, p04, p05, p11, p12, p13, p14, p15,
     p22, p23, p24, p25, p33, p34, p35, p44, p45, p55) = state.p
    # u0 = P g0, u1 = P g1
    u00 = p00 * f00 + p01 * f01 + p02 * f02 + p03 * f03 + p04 * dt
    u01 = p01 * f00 + p11 * f01 + p12 * f02 + p13 * f03 + p14 * dt
    u02 = p02 * f00 + p12 * f01 + p22 * f02 + p23 * f03 + p24 * dt
    u03 = p03 * f00 + p13 * f01 + p23 * f02 + p33 * f03 + p34 * dt
    u04 = p04 * f00 + p14 * f01 + p24 * f02 + p34 * f03 + p44 * dt
    u05 = p05 * f00 + p15 * f01 + p25 * f02 + p35 * f03 + p45 * dt
    u10 = p00 * f10 + p01 * f11 + p02 * f12 + p03 * f13 + p05 * dt
    u11 = p01 * f10 + p11 * f11 + p12 * f12 + p13 * f13 + p15 * dt
    u12 = p02 * f10 + p12 * f11 + p22 * f12 + p23 * f13 + p25 * dt
    u13 = p03 * f10 + p13 * f11 + p23 * f12 + p33 * f13 + p35 * dt
    u14 = p04 * f10 + p14 * f11 + p24 * f12 + p34 * f13 + p45 * dt
    u15 = p05 * f10 + p15 * f11 + p25 * f12 + p35 * f13 + p55 * dt
    q0, q1, q2, q3, q4, q5 = cfg.q_floats
    # the 2×2 corner gᵢ·uⱼ, plus Q dt on its diagonal
    c00 = f00 * u00 + f01 * u01 + f02 * u02 + f03 * u03 + dt * u04 + q0 * dt
    c01 = f00 * u10 + f01 * u11 + f02 * u12 + f03 * u13 + dt * u14
    c11 = f10 * u10 + f11 * u11 + f12 * u12 + f13 * u13 + dt * u15 + q1 * dt
    p22 += q2 * dt
    p33 += q3 * dt
    p44 += q4 * dt
    p55 += q5 * dt
    return _finite_state((x + (vx + du) * dt, y + (vy + dv) * dt,
                          max(MIN_BOX_SIZE, bw), max(MIN_BOX_SIZE, bh), vx, vy),
                         (c00, c01, u02, u03, u04, u05, c11, u12, u13, u14, u15,
                          p22, p23, p24, p25, p33, p34, p35, p44, p45, p55),
                         t, "predict")


def _innovation_gain(p: tuple, r: tuple) -> tuple | None:
    """K = P[:, :4] S⁻¹ for S = P[:4, :4] + diag(r), on Python floats, as
    24 floats (K row-major, 6×4), from the covariance P as 21 floats, the
    upper triangle: a Cholesky factor S = L Lᵀ, S⁻¹ = L⁻ᵀ L⁻¹ and the
    product written out; None when this fast path cannot vouch for S.

    It vouches only when every pivot is > 0 (so not NaN) and
    trace(S)·trace(S⁻¹), which is at least κ₂(S), is at most
    MAX_INNOVATION_COND / 2.  Both traces are sums of positive terms
    (trace(S⁻¹) is the squared Frobenius norm of L⁻¹), and the computed
    factor is the exact one of S + ΔS with ‖ΔS‖ ≤ c u ‖S‖, so rounding
    cannot shrink the bound by anything near the factor 2 kept in hand: an S
    the exact gate (_exact_gain) would reject is never accepted here
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, §10.1,
    §14.2).
    """
    (p00, p01, p02, p03, p04, p05, p11, p12, p13, p14, p15,
     p22, p23, p24, p25, p33, p34, p35, _, _, _) = p
    r0, r1, r2, r3 = r
    s00 = p00 + r0
    s11 = p11 + r1
    s22 = p22 + r2
    s33 = p33 + r3
    if not s00 > 0.0:
        return None
    l00 = math.sqrt(s00)
    l10 = p01 / l00
    l20 = p02 / l00
    l30 = p03 / l00
    d = s11 - l10 * l10
    if not d > 0.0:
        return None
    l11 = math.sqrt(d)
    l21 = (p12 - l20 * l10) / l11
    l31 = (p13 - l30 * l10) / l11
    d = s22 - l20 * l20 - l21 * l21
    if not d > 0.0:
        return None
    l22 = math.sqrt(d)
    l32 = (p23 - l30 * l20 - l31 * l21) / l22
    d = s33 - l30 * l30 - l31 * l31 - l32 * l32
    if not d > 0.0:
        return None
    l33 = math.sqrt(d)
    # M = L⁻¹, lower triangular, by forward substitution
    m00 = 1.0 / l00
    m11 = 1.0 / l11
    m22 = 1.0 / l22
    m33 = 1.0 / l33
    m10 = -l10 * m00 * m11
    m21 = -l21 * m11 * m22
    m20 = -(l20 * m00 + l21 * m10) * m22
    m32 = -l32 * m22 * m33
    m31 = -(l31 * m11 + l32 * m21) * m33
    m30 = -(l30 * m00 + l31 * m10 + l32 * m20) * m33
    # S⁻¹ = Mᵀ M, symmetric: iᵢⱼ for i ≤ j
    i00 = m00 * m00 + m10 * m10 + m20 * m20 + m30 * m30
    i11 = m11 * m11 + m21 * m21 + m31 * m31
    i22 = m22 * m22 + m32 * m32
    i33 = m33 * m33
    if not ((s00 + s11 + s22 + s33) * (i00 + i11 + i22 + i33)
            <= MAX_INNOVATION_COND / 2.0):
        return None
    i01 = m10 * m11 + m20 * m21 + m30 * m31
    i02 = m20 * m22 + m30 * m32
    i03 = m30 * m33
    i12 = m21 * m22 + m31 * m32
    i13 = m31 * m33
    i23 = m32 * m33
    return (p00 * i00 + p01 * i01 + p02 * i02 + p03 * i03,
            p00 * i01 + p01 * i11 + p02 * i12 + p03 * i13,
            p00 * i02 + p01 * i12 + p02 * i22 + p03 * i23,
            p00 * i03 + p01 * i13 + p02 * i23 + p03 * i33,
            p01 * i00 + p11 * i01 + p12 * i02 + p13 * i03,
            p01 * i01 + p11 * i11 + p12 * i12 + p13 * i13,
            p01 * i02 + p11 * i12 + p12 * i22 + p13 * i23,
            p01 * i03 + p11 * i13 + p12 * i23 + p13 * i33,
            p02 * i00 + p12 * i01 + p22 * i02 + p23 * i03,
            p02 * i01 + p12 * i11 + p22 * i12 + p23 * i13,
            p02 * i02 + p12 * i12 + p22 * i22 + p23 * i23,
            p02 * i03 + p12 * i13 + p22 * i23 + p23 * i33,
            p03 * i00 + p13 * i01 + p23 * i02 + p33 * i03,
            p03 * i01 + p13 * i11 + p23 * i12 + p33 * i13,
            p03 * i02 + p13 * i12 + p23 * i22 + p33 * i23,
            p03 * i03 + p13 * i13 + p23 * i23 + p33 * i33,
            p04 * i00 + p14 * i01 + p24 * i02 + p34 * i03,
            p04 * i01 + p14 * i11 + p24 * i12 + p34 * i13,
            p04 * i02 + p14 * i12 + p24 * i22 + p34 * i23,
            p04 * i03 + p14 * i13 + p24 * i23 + p34 * i33,
            p05 * i00 + p15 * i01 + p25 * i02 + p35 * i03,
            p05 * i01 + p15 * i11 + p25 * i12 + p35 * i13,
            p05 * i02 + p15 * i12 + p25 * i22 + p35 * i23,
            p05 * i03 + p15 * i13 + p25 * i23 + p35 * i33)


def _exact_gain(P: np.ndarray, cfg: TrackerConfig, t: float) -> np.ndarray:
    """K = P[:, :4] S⁻¹ by LU solve, behind the exact gate on S: raises
    TrackerAbort at filter time t when S is not finite, not positive
    definite, or has condition number above MAX_INNOVATION_COND.  LAPACK
    does the work, so this path, and only this one, depends on the BLAS
    kernel; only an S the Cholesky fast path declines reaches it, and no
    bundled run does."""
    S = P[:4, :4] + np.diag(cfg.r_floats)
    if not np.isfinite(S).all():
        raise TrackerAbort(t, "innovation covariance is not finite")
    # ascending, read from S's lower triangle; compared as Python floats,
    # which overflow to inf without a warning
    ev = np.linalg.eigvalsh(S).tolist()
    if not ev[0] > 0.0:
        raise TrackerAbort(t, "innovation covariance is not positive definite")
    if ev[-1] > MAX_INNOVATION_COND * ev[0]:
        raise TrackerAbort(t, "innovation covariance condition number exceeds "
                              f"{MAX_INNOVATION_COND:g}")
    return np.linalg.solve(S.T, P[:, :4].T).T


def ekf_update(state: EkfState, box: BoundingBox, cfg: TrackerConfig) -> EkfState:
    """Measurement update with z = [x, y, w, h] (Joseph-form covariance),
    on Python floats.

    H = [I4 0] selects the box from the state, so each product with H is a
    selection: S = H P Hᵀ + R is P[:4, :4] + R, P Hᵀ is P[:, :4], H x is
    x[:4], and I − K H is the identity with K subtracted from its first four
    columns.  With R = diag(r), the Joseph form (I − KH) P (I − KH)ᵀ + K R Kᵀ
    is, with M = (I − KH) P = P − K P[:4],

        P⁺ = M + (K R − M[:, :4]) Kᵀ,

    written out here in straight-line code: M's first four columns and its
    upper triangle, G = K R − M[:, :4], then P⁺'s upper triangle, the 21
    floats of the new state.

    The gain K = P Hᵀ S⁻¹ comes from a 4×4 Cholesky of S (_innovation_gain).
    When that fast path cannot vouch for S (a pivot not > 0, or a condition
    bound above MAX_INNOVATION_COND / 2), S goes to the exact gate
    (_exact_gain: eigenvalues, then an LU solve), whose K takes the same
    written-out update.

    Fails closed: an innovation covariance S that is not finite, not
    positive definite, or has condition number above MAX_INNOVATION_COND
    raises TrackerAbort, and so does a non-finite updated mean or
    covariance.  An overflow on the way is an inf (Python floats raise no
    warning) that the final check reports.
    """
    K = _innovation_gain(state.p, cfg.r_floats)
    if K is None:
        K = _exact_gain(state.cov, cfg, state.t).ravel().tolist()
    (k00, k01, k02, k03, k10, k11, k12, k13, k20, k21, k22, k23,
     k30, k31, k32, k33, k40, k41, k42, k43, k50, k51, k52, k53) = K
    (p00, p01, p02, p03, p04, p05, p11, p12, p13, p14, p15,
     p22, p23, p24, p25, p33, p34, p35, p44, p45, p55) = state.p
    r0, r1, r2, r3 = cfg.r_floats
    x0, x1, x2, x3, x4, x5 = state.m
    n0 = box.x - x0
    n1 = box.y - x1
    n2 = box.w - x2
    n3 = box.h - x3
    mean = (x0 + (k00 * n0 + k01 * n1 + k02 * n2 + k03 * n3),
            x1 + (k10 * n0 + k11 * n1 + k12 * n2 + k13 * n3),
            max(MIN_BOX_SIZE, x2 + (k20 * n0 + k21 * n1 + k22 * n2 + k23 * n3)),
            max(MIN_BOX_SIZE, x3 + (k30 * n0 + k31 * n1 + k32 * n2 + k33 * n3)),
            x4 + (k40 * n0 + k41 * n1 + k42 * n2 + k43 * n3),
            x5 + (k50 * n0 + k51 * n1 + k52 * n2 + k53 * n3))
    # M = P − K P[:4]: columns 0..3, and the upper triangle of columns 4, 5
    m00 = p00 - (k00 * p00 + k01 * p01 + k02 * p02 + k03 * p03)
    m01 = p01 - (k00 * p01 + k01 * p11 + k02 * p12 + k03 * p13)
    m02 = p02 - (k00 * p02 + k01 * p12 + k02 * p22 + k03 * p23)
    m03 = p03 - (k00 * p03 + k01 * p13 + k02 * p23 + k03 * p33)
    m04 = p04 - (k00 * p04 + k01 * p14 + k02 * p24 + k03 * p34)
    m05 = p05 - (k00 * p05 + k01 * p15 + k02 * p25 + k03 * p35)
    m10 = p01 - (k10 * p00 + k11 * p01 + k12 * p02 + k13 * p03)
    m11 = p11 - (k10 * p01 + k11 * p11 + k12 * p12 + k13 * p13)
    m12 = p12 - (k10 * p02 + k11 * p12 + k12 * p22 + k13 * p23)
    m13 = p13 - (k10 * p03 + k11 * p13 + k12 * p23 + k13 * p33)
    m14 = p14 - (k10 * p04 + k11 * p14 + k12 * p24 + k13 * p34)
    m15 = p15 - (k10 * p05 + k11 * p15 + k12 * p25 + k13 * p35)
    m20 = p02 - (k20 * p00 + k21 * p01 + k22 * p02 + k23 * p03)
    m21 = p12 - (k20 * p01 + k21 * p11 + k22 * p12 + k23 * p13)
    m22 = p22 - (k20 * p02 + k21 * p12 + k22 * p22 + k23 * p23)
    m23 = p23 - (k20 * p03 + k21 * p13 + k22 * p23 + k23 * p33)
    m24 = p24 - (k20 * p04 + k21 * p14 + k22 * p24 + k23 * p34)
    m25 = p25 - (k20 * p05 + k21 * p15 + k22 * p25 + k23 * p35)
    m30 = p03 - (k30 * p00 + k31 * p01 + k32 * p02 + k33 * p03)
    m31 = p13 - (k30 * p01 + k31 * p11 + k32 * p12 + k33 * p13)
    m32 = p23 - (k30 * p02 + k31 * p12 + k32 * p22 + k33 * p23)
    m33 = p33 - (k30 * p03 + k31 * p13 + k32 * p23 + k33 * p33)
    m34 = p34 - (k30 * p04 + k31 * p14 + k32 * p24 + k33 * p34)
    m35 = p35 - (k30 * p05 + k31 * p15 + k32 * p25 + k33 * p35)
    m40 = p04 - (k40 * p00 + k41 * p01 + k42 * p02 + k43 * p03)
    m41 = p14 - (k40 * p01 + k41 * p11 + k42 * p12 + k43 * p13)
    m42 = p24 - (k40 * p02 + k41 * p12 + k42 * p22 + k43 * p23)
    m43 = p34 - (k40 * p03 + k41 * p13 + k42 * p23 + k43 * p33)
    m44 = p44 - (k40 * p04 + k41 * p14 + k42 * p24 + k43 * p34)
    m45 = p45 - (k40 * p05 + k41 * p15 + k42 * p25 + k43 * p35)
    m50 = p05 - (k50 * p00 + k51 * p01 + k52 * p02 + k53 * p03)
    m51 = p15 - (k50 * p01 + k51 * p11 + k52 * p12 + k53 * p13)
    m52 = p25 - (k50 * p02 + k51 * p12 + k52 * p22 + k53 * p23)
    m53 = p35 - (k50 * p03 + k51 * p13 + k52 * p23 + k53 * p33)
    m55 = p55 - (k50 * p05 + k51 * p15 + k52 * p25 + k53 * p35)
    # G = K R − M[:, :4]
    g00 = k00 * r0 - m00
    g01 = k01 * r1 - m01
    g02 = k02 * r2 - m02
    g03 = k03 * r3 - m03
    g10 = k10 * r0 - m10
    g11 = k11 * r1 - m11
    g12 = k12 * r2 - m12
    g13 = k13 * r3 - m13
    g20 = k20 * r0 - m20
    g21 = k21 * r1 - m21
    g22 = k22 * r2 - m22
    g23 = k23 * r3 - m23
    g30 = k30 * r0 - m30
    g31 = k31 * r1 - m31
    g32 = k32 * r2 - m32
    g33 = k33 * r3 - m33
    g40 = k40 * r0 - m40
    g41 = k41 * r1 - m41
    g42 = k42 * r2 - m42
    g43 = k43 * r3 - m43
    g50 = k50 * r0 - m50
    g51 = k51 * r1 - m51
    g52 = k52 * r2 - m52
    g53 = k53 * r3 - m53
    # P⁺ = M + G Kᵀ, upper triangle
    c00 = m00 + (g00 * k00 + g01 * k01 + g02 * k02 + g03 * k03)
    c01 = m01 + (g00 * k10 + g01 * k11 + g02 * k12 + g03 * k13)
    c02 = m02 + (g00 * k20 + g01 * k21 + g02 * k22 + g03 * k23)
    c03 = m03 + (g00 * k30 + g01 * k31 + g02 * k32 + g03 * k33)
    c04 = m04 + (g00 * k40 + g01 * k41 + g02 * k42 + g03 * k43)
    c05 = m05 + (g00 * k50 + g01 * k51 + g02 * k52 + g03 * k53)
    c11 = m11 + (g10 * k10 + g11 * k11 + g12 * k12 + g13 * k13)
    c12 = m12 + (g10 * k20 + g11 * k21 + g12 * k22 + g13 * k23)
    c13 = m13 + (g10 * k30 + g11 * k31 + g12 * k32 + g13 * k33)
    c14 = m14 + (g10 * k40 + g11 * k41 + g12 * k42 + g13 * k43)
    c15 = m15 + (g10 * k50 + g11 * k51 + g12 * k52 + g13 * k53)
    c22 = m22 + (g20 * k20 + g21 * k21 + g22 * k22 + g23 * k23)
    c23 = m23 + (g20 * k30 + g21 * k31 + g22 * k32 + g23 * k33)
    c24 = m24 + (g20 * k40 + g21 * k41 + g22 * k42 + g23 * k43)
    c25 = m25 + (g20 * k50 + g21 * k51 + g22 * k52 + g23 * k53)
    c33 = m33 + (g30 * k30 + g31 * k31 + g32 * k32 + g33 * k33)
    c34 = m34 + (g30 * k40 + g31 * k41 + g32 * k42 + g33 * k43)
    c35 = m35 + (g30 * k50 + g31 * k51 + g32 * k52 + g33 * k53)
    c44 = m44 + (g40 * k40 + g41 * k41 + g42 * k42 + g43 * k43)
    c45 = m45 + (g40 * k50 + g41 * k51 + g42 * k52 + g43 * k53)
    c55 = m55 + (g50 * k50 + g51 * k51 + g52 * k52 + g53 * k53)
    return _finite_state(mean, (c00, c01, c02, c03, c04, c05, c11, c12, c13, c14, c15,
                                c22, c23, c24, c25, c33, c34, c35, c44, c45, c55),
                         state.t, "update")


def at_prompt(t: float, prompt_t: float) -> bool:
    """Whether a frame at t is the prompt frame (the first such) or later."""
    return t >= prompt_t - PROMPT_TOL


def predicted_box(state: EkfState) -> BoundingBox:
    # Python floats: the box's area and overlaps overflow to inf, unwarned
    m = state.m
    return BoundingBox(m[0], m[1], max(MIN_BOX_SIZE, m[2]), max(MIN_BOX_SIZE, m[3]))


# ---------------------------------------------------------------------------
# scoring and per-frame step
# ---------------------------------------------------------------------------


def cosine_score(memory: np.ndarray, descriptor: np.ndarray) -> float:
    """Cosine similarity clamped to [0, 1]; zero-norm descriptors score 0."""
    # sqrt(x . x) is how np.linalg.norm computes a 1-D norm: the same bits
    n = math.sqrt(descriptor.dot(descriptor)) * math.sqrt(memory.dot(memory))
    if n == 0.0:
        return 0.0
    c = float(memory.dot(descriptor) / n)
    return min(1.0, max(0.0, c))


def weighted_total(weights: TrackerWeights, s_iou: float, s_ekf: float,
                   s_map: float) -> float:
    """A candidate's total under `weights`: the one place the weights meet
    the cues."""
    return weights.w_iou * s_iou + weights.w_ekf * s_ekf + weights.w_map * s_map


def score(det: Detection, state: TrackerState,
          pred: BoundingBox) -> tuple[float, float, float]:
    """The weight-free cues (s_iou, s_ekf, s_map) of one candidate.  `pred`
    is the filter's predicted box at the frame time."""
    return (iou(state.last_box, det.box), iou(pred, det.box),
            cosine_score(state.memory, det.descriptor))


def choose(cues, weights: TrackerWeights, s_min: float) -> int | None:
    """A frame's decision from its candidates' cues, in candidate order:
    the index of the first candidate with the highest `weighted_total`, or
    None when the frame coasts, that is when it has no candidate or that
    total is below s_min.  `step` decides every frame by this rule, and
    the ablation applies it, with each row's weights, to the live run's
    recorded cues."""
    best = best_total = None
    for k, (s_iou, s_ekf, s_map) in enumerate(cues):
        total = weighted_total(weights, s_iou, s_ekf, s_map)
        if best is None or total > best_total:
            best, best_total = k, total
    if best is None or best_total < s_min:
        return None
    return best


def update_memory(memory: np.ndarray, feature: np.ndarray, alpha: float) -> np.ndarray:
    """Complementary blend, retaining `alpha` of the memory, then
    re-normalize.

    alpha = 1 freezes the memory; alpha = 0 replaces it.  A numerically
    cancelled blend (norm ~ 0) keeps the previous memory rather than emit a
    zero vector.
    """
    # the blend's own new array takes the sum and the division in place:
    # the same elementwise operations, so the same bits
    blended = alpha * memory
    blended += (1.0 - alpha) * feature
    n = math.sqrt(blended.dot(blended))  # np.linalg.norm's 1-D form: same bits
    if n < 1e-12:
        log.warning("appearance blend cancelled to zero norm; memory kept")
        return memory
    blended /= n
    return blended


def step(state: TrackerState, dets: DetectionSet, cfg: TrackerConfig,
         scores: list | None = None) -> StepResult:
    """Consume one detection frame.

    The filter must have been predicted up to dets.t; if the caller left a
    gap (detections between gyro ticks) it is filled here by zero-order-hold
    on the last seen gyro rate.  Each candidate's cues are computed once,
    with no weights, and `choose` decides the frame by cfg's weights and
    s_min.  On acceptance: Kalman update with the selected box, memory
    blended with the detection's own descriptor at cfg.memory_alpha, coast
    count reset to 0, and `scores` of the result the chosen cues and their
    weighted total.  Otherwise the frame coasts: the count goes up by one
    and the memory and last box stay.  When `scores` is a list, the frame's
    list of candidate cues is appended to it.
    """
    ekf = state.ekf
    if dets.t < ekf.t - 1e-12:
        raise TrackerAbort(dets.t, f"detections precede the filter state ({ekf.t!r} s)")
    if dets.t > ekf.t:
        ekf = ekf_predict(ekf, GyroSample(dets.t, state.last_gyro_w), cfg)

    pred = predicted_box(ekf)
    cues = [score(d, state, pred) for d in dets.detections]
    if scores is not None:
        scores.append(cues)
    k = choose(cues, cfg.weights, cfg.s_min)

    if k is None:
        new_state = TrackerState(ekf, state.memory, state.last_box,
                                 state.coast_frames + 1, state.last_gyro_w)
        return StepResult(new_state, None, None, pred)

    det, s = dets.detections[k], cues[k]
    ekf = ekf_update(ekf, det.box, cfg)
    memory = update_memory(state.memory, det.descriptor, cfg.memory_alpha)
    new_state = TrackerState(ekf, memory, det.box, 0, state.last_gyro_w)
    return StepResult(new_state, det, (*s, weighted_total(cfg.weights, *s)), pred)


# ---------------------------------------------------------------------------
# stateful convenience wrapper
# ---------------------------------------------------------------------------


class Tracker:
    """Holds TrackerState across the gyro/detection event stream.  Given a
    list as `scores`, it appends each stepped frame's list of candidate cues
    there (the live run keeps them for the ablation)."""

    def __init__(self, cfg: TrackerConfig, scores: list | None = None):
        self.cfg = cfg
        self.scores = scores
        self.state: TrackerState | None = None

    @property
    def initialized(self) -> bool:
        return self.state is not None

    def initialize(self, prompt_xy, dets: DetectionSet) -> None:
        self.state = initialize(prompt_xy, dets, self.cfg)

    def predict(self, gyro: GyroSample) -> None:
        if self.state is None:
            raise TrackerAbort(gyro.t, "predict before initialize")
        self.state.ekf = ekf_predict(self.state.ekf, gyro, self.cfg)
        self.state.last_gyro_w = gyro.w

    def step(self, dets: DetectionSet) -> StepResult:
        if self.state is None:
            raise TrackerAbort(dets.t, "step before initialize")
        res = step(self.state, dets, self.cfg, self.scores)
        self.state = res.state
        return res

    def feed(self, ev, prompt_xy, prompt_t: float) -> dict | None:
        """Consume one stream event; the one dispatcher for live runs and replay.

        A GyroSample advances an initialized filter.  The first DetectionSet
        at or after prompt_t initializes at prompt_xy; later ones are
        stepped.  Returns the frame's trace row, or None for gyro samples
        and frames before the prompt.
        """
        if isinstance(ev, GyroSample):
            if self.state is not None:
                self.predict(ev)
            return None
        if not isinstance(ev, DetectionSet):
            raise TypeError(f"unexpected event type {type(ev).__name__}")
        if self.state is not None:
            res = self.step(ev)
        elif not at_prompt(ev.t, prompt_t):
            return None
        else:
            # the initialization frame counts as a lock, unscored, with the
            # locked box as its prediction
            self.initialize(prompt_xy, ev)
            res = StepResult(self.state, None, None, self.state.last_box)
        return self.trace_record(res, ev.t)

    def trace_record(self, res: StepResult, t: float) -> dict:
        """Per-frame trace row (fixed field order for byte-stable logs).

        "status" is "coasting" while the coast count is positive, and "box"
        is the box locked on this frame (none while coasting).  "pred" is
        the filter's box *before* the frame's update -- the prediction that
        scored the candidates -- while "mean" is the post-update state.
        Boxes are (x, y, w, h) tuples and "mean" is the filter's own tuple
        of six floats, as the log writer takes them in one pass.
        """
        st = self.state
        coasting = st.coast_frames > 0
        b, p = st.last_box, res.pred_box
        return {
            "t": t,
            "status": "coasting" if coasting else "tracking",
            "box": None if coasting else (b.x, b.y, b.w, b.h),
            "s_iou": None if res.scores is None else res.scores[0],
            "s_ekf": None if res.scores is None else res.scores[1],
            "s_map": None if res.scores is None else res.scores[2],
            "s_total": None if res.scores is None else res.scores[3],
            "pred": (p.x, p.y, p.w, p.h),
            "mean": st.ekf.m,
            "coast": st.coast_frames,
        }
