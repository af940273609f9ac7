"""Tracking quality scores computed from tracker and ground-truth traces.

All percentages are over camera frames from the first lock onward.  Frames
where the target is unprojectable (behind the camera or degenerately small)
carry no truth box and are excluded from every numerator and denominator.

A frame counts as tracked when either
  * the tracker reports a lock and the selected box overlaps truth with
    IOU >= iou_threshold, or
  * the tracker is coasting, its dead-reckoned box still overlaps truth at
    the same threshold, and the coast streak is within coast_credit_frames.

lock_lost_at is the timestamp of the first scorable frame that fails this
test (None if tracking survives the whole run).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MetricsError
from .geometry import BoundingBox, iou

_ALIGN_TOL = 1e-6


@dataclass(frozen=True)
class MetricsParams:
    """Scoring settings; also the scenario's metrics section."""

    iou_threshold: float = 0.3
    coast_credit_frames: int = 60

    def __post_init__(self):
        if not 0.0 < self.iou_threshold <= 1.0:
            raise ValueError(f"bad iou_threshold {self.iou_threshold}, "
                             "must be in (0, 1]")
        if not self.coast_credit_frames >= 0:
            raise ValueError(f"bad coast credit {self.coast_credit_frames}, "
                             "must be >= 0")


@dataclass(frozen=True)
class Metrics:
    iou_pct: float
    overlap_pct: float
    tracked_pct: float
    lock_lost_at: float | None

    def as_dict(self) -> dict:
        return {"iou_pct": self.iou_pct, "overlap_pct": self.overlap_pct,
                "tracked_pct": self.tracked_pct, "lock_lost_at": self.lock_lost_at}


def _as_box(value) -> BoundingBox | None:
    return None if value is None else BoundingBox.from_array(value)


def _align(tracker_trace, truth_trace):
    """Pair tracker records with truth records by timestamp.

    Replayed records carry %.9g-rounded times while a live truth trace keeps
    full precision, so matching uses a small absolute tolerance.
    """
    pairs = []
    j = 0
    for rec in tracker_trace:
        t = float(rec["t"])
        while j < len(truth_trace) and float(truth_trace[j]["t"]) < t - _ALIGN_TOL:
            j += 1
        if j >= len(truth_trace) or abs(float(truth_trace[j]["t"]) - t) > _ALIGN_TOL:
            raise MetricsError(f"no ground-truth frame at t={t:.6f}")
        pairs.append((rec, truth_trace[j]))
        j += 1
    return pairs


def compute_metrics(tracker_trace, truth_trace,
                    params: MetricsParams = MetricsParams()) -> Metrics:
    if not tracker_trace:
        raise MetricsError("empty tracker trace")
    pairs = _align(tracker_trace, truth_trace)

    start = next((i for i, (rec, _) in enumerate(pairs)
                  if rec["status"] == "tracking"), None)
    if start is None:
        raise MetricsError("tracker never locked on")

    iou_sum = 0.0
    n_track = n_overlap = n_scored = n_tracked = 0
    lock_lost_at = None
    for rec, truth in pairs[start:]:
        gt = _as_box(truth["box"])
        if gt is None:
            continue
        tracking = rec["status"] == "tracking"
        if tracking:
            v = iou(_as_box(rec["box"]), gt)
            iou_sum += v
            n_track += 1
            if v > 0.0:
                n_overlap += 1
            ok = v >= params.iou_threshold
        else:
            v = iou(_as_box(rec["pred"]), gt)
            ok = (v >= params.iou_threshold
                  and rec["coast"] <= params.coast_credit_frames)
        n_scored += 1
        if ok:
            n_tracked += 1
        elif lock_lost_at is None:
            lock_lost_at = float(rec["t"])

    if n_scored == 0:
        raise MetricsError("no scorable frames (target never projectable)")
    return Metrics(
        iou_pct=100.0 * iou_sum / n_track if n_track else 0.0,
        overlap_pct=100.0 * n_overlap / n_track if n_track else 0.0,
        tracked_pct=100.0 * n_tracked / n_scored,
        lock_lost_at=lock_lost_at,
    )
