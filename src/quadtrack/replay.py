"""Offline tracking over a recorded sensor stream.

Replay feeds the gyro/detection event stream through `Tracker.feed`, the
same dispatcher the live loop uses: gyro samples advance the filter, each
detection frame is scored and either accepted or coasted, and appearance
memory is updated from the accepted detection's own descriptor.  Replaying a
live run's in-memory event stream therefore reproduces its tracker trace
exactly.

Because the stream is replayed verbatim, every tracker configuration sees an
identical detection sequence; that is what makes weight ablations comparable
row to row.
"""

from __future__ import annotations

from .tracker import Tracker, TrackerConfig


def replay_track(events, prompt_xy, prompt_t: float,
                 cfg: TrackerConfig) -> list[dict]:
    """Run the tracker over a recorded event stream; returns the per-frame
    trace (same schema as the live loop's tracker.jsonl)."""
    tracker = Tracker(cfg)
    rows = (tracker.feed(ev, prompt_xy, prompt_t) for ev in events)
    return [row for row in rows if row is not None]
