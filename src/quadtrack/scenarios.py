"""Bundled scenario corpus: the files `scenarios/<name>.json` at the root of
the source tree, each loaded by `load_scenario`.  The files are the only
copy of each scenario; to add one, write its JSON and check that it loads
(`quadtrack scenario describe <name>`).

Each scenario's numbers are tuned so it exercises one failure mode cleanly:

  static_target        closed-loop approach to a stationary object
  corridor_approach    pursuit of a receding object past a crossing occluder
  occlusion_decoy      static camera, two pillar occlusions, one decoy timed
                       to cross the filter prediction during the long (~1 s)
                       occlusion; separates the tracker-weight rows
  sprint_7ms           pursuit of an object accelerating to 7 m/s
  rotation_only        yawing camera, static object, zero noise; isolates
                       gyro compensation in the filter prediction
  false_positive_storm static camera, heavy dropout, duplicate boxes and
                       target-sized false positives on a small image, plus
                       one displacing pillar blackout

static_target: a stationary object 10 m ahead; the vehicle closes to inside
2 m by t ~ 5.8 s under the default 0.5 m/s^2 forward-acceleration shaping.
The vertical pixel loop is a double integrator with gain f/depth and almost
no damping, so the close-range leg amplifies any altitude ring left over
from the pitch-in transient.  Two choices keep that ring small: a wide lens
(1.8 rad vertical, f ~ 216 px) halves the loop gain, and the start altitude
1.296 m is the equilibrium height for the 0.051 rad cruise pitch at 10 m
range, so the pitch-in step excites almost nothing.  The run ends at ~1.8 m
range, before the 1/depth gain blowup.

corridor_approach: the object recedes at 1 m/s down a corridor; a crossing
cart (object 1) occludes it for ~0.5 s mid-pursuit.

occlusion_decoy geometry (image coordinates, f ~ 471 px): the target crosses
at 10 m depth at ~0.85 m/s (-40 px/s, 28 px box).  Pillar A occludes ~56
frames starting t=3.5; the crossing drifts 38 px during the blackout, so a
tracker scoring only previous-box overlap reappears a full box width away
from its frozen box and never re-associates.  The return leg runs at 17 m
depth and 0.8 m higher (45 px/s), so when it sweeps back over the frozen
boxes the small, vertically offset detections stay below every acceptance
threshold.  Pillar B occludes ~59 frames starting t=7.4; the decoy (matched
28 px apparent size, depth 6 m) rises vertically at 80 px/s from below the
image through the coasting prediction point (u = 200) at t ~ 8.18, in a
column 31 px clear of the pillar-B frozen box.  With acceptance_fraction =
0.35, prediction overlap alone (3.0 weighted ~2.4) clears the (3,3,0)
threshold (2.1) and that row follows the decoy away.  The decoy crosses
0.2 s before the true object reappears (t ~ 8.38), which gives the captured
filter time to be dragged far enough above the corridor, in every seed,
that the reappearing detection stays below threshold and the row never
recovers.  Rows carrying the appearance cue need more total evidence (2.45
/ 3.5) than the decoy's spatial-plus-random-cosine score and keep coasting
until the true object reappears (first visible frame scores ~3.8 on
appearance alone, re-locking inside the 60-frame coast credit).

sprint_7ms: the object accelerates away to 7 m/s under outdoor acceleration
shaping (controller pitch_accel 2.5).

rotation_only: a static object and a camera yawing on a sine wave that
peaks at 1 rad/s, with zero noise, isolate rotation-induced image flow in
the filter.

false_positive_storm: a small image, 35% dropout, ~3 target-sized false
positives per frame, frequent duplicate boxes, and one pillar blackout (~55
frames) while the object drifts at 34 px/s.  The blackout displaces the
object a full box width, so previous-box-overlap scoring strands on its
frozen box, and the monotone drift guarantees the box is never re-crossed;
prediction or appearance carries the other rows through.  False positives
land on the coasting boxes often enough to cause transient captures, but
the score threshold keeps them within a box width of the prediction.
"""

from __future__ import annotations

from pathlib import Path

from .config import Scenario, load_scenario
from .errors import ConfigError

CORPUS = Path(__file__).resolve().parents[2] / "scenarios"


def names() -> list[str]:
    """The bundled scenario names, sorted: the corpus's file stems."""
    if not CORPUS.is_dir():
        raise ConfigError(f"bundled scenario directory not found: {CORPUS}")
    return sorted(p.stem for p in CORPUS.glob("*.json"))


def get(name: str) -> Scenario:
    """The bundled scenario `name`, loaded from its file.  Only a listed
    name is accepted, so a path-like name is refused."""
    bundled = names()
    if name not in bundled:
        raise ConfigError(f"unknown scenario {name!r}; "
                          f"bundled: {', '.join(bundled)}")
    return load_scenario(CORPUS / f"{name}.json")
