"""Scripted 3-D scenes: objects with closed-form trajectories.

Objects are world-axis-aligned boxes.  The scene runs on the scenario's
objects section: `simulator.build_scene` pairs each ObjectConfig with its
latent in object-id order, and `scene_step` evaluates each object's
position on its waypoints, ObjectConfig.at(t).  Detectable objects carry a
unit "latent" appearance vector that the synthetic detector perturbs into
descriptors.  Objects flagged as occluders are scenery: they block the view
of whatever lies behind them but never emit detections themselves and carry
no latent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ObjectState:
    obj_id: int
    center: np.ndarray
    size: tuple                  # (w, h) extent, m, as the scenario gives it
    occluder: bool
    latent: np.ndarray | None


@dataclass
class SceneSnapshot:
    """World state at one instant: evaluated object poses, in object-id order."""

    t: float
    objects: list[ObjectState] = field(default_factory=list)


def scene_step(objects: list, t: float) -> SceneSnapshot:
    """Evaluate every object's position at time t.  `objects` are
    (ObjectConfig, latent) pairs in object-id order, as build_scene returns
    them; waypoint paths are closed-form, so this is random-access: any t,
    any order."""
    return SceneSnapshot(t, [
        ObjectState(o.obj_id, o.at(t), o.size, o.occluder, latent)
        for o, latent in objects
    ])
