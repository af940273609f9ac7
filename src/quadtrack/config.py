"""Scenario schema: typed dataclasses with strict JSON (de)serialization.

The dataclass fields are the file format, in both directions.  One loader
(_build) walks a section's declared fields: an unknown key, a missing
required key, or a value that is not of its field's declared type is a
ConfigError with a dotted path to the field (`scenario.<path>: expected
<kind>, got <value>`).  A float is a finite real number and an int an
integer (a bool is neither), a bool is JSON true or false, a tuple is a
list of finite numbers or of such lists, a section is an object, and
`objects` is a list of objects; a NaN or infinity anywhere is
`scenario.<path>: every number must be finite`.  Each section's own range
and shape checks run after that, so no layer sees a value of a type it was
not written for.  One dumper (Scenario.to_dict) walks the same fields, so
a scenario survives save -> load -> save byte-identically, and
scenario_hash gives a stable content address used in run summaries.

One error rule: a section, like the layer types, raises a plain ValueError
with a bare message when it is built directly in Python, and the loader
alone turns it into a ConfigError naming the value's path
(`scenario.objects[2]: waypoint times must be strictly increasing`).
Only _build, _value and load_scenario raise ConfigError.  Every outside
value enters here: the CLI sets a flag's value at its path in
Scenario.to_dict() and reloads it with Scenario.from_dict.

The detector, metrics, quad and objects sections are the types their
layers run on (SyntheticDetectorConfig, MetricsParams, QuadConfig, which
builds its mixer geometry, and ObjectConfig, whose at(t) gives the
object's position on its waypoints).  The camera, tracker and controller
sections build their layer's type (CameraConfig.build, TrackerParams.build,
ControllerParams.build), and the camera and tracker sections build it once
on construction, so the layer's own checks are theirs.  The tracker and
controller sections, and the quad's mass and mixer, take their defaults
from the layer types, so each default number is written once.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import sys
from dataclasses import (MISSING, asdict, dataclass, field, fields,
                         is_dataclass, replace)
from functools import cache, cached_property
from typing import get_args, get_origin, get_type_hints

from .controller import (DERIV_TAU, AttitudeGains, ControllerGains,
                         MixerGeometry, VisualController)
from .detection import SyntheticDetectorConfig
from .errors import ConfigError
from .geometry import CameraModel
from .metrics import MetricsParams
from .tracker import DEFAULT_WEIGHTS, TrackerConfig, TrackerWeights

SCHEMA_VERSION = 1

_KINDS = {float: "a number", int: "an integer", bool: "true or false",
          str: "a string", tuple: "a list of numbers"}


@cache
def _schema(cls) -> tuple:
    """(name, declared type, required) for each field of cls, in order."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name],
                  f.default is MISSING and f.default_factory is MISSING)
                 for f in fields(cls))


def _build(cls, d, ctx: str):
    """cls from the JSON object d by its declared fields: an unknown key, a
    missing required key, a value not of its field's type (_value) or one
    that cls's own checks reject is a ConfigError naming the field."""
    if not isinstance(d, dict):
        raise ConfigError(f"{ctx}: expected an object, got {d!r}")
    schema = _schema(cls)
    unknown = set(d) - {name for name, _, _ in schema}
    if unknown:
        raise ConfigError(f"{ctx}: unknown key(s) {sorted(unknown)}")
    kwargs = {}
    for name, tp, required in schema:
        if name in d:
            kwargs[name] = _value(tp, d[name], f"{ctx}.{name}")
        elif required:
            raise ConfigError(f"{ctx}: missing {name!r}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{ctx}: {e}") from e


def _value(tp, v, ctx: str):
    """The JSON value v of a field declared `tp`, checked against tp: a
    section recurses into _build, and a list becomes a tuple."""
    if is_dataclass(tp):
        return _build(tp, v, ctx)
    if get_origin(tp) is tuple:             # tuple[Section, ...]
        if not isinstance(v, list):
            raise ConfigError(f"{ctx}: expected a list, got {v!r}")
        return tuple(_build(get_args(tp)[0], x, f"{ctx}[{i}]")
                     for i, x in enumerate(v))
    rows = v if isinstance(v, list) else [v]
    leaves = [x for row in rows for x in (row if isinstance(row, list) else [row])]
    if any(_number(x) and not _finite(x) for x in leaves):
        raise ConfigError(f"{ctx}: every number must be finite, got {v!r}")
    if tp is tuple:     # a list of numbers, or a list of lists of numbers
        ok = (isinstance(v, list) and all(map(_number, leaves))
              and len({isinstance(row, list) for row in v}) <= 1)
        if ok:
            v = tuple(tuple(row) if isinstance(row, list) else row for row in v)
    elif tp is float:
        ok = _number(v)
    else:
        ok = isinstance(v, tp) and (tp is bool or not isinstance(v, bool))
    if not ok:
        raise ConfigError(f"{ctx}: expected {_KINDS[tp]}, got {v!r}")
    return v


def _dump(v):
    """The JSON form of a field value: a section by its fields, a tuple as a
    list."""
    if is_dataclass(v):
        v = {f.name: getattr(v, f.name) for f in fields(v)}
    if isinstance(v, dict):
        return {k: _dump(x) for k, x in v.items()}
    if isinstance(v, tuple):
        return [_dump(x) for x in v]
    return v


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _number(x) -> bool:
    """x is a JSON number, an int or a float (a bool is not one here)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _finite(x) -> bool:
    """x is a finite number (an int too large for a float is not one)."""
    return _number(x) and abs(x) <= sys.float_info.max


def _numbers(v, n: int) -> bool:
    """v is a tuple or list of n finite real numbers."""
    return (isinstance(v, (tuple, list)) and len(v) == n
            and all(map(_finite, v)))


@dataclass(frozen=True)
class CameraConfig:
    width: int = 960
    height: int = 544
    vfov: float = 1.047

    def __post_init__(self):
        self.build()    # the camera model's own checks

    def build(self):
        return CameraModel.from_vfov(self.width, self.height, self.vfov)


@dataclass(frozen=True)
class RatesConfig:
    physics_hz: int = 1000
    control_hz: int = 100
    camera_hz: int = 60

    def __post_init__(self):
        _require(self.physics_hz >= self.control_hz >= self.camera_hz > 0,
                 "require physics_hz >= control_hz >= camera_hz > 0")


@dataclass(frozen=True)
class QuadConfig:
    """The vehicle: rigid body, mixer geometry, start pose and sensors."""

    mass: float = ControllerGains.mass   # kg
    inertia: tuple = (0.01, 0.01, 0.02)  # kg m^2, body-diagonal
    arm_length: float = MixerGeometry.arm_length
    yaw_coeff: float = MixerGeometry.yaw_coeff
    max_rotor_thrust: float = MixerGeometry.max_thrust
    start_position: tuple = (0.0, 0.0, 1.5)
    start_yaw: float = 0.0
    gyro_noise: float = 0.0
    motor_lag: float = 0.0               # s; 0 = ideal motors

    def __post_init__(self):
        _require(self.mass > 0, "mass must be positive")
        _require(len(self.inertia) == 3 and all(j > 0 for j in self.inertia),
                 "inertia must be 3 positive values")
        _require(len(self.start_position) == 3, "start_position must be xyz")
        _require(self.gyro_noise >= 0 and self.motor_lag >= 0,
                 "noise/lag must be non-negative")
        self.geometry   # the mixer geometry's own checks

    @cached_property
    def geometry(self) -> MixerGeometry:
        """The mixer geometry, built once (at load time, which validates it)."""
        return MixerGeometry(self.arm_length, self.yaw_coeff,
                             self.max_rotor_thrust)

    @cached_property
    def inertia_floats(self) -> tuple:
        """The body-diagonal inertia as three Python floats, built once for
        the physics step (the `inertia` field keeps its values as given)."""
        return tuple(map(float, self.inertia))


@dataclass(frozen=True)
class CameraScriptConfig:
    scripted: bool = False
    amplitude: float = 0.0
    period: float = 1.0

    def __post_init__(self):
        _require(self.period > 0, "period must be positive")
        _require(_finite(self.amplitude * (2.0 * math.pi / self.period)),
                 "peak yaw rate amplitude * 2 pi / period must be finite")


@dataclass(frozen=True)
class ObjectConfig:
    """A scene object: a world-axis-aligned box of extent `size` (w, h)
    moving along its waypoints (t, x, y, z), linearly between them and
    clamped outside them, so one waypoint is a fixed position and an object
    parks at its last one."""

    obj_id: int
    size: tuple
    waypoints: tuple
    occluder: bool = False

    def __post_init__(self):
        _require(_numbers(self.size, 2) and all(s > 0 for s in self.size),
                 "size must be 2 positive values (w, h), finite numbers")
        wps = self.waypoints
        _require(isinstance(wps, (tuple, list)) and len(wps) >= 1,
                 "waypoints needs >= 1 entry")
        for wp in wps:
            _require(_numbers(wp, 4), "waypoint entries are "
                     "(t, x, y, z), finite numbers")
        _require(all(a[0] < b[0] for a, b in zip(wps, wps[1:])),
                 "waypoint times must be strictly increasing")

    @cached_property
    def _ends(self) -> tuple:
        """The first and the last waypoint's position as 3-tuples of
        floats, built once; `at` returns one outside the waypoint times."""
        return (tuple(map(float, self.waypoints[0][1:])),
                tuple(map(float, self.waypoints[-1][1:])))

    def at(self, t: float) -> tuple:
        """World position at time t, a 3-tuple of floats; closed-form, so
        any t in any order."""
        wps = self.waypoints
        # past the last waypoint (or t NaN) first: every frame of a
        # one-waypoint object after its time takes this one test
        if not t <= wps[-1][0]:
            return self._ends[1]
        if t <= wps[0][0]:
            return self._ends[0]
        for w0, w1 in zip(wps, wps[1:]):
            if t <= w1[0]:
                a = (t - w0[0]) / (w1[0] - w0[0])
                # (1 - a) p0 + a p1 on floats, component by component:
                # the array form's products and sums, so its bits
                b = 1.0 - a
                _, x0, y0, z0 = w0
                _, x1, y1, z1 = w1
                return (b * float(x0) + a * float(x1),
                        b * float(y0) + a * float(y1),
                        b * float(z0) + a * float(z1))


@dataclass(frozen=True)
class TrackerParams:
    weights: tuple = DEFAULT_WEIGHTS
    memory_alpha: float = TrackerConfig.memory_alpha
    acceptance_fraction: float = TrackerConfig.acceptance_fraction
    q_diag: tuple = TrackerConfig.q_diag
    r_diag: tuple = TrackerConfig.r_diag
    p0_diag: tuple = TrackerConfig.p0_diag
    gyro_compensation: bool = TrackerConfig.gyro_compensation

    def __post_init__(self):
        _require(len(self.weights) == 3 and all(w >= 0 for w in self.weights),
                 "weights must be 3 non-negative values")
        self.build(None)    # the tracker layer's own checks

    def build_weights(self):
        return TrackerWeights(*self.weights)

    def build(self, camera):
        """The tracker layer's TrackerConfig for `camera`."""
        kw = asdict(self)
        return TrackerConfig(camera, TrackerWeights(*kw.pop("weights")), **kw)


@dataclass(frozen=True)
class ControllerParams:
    kp_roll: float = ControllerGains.kp_roll
    kd_roll: float = ControllerGains.kd_roll
    kp_thrust: float = ControllerGains.kp_thrust
    kd_thrust: float = ControllerGains.kd_thrust
    kp_yaw: float = ControllerGains.kp_yaw
    kd_yaw: float = ControllerGains.kd_yaw
    beta: float = ControllerGains.beta
    pitch_accel: float = ControllerGains.pitch_accel
    deriv_tau: float = DERIV_TAU
    min_thrust_frac: float = ControllerGains.min_thrust_frac
    attitude_kr: tuple = AttitudeGains.kr
    attitude_kw: tuple = AttitudeGains.kw

    def __post_init__(self):
        _require(0.0 <= self.beta <= 1.0, "beta outside [0, 1]")
        _require(self.deriv_tau >= 0, "deriv_tau must be >= 0")
        _require(len(self.attitude_kr) == 3 and len(self.attitude_kw) == 3,
                 "attitude gains must be 3-vectors")

    def build(self, quad: QuadConfig, camera, control_hz: int):
        """The VisualController for the vehicle `quad` (its mass, inertia
        and mixer geometry), `camera` and the control rate."""
        gains = ControllerGains(
            kp_roll=self.kp_roll, kd_roll=self.kd_roll,
            kp_thrust=self.kp_thrust, kd_thrust=self.kd_thrust,
            kp_yaw=self.kp_yaw, kd_yaw=self.kd_yaw, beta=self.beta,
            pitch_accel=self.pitch_accel, mass=quad.mass,
            min_thrust_frac=self.min_thrust_frac)
        return VisualController(
            camera, gains, AttitudeGains(self.attitude_kr, self.attitude_kw),
            quad.geometry, quad.inertia, 1.0 / control_hz,
            deriv_tau=self.deriv_tau)


@dataclass(frozen=True)
class PromptConfig:
    x: float
    y: float
    t: float = 0.0

    def __post_init__(self):
        for name in ("x", "y", "t"):
            _require(_finite(getattr(self, name)),
                     f"{name} must be a finite number")
        _require(self.t >= 0, "time must be non-negative")


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """A scenario file; its fields are the file's keys, in order."""

    schema_version: int = SCHEMA_VERSION
    name: str
    seed: int
    duration: float
    target_id: int = 0
    rates: RatesConfig = field(default_factory=RatesConfig)
    camera: CameraConfig = field(default_factory=CameraConfig)
    quad: QuadConfig = field(default_factory=QuadConfig)
    camera_script: CameraScriptConfig = field(default_factory=CameraScriptConfig)
    objects: tuple[ObjectConfig, ...]
    detector: SyntheticDetectorConfig = field(default_factory=SyntheticDetectorConfig)
    tracker: TrackerParams = field(default_factory=TrackerParams)
    controller: ControllerParams = field(default_factory=ControllerParams)
    prompt: PromptConfig
    metrics: MetricsParams = field(default_factory=MetricsParams)

    def __post_init__(self):
        _require(self.schema_version == SCHEMA_VERSION,
                 f"unsupported schema_version {self.schema_version}")
        _require(isinstance(self.seed, numbers.Integral)
                 and not isinstance(self.seed, bool) and self.seed >= 0,
                 f"seed must be an integer >= 0, got {self.seed!r}")
        _require(_finite(self.duration) and self.duration > 0,
                 "duration must be positive and finite")
        _require(len(self.objects) > 0, "needs at least one object")
        ids = [o.obj_id for o in self.objects]
        _require(len(ids) == len(set(ids)), "duplicate obj_id")
        _require(self.target_id in ids,
                 f"target_id {self.target_id} not among objects")
        target = next(o for o in self.objects if o.obj_id == self.target_id)
        _require(not target.occluder, "target cannot be an occluder")

    def to_dict(self) -> dict:
        return _dump(self)

    @staticmethod
    def from_dict(d) -> "Scenario":
        return _build(Scenario, d, "scenario")

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=seed)


def save_scenario(sc: Scenario, path) -> None:
    with open(path, "w") as fp:
        json.dump(sc.to_dict(), fp, indent=2)
        fp.write("\n")


def load_scenario(path) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fp:
            d = json.load(fp)
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e.reason})") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e.msg}, line {e.lineno})") from e
    return Scenario.from_dict(d)


def scenario_hash(sc: Scenario) -> str:
    blob = json.dumps(sc.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
