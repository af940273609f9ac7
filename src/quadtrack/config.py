"""Scenario schema: typed dataclasses with strict JSON (de)serialization.

Loading is fail-closed: unknown keys, missing required keys, or out-of-range
values raise ConfigError with a dotted path to the offending field.  A
scenario survives save -> load -> save byte-identically, and scenario_hash
gives a stable content address used in run summaries.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

from .errors import ConfigError

SCHEMA_VERSION = 1


def _check_keys(d: dict, allowed: set, ctx: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{ctx}: unknown key(s) {sorted(unknown)}")


def _build(cls, d: dict, ctx: str):
    """Populate a flat dataclass from a dict, coercing lists to tuples."""
    if not isinstance(d, dict):
        raise ConfigError(f"{ctx}: expected an object")
    names = {f.name for f in fields(cls)}
    _check_keys(d, names, ctx)
    kwargs = {}
    for k, v in d.items():
        if isinstance(v, list):
            v = tuple(tuple(x) if isinstance(x, list) else x for x in v)
        kwargs[k] = v
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{ctx}: {e}") from e


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _check_layer(section: str, build, *args) -> None:
    """Run a layer config's own validation; its ValueError becomes a
    ConfigError naming the scenario section."""
    try:
        build(*args)
    except ValueError as e:
        raise ConfigError(f"scenario.{section}: {e}") from e


@dataclass(frozen=True)
class CameraConfig:
    width: int = 960
    height: int = 544
    vfov: float = 1.047

    def __post_init__(self):
        _require(self.width > 0 and self.height > 0, "camera: non-positive size")
        _require(0.0 < self.vfov < math.pi, "camera: vfov outside (0, pi)")

    def build(self):
        from .geometry import CameraModel

        return CameraModel.from_vfov(self.width, self.height, self.vfov)


@dataclass(frozen=True)
class RatesConfig:
    physics_hz: int = 1000
    control_hz: int = 100
    camera_hz: int = 60

    def __post_init__(self):
        _require(self.physics_hz >= self.control_hz >= self.camera_hz > 0,
                 "rates: require physics_hz >= control_hz >= camera_hz > 0")


@dataclass(frozen=True)
class QuadConfig:
    mass: float = 1.3
    inertia: tuple = (0.01, 0.01, 0.02)
    arm_length: float = 0.17
    yaw_coeff: float = 0.016
    max_rotor_thrust: float = 8.0
    start_position: tuple = (0.0, 0.0, 1.5)
    start_yaw: float = 0.0
    gyro_noise: float = 0.0
    motor_lag: float = 0.0

    def __post_init__(self):
        _require(self.mass > 0, "quad: mass must be positive")
        _require(len(self.inertia) == 3 and all(j > 0 for j in self.inertia),
                 "quad: inertia must be 3 positive values")
        _require(len(self.start_position) == 3, "quad: start_position must be xyz")
        _require(self.gyro_noise >= 0 and self.motor_lag >= 0,
                 "quad: noise/lag must be non-negative")
        _check_layer("quad", self.build)

    def build(self):
        """The simulator's QuadParams (with its MixerGeometry)."""
        from .controller import MixerGeometry
        from .simulator import QuadParams

        return QuadParams(self.mass, self.inertia,
                          MixerGeometry(self.arm_length, self.yaw_coeff,
                                        self.max_rotor_thrust),
                          self.motor_lag)


@dataclass(frozen=True)
class CameraScriptConfig:
    mode: str = "dynamic"
    amplitude: float = 0.0
    period: float = 1.0

    def __post_init__(self):
        _require(self.mode in ("dynamic", "static", "yaw_sine"),
                 f"camera_script: unknown mode {self.mode!r}")
        _require(self.period > 0, "camera_script: period must be positive")


_MOTION_KEYS = {
    "static": {"position"},
    "waypoints": {"waypoints"},
    "sinusoid": {"center", "amplitude", "period", "phase"},
}


@dataclass(frozen=True)
class MotionConfig:
    mode: str
    position: tuple | None = None
    waypoints: tuple | None = None
    center: tuple | None = None
    amplitude: tuple | None = None
    period: float | None = None
    phase: float = 0.0

    def __post_init__(self):
        _require(self.mode in _MOTION_KEYS, f"motion: unknown mode {self.mode!r}")
        allowed = _MOTION_KEYS[self.mode]
        for f in fields(self):
            if f.name == "mode" or f.name in allowed:
                continue
            default = f.default
            if getattr(self, f.name) != default:
                raise ConfigError(
                    f"motion: key {f.name!r} not valid for mode {self.mode!r}")
        if self.mode == "static":
            _require(self.position is not None and len(self.position) == 3,
                     "motion: static needs position = xyz")
        elif self.mode == "waypoints":
            _require(self.waypoints is not None and len(self.waypoints) >= 2,
                     "motion: waypoints needs >= 2 entries")
            for wp in self.waypoints:
                _require(len(wp) == 4, "motion: waypoint entries are (t, x, y, z)")
        else:
            _require(self.center is not None and len(self.center) == 3,
                     "motion: sinusoid needs center = xyz")
            _require(self.amplitude is not None and len(self.amplitude) == 3,
                     "motion: sinusoid needs amplitude = xyz")
            _require(self.period is not None and self.period > 0,
                     "motion: sinusoid needs positive period")

    def build(self):
        from .scene import SinusoidMotion, StaticMotion, WaypointMotion

        if self.mode == "static":
            return StaticMotion(self.position)
        if self.mode == "waypoints":
            return WaypointMotion([(w[0], w[1:]) for w in self.waypoints])
        return SinusoidMotion(self.center, self.amplitude, self.period, self.phase)

    def to_dict(self) -> dict:
        out = {"mode": self.mode}
        for name in ("position", "waypoints", "center", "amplitude", "period"):
            v = getattr(self, name)
            if v is not None:
                out[name] = v
        if self.mode == "sinusoid":
            out["phase"] = self.phase
        return out


@dataclass(frozen=True)
class ObjectConfig:
    obj_id: int
    size: tuple
    motion: MotionConfig
    occluder: bool = False

    def __post_init__(self):
        _require(len(self.size) == 2 and all(s > 0 for s in self.size),
                 f"object {self.obj_id}: size must be 2 positive values (w, h)")

    @staticmethod
    def from_dict(d: dict, ctx: str) -> "ObjectConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"{ctx}: expected an object")
        _check_keys(d, {"obj_id", "size", "motion", "occluder"}, ctx)
        for key in ("obj_id", "size", "motion"):
            _require(key in d, f"{ctx}: missing {key!r}")
        motion = _build(MotionConfig, d["motion"], f"{ctx}.motion")
        return ObjectConfig(int(d["obj_id"]), tuple(d["size"]), motion,
                            bool(d.get("occluder", False)))

    def to_dict(self) -> dict:
        return {"obj_id": self.obj_id, "size": self.size,
                "motion": self.motion.to_dict(), "occluder": self.occluder}


@dataclass(frozen=True)
class DetectorParams:
    center_noise_px: float = 2.0
    size_noise_frac: float = 0.05
    feature_noise: float = 0.1
    p_dropout: float = 0.05
    fp_rate: float = 0.0
    p_duplicate: float = 0.0
    occlusion_threshold: float = 0.6
    descriptor_dim: int = 256
    fp_size_min: float = 20.0
    fp_size_max: float = 160.0

    def __post_init__(self):
        _check_layer("detector", self.build)

    def build(self):
        from .detection import SyntheticDetectorConfig

        return SyntheticDetectorConfig(**asdict(self))


@dataclass(frozen=True)
class TrackerParams:
    weights: tuple = (3.0, 3.0, 4.0)
    memory_alpha: float = 0.9
    acceptance_fraction: float = 0.05
    q_diag: tuple = (0.01, 0.01, 0.01, 0.01, 0.1, 0.1)
    r_diag: tuple = (0.5, 0.5, 0.5, 0.5)
    p0_diag: tuple = (10.0, 10.0, 10.0, 10.0, 100.0, 100.0)
    gyro_compensation: bool = True

    def __post_init__(self):
        _require(len(self.weights) == 3 and all(w >= 0 for w in self.weights),
                 "tracker: weights must be 3 non-negative values")
        _check_layer("tracker", self.build, None)

    def build_weights(self):
        from .tracker import TrackerWeights

        return TrackerWeights(*self.weights)

    def build(self, camera, weights=None):
        """The tracker layer's TrackerConfig for `camera`; `weights` (an
        ablation row or a CLI override) replaces the scenario's weights."""
        from .tracker import TrackerConfig, TrackerWeights

        kw = asdict(self if weights is None else replace(self, weights=tuple(weights)))
        return TrackerConfig(camera, TrackerWeights(*kw.pop("weights")), **kw)


@dataclass(frozen=True)
class ControllerParams:
    kp_roll: float = 0.05
    kd_roll: float = 0.001
    kp_thrust: float = 0.08
    kd_thrust: float = 0.00025
    kp_yaw: float = 0.095
    kd_yaw: float = 0.0004
    beta: float = 0.15
    pitch_accel: float = 0.5
    deriv_tau: float = 0.05
    min_thrust_frac: float = 0.1
    attitude_kr: tuple = (2.0, 2.0, 0.8)
    attitude_kw: tuple = (0.3, 0.3, 0.15)
    literal_equations: bool = False

    def __post_init__(self):
        _require(0.0 <= self.beta <= 1.0, "controller: beta outside [0, 1]")
        _require(len(self.attitude_kr) == 3 and len(self.attitude_kw) == 3,
                 "controller: attitude gains must be 3-vectors")

    def build(self, quad, camera, control_hz: int):
        """The VisualController for a built QuadParams `quad` (its mass,
        inertia and mixer geometry), `camera` and the control rate."""
        from .controller import AttitudeGains, ControllerGains, VisualController

        gains = ControllerGains(
            kp_roll=self.kp_roll, kd_roll=self.kd_roll,
            kp_thrust=self.kp_thrust, kd_thrust=self.kd_thrust,
            kp_yaw=self.kp_yaw, kd_yaw=self.kd_yaw, beta=self.beta,
            pitch_accel=self.pitch_accel, mass=quad.mass,
            min_thrust_frac=self.min_thrust_frac)
        return VisualController(
            camera, gains, AttitudeGains(self.attitude_kr, self.attitude_kw),
            quad.geometry, quad.inertia, 1.0 / control_hz,
            deriv_tau=self.deriv_tau, literal=self.literal_equations)


@dataclass(frozen=True)
class PromptConfig:
    x: float
    y: float
    t: float = 0.0

    def __post_init__(self):
        _require(self.t >= 0, "prompt: time must be non-negative")


@dataclass(frozen=True)
class MetricsConfig:
    iou_threshold: float = 0.3
    coast_credit_frames: int = 60

    def __post_init__(self):
        _require(0.0 < self.iou_threshold <= 1.0, "metrics: bad iou_threshold")
        _require(self.coast_credit_frames >= 0, "metrics: bad coast credit")

    def build(self):
        from .metrics import MetricsParams

        return MetricsParams(self.iou_threshold, self.coast_credit_frames)


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    duration: float
    prompt: PromptConfig
    objects: tuple = ()
    target_id: int = 0
    schema_version: int = SCHEMA_VERSION
    rates: RatesConfig = field(default_factory=RatesConfig)
    camera: CameraConfig = field(default_factory=CameraConfig)
    quad: QuadConfig = field(default_factory=QuadConfig)
    camera_script: CameraScriptConfig = field(default_factory=CameraScriptConfig)
    detector: DetectorParams = field(default_factory=DetectorParams)
    tracker: TrackerParams = field(default_factory=TrackerParams)
    controller: ControllerParams = field(default_factory=ControllerParams)
    metrics: MetricsConfig = field(default_factory=MetricsConfig)

    def __post_init__(self):
        _require(self.schema_version == SCHEMA_VERSION,
                 f"scenario: unsupported schema_version {self.schema_version}")
        _require(self.duration > 0, "scenario: duration must be positive")
        _require(len(self.objects) > 0, "scenario: needs at least one object")
        ids = [o.obj_id for o in self.objects]
        _require(len(ids) == len(set(ids)), "scenario: duplicate obj_id")
        _require(self.target_id in ids,
                 f"scenario: target_id {self.target_id} not among objects")
        target = next(o for o in self.objects if o.obj_id == self.target_id)
        _require(not target.occluder, "scenario: target cannot be an occluder")

    def to_dict(self) -> dict:
        out = {
            "schema_version": self.schema_version,
            "name": self.name,
            "seed": self.seed,
            "duration": self.duration,
            "target_id": self.target_id,
            "rates": asdict(self.rates),
            "camera": asdict(self.camera),
            "quad": asdict(self.quad),
            "camera_script": asdict(self.camera_script),
            "objects": [o.to_dict() for o in self.objects],
            "detector": asdict(self.detector),
            "tracker": asdict(self.tracker),
            "controller": asdict(self.controller),
            "prompt": asdict(self.prompt),
            "metrics": asdict(self.metrics),
        }
        return out

    @staticmethod
    def from_dict(d: dict) -> "Scenario":
        if not isinstance(d, dict):
            raise ConfigError("scenario: expected a JSON object")
        allowed = {"schema_version", "name", "seed", "duration", "target_id",
                   "rates", "camera", "quad", "camera_script", "objects",
                   "detector", "tracker", "controller", "prompt", "metrics"}
        _check_keys(d, allowed, "scenario")
        for key in ("name", "seed", "duration", "prompt", "objects"):
            _require(key in d, f"scenario: missing {key!r}")
        objs = d["objects"]
        _require(isinstance(objs, list), "scenario.objects: expected a list")
        objects = tuple(ObjectConfig.from_dict(o, f"scenario.objects[{i}]")
                        for i, o in enumerate(objs))
        kwargs = dict(
            name=str(d["name"]),
            seed=int(d["seed"]),
            duration=float(d["duration"]),
            target_id=int(d.get("target_id", 0)),
            schema_version=int(d.get("schema_version", SCHEMA_VERSION)),
            objects=objects,
            prompt=_build(PromptConfig, d["prompt"], "scenario.prompt"),
        )
        for key, cls in (("rates", RatesConfig), ("camera", CameraConfig),
                         ("quad", QuadConfig),
                         ("camera_script", CameraScriptConfig),
                         ("detector", DetectorParams),
                         ("tracker", TrackerParams),
                         ("controller", ControllerParams),
                         ("metrics", MetricsConfig)):
            if key in d:
                kwargs[key] = _build(cls, d[key], f"scenario.{key}")
        return Scenario(**kwargs)

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=seed)

    def with_weights(self, weights) -> "Scenario":
        return replace(self, tracker=replace(self.tracker,
                                             weights=tuple(float(w) for w in weights)))


def save_scenario(sc: Scenario, path) -> None:
    with open(path, "w") as fp:
        json.dump(sc.to_dict(), fp, indent=2)
        fp.write("\n")


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fp:
            d = json.load(fp)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e.msg}, line {e.lineno})") from e
    return Scenario.from_dict(d)


def scenario_hash(sc: Scenario) -> str:
    blob = json.dumps(sc.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
