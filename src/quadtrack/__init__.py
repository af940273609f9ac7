"""Visual target tracking and pursuit for a quadrotor, end to end in
simulation: synthetic detector, multi-cue tracker with a gyro-compensated
bounding-box EKF, image-space pursuit controller, rigid-body simulator,
and a scenario/metrics/ablation harness."""

from .ablation import AblationResult, run_ablation
from .config import Scenario, load_scenario, save_scenario, scenario_hash
from .controller import (AttitudeGains, ControllerGains, MixerGeometry,
                         VisualController)
from .detection import (Detection, DetectionSet, GyroSample,
                        SyntheticDetector, SyntheticDetectorConfig)
from .errors import (ConfigError, LogParseError, MetricsError, QuadtrackError,
                     RuntimeAbort, StreamOrderError)
from .geometry import BoundingBox, CameraModel, CameraPose, iou
from .logio import read_events, write_events
from .metrics import Metrics, MetricsParams, compute_metrics
from .replay import replay_track
from .simulator import QuadState, RunArtifacts, run, write_run
from .tracker import Tracker, TrackerConfig, TrackerWeights

__version__ = "0.1.0"

__all__ = [
    "AblationResult", "AttitudeGains", "BoundingBox", "CameraModel",
    "CameraPose", "ConfigError", "ControllerGains", "Detection",
    "DetectionSet", "GyroSample", "LogParseError", "Metrics", "MetricsError",
    "MetricsParams", "MixerGeometry", "QuadState",
    "QuadtrackError", "RunArtifacts", "RuntimeAbort", "Scenario",
    "StreamOrderError", "SyntheticDetector", "SyntheticDetectorConfig",
    "Tracker", "TrackerConfig", "TrackerWeights", "VisualController",
    "compute_metrics", "iou", "load_scenario", "read_events", "replay_track",
    "run", "run_ablation", "save_scenario", "scenario_hash", "write_events",
    "write_run",
]
