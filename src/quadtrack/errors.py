"""Exception types shared across the package.

Every deliberate failure path raises one of these so callers can map them
to exit codes: ConfigError -> 1, anything derived from RuntimeAbort -> 2.
"""


class QuadtrackError(Exception):
    """Base class for all package errors."""


class ConfigError(QuadtrackError):
    """Malformed or rejected configuration (unknown keys, bad values)."""


class RuntimeAbort(QuadtrackError):
    """Base class for errors that abort a run after config was accepted."""


class DegenerateAttitudeError(RuntimeAbort):
    """Pitch within 1e-6 of +/- pi/2: yaw/pitch extraction is undefined."""


class DegenerateForceError(RuntimeAbort):
    """Desired force vector has near-zero norm; no attitude can realize it."""


class DegenerateHeadingError(RuntimeAbort):
    """Heading reference (anti)parallel to the desired thrust axis."""


class TimeRegressionError(RuntimeAbort):
    """An event arrived with a timestamp earlier than already-processed state."""


class InitializationError(RuntimeAbort):
    """Tracker could not initialize (e.g. empty detection set at prompt time)."""


class FilterDegenerateError(RuntimeAbort):
    """The tracker's filter broke down: a predicted or updated mean or
    covariance that is not finite, or an innovation covariance S that is not
    finite, not positive definite, or numerically singular (condition number
    > 1e12).  The message carries the filter time."""


class LogParseError(QuadtrackError):
    """Malformed record/replay log line.  Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class StreamOrderError(QuadtrackError):
    """Non-monotone timestamps (or broken tie order) in an event stream."""


class MetricsError(QuadtrackError):
    """Metrics requested on an empty or misaligned trace."""


class SimulationAbort(RuntimeAbort):
    """Simulation produced a non-finite state.  Carries the last good time."""

    def __init__(self, t: float, message: str):
        super().__init__(f"{message} (last good state at t={t:.6f} s)")
        self.t = t


class ControllerAbort(RuntimeAbort):
    """The controller produced a non-finite thrust, desired attitude, torque
    or rotor thrust.  Carries the tick time."""

    def __init__(self, t: float, message: str):
        super().__init__(f"controller: {message} at t={t:.6f} s")
        self.t = t


class DetectorAbort(RuntimeAbort):
    """The synthetic detector produced a box or descriptor that is not
    finite, as noise settings near the float range can.  Carries the frame
    time."""

    def __init__(self, t: float, message: str):
        super().__init__(f"detector: {message} at t={t:.6f} s")
        self.t = t
