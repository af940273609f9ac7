"""Exception types shared across the package.

Every deliberate failure path raises one of these so callers can map them
to exit codes: ConfigError -> 1, anything derived from RuntimeAbort -> 2.

Every error survives a pickle round trip, which is how a process pool
returns a worker's error: an error whose message formats several
constructor arguments keeps them as `args` and formats in `__str__`.
"""


class QuadtrackError(Exception):
    """Base class for all package errors."""


class ConfigError(QuadtrackError):
    """Malformed or rejected configuration (unknown keys, bad values)."""


class RuntimeAbort(QuadtrackError):
    """Base class for errors that abort a run after config was accepted."""


class DegenerateAttitudeError(RuntimeAbort):
    """Pitch within 1e-6 of +/- pi/2: yaw/pitch extraction is undefined."""


class _DegenerateDemand(RuntimeAbort):
    """A force demand and heading that no attitude realizes.  Raised from a
    control tick, it names the controller and carries the tick time, as
    ControllerAbort does; raised with the message alone, t is None."""

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message if t is None
                         else f"controller: {message} at t={t:.6f} s")
        self.t = t


class DegenerateForceError(_DegenerateDemand):
    """Desired force vector has near-zero norm; no attitude can realize it."""


class DegenerateHeadingError(_DegenerateDemand):
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
    """Malformed line of a log or trace file.  Carries the file's path and
    the 1-based line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(path, line_no, message)
        self.path = path
        self.line_no = line_no

    def __str__(self):
        path, line_no, message = self.args
        return f"{path}: line {line_no}: {message}"


class StreamOrderError(QuadtrackError):
    """Non-monotone timestamps (or broken tie order) in an event stream."""


class MetricsError(QuadtrackError):
    """Metrics requested on an empty or misaligned trace."""


class SimulationAbort(RuntimeAbort):
    """Simulation produced a non-finite state.  Carries the last good time."""

    def __init__(self, t: float, message: str):
        super().__init__(t, message)
        self.t = t

    def __str__(self):
        t, message = self.args
        return f"{message} (last good state at t={t:.6f} s)"


class _LayerAbort(RuntimeAbort):
    """A non-finite output of one layer at sim time t: "<layer>: <message>
    at t=<t> s"."""

    layer = ""

    def __init__(self, t: float, message: str):
        super().__init__(t, message)
        self.t = t

    def __str__(self):
        t, message = self.args
        return f"{self.layer}: {message} at t={t:.6f} s"


class ControllerAbort(_LayerAbort):
    """The controller produced a non-finite thrust, desired attitude, torque
    or rotor thrust.  Carries the tick time."""

    layer = "controller"


class DetectorAbort(_LayerAbort):
    """The synthetic detector produced a box or descriptor that is not
    finite, as noise settings near the float range can.  Carries the frame
    time."""

    layer = "detector"
