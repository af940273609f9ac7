"""Exception types shared across the package.

Every deliberate failure path raises one of these so callers can map them
to exit codes: ConfigError -> 1, anything derived from RuntimeAbort -> 2.

One error rule for a run: a function that knows the sim time raises its
layer's abort with that time, and every abort prints as
"<layer>: <what> at t=<t> s".  A helper with no sim time (a box, an
attitude extraction, a normalization) raises ValueError with a bare
message; the layer's entry point that called it catches that error around
that call only and raises its own abort.

Every error survives a pickle round trip, which is how a process pool
returns a worker's error: an error whose message formats several
constructor arguments keeps them as `args` and formats in `__str__`.
"""


class QuadtrackError(Exception):
    """Base class for all package errors."""


class ConfigError(QuadtrackError):
    """Malformed or rejected configuration (unknown keys, bad values)."""


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


class RuntimeAbort(QuadtrackError):
    """A run aborted after config was accepted: one layer's output was not
    finite or degenerate at sim time t.  Prints as "<layer>: <message> at
    t=<t> s"."""

    layer = ""

    def __init__(self, t: float, message: str):
        super().__init__(t, message)
        self.t = t

    def __str__(self):
        t, message = self.args
        return f"{self.layer}: {message} at t={t:.6f} s"


class SimulationAbort(RuntimeAbort):
    """A non-finite plant state (at the last good time) or a degenerate
    attitude in a ground-truth row."""

    layer = "physics"


class ControllerAbort(RuntimeAbort):
    """A non-finite or unrealizable output of a control tick, or a tick
    that no attitude or clock admits.  Carries the tick time."""

    layer = "controller"


class DetectorAbort(RuntimeAbort):
    """A detected box or descriptor that is not finite, as noise settings
    near the float range can give.  Carries the frame time."""

    layer = "detector"


class TrackerAbort(RuntimeAbort):
    """No detection to initialize from, an event before the filter state,
    or a filter that broke down (a mean or covariance that is not finite,
    or an innovation covariance that is not finite, not positive definite
    or numerically singular).  Carries the filter or frame time."""

    layer = "tracker"
