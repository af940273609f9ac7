"""Line-delimited sensor logs and trace files.

Sensor log: one JSON object per line, two record kinds,

    {"t": <s>, "kind": "gyro", "w": [wx, wy, wz]}
    {"t": <s>, "kind": "det", "boxes": [[x,y,w,h], ...], "conf": [...],
     "desc": [[...], ...]}

Floats are serialized with 9 significant digits ("%.9g"), which is idempotent
under parse/re-serialize, so record -> replay -> record is byte-identical.
Timestamps must be non-decreasing; at equal timestamps gyro records come
before the (single) detection record, i.e. a detection closes its timestamp.

Trace files reuse the same float formatting with one flat JSON object per
line; their field sets are fixed by the writers in simulator/tracker code.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Union

import numpy as np

from .detection import Detection, DetectionSet, GyroSample
from .errors import LogParseError, StreamOrderError
from .geometry import BoundingBox

Event = Union[GyroSample, DetectionSet]

SCENARIO_KEY = "scenario_config"   # summary.json key of the run's scenario


def fmt_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite float {x!r}")
    return format(x, ".9g")


_FMT_9G = "{:.9g}".format   # format(x, ".9g") with one bound method


def _fmt_list(xs) -> str:
    """A float sequence as a JSON list in fmt_float's format: one finiteness
    check for the whole sequence, then one formatting pass."""
    vals = np.asarray(xs, dtype=float).tolist()
    # a sum is non-finite when any term is (or when it overflows); only
    # then is each entry checked, so that the error names the culprit
    if not math.isfinite(sum(vals)):
        for x in vals:
            fmt_float(x)
    return "[" + ",".join(map(_FMT_9G, vals)) + "]"


def _fmt_nested(xss) -> str:
    return "[" + ",".join(_fmt_list(xs) for xs in xss) + "]"


def event_line(ev: Event) -> str:
    if isinstance(ev, GyroSample):
        return f'{{"t":{fmt_float(ev.t)},"kind":"gyro","w":{_fmt_list(ev.w)}}}'
    if isinstance(ev, DetectionSet):
        boxes = _fmt_nested(d.box.as_array() for d in ev.detections)
        conf = _fmt_list([d.confidence for d in ev.detections])
        desc = _fmt_nested(d.descriptor for d in ev.detections)
        return (f'{{"t":{fmt_float(ev.t)},"kind":"det","boxes":{boxes},'
                f'"conf":{conf},"desc":{desc}}}')
    raise TypeError(f"not a loggable event: {type(ev).__name__}")


def _check_order(prev: Event | None, ev: Event, where: str = "") -> None:
    """Raise StreamOrderError unless `ev` may follow `prev` in a stream:
    timestamps never decrease and a detection closes its timestamp.
    `where` prefixes the message (a log line number)."""
    if prev is None:
        return
    if ev.t < prev.t:
        raise StreamOrderError(
            f"{where}timestamp regressed ({ev.t!r} after {prev.t!r})")
    if ev.t == prev.t and isinstance(prev, DetectionSet):
        raise StreamOrderError(
            f"{where}event follows a detection at equal t={ev.t!r}")


class EventWriter:
    """Validating writer: enforces the stream-order contract on append."""

    def __init__(self, fp):
        self.fp = fp
        self._last: Event | None = None

    def append(self, ev: Event) -> None:
        _check_order(self._last, ev)
        self.fp.write(event_line(ev) + "\n")
        self._last = ev


def write_events(path, events: Iterable[Event]) -> None:
    with open(path, "w") as fp:
        w = EventWriter(fp)
        for ev in events:
            w.append(ev)


def _parse_event(obj: dict, line_no: int) -> Event:
    try:
        t = float(obj["t"])
        kind = obj["kind"]
        if kind == "gyro":
            w = np.asarray(obj["w"], dtype=float)
            if w.shape != (3,):
                raise ValueError(f"gyro 'w' must have 3 components, got shape {w.shape}")
            return GyroSample(t, w)
        if kind == "det":
            boxes, conf, desc = obj["boxes"], obj["conf"], obj["desc"]
            if not (len(boxes) == len(conf) == len(desc)):
                raise ValueError("boxes/conf/desc lengths disagree")
            dets = [
                Detection(BoundingBox.from_array(b), float(c),
                          np.asarray(d, dtype=float))
                for b, c, d in zip(boxes, conf, desc)
            ]
            return DetectionSet(t, dets)
        raise ValueError(f"unknown record kind {kind!r}")
    except LogParseError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise LogParseError(line_no, str(e)) from e


def read_events(path) -> list[Event]:
    """Parse and validate a sensor log.  Raises LogParseError (with the line
    number) on malformed lines, StreamOrderError on broken ordering."""
    events: list[Event] = []
    with open(path) as fp:
        for line_no, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise LogParseError(line_no, f"invalid JSON: {e.msg}") from e
            if not isinstance(obj, dict):
                raise LogParseError(line_no, "record is not a JSON object")
            ev = _parse_event(obj, line_no)
            _check_order(events[-1] if events else None, ev, f"line {line_no}: ")
            events.append(ev)
    return events


# ---------------------------------------------------------------------------
# generic jsonl traces
# ---------------------------------------------------------------------------


def _json_compact(value) -> str:
    """JSON with %.9g floats; dict key order preserved (insertion order)."""
    if isinstance(value, dict):
        items = (f'"{k}":{_json_compact(v)}' for k, v in value.items())
        return "{" + ",".join(items) + "}"
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind == "f":
        return _fmt_list(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(_json_compact(v) for v in value) + "]"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"unsupported trace value type {type(value).__name__}")


def write_jsonl(path, records: Iterable[dict]) -> None:
    with open(path, "w") as fp:
        for rec in records:
            fp.write(_json_compact(rec) + "\n")


def write_summary(path, summary: dict, scenario: dict) -> None:
    """A run's summary.json: `summary` with %.9g floats, then the scenario
    dict under SCENARIO_KEY at full float precision, so that the run's
    configs rebuild exactly from it."""
    exact = json.dumps(scenario, separators=(",", ":"))
    with open(path, "w") as fp:
        fp.write(f'{_json_compact(summary)[:-1]},"{SCENARIO_KEY}":{exact}}}\n')


def read_jsonl(path) -> list[dict]:
    out = []
    with open(path) as fp:
        for line_no, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError as e:
                raise LogParseError(line_no, f"invalid JSON: {e.msg}") from e
    return out
