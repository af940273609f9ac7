"""Line-delimited sensor logs and trace files.

Sensor log: one JSON object per line, two record kinds,

    {"t": <s>, "kind": "gyro", "w": [wx, wy, wz]}
    {"t": <s>, "kind": "det", "boxes": [[x,y,w,h], ...], "conf": [...],
     "desc": [[...], ...]}

Floats are serialized with 9 significant digits ("%.9g"), which is idempotent
under parse/re-serialize, so record -> replay -> record is byte-identical.
Timestamps must be non-decreasing; at equal timestamps gyro records come
before the (single) detection record, i.e. a detection closes its timestamp.

Encoder contract (`event_line`): a record is one `%` call.  Its format string
is built once per record shape -- the gyro shape is fixed, a detection
frame's shape is the tuple of its descriptor lengths, so ragged frames need
no second encoder -- and kept in a bounded cache.  The record's floats go in
flat, as Python floats, and are checked for finiteness at once by summing
them; only when the sum is not finite is each value checked on its own, so
the ValueError names the culprit, and a finite record whose sum merely
overflows is still written.
'%.9g' % x equals format(x, '.9g') for every finite double.

Trace files reuse the same float formatting with one flat JSON object per
line; their field sets are fixed by the writers in simulator/tracker code.
`_json_compact` dispatches on a value's exact type through one table and
walks an isinstance chain only for subclasses the table does not list.
"""

from __future__ import annotations

import functools
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
    return "%.9g" % x


def _check_finite(vals) -> None:
    """Raise fmt_float's ValueError for the first non-finite value.  A sum
    is non-finite when any term is (or when it overflows); only then is
    each value checked, so that the error names the culprit."""
    if not math.isfinite(sum(vals)):
        for x in vals:
            fmt_float(x)


@functools.lru_cache(maxsize=64)
def _list_format(n: int) -> str:
    return "[" + ",".join(["%.9g"] * n) + "]"


def _fmt_floats(vals: list) -> str:
    """A list of floats as a JSON list in fmt_float's format: one finiteness
    check for the whole list, then one `%` call."""
    _check_finite(vals)
    return _list_format(len(vals)) % tuple(vals)


_GYRO_LINE = '{"t":%.9g,"kind":"gyro","w":[%.9g,%.9g,%.9g]}'


@functools.lru_cache(maxsize=64)
def _det_format(desc_lens: tuple[int, ...]) -> str:
    """The `%` format string of a detection record whose descriptors have
    these lengths; its fields take t, every box, every confidence, then
    every descriptor."""
    boxes = ",".join([_list_format(4)] * len(desc_lens))
    conf = _list_format(len(desc_lens))
    desc = ",".join(map(_list_format, desc_lens))
    return (f'{{"t":%.9g,"kind":"det","boxes":[{boxes}],"conf":{conf},'
            f'"desc":[{desc}]}}')


def event_line(ev: Event) -> str:
    if isinstance(ev, DetectionSet):
        dets = ev.detections
        head = [ev.t]
        for d in dets:
            b = d.box
            head += (b.x, b.y, b.w, b.h)
        head += [d.confidence for d in dets]
        # Python floats: numpy scalars (box fields) would warn on an
        # overflowing sum and leave sum's float fast path
        head = list(map(float, head))
        descs = [np.asarray(d.descriptor, dtype=float).tolist() for d in dets]
        desc = []
        for xs in descs:
            desc += xs
        if not math.isfinite(sum(head) + sum(desc)):
            _check_finite(head + desc)
        return _det_format(tuple(map(len, descs))) % (*head, *desc)
    if isinstance(ev, GyroSample):
        vals = [float(ev.t), *np.asarray(ev.w, dtype=float).tolist()]
        if len(vals) != 4:
            raise ValueError(f"gyro 'w' must have 3 components, got {len(vals) - 1}")
        _check_finite(vals)
        return _GYRO_LINE % tuple(vals)
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


def _json_dict(value: dict) -> str:
    return "{" + ",".join([f'"{k}":{_json_compact(v)}'
                           for k, v in value.items()]) + "}"


def _json_seq(value) -> str:
    return "[" + ",".join(map(_json_compact, value)) + "]"


def _json_array(value: np.ndarray) -> str:
    if value.ndim == 1 and value.dtype.kind == "f":
        return _fmt_floats(value.tolist())
    return _json_seq(value)


def _json_bool(value) -> str:
    return "true" if value else "false"


def _json_int(value) -> str:
    return str(int(value))


# exact type -> encoder; the trace writers' value types
_JSON_ENCODERS = {
    dict: _json_dict,
    float: fmt_float,
    np.float64: fmt_float,
    int: _json_int,
    np.int64: _json_int,
    bool: _json_bool,
    np.bool_: _json_bool,
    type(None): lambda value: "null",
    str: json.dumps,
    list: _json_seq,
    tuple: _json_seq,
    np.ndarray: _json_array,
}


def _json_compact(value) -> str:
    """JSON with %.9g floats; dict key order preserved (insertion order)."""
    encode = _JSON_ENCODERS.get(type(value))
    if encode is not None:
        return encode(value)
    # subclasses and other numpy scalars, in the table's precedence
    if isinstance(value, dict):
        return _json_dict(value)
    if isinstance(value, np.ndarray):
        return _json_array(value)
    if isinstance(value, (list, tuple)):
        return _json_seq(value)
    if isinstance(value, (bool, np.bool_)):
        return _json_bool(value)
    if isinstance(value, (int, np.integer)):
        return _json_int(value)
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
