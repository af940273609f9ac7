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
`_json_compact` dispatches on a value's exact type through one table; any
other type, a subclass or a non-1-D or non-float array, is a TypeError.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import chain
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


def _check_order(prev: Event | None, ev: Event) -> None:
    """Raise StreamOrderError unless `ev` may follow `prev` in a stream:
    timestamps never decrease and a detection closes its timestamp."""
    if prev is None:
        return
    if ev.t < prev.t:
        raise StreamOrderError(
            f"timestamp regressed ({ev.t!r} after {prev.t!r})")
    if ev.t == prev.t and isinstance(prev, DetectionSet):
        raise StreamOrderError(
            f"event follows a detection at equal t={ev.t!r}")


def write_events(path, events: Iterable[Event]) -> None:
    """Write a sensor log, enforcing the stream-order contract per event
    (StreamOrderError)."""
    prev = None
    with open(path, "w") as fp:
        for ev in events:
            _check_order(prev, ev)
            fp.write(event_line(ev) + "\n")
            prev = ev


# a JSON number decodes to an int or a float; a string or a bool is neither
_NUMBER = frozenset((int, float))


def _check_each(fields) -> None:
    """Raise TypeError or ValueError naming the first entry of `fields`
    ((name, list) pairs) that is not a JSON number or not finite.  Called
    only when a record's one type check or one sum failed; a sum of finite
    numbers that merely overflows passes."""
    for name, xs in fields:
        for x in xs:
            if type(x) not in _NUMBER:
                raise TypeError(f"{name} is not a JSON number: {x!r}")
            if not math.isfinite(x):
                raise ValueError(f"{name} is not finite: {x!r}")


def _parse_event(obj: dict, suspect: bool) -> Event:
    """One log record; ValueError, TypeError, KeyError or OverflowError when
    it is malformed.  The time, rates, box fields and confidences must be
    JSON numbers, by exact type; descriptor entries are checked one by one
    when the record is `suspect` or their sum fails.  One sum checks each
    record's numbers: it is not finite when one of them is not (a JSON
    integer too large for a float raises OverflowError in the sum)."""
    t = obj["t"]
    kind = obj["kind"]
    if kind == "gyro":
        w = obj["w"]
        gyro = np.asarray(w, dtype=float)
        if gyro.shape != (3,):
            raise ValueError(f"gyro 'w' must have 3 components, got shape {gyro.shape}")
        if not (_NUMBER.issuperset(map(type, [t, *w]))
                and math.isfinite(t + sum(w))):
            _check_each([("'t'", [t]), ("'w' entry", w)])
        return GyroSample(float(t), gyro)
    if kind == "det":
        boxes, conf, desc = obj["boxes"], obj["conf"], obj["desc"]
        if not (len(boxes) == len(conf) == len(desc)):
            raise ValueError("boxes/conf/desc lengths disagree")
        try:
            ok = (not suspect
                  and _NUMBER.issuperset(map(type, [t, *conf, *chain.from_iterable(boxes)]))
                  and math.isfinite(t + sum(conf) + sum(map(sum, desc))))
        except TypeError:
            ok = False
        if not ok:
            _check_each([("'t'", [t]), ("'conf' entry", conf),
                         *(("'boxes' entry", b) for b in boxes),
                         *(("'desc' entry", d) for d in desc)])
        dets = [
            Detection(BoundingBox.from_array(b), float(c),
                      np.asarray(d, dtype=float))
            for b, c, d in zip(boxes, conf, desc)
        ]
        return DetectionSet(float(t), dets)
    raise ValueError(f"unknown record kind {kind!r}")


def _no_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


# strict JSON: NaN, Infinity and -Infinity are malformed, not numbers; built
# once, because json.loads(parse_constant=...) builds a decoder per call
_DECODER = json.JSONDecoder(parse_constant=_no_constant)


def _decode(line: str, path, line_no: int):
    """One strictly decoded JSON line; LogParseError names the file and the
    line."""
    try:
        return _DECODER.decode(line)
    except ValueError as e:     # json.JSONDecodeError or _no_constant's
        raise LogParseError(path, line_no,
                            f"invalid JSON: {getattr(e, 'msg', e)}") from e


def _lines(path):
    """(line number, text) of each non-blank line of a UTF-8 file, stripped.
    A byte that is not UTF-8 is a LogParseError naming its line: it decodes
    to a lone surrogate in place (surrogateescape), and a line that is not
    all ASCII is checked by decoding its bytes again, strictly.  (A strict
    text-mode read decodes ahead in chunks and raises lines early.)"""
    with open(path, encoding="utf-8", errors="surrogateescape") as fp:
        for line_no, line in enumerate(fp, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode()
                except UnicodeDecodeError as e:
                    raise LogParseError(path, line_no,
                                        f"not UTF-8 text ({e.reason})") from e
            line = line.strip()
            if line:
                yield line_no, line


def read_events(path) -> list[Event]:
    """Parse and validate a sensor log.  Raises LogParseError (with the path
    and line number) on malformed lines, NaN, infinities and numbers too
    large for a float included, and StreamOrderError on broken ordering."""
    events: list[Event] = []
    for line_no, line in _lines(path):
        obj = _decode(line, path, line_no)
        if not isinstance(obj, dict):
            raise LogParseError(path, line_no, "record is not a JSON object")
        try:
            # true, false and null hold a "u" or an "a", and no key or kind
            # of a valid record does ("t", "kind", "w", "boxes", "conf",
            # "desc", "gyro", "det"): only such a line is checked by entry
            ev = _parse_event(obj, "u" in line or "a" in line)
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise LogParseError(path, line_no, str(e)) from e
        try:
            _check_order(events[-1] if events else None, ev)
        except StreamOrderError as e:
            raise StreamOrderError(f"{path}: line {line_no}: {e}") from None
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
    raise TypeError(f"unsupported trace array: {value.ndim}-D {value.dtype}")


def _json_bool(value) -> str:
    return "true" if value else "false"


def _json_int(value) -> str:
    return str(int(value))


# exact type -> encoder; the trace writers' value types, arrays 1-D float
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
    if encode is None:
        raise TypeError(f"unsupported trace value type {type(value).__name__}")
    return encode(value)


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


def read_jsonl(path) -> list:
    return [_decode(line, path, line_no) for line_no, line in _lines(path)]
