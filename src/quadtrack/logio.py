"""Line-delimited sensor logs and trace files.

Sensor log: one JSON object per line, two record kinds,

    {"t": <s>, "kind": "gyro", "w": [wx, wy, wz]}
    {"t": <s>, "kind": "det", "boxes": [[x,y,w,h], ...], "conf": [...],
     "desc": [[...], ...]}

Floats are serialized with 9 significant digits ("%.9g"), which is idempotent
under parse/re-serialize, so record -> replay -> record is byte-identical.
Timestamps must be non-decreasing; at equal timestamps gyro records come
before the (single) detection record, i.e. a detection closes its timestamp.

Encoder contract.  `write_events` checks stream order as it collects events
into blocks of whole events holding about _BLOCK_FLOATS descriptor floats,
encodes each block's descriptors with one `_desc_lists` call, then builds
each record with `event_line`, given that record's encoded lists.  Called
alone, `event_line` encodes its own descriptors with the same encoder.  A
record's head (t, boxes, confidences) is one `%` call whose format is cached
by the number of detections; its floats go in flat, as Python floats, and
are checked for finiteness at once by summing them; only when the sum is not
finite is each value checked on its own, so the ValueError names the
culprit, and a finite record whose sum merely overflows is still written.

`_desc_lists` formats every entry in numpy, exactly as '%.9g' % x does.
An entry with 1e-4 <= |x| < 1 and z zeros after "0." gets its 9 digits by
rounding y = |x| * 10**(9+z) to an integer: the power is an exact double, so
y is the exact product rounded once, and its nearest integer is the
correctly rounded significand unless y is itself a half-integer.  Those
entries, the ones that round up to 10**9 and every entry out of that range
(zero, subnormal, tiny, at least 1, not finite) take the slow path,
'%.9g' % x itself: about 0.1% of a unit descriptor's entries.
When encoding a block fails (a non-finite entry), its events are written
one by one instead, so the ValueError names the first non-finite value in
record order and the file holds the lines before that record.
'%.9g' % x equals format(x, '.9g') for every finite double.

Trace files reuse the same float formatting with one flat JSON object per
line; their field sets are fixed by the writers in simulator/tracker code.
The rows and the summary hold Python floats, ints, strs, bools, None and
tuples of floats (boxes, means, positions, quaternions), and the summary
dicts of them.  `_json_compact` dispatches on a value's exact type through
one table and writes a tuple or list entry by entry; any other type, a
subclass or a numpy value, is a TypeError.  Keys are written as JSON
strings, escaped as json.dumps escapes them.

Trace rows and the plan cache.  `write_jsonl` writes each row through the
plan of its shape: the row's keys in order and the exact type of each
value.  A plan is one `%` format for the whole line, newline included:
each key as its JSON string with `%` doubled, `%.9g` per float,
`[%.9g,...]` per tuple or list of the length the first row of that shape
held, `%d` per int, `%s` per str (its JSON text) and per bool (true or
false), and the literal null per None.  With it goes one function
generated with exec from positions only, as namedtuple builds its
methods, which unpacks the row's values, checks each sequence's length,
checks that every float entry is a float and that their sum is finite,
and fills the format.  A row its plan cannot place (a tuple holding an
int, a bool, None or a numpy value, another length, a nested list or
dict, a non-finite or overflowing sum) and a shape with no plan (a key
that is not a str, a value of another type) go to `_json_compact`, which
stays the one definition of the format and of its errors: every line is
_json_compact(row) and a newline, and a refused row raises _json_compact's
error with the lines before it written.  The cache keeps at most _MAX_PLANS
plans; a shape beyond them clears it, and so does _row_line.cache_clear().
What it holds changes the speed of a write, never its bytes.
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


_GYRO_LINE = '{"t":%.9g,"kind":"gyro","w":[%.9g,%.9g,%.9g]}'


@functools.lru_cache(maxsize=64)
def _det_head(n: int) -> str:
    """The `%` format of a detection record with n detections, up to its
    descriptor lists; its fields take t, every box, then every confidence."""
    boxes = ",".join([_list_format(4)] * n)
    return (f'{{"t":%.9g,"kind":"det","boxes":[{boxes}],'
            f'"conf":{_list_format(n)},"desc":[')


# ---------------------------------------------------------------------------
# descriptor lists: '%.9g' for many floats at once
# ---------------------------------------------------------------------------
# An entry's text is built in its own 20-byte slot of 5 little-endian 4-byte
# words, `,`-led, and the slots' unused bytes (_FILL) are deleted at the end.
# A fast entry's words: [",", sign, "0", "."], [z zeros, the leading digit],
# then its other 8 digits as two 4-digit groups with trailing zeros unused.

_FILL = 0
_LIST_MARK = "|"                 # leads a list's first entry in place of ","
_BLOCK_FLOATS = 2048             # descriptor floats write_events encodes at once
_SCALE = np.array([1e9, 1e10, 1e11, 1e12])   # 10**(9+z), exact doubles

_group = np.empty((10, 10, 10, 10, 4), np.uint8)       # the digits of 0 .. 9999
for _k in range(4):
    _group[..., _k] = np.arange(10).reshape((10,) + (1,) * (3 - _k))
_group = _group.reshape(10_000, 4)
_digits = _group + ord("0")                              # "0000" .. "9999"
# a digit is kept when it or a digit after it in its group is not 0
_kept = _group > 0
for _k in (2, 1, 0):
    _kept[:, _k] |= _kept[:, _k + 1]
_STRIPPED = np.where(_kept, _digits, _FILL).view("<u4").ravel()
# index b + 10000 * (c == 0), b the middle 4 digits and c the last 4: the
# middle group keeps its trailing zeros unless the last group is all zeros
_GROUPS = np.concatenate([_digits.view("<u4").ravel(), _STRIPPED])
# index 16 * z + leading digit: z zeros after "0.", then the digit (a slow
# entry's leading "digit" may be 10, and its words are overwritten)
_lead = np.full((4, 16, 4), _FILL, np.uint8)
_lead[..., :3] = np.where(np.arange(3) < np.arange(4)[:, None], ord("0"), _FILL)[:, None]
_lead[..., 3] = ord("0") + np.arange(16)
_LEADS = _lead.view("<u4").ravel()
_SIGNS = np.array([[ord(","), _FILL, ord("0"), ord(".")],    # by x < 0
                   [ord(","), ord("-"), ord("0"), ord(".")]], np.uint8).view("<u4").ravel()
del _k, _group, _digits, _kept, _lead


def _desc_lists(descs: list) -> list[str]:
    """The JSON list of each 1-D float sequence in `descs`, each entry as
    '%.9g' % x writes it, all encoded at once.

    Three comparisons give the count z of zeros after "0." for |x| < 1.
    y = |x| * 10**(9+z) is one rounding of the exact product v (the powers
    are exact doubles).  Rounding is monotone and every half-integer below
    2**53 is a double, so y lies on v's side of each half-integer or on it:
    n = rint(y) is '%.9g''s 9-digit significand (the integer nearest v)
    unless y is a half-integer, which v need not be.  When y is no tie and
    10**8 <= n < 10**9, the text is the sign, "0.", z zeros and n's digits
    without trailing zeros.  That covers 1e-4 <= |x| < 1, all but about
    0.1% of a unit descriptor's entries.  Every other entry (a tie,
    rounding to 10**9, zero, subnormal, below 1e-4, at least 1, not finite)
    is written by '%.9g' % x into its slot.  Raises fmt_float's ValueError
    for the first non-finite entry."""
    sizes = [len(v) for v in descs]
    x = np.concatenate(descs, dtype=np.float64) if descs else np.empty(0)
    if x.ndim != 1:
        raise TypeError(f"descriptors must be 1-D, got {x.ndim}-D")
    if not x.size:
        return ["[]"] * len(sizes)
    a = np.fmin(np.abs(x), 1.0)          # NaN and inf to 1.0: slow
    z = (a < 0.1).astype(np.intp)
    z += a < 0.01
    z += a < 0.001
    y = a * _SCALE[z]
    n = np.rint(y)
    fast = np.abs(y - n) < 0.5          # y - n is exact: 0.5 at a tie
    fast &= n >= 1e8
    fast &= n < 1e9
    n = n.astype(np.intp)
    hi = n // 10_000
    c = n - hi * 10_000
    top = hi // 10_000
    raw = bytearray(20 * x.size)         # zero-filled: _FILL
    slots = np.frombuffer(raw, "<u4").reshape(x.size, 5)
    slots[:, 0] = _SIGNS[(x < 0).view(np.uint8)]
    slots[:, 1] = _LEADS[16 * z + top]
    slots[:, 2] = _GROUPS[hi - top * 10_000 + 10_000 * (c == 0)]
    slots[:, 3] = _STRIPPED[c]
    slow = np.flatnonzero(~fast)
    if slow.size:
        rows = b"".join([("," + fmt_float(v)).encode().ljust(20, bytes([_FILL]))
                         for v in x[slow].tolist()])
        slots[slow] = np.frombuffer(rows, "<u4").reshape(-1, 5)
    starts, i = [], 0
    for k in sizes:
        if k:
            starts.append(i)
            i += k
    slots.view(np.uint8)[starts, 0] = ord(_LIST_MARK)
    pieces = iter(raw.translate(None, bytes([_FILL])).decode().split(_LIST_MARK)[1:])
    return [f"[{next(pieces)}]" if k else "[]" for k in sizes]


def event_line(ev: Event, descs: list[str] | None = None) -> str:
    """One log record, without its newline.  A detection record's
    descriptor lists are `descs` when given (write_events encodes a block's
    at once), else encoded here by the same encoder."""
    if isinstance(ev, GyroSample):
        t, w = float(ev.t), ev.w
        if type(w) is not np.ndarray or w.dtype.char != "d":
            w = np.asarray(w, dtype=float)
        w = w.tolist()
        if len(w) != 3:
            raise ValueError(f"gyro 'w' must have 3 components, got {len(w)}")
        wx, wy, wz = w
        if not math.isfinite(t + wx + wy + wz):
            _check_finite([t, *w])
        return _GYRO_LINE % (t, wx, wy, wz)
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
        _check_finite(head)
        if descs is None:
            descs = _desc_lists([d.descriptor for d in dets])
        return _det_head(len(dets)) % tuple(head) + ",".join(descs) + "]}"
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


def _write_block(fp, events: list, descs: list) -> None:
    """Write `events`, whose descriptors are `descs` in order, encoding the
    descriptors in one _desc_lists call.  When that refuses an entry, the
    events are written one by one instead, so that the error names the
    first refused value in record order and the lines before it are
    written."""
    try:
        lists = _desc_lists(descs)
    except (TypeError, ValueError):
        for ev in events:
            fp.write(event_line(ev) + "\n")
        raise
    i = 0
    for ev in events:
        k = len(ev.detections) if isinstance(ev, DetectionSet) else 0
        fp.write(event_line(ev, lists[i:i + k]) + "\n")
        i += k


def write_events(path, events: Iterable[Event]) -> None:
    """Write a sensor log, enforcing the stream-order contract per event
    (StreamOrderError).  Events are written in blocks of whole events with
    about _BLOCK_FLOATS descriptor floats; on any error, the file holds
    the lines of the events before the offending one."""
    prev = None
    block, descs, n = [], [], 0
    with open(path, "w") as fp:
        try:
            for ev in events:
                _check_order(prev, ev)
                prev = ev
                block.append(ev)
                if isinstance(ev, DetectionSet):
                    for d in ev.detections:
                        descs.append(d.descriptor)
                        n += len(d.descriptor)
                    if n >= _BLOCK_FLOATS:
                        full = block, descs
                        block, descs, n = [], [], 0
                        _write_block(fp, *full)
        finally:
            # also when an event is refused: the events before it are
            # written, and an earlier event's own refusal takes its place
            _write_block(fp, block, descs)


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


def _parse_event(obj: dict, suspect: bool, dim: int | None) -> Event:
    """One log record; ValueError, TypeError, KeyError or OverflowError when
    it is malformed.  The time, rates, box fields and confidences must be
    JSON numbers, by exact type; descriptor entries are checked one by one
    when the record is `suspect` or their sum fails.  One sum checks each
    record's numbers: it is not finite when one of them is not (a JSON
    integer too large for a float raises OverflowError in the sum).  Every
    descriptor has `dim` entries, or the record's first descriptor's
    number (> 0) when `dim` is None (no descriptor before it)."""
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
        if desc and dim is None:
            dim = len(desc[0])
            if not dim:
                raise ValueError("descriptor has no entries")
        for d in desc:
            if len(d) != dim:
                raise ValueError(f"descriptor has {len(d)} entries, the log's first {dim}")
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
    and line number) on malformed lines, NaN, infinities, numbers too large
    for a float and a descriptor that is empty or not of the log's first
    one's length included, and StreamOrderError on broken ordering."""
    events: list[Event] = []
    dim = None      # the entries of the log's first descriptor
    for line_no, line in _lines(path):
        obj = _decode(line, path, line_no)
        if not isinstance(obj, dict):
            raise LogParseError(path, line_no, "record is not a JSON object")
        try:
            # true, false and null hold a "u" or an "a", and no key or kind
            # of a valid record does ("t", "kind", "w", "boxes", "conf",
            # "desc", "gyro", "det"): only such a line is checked by entry
            ev = _parse_event(obj, "u" in line or "a" in line, dim)
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise LogParseError(path, line_no, str(e)) from e
        if dim is None and isinstance(ev, DetectionSet) and ev.detections:
            dim = len(ev.detections[0].descriptor)
        try:
            _check_order(events[-1] if events else None, ev)
        except StreamOrderError as e:
            raise StreamOrderError(f"{path}: line {line_no}: {e}") from None
        events.append(ev)
    return events


# ---------------------------------------------------------------------------
# generic jsonl traces
# ---------------------------------------------------------------------------


# json.dumps's own encoder of a str, which json.dumps(s) returns for a str s
_json_str = json.encoder.encode_basestring_ascii


def _json_dict(value: dict) -> str:
    return "{" + ",".join([f'{_json_str(str(k))}:{_json_compact(v)}'
                           for k, v in value.items()]) + "}"


def _json_seq(value) -> str:
    return "[" + ",".join(map(_json_compact, value)) + "]"


def _json_bool(value) -> str:
    return "true" if value else "false"


# exact type -> encoder; the trace writers' value types
_JSON_ENCODERS = {
    dict: _json_dict,
    float: fmt_float,
    int: str,
    bool: _json_bool,
    type(None): lambda value: "null",
    str: _json_str,
    list: _json_seq,
    tuple: _json_seq,
}


def _json_compact(value) -> str:
    """JSON with %.9g floats; dict key order preserved (insertion order)."""
    encode = _JSON_ENCODERS.get(type(value))
    if encode is None:
        # by module too unless built in: numpy's bool is not Python's
        name = f"{type(value).__module__}.{type(value).__qualname__}".removeprefix("builtins.")
        raise TypeError(f"unsupported trace value type {name}")
    return encode(value)


# ---------------------------------------------------------------------------
# trace rows: one `%` call per row shape
# ---------------------------------------------------------------------------

_MAX_PLANS = 64          # plans kept; one more shape clears the cache
_PLANS: dict = {}        # row shape -> its plan, or None when it has none
_PLAN_GLOBALS = {"_FLOAT": frozenset((float,)), "_isfinite": math.isfinite,
                 "_str": _json_str, "_tf": ("false", "true")}


def _plan(rec: dict):
    """The plan of `rec`'s shape (see the module docstring): a function
    that returns a row of that shape as its line, newline included, or None
    when it cannot place the row.  None when the shape has no plan."""
    fields, args, floats, guards = [], [], [], []
    for i, (k, v) in enumerate(rec.items()):
        if type(k) is not str:
            return None
        x = f"v{i}"
        t = type(v)
        if t is float:
            form = "%.9g"
            args.append(x)
            floats.append(x)
        elif t is int:
            form = "%d"
            args.append(x)
        elif t is str:
            form = "%s"
            args.append(f"_str({x})")
        elif t is bool:
            form = "%s"
            args.append(f"_tf[{x}]")
        elif v is None:
            form = "null"
        elif t is tuple or t is list:
            n = len(v)
            form = "[" + ",".join(["%.9g"] * n) + "]"
            guards.append(f"len({x}) == {n}")
            args.append(f"*{x}")
            floats.append(f"*{x}")
        else:
            return None
        fields.append(_json_str(k).replace("%", "%%") + ":" + form)
    names = "".join(f"v{i}, " for i in range(len(rec)))
    src = ["def encode(rec):",
           f"    [{names}] = rec.values()"]
    if guards:
        src.append(f"    if not ({' and '.join(guards)}):")
        src.append("        return None")
    src += [f"    f = ({''.join(x + ', ' for x in floats)})",
            "    if not (_FLOAT.issuperset(map(type, f)) and _isfinite(sum(f))):",
            "        return None",
            f"    return _fmt % ({''.join(x + ', ' for x in args)})"]
    namespace = dict(_PLAN_GLOBALS, _fmt="{" + ",".join(fields) + "}\n")
    exec("\n".join(src), namespace)
    return namespace["encode"]


def _row_line(rec) -> str:
    """`rec` as one JSON line with its newline: through its shape's plan
    when the plan places it, else through _json_compact."""
    if type(rec) is dict:
        # two tuples, not one of all keys and types: CPython 3.11 keeps a
        # freed 20-tuple (a 10-key row's) but never hands it out again
        shape = (tuple(rec), tuple(map(type, rec.values())))
        try:
            encode = _PLANS[shape]
        except KeyError:
            if len(_PLANS) >= _MAX_PLANS:
                _PLANS.clear()
            encode = _PLANS[shape] = _plan(rec)
        if encode is not None:
            line = encode(rec)
            if line is not None:
                return line
    return _json_compact(rec) + "\n"


# the plan cache empties as a functools cache does, through its function
_row_line.cache_clear = _PLANS.clear


def write_jsonl(path, records: Iterable[dict]) -> None:
    """One JSON line per record, _json_compact(record) and a newline; when a
    record is refused, the file holds the lines of the records before it."""
    with open(path, "w") as fp:
        fp.writelines(map(_row_line, records))


def write_summary(path, summary: dict, scenario: dict) -> None:
    """A run's summary.json: `summary` with %.9g floats, then the scenario
    dict under SCENARIO_KEY at full float precision, so that the run's
    configs rebuild exactly from it."""
    exact = json.dumps(scenario, separators=(",", ":"))
    with open(path, "w") as fp:
        fp.write(f'{_json_compact(summary)[:-1]},"{SCENARIO_KEY}":{exact}}}\n')


def read_jsonl(path) -> list:
    return [_decode(line, path, line_no) for line_no, line in _lines(path)]
