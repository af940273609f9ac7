"""Sensor-log serialization: formatting, ordering, parse errors."""

import collections
import dataclasses
import enum
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadtrack import scenarios
from quadtrack.detection import Detection, DetectionSet, GyroSample
from quadtrack.errors import LogParseError, StreamOrderError
from quadtrack.geometry import BoundingBox
from quadtrack.logio import (_json_compact, event_line, fmt_float, read_events,
                             read_jsonl, write_events, write_jsonl)
from quadtrack.simulator import run, write_run

from conftest import box_array


def gyro(t, w=(0.1, 0.2, 0.3)):
    return GyroSample(t, np.asarray(w, dtype=float))


def frame(t, boxes=(), descs=None):
    dets = []
    for i, b in enumerate(boxes):
        d = np.zeros(4)
        d[i % 4] = 1.0
        if descs is not None:
            d = np.asarray(descs[i], dtype=float)
        dets.append(Detection(BoundingBox(*b), 0.5 + 0.1 * i, d))
    return DetectionSet(t, dets)


# ---------------------------------------------------------------------------
# float formatting
# ---------------------------------------------------------------------------


def test_fmt_float_nine_significant_digits():
    assert fmt_float(math.pi) == "3.14159265"
    assert fmt_float(1.0) == "1"
    assert fmt_float(-0.5) == "-0.5"
    assert fmt_float(1.0 / 3.0) == "0.333333333"
    assert fmt_float(1e308) == "1e+308"


def test_fmt_float_rejects_non_finite():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            fmt_float(bad)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_float_idempotent_under_round_trip(x):
    s = fmt_float(x)
    assert fmt_float(float(s)) == s


# ---------------------------------------------------------------------------
# event lines
# ---------------------------------------------------------------------------


def test_event_line_gyro_golden():
    assert (event_line(gyro(0.5)) ==
            '{"t":0.5,"kind":"gyro","w":[0.1,0.2,0.3]}')


def test_event_line_detection_golden():
    ev = DetectionSet(1.0, [Detection(BoundingBox(1.0, 2.0, 3.0, 4.0), 0.75,
                                      np.array([1.0, 0.0]))])
    assert (event_line(ev) ==
            '{"t":1,"kind":"det","boxes":[[1,2,3,4]],"conf":[0.75],"desc":[[1,0]]}')


def test_event_line_empty_frame():
    assert (event_line(DetectionSet(2.5)) ==
            '{"t":2.5,"kind":"det","boxes":[],"conf":[],"desc":[]}')


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8))
def test_event_line_arrays_equal_per_float_form(xs):
    # the array path formats in one pass; a kept per-float form is the oracle
    want = "[" + ",".join(fmt_float(x) for x in xs) + "]"
    ev = DetectionSet(1.0, [Detection(BoundingBox(1.0, 2.0, 3.0, 4.0), 0.5,
                                      np.array(xs, dtype=float))])
    assert event_line(ev).endswith(f'"desc":[{want}]}}')


def test_event_line_keeps_finite_values_whose_sum_overflows():
    assert (event_line(gyro(0.5, (1e308, 1e308, -1e308))) ==
            '{"t":0.5,"kind":"gyro","w":[1e+308,1e+308,-1e+308]}')


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_event_line_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="refusing to serialize non-finite float"):
        event_line(gyro(0.5, (0.1, bad, 0.3)))
    with pytest.raises(ValueError, match="refusing to serialize non-finite float"):
        event_line(frame(1.0, [(1, 2, 3, 4)], descs=[[1.0, bad]]))


def test_event_line_rejects_other_types():
    with pytest.raises(TypeError):
        event_line({"t": 0.0})


def test_event_line_survives_parse_cycle(tmp_path):
    events = [gyro(0.0, (1 / 3, -2 / 7, 1e-13)),
              frame(0.0, [(0.1, 0.2, 10.0, 20.0), (5.0, 6.0, 7.0, 8.0)]),
              gyro(1 / 60)]
    path = tmp_path / "log.jsonl"
    write_events(path, events)
    lines = path.read_text().splitlines()
    back = read_events(path)
    assert [event_line(e) for e in back] == lines


def test_record_replay_record_is_byte_identical(tmp_path):
    rng = np.random.default_rng(14)
    events = []
    t = 0.0
    for k in range(40):
        t = k / 97.0  # awkward timestamps exercise the 9-digit rounding
        events.append(gyro(t, rng.normal(size=3)))
        if k % 3 == 0:
            boxes = [(rng.uniform(0, 900), rng.uniform(0, 500),
                      rng.uniform(1, 50), rng.uniform(1, 50))
                     for _ in range(int(rng.integers(0, 3)))]
            descs = [rng.normal(size=6) for _ in boxes]
            events.append(frame(t, boxes, descs))
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    write_events(p1, events)
    write_events(p2, read_events(p1))
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# stream order contract
# ---------------------------------------------------------------------------


def test_writer_allows_gyro_runs_and_closing_detection(tmp_path):
    path = tmp_path / "ok.jsonl"
    write_events(path, [gyro(0.0),
                        gyro(0.0),     # same-t gyro run is fine
                        frame(0.0),    # detection closes the timestamp
                        gyro(0.1)])
    assert len(read_events(path)) == 4


def test_writer_rejects_time_regression(tmp_path):
    with pytest.raises(StreamOrderError):
        write_events(tmp_path / "x.jsonl", [gyro(1.0), gyro(0.5)])


def test_writer_rejects_events_after_closing_detection(tmp_path):
    with pytest.raises(StreamOrderError):
        write_events(tmp_path / "x.jsonl", [frame(1.0), gyro(1.0)])
    # later timestamps reopen the stream
    write_events(tmp_path / "x.jsonl", [frame(1.0), gyro(1.5)])


def test_reader_rejects_broken_order(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(event_line(frame(1.0)) + "\n" + event_line(gyro(1.0)) + "\n")
    with pytest.raises(StreamOrderError, match=f"^{path}: line 2: event follows a detection"):
        read_events(path)
    path.write_text(event_line(gyro(1.0)) + "\n" + event_line(gyro(0.9)) + "\n")
    with pytest.raises(StreamOrderError):
        read_events(path)


# ---------------------------------------------------------------------------
# parse failures carry line numbers
# ---------------------------------------------------------------------------


def _expect_parse_error(tmp_path, lines, line_no):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogParseError) as err:
        read_events(path)
    assert err.value.line_no == line_no
    assert err.value.path == path
    assert str(err.value).startswith(f"{path}: line {line_no}: ")


def test_parse_error_invalid_json(tmp_path):
    good = event_line(gyro(0.0))
    _expect_parse_error(tmp_path, [good, good, '{"t": 0.1, "kind"'], 3)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("template", [
    '{{"t":0.1,"kind":"gyro","w":[{},0,0]}}',
    '{{"t":{},"kind":"gyro","w":[0,0,0]}}',
    '{{"t":0.1,"kind":"det","boxes":[[1,2,3,4]],"conf":[0.9],"desc":[[1,{}]]}}',
], ids=["gyro_w", "gyro_t", "descriptor"])
def test_parse_error_non_finite_constant(tmp_path, template, constant):
    # Python's json reads NaN and +-Infinity; a log holds finite numbers only
    good = event_line(gyro(0.0))
    _expect_parse_error(tmp_path, [good, template.format(constant)], 2)
    path = tmp_path / "trace.jsonl"
    path.write_text(f'{{"a":1}}\n{{"b":[{constant}]}}\n')
    with pytest.raises(LogParseError, match=f"line 2: invalid JSON: {constant} is not"):
        read_jsonl(path)


_BIG = str(10 ** 400)     # a 401-digit JSON integer: too large for a float


_NUMBER_TEMPLATES = {
    "gyro_t": '{{"t":{},"kind":"gyro","w":[0,0,0]}}',
    "gyro_w": '{{"t":0.1,"kind":"gyro","w":[0,{},0]}}',
    "box": '{{"t":0.1,"kind":"det","boxes":[[{},2,3,4]],"conf":[0.9],"desc":[[1,0]]}}',
    "conf": '{{"t":0.1,"kind":"det","boxes":[[1,2,3,4]],"conf":[{}],"desc":[[1,0]]}}',
    "descriptor": '{{"t":0.1,"kind":"det","boxes":[[1,2,3,4]],"conf":[0.9],"desc":[[1,{}]]}}',
    "det_t": '{{"t":{},"kind":"det","boxes":[[1,2,3,4]],"conf":[0.9],"desc":[[1,0]]}}',
}


@pytest.mark.parametrize("number", [_BIG, "1e999", "-1e999"],
                         ids=["int_401_digits", "1e999", "minus_1e999"])
@pytest.mark.parametrize("field", ["gyro_t", "gyro_w", "box", "conf", "descriptor"])
def test_parse_error_number_beyond_the_float_range(tmp_path, field, number):
    # json reads these as an int too large for a float or as an infinity,
    # not as a constant; an infinite descriptor entry would zero the
    # appearance score and turn the memory to NaN
    _expect_parse_error(tmp_path, [event_line(gyro(0.0)),
                                   _NUMBER_TEMPLATES[field].format(number)], 2)


@pytest.mark.parametrize("token", ['"0.5"', "true", "false"],
                         ids=["string", "true", "false"])
@pytest.mark.parametrize("field", ["gyro_t", "gyro_w", "box", "conf", "det_t",
                                   "descriptor"])
def test_parse_error_value_that_is_not_a_json_number(tmp_path, field, token):
    # float() reads the string "0.5", and Python counts a bool as an int;
    # neither is a JSON number, as the scenario loader also holds.  A
    # descriptor's bool would otherwise sum and convert as 1.0 or 0.0
    path = tmp_path / "bad.jsonl"
    path.write_text(event_line(gyro(0.0)) + "\n"
                    + _NUMBER_TEMPLATES[field].format(token) + "\n")
    with pytest.raises(LogParseError) as err:
        read_events(path)
    name = {"gyro_w": "'w' entry", "box": "'boxes' entry",
            "conf": "'conf' entry", "descriptor": "'desc' entry"}.get(field, "'t'")
    assert str(err.value) == (f"{path}: line 2: {name} is not a JSON number: "
                              f"{json.loads(token)!r}")


def test_reader_accepts_finite_numbers_whose_sum_overflows(tmp_path):
    path = tmp_path / "big.jsonl"
    write_events(path, [GyroSample(0.0, np.array([1e308, 1e308, 0.0]))])
    assert read_events(path)[0].w.tolist() == [1e308, 1e308, 0.0]


def test_parse_error_non_object(tmp_path):
    _expect_parse_error(tmp_path, [event_line(gyro(0.0)), "[1,2,3]"], 2)


def test_parse_error_unknown_kind(tmp_path):
    _expect_parse_error(tmp_path, ['{"t":0,"kind":"imu","w":[1,2,3]}'], 1)


def test_parse_error_bad_gyro_shape(tmp_path):
    _expect_parse_error(tmp_path, ['{"t":0,"kind":"gyro","w":[1,2]}'], 1)


def test_parse_error_mismatched_detection_arrays(tmp_path):
    bad = '{"t":0,"kind":"det","boxes":[[1,2,3,4]],"conf":[],"desc":[[1]]}'
    _expect_parse_error(tmp_path, [bad], 1)


def test_parse_error_missing_field(tmp_path):
    _expect_parse_error(tmp_path, ['{"t":0,"kind":"gyro"}'], 1)


def test_reader_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.jsonl"
    path.write_text(event_line(gyro(0.0)) + "\n\n" + event_line(gyro(0.1)) + "\n")
    assert len(read_events(path)) == 2


# ---------------------------------------------------------------------------
# generic jsonl traces
# ---------------------------------------------------------------------------


def test_write_jsonl_handles_numpy_and_null(tmp_path):
    path = tmp_path / "trace.jsonl"
    rec = {
        "t": np.float64(0.25),
        "n": np.int64(7),
        "flag": np.bool_(True),
        "plain": False,
        "box": np.array([1.0, 2.0, 3.0, 4.0]),
        "nothing": None,
        "name": "run/1 \"quoted\"",
    }
    write_jsonl(path, [rec])
    back = read_jsonl(path)
    assert back == [{"t": 0.25, "n": 7, "flag": True, "plain": False,
                     "box": [1.0, 2.0, 3.0, 4.0], "nothing": None,
                     "name": 'run/1 "quoted"'}]


def test_write_jsonl_rounds_floats_to_nine_digits(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_jsonl(path, [{"x": 1.0 / 3.0}])
    assert path.read_text() == '{"x":0.333333333}\n'


def test_write_jsonl_float_arrays_as_float_lists(tmp_path):
    rec = {"a": np.array([1.0 / 3.0, -2.5e-7, 1e308]),
           "b": np.array([1.0, 2.0], dtype=np.float32)}
    path = tmp_path / "t.jsonl"
    write_jsonl(path, [rec])
    assert path.read_text() == '{"a":[0.333333333,-2.5e-07,1e+308],"b":[1,2]}\n'
    with pytest.raises(ValueError, match="refusing to serialize non-finite float"):
        write_jsonl(path, [{"a": np.array([0.0, float("nan")])}])


def test_write_jsonl_rejects_unknown_types(tmp_path):
    with pytest.raises(TypeError):
        write_jsonl(tmp_path / "x.jsonl", [{"bad": object()}])


def test_read_jsonl_reports_bad_line(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text('{"a":1}\n{"b":\n')
    with pytest.raises(LogParseError) as err:
        read_jsonl(path)
    assert err.value.line_no == 2
    assert str(err.value).startswith(f"{path}: line 2: invalid JSON: ")


@pytest.mark.parametrize("reader", [read_events, read_jsonl])
def test_a_byte_that_is_not_utf8_names_its_line(tmp_path, reader):
    # 2000 lines, about 80 KB: a text-mode reader decodes in chunks and
    # would report the byte at the start of its chunk, lines too early
    lines = [event_line(gyro(i / 100.0, (0.1, -0.2, 0.3))).encode()
             for i in range(2000)]
    lines[1499] = lines[1499].replace(b'"gyro"', b'"gyr\xffo"')
    path = tmp_path / "log.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(LogParseError) as err:
        reader(path)
    assert err.value.line_no == 1500
    assert str(err.value) == f"{path}: line 1500: not UTF-8 text (invalid start byte)"


def test_read_jsonl_decodes_utf8_text(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_bytes('{"name":"d\u00e9j\u00e0 vu"}\n\n{"a":1}\r\n'.encode())
    assert read_jsonl(path) == [{"name": "d\u00e9j\u00e0 vu"}, {"a": 1}]


# ---------------------------------------------------------------------------
# the one-call encoders against the per-value reference encoders
# ---------------------------------------------------------------------------
# The reference copies below are the per-value encoders that the
# one-format-call encoders replaced: format(x, ".9g") per float, nested joins
# and an isinstance chain per trace value.


def ref_fmt_float(x) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite float {x!r}")
    return format(x, ".9g")


def ref_fmt_list(xs) -> str:
    vals = np.asarray(xs, dtype=float).tolist()
    if not math.isfinite(sum(vals)):
        for x in vals:
            ref_fmt_float(x)
    return "[" + ",".join(map("{:.9g}".format, vals)) + "]"


def ref_fmt_nested(xss) -> str:
    return "[" + ",".join(ref_fmt_list(xs) for xs in xss) + "]"


def ref_event_line(ev) -> str:
    if isinstance(ev, GyroSample):
        return f'{{"t":{ref_fmt_float(ev.t)},"kind":"gyro","w":{ref_fmt_list(ev.w)}}}'
    if isinstance(ev, DetectionSet):
        boxes = ref_fmt_nested(box_array(d.box) for d in ev.detections)
        conf = ref_fmt_list([d.confidence for d in ev.detections])
        desc = ref_fmt_nested(d.descriptor for d in ev.detections)
        return (f'{{"t":{ref_fmt_float(ev.t)},"kind":"det","boxes":{boxes},'
                f'"conf":{conf},"desc":{desc}}}')
    raise TypeError(f"not a loggable event: {type(ev).__name__}")


def ref_json_compact(value) -> str:
    if isinstance(value, dict):
        items = (f'"{k}":{ref_json_compact(v)}' for k, v in value.items())
        return "{" + ",".join(items) + "}"
    if isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind == "f":
        return ref_fmt_list(value)
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(ref_json_compact(v) for v in value) + "]"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return ref_fmt_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"unsupported trace value type {type(value).__name__}")


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               2.225073858507201e-308, 1e308, -1e308, 1.7976931348623157e308,
               -1.7976931348623157e308, 1e-5, 9.9999999995e-5, 1e-4, 999999999.5,
               1e16, 0.1, 1 / 3]

finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(EDGE_FLOATS))


@st.composite
def scalars(draw, elements=finite):
    """A finite float, as a Python float or as np.float64."""
    x = draw(elements)
    return np.float64(x) if draw(st.booleans()) else x


@st.composite
def log_boxes(draw):
    positive = st.one_of(st.floats(5e-324, 1e308), st.sampled_from([5e-324, 1e308]))
    fields = (draw(scalars()), draw(scalars()),
              draw(scalars(positive)), draw(scalars(positive)))
    return BoundingBox(*fields)


@st.composite
def detections(draw):
    n = draw(st.integers(0, 12))
    desc = np.array(draw(st.lists(finite, min_size=n, max_size=n)), dtype=float)
    return Detection(draw(log_boxes()), draw(scalars()), desc)


@st.composite
def events(draw):
    t = draw(scalars())
    if draw(st.booleans()):
        return GyroSample(t, np.array(draw(st.lists(finite, min_size=3, max_size=3))))
    return DetectionSet(t, draw(st.lists(detections(), min_size=0, max_size=6)))


@given(events())
def test_event_line_equals_reference_encoder(ev):
    assert event_line(ev) == ref_event_line(ev)


@given(st.lists(events(), min_size=1, max_size=4), st.data())
def test_event_line_names_the_same_culprit_as_reference(evs, data):
    # one non-finite value in a timestamp, a gyro rate, a confidence or a
    # descriptor entry
    bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    ev = data.draw(st.sampled_from(evs))
    slots = ["t"] + (["w"] if isinstance(ev, GyroSample) else
                     [("conf", i) for i in range(len(ev))]
                     + [("desc", i) for i, d in enumerate(ev.detections)
                        if len(d.descriptor)])
    slot = data.draw(st.sampled_from(slots))
    if slot == "t":
        ev = (GyroSample(bad, ev.w) if isinstance(ev, GyroSample)
              else DetectionSet(bad, ev.detections))
    elif slot == "w":
        w = ev.w.copy()
        w[data.draw(st.integers(0, 2))] = bad
        ev = GyroSample(ev.t, w)
    else:
        field, i = slot
        dets = list(ev.detections)
        d = dets[i]
        if field == "conf":
            dets[i] = Detection(d.box, bad, d.descriptor)
        else:
            desc = d.descriptor.copy()
            desc[data.draw(st.integers(0, len(desc) - 1))] = bad
            dets[i] = Detection(d.box, d.confidence, desc)
        ev = DetectionSet(ev.t, dets)
    with pytest.raises(ValueError) as want:
        ref_event_line(ev)
    with pytest.raises(ValueError) as got:
        event_line(ev)
    assert str(got.value) == str(want.value)


def test_event_line_ragged_frames_beyond_the_format_cache():
    # more record shapes than the cache holds, each encoded like the reference
    for n in range(1, 150):
        lens = (n % 7, n, 3 * n % 11)
        ev = DetectionSet(n / 60, [Detection(BoundingBox(1.0, 2.0, 3.0, 4.0), 0.5,
                                             np.linspace(-1.0, 1.0, k))
                                   for k in lens])
        assert event_line(ev) == ref_event_line(ev)


def test_event_line_rejects_gyro_without_three_rates():
    with pytest.raises(ValueError, match="must have 3 components"):
        event_line(gyro(0.5, (0.1, 0.2)))


def test_percent_g_equals_format_g_on_random_bit_patterns():
    # event_line formats with '%.9g' % x; fmt_float's contract is
    # format(x, '.9g'), so the two must agree on every finite double
    bits = np.random.default_rng(2024).integers(0, 2**64, size=200_000,
                                                dtype=np.uint64, endpoint=False)
    xs = bits.view(np.float64)
    xs = xs[np.isfinite(xs)].tolist() + EDGE_FLOATS
    assert [x for x in xs if "%.9g" % x != format(x, ".9g")] == []


@st.composite
def tracker_rows(draw):
    coasting = draw(st.booleans())
    scores = draw(st.one_of(st.none(), st.lists(scalars(), min_size=4, max_size=4)))
    return {
        "t": draw(finite),
        "status": "coasting" if coasting else "tracking",
        "box": None if coasting else tuple(draw(st.lists(finite, min_size=4, max_size=4))),
        "s_iou": None if scores is None else scores[0],
        "s_ekf": None if scores is None else scores[1],
        "s_map": None if scores is None else scores[2],
        "s_total": None if scores is None else scores[3],
        "pred": tuple(draw(st.lists(finite, min_size=4, max_size=4))),
        "mean": tuple(draw(st.lists(finite, min_size=6, max_size=6))),
        "coast": draw(st.integers(0, 10**12)),
    }


@st.composite
def command_rows(draw):
    row = {k: draw(finite) for k in ("t", "ew", "eh", "dew", "deh", "thrust", "yaw_des")}
    row["quat_des"] = tuple(draw(st.lists(finite, min_size=4, max_size=4)))
    row["a_pitch"] = draw(finite)
    row["sp_sat"] = draw(st.booleans())
    row["motor_sat"] = draw(st.booleans())
    return row


@st.composite
def truth_rows(draw):
    seen = draw(st.booleans())
    vec = st.lists(finite, min_size=3, max_size=3).map(np.array)
    return {
        "t": draw(finite),
        "box": np.array(draw(st.lists(finite, min_size=4, max_size=4))) if seen else None,
        "center": (draw(scalars()), draw(scalars())) if seen else None,
        "occluded": draw(finite),
        "in_view": draw(st.booleans()),
        "quad_p": draw(vec),
        "quad_yaw": draw(finite),
        "target_p": draw(vec),
        "dist_xy": draw(scalars()),
    }


@given(st.one_of(tracker_rows(), command_rows(), truth_rows()))
def test_json_compact_equals_reference_on_trace_rows(row):
    assert _json_compact(row) == ref_json_compact(row)


class _Level(enum.IntEnum):
    HIGH = 3


def test_json_compact_numpy_types_and_subclasses_match_reference():
    # the dispatch table's numpy types match the reference; 1-D float32
    # arrays are float arrays too
    row = dict(i64=np.int64(12345678901), f64=np.float64(0.1), flag=np.bool_(True),
               f32s=np.array([0.1, 2.5], dtype=np.float32), nested=[(1, 2.5), [None, "x"]],
               key=collections.UserString("k").data, sub=dict(a=1.0))
    assert _json_compact(row) == ref_json_compact(row)
    # a type the table does not list, a subclass or another numpy scalar,
    # and an array that is not 1-D float, are not formatted but refused
    for value in [collections.OrderedDict(a=1.0), _Level.HIGH, np.float32(0.1),
                  np.int32(-7), np.uint8(200), np.arange(3), np.array([True, False]),
                  np.eye(2), {1, 2}]:
        with pytest.raises(TypeError):
            _json_compact({"x": value})
    with pytest.raises(ValueError, match="refusing to serialize non-finite float"):
        _json_compact({"x": np.float64("inf")})


# ---------------------------------------------------------------------------
# the row writer against the encoder it had before float tuples took one call
# ---------------------------------------------------------------------------
# parent_json_compact is the trace encoder as it stood before a tuple of
# floats was written with one `%` call: one encoder call per value,
# dispatched on the value's exact type.


def _parent_fmt_floats(vals: list) -> str:
    if not math.isfinite(sum(vals)):
        for x in vals:
            fmt_float(x)
    return ("[" + ",".join(["%.9g"] * len(vals)) + "]") % tuple(vals)


def _parent_json_array(value: np.ndarray) -> str:
    if value.ndim == 1 and value.dtype.kind == "f":
        return _parent_fmt_floats(value.tolist())
    raise TypeError(f"unsupported trace array: {value.ndim}-D {value.dtype}")


_PARENT_ENCODERS = {
    dict: lambda value: "{" + ",".join([f'"{k}":{parent_json_compact(v)}'
                                        for k, v in value.items()]) + "}",
    float: fmt_float,
    np.float64: fmt_float,
    int: lambda value: str(int(value)),
    np.int64: lambda value: str(int(value)),
    bool: lambda value: "true" if value else "false",
    np.bool_: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
    str: json.dumps,
    list: lambda value: "[" + ",".join(map(parent_json_compact, value)) + "]",
    tuple: lambda value: "[" + ",".join(map(parent_json_compact, value)) + "]",
    np.ndarray: _parent_json_array,
}


def parent_json_compact(value) -> str:
    encode = _PARENT_ENCODERS.get(type(value))
    if encode is None:
        raise TypeError(f"unsupported trace value type {type(value).__name__}")
    return encode(value)


def _written(rows) -> str:
    """The text write_jsonl writes for `rows`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.jsonl")
        write_jsonl(path, rows)
        with open(path, newline="") as fp:
            return fp.read()


_ints = st.one_of(st.integers(-1000, 1000), st.integers(10**9, 10**400),
                  st.integers(-2**63, 2**63 - 1).map(np.int64))
_bools = st.one_of(st.booleans(), st.booleans().map(np.bool_))
_float_seqs = st.lists(finite, max_size=6).flatmap(
    lambda xs: st.sampled_from([xs, tuple(xs), np.array(xs, dtype=float)]))
_leaves = st.one_of(scalars(), _ints, _bools, st.none(), st.text(max_size=6),
                    _float_seqs)
# a row value: a leaf, or lists, tuples and dicts of them, nested
_values = st.recursive(_leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=4), inner, max_size=4)), max_leaves=10)
_rows = st.dictionaries(st.text(max_size=6), _values, max_size=8)


@given(st.lists(_rows, max_size=4))
def test_write_jsonl_writes_the_parent_encoders_bytes(rows):
    assert _written(rows) == "".join(parent_json_compact(r) + "\n" for r in rows)


@given(_rows, st.sampled_from([math.nan, math.inf, -math.inf]),
       st.sampled_from(["scalar", "numpy", "list", "tuple", "array", "dict"]),
       st.data())
def test_write_jsonl_names_a_non_finite_entry_like_the_parent(row, bad, where, data):
    # one non-finite float anywhere in a row: the parent's ValueError, which
    # names the value
    value = {"scalar": bad, "numpy": np.float64(bad), "list": [1.0, bad],
             "tuple": (bad, 2.0), "array": np.array([0.5, bad]),
             "dict": {"a": 1, "b": [bad]}}[where]
    items = list(row.items())
    items.insert(data.draw(st.integers(0, len(items))), ("non-finite", value))
    row = dict(items)
    with pytest.raises(ValueError) as want:
        parent_json_compact(row)
    with pytest.raises(ValueError) as got:
        _written([row])
    assert str(got.value) == str(want.value)
    assert str(got.value) == f"refusing to serialize non-finite float {float(bad)!r}"


def test_write_jsonl_keeps_finite_rows_whose_sum_overflows():
    row = {"a": 1e308, "b": (1e308, -1e308, 1e308), "n": 10**400}
    assert _written([row]) == parent_json_compact(row) + "\n"


@pytest.mark.parametrize("name", scenarios.names())
def test_written_trace_files_read_and_rewrite_byte_for_byte(tmp_path, name):
    # a short run of each bundled scenario: its tracker, command and ground-
    # truth files, read back as JSON and written again, are the same bytes
    sc = scenarios.get(name)
    write_run(run(dataclasses.replace(sc, duration=min(sc.duration, 1.0))), tmp_path)
    for file in ("tracker.jsonl", "commands.jsonl", "groundtruth.jsonl"):
        path = tmp_path / file
        write_jsonl(tmp_path / "again.jsonl", read_jsonl(path))
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes(), file
