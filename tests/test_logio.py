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

from quadtrack import logio, scenarios
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


@pytest.mark.parametrize("sizes, line_no, got, first", [
    ([[4], [], [4, 4], [4, 3]], 4, 3, 4),
    ([[4], [4], [0]], 3, 0, 4),
    ([[], [2, 2], [0]], 3, 0, 2),
    ([[2, 4]], 1, 4, 2),
], ids=["shorter", "empty", "after_empty", "within_the_first"])
def test_a_descriptor_of_another_length_than_the_first_names_its_line(
        tmp_path, sizes, line_no, got, first):
    # every descriptor of a log has the length of its first one, which the
    # tracker's appearance memory takes; a frame without detections sets none
    path = tmp_path / "desc.jsonl"
    write_events(path, [frame(0.1 * i, [(1.0, 2.0, 3.0, 4.0)] * len(ks),
                              [np.full(k, 0.5) for k in ks])
                        for i, ks in enumerate(sizes)])
    with pytest.raises(LogParseError) as err:
        read_events(path)
    assert str(err.value) == (f"{path}: line {line_no}: descriptor has {got} entries, "
                              f"the log's first {first}")
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:line_no - 1]) + "\n")
    assert len(read_events(path)) == line_no - 1


@pytest.mark.parametrize("sizes, line_no", [([[0]], 1), ([[], [0, 0]], 2), ([[], [0, 4]], 2)],
                         ids=["first", "after_a_frame_without_detections", "pair"])
def test_a_first_descriptor_with_no_entries_names_its_line(tmp_path, sizes, line_no):
    # every scenario's descriptor_dim is positive, so no log the program
    # writes holds an empty descriptor; the log's first one is refused by
    # its line, not taken as the length of the tracker's memory
    path = tmp_path / "desc.jsonl"
    write_events(path, [frame(0.1 * i, [(1.0, 2.0, 3.0, 4.0)] * len(ks),
                              [np.full(k, 0.5) for k in ks])
                        for i, ks in enumerate(sizes)])
    with pytest.raises(LogParseError) as err:
        read_events(path)
    assert str(err.value) == f"{path}: line {line_no}: descriptor has no entries"


def test_parse_error_missing_field(tmp_path):
    _expect_parse_error(tmp_path, ['{"t":0,"kind":"gyro"}'], 1)


def test_reader_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.jsonl"
    path.write_text(event_line(gyro(0.0)) + "\n\n" + event_line(gyro(0.1)) + "\n")
    assert len(read_events(path)) == 2


# ---------------------------------------------------------------------------
# generic jsonl traces
# ---------------------------------------------------------------------------


def test_write_jsonl_rounds_floats_to_nine_digits(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_jsonl(path, [{"x": 1.0 / 3.0}])
    assert path.read_text() == '{"x":0.333333333}\n'


def test_write_jsonl_rejects_unknown_types(tmp_path):
    with pytest.raises(TypeError):
        write_jsonl(tmp_path / "x.jsonl", [{"bad": object()}])


class _Level(enum.IntEnum):
    HIGH = 3


@pytest.mark.parametrize("value, name", [
    (np.float64(0.25), "numpy.float64"), (np.int64(7), "numpy.int64"),
    (np.bool_(True), "numpy.bool"), (np.array([0.25, -0.5, 1.0]), "numpy.ndarray"),
    (np.array([0.25, -0.5, 1.0], dtype=np.float32), "numpy.ndarray"),
    (np.float32(0.25), "numpy.float32"), (np.int32(-7), "numpy.int32"),
    (np.eye(2), "numpy.ndarray"), (collections.OrderedDict(a=1.0), "collections.OrderedDict"),
    (_Level.HIGH, f"{__name__}._Level"), ({1, 2}, "set")],
    ids=["np_float64", "np_int64", "np_bool", "float64_array", "float32_array",
         "np_float32", "np_int32", "2d_array", "OrderedDict", "IntEnum", "set"])
@pytest.mark.parametrize("where", ["scalar", "tuple", "nested"])
def test_a_value_of_a_type_the_writers_do_not_produce_is_refused(tmp_path, value, name,
                                                                 where):
    # the trace writers hand over Python values only; a numpy value, a
    # subclass or any other type is a TypeError naming its type, by its
    # module too unless built in (numpy's bool is not named "bool"), in the
    # shape of a placed row or nested in a tuple or dict, and the rows
    # before it are written
    placed = {"t": 0.5, "p": (0.25, -0.5, 1.0), "ok": True}
    bad = {"scalar": {**placed, "p": value}, "tuple": {**placed, "p": (0.25, value, 1.0)},
           "nested": {**placed, "p": [{"x": value}]}}[where]
    path = tmp_path / "rows.jsonl"
    with pytest.raises(TypeError) as err:
        write_jsonl(path, [placed, placed, bad, placed])
    assert str(err.value) == f"unsupported trace value type {name}"
    assert type_name(value) == name
    assert path.read_text() == '{"t":0.5,"p":[0.25,-0.5,1],"ok":true}\n' * 2


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


def type_name(value) -> str:
    """The name the trace encoder gives a type it refuses: module.qualname,
    or the qualname alone for a built-in type."""
    cls = type(value)
    if cls.__module__ == "builtins":
        return cls.__qualname__
    return f"{cls.__module__}.{cls.__qualname__}"


def ref_json_compact(value) -> str:
    if isinstance(value, dict):
        items = (f'{json.dumps(str(k))}:{ref_json_compact(v)}' for k, v in value.items())
        return "{" + ",".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(ref_json_compact(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return ref_fmt_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"unsupported trace value type {type_name(value)}")


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


def spoil(ev, bad, data):
    """`ev` with one value, drawn from its timestamp, its gyro rates, its
    confidences or its descriptor entries, set to `bad`."""
    slots = ["t"] + (["w"] if isinstance(ev, GyroSample) else
                     [("conf", i) for i in range(len(ev))]
                     + [("desc", i) for i, d in enumerate(ev.detections)
                        if len(d.descriptor)])
    slot = data.draw(st.sampled_from(slots))
    if slot == "t":
        return (GyroSample(bad, ev.w) if isinstance(ev, GyroSample)
                else DetectionSet(bad, ev.detections))
    if slot == "w":
        w = ev.w.copy()
        w[data.draw(st.integers(0, 2))] = bad
        return GyroSample(ev.t, w)
    field, i = slot
    dets = list(ev.detections)
    d = dets[i]
    if field == "conf":
        dets[i] = Detection(d.box, bad, d.descriptor)
    else:
        desc = d.descriptor.copy()
        desc[data.draw(st.integers(0, len(desc) - 1))] = bad
        dets[i] = Detection(d.box, d.confidence, desc)
    return DetectionSet(ev.t, dets)


@given(st.lists(events(), min_size=1, max_size=4), st.data())
def test_event_line_names_the_same_culprit_as_reference(evs, data):
    # one non-finite value in a timestamp, a gyro rate, a confidence or a
    # descriptor entry
    bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    ev = spoil(data.draw(st.sampled_from(evs)), bad, data)
    with pytest.raises(ValueError) as want:
        ref_event_line(ev)
    with pytest.raises(ValueError) as got:
        event_line(ev)
    assert str(got.value) == str(want.value)


def test_event_line_ragged_frames_beyond_the_format_cache():
    # ragged frames of many shapes, each encoded like the reference
    for n in range(1, 150):
        lens = (n % 7, n, 3 * n % 11)
        ev = DetectionSet(n / 60, [Detection(BoundingBox(1.0, 2.0, 3.0, 4.0), 0.5,
                                             np.linspace(-1.0, 1.0, k))
                                   for k in lens])
        assert event_line(ev) == ref_event_line(ev)


def test_event_line_rejects_gyro_without_three_rates():
    with pytest.raises(ValueError, match="must have 3 components"):
        event_line(gyro(0.5, (0.1, 0.2)))


@pytest.mark.parametrize("w", [
    [0.1, -0.2, 1e-13], (0.1, -0.2, 1e-13), [1, 2, 3], [np.float64(0.1), 0.2, 0.3],
    np.array([0.1, -0.2, 1e-13], dtype=np.float32),
    np.array([0.1, -0.2, 1e-13], dtype=">f8"),
    np.array([0.1, -0.2, 1e-13], dtype=object)], ids=lambda w: type(w).__name__)
def test_event_line_takes_gyro_rates_in_any_float_form(w):
    # a list, a tuple or an array of another float dtype gives the same
    # line as its float64 array, and its errors
    ev = GyroSample(0.5, w)
    assert event_line(ev) == ref_event_line(ev)
    assert event_line(ev) == event_line(gyro(0.5, w))
    with pytest.raises(ValueError, match="^gyro 'w' must have 3 components, got 2$"):
        event_line(GyroSample(0.5, w[:2]))
    spoiled = [w[0], math.nan, w[2]] if isinstance(w, list) else np.array(w)
    if not isinstance(w, list):
        spoiled[1] = math.nan
    with pytest.raises(ValueError, match="^refusing to serialize non-finite float nan$"):
        event_line(GyroSample(0.5, spoiled))


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
    scores = draw(st.one_of(st.none(), st.lists(finite, min_size=4, max_size=4)))
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
    vec = st.lists(finite, min_size=3, max_size=3).map(tuple)
    return {
        "t": draw(finite),
        "box": tuple(draw(st.lists(finite, min_size=4, max_size=4))) if seen else None,
        "center": (draw(finite), draw(finite)) if seen else None,
        "occluded": draw(finite),
        "in_view": draw(st.booleans()),
        "quad_p": draw(vec),
        "quad_yaw": draw(finite),
        "target_p": draw(vec),
        "dist_xy": draw(finite),
    }


@given(st.one_of(tracker_rows(), command_rows(), truth_rows()))
def test_json_compact_equals_reference_on_trace_rows(row):
    assert _json_compact(row) == ref_json_compact(row)


# ---------------------------------------------------------------------------
# the row writer against the encoder it had before float tuples took one call
# ---------------------------------------------------------------------------
# parent_json_compact is the trace encoder as it stood before a tuple of
# floats was written with one `%` call: one encoder call per value,
# dispatched on the value's exact type.  Its keys are JSON strings, as
# json.dumps writes them; the encoder once wrote them unescaped, so a key
# holding a quote, a backslash or a control character was not JSON.


_PARENT_ENCODERS = {
    dict: lambda value: "{" + ",".join([f'{json.dumps(str(k))}:{parent_json_compact(v)}'
                                        for k, v in value.items()]) + "}",
    float: fmt_float,
    int: lambda value: str(int(value)),
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
    str: json.dumps,
    list: lambda value: "[" + ",".join(map(parent_json_compact, value)) + "]",
    tuple: lambda value: "[" + ",".join(map(parent_json_compact, value)) + "]",
}


def parent_json_compact(value) -> str:
    encode = _PARENT_ENCODERS.get(type(value))
    if encode is None:
        raise TypeError(f"unsupported trace value type {type_name(value)}")
    return encode(value)


def _written(rows) -> str:
    """The text write_jsonl writes for `rows`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.jsonl")
        write_jsonl(path, rows)
        with open(path, newline="") as fp:
            return fp.read()


_ints = st.one_of(st.integers(-1000, 1000), st.integers(10**9, 10**400),
                  st.integers(-2**63, 2**63 - 1))
_float_seqs = st.lists(finite, max_size=6).flatmap(
    lambda xs: st.sampled_from([xs, tuple(xs)]))
_leaves = st.one_of(finite, _ints, st.booleans(), st.none(), st.text(max_size=6),
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
       st.sampled_from(["scalar", "list", "tuple", "dict"]),
       st.data())
def test_write_jsonl_names_a_non_finite_entry_like_the_parent(row, bad, where, data):
    # one non-finite float anywhere in a row: the parent's ValueError, which
    # names the value
    value = {"scalar": bad, "list": [1.0, bad], "tuple": (bad, 2.0),
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


# ---------------------------------------------------------------------------
# trace rows through their shape's plan, against the per-value encoders
# ---------------------------------------------------------------------------
# write_jsonl writes a row through the cached plan of its shape (its keys and
# the exact type of each value) when the plan places it, else through
# _json_compact; either way the bytes and errors are the per-value
# encoders'.


def _write_rows(rows):
    """write_jsonl's text for `rows` and the error it raised (None when it
    wrote every row)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.jsonl")
        try:
            write_jsonl(path, rows)
            error = None
        except (TypeError, ValueError) as e:
            error = e
        with open(path, newline="") as fp:
            return fp.read(), error


def _parent_rows(rows):
    """The parent encoder's text for `rows`, row by row up to the first it
    refuses, and that refusal (None when it takes every row)."""
    lines = []
    for row in rows:
        try:
            lines.append(parent_json_compact(row) + "\n")
        except (TypeError, ValueError) as e:
            return "".join(lines), e
    return "".join(lines), None


def _same_rows(got, want):
    assert got[0] == want[0]
    assert type(got[1]) is type(want[1])
    assert str(got[1]) == str(want[1])


@pytest.fixture(scope="module")
def bundled_runs():
    """Each bundled scenario's run of its first 2 s."""
    return {name: run(dataclasses.replace(sc, duration=min(sc.duration, 2.0)))
            for name, sc in ((name, scenarios.get(name)) for name in scenarios.names())}


@pytest.fixture(scope="module")
def bundled_rows(bundled_runs):
    """Per bundled scenario, the tracker, command and ground-truth rows of
    its first 2 s.  The target stays projectable there, so each run's truth
    rows also hold a copy of one row with a null box and centre, as the
    writer writes a target it cannot project."""
    rows = {}
    for name, art in bundled_runs.items():
        truth = list(art.truth_trace)
        truth.insert(5, {**truth[5], "box": None, "center": None, "in_view": False})
        rows[name] = (art.tracker_trace, art.command_trace, truth)
    return rows


def _numpy_values(value, where):
    """Where a numpy object sits in `value`, looked for in dict values and
    in list and tuple entries."""
    if type(value).__module__ == "numpy":
        return [where]
    if isinstance(value, dict):
        return [w for k, v in value.items() for w in _numpy_values(v, f"{where}.{k}")]
    if isinstance(value, (list, tuple)):
        return [w for v in value for w in _numpy_values(v, where)]
    return []


def test_bundled_rows_and_summaries_hold_python_values_only(bundled_runs):
    # the writers hand over Python floats, ints, strs, bools, None and float
    # tuples; the trace encoder refuses a numpy value
    for name, art in bundled_runs.items():
        for file, rows in (("tracker", art.tracker_trace), ("commands", art.command_trace),
                           ("groundtruth", art.truth_trace), ("summary", [art.summary])):
            assert [w for r in rows for w in _numpy_values(r, file)] == [], name


def _refuse(value):
    raise AssertionError("a row went past its plan")


def test_write_jsonl_writes_the_per_value_bytes_of_bundled_rows(bundled_rows):
    for name, files in bundled_rows.items():
        for rows in files:
            assert _written(rows) == "".join(ref_json_compact(r) + "\n" for r in rows), name
        # each row is placed by its shape's plan: with a _json_compact that
        # raises, the same bytes are written
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(logio, "_json_compact", _refuse)
            for rows in files:
                assert _written(rows) == "".join(ref_json_compact(r) + "\n" for r in rows)
    tracker, commands, truth = (
        [r for files in bundled_rows.values() for r in files[i]] for i in range(3))
    assert any(r["status"] == "coasting" for r in tracker)
    assert any(r["status"] == "tracking" and r["s_iou"] is None for r in tracker)   # prompt
    assert any(r["s_iou"] is not None for r in tracker)
    hover = [r["ew"] == r["eh"] == r["dew"] == r["deh"] == 0.0 for r in commands]
    assert any(hover) and not all(hover)
    assert any(r["box"] is None and r["center"] is None for r in truth)


_PLACED = {"t": 0.5, "box": (1.0, 2.0, 3.0, 4.0), "p": (0.25, -0.5, 1.0),
           "n": 3, "ok": True, "name": "tracking", "none": None}


@pytest.mark.parametrize("field, value", [
    ("box", (1.0, 2, 3.0, 4.0)),
    ("box", (1.0, True, 3.0, 4.0)),
    ("box", (1.0, None, 3.0, 4.0)),
    ("box", (1.0, np.float64(2.0), 3.0, 4.0)),
    ("box", (1.0, 10**400, 3.0, 4.0)),
    ("box", (1.0, {"a": 2.0}, 3.0, 4.0)),
    ("box", (1.0, [2.0, 2.5], 3.0, 4.0)),
    ("box", (1.0, "2", 3.0, 4.0)),
    ("box", (1.0, 2.0, 3.0)),
    ("box", (1.0, 2.0, 3.0, 4.0, 5.0)),
    ("box", (1.0, object(), 3.0, 4.0)),
    ("box", (1.0, math.nan, 3.0, 4.0)),
    ("box", (1e308, 1e308, -1e308, 4.0)),
    ("p", np.array([0.25, -0.5, 1.0], dtype=np.float32)),
    ("p", np.array([0.25, -0.5, 1.0], dtype=">f8")),
    ("p", np.array([0.25, -0.5])),
    ("p", np.array([[0.25, -0.5, 1.0]])),
    ("p", np.array(0.25)),
    ("p", np.arange(3)),
    ("p", np.array([0.25, -0.5, 1.0], dtype=object)),
    ("p", np.array([0.25, math.inf, 1.0])),
    ("n", 10**400),
    ("n", 10**5000),
    ("name", 'q"\\%s\u00e9\x00'),
    ("t", -math.inf),
], ids=lambda v: type(v).__name__)
def test_a_row_of_a_cached_shape_that_its_plan_cannot_place(field, value):
    # the same keys as a row the plan has placed, and mostly the same
    # top-level types: the parent encoder's bytes, or its exception after
    # the rows before it (the TypeError of a numpy value, which its table
    # does not list, in place of a float or of the float tuple "p")
    rows = [_PLACED, {**_PLACED, field: value}, _PLACED]
    _same_rows(_write_rows(rows), _parent_rows(rows))


@pytest.mark.parametrize("k", [0, 1, 17, 39])
@pytest.mark.parametrize("file, field", [
    (0, "t"), (0, "s_total"), (0, "mean"), (1, "thrust"), (1, "quat_des"),
    (2, "center"), (2, "quad_p"), (2, "dist_xy")])
def test_a_non_finite_value_in_row_k_leaves_rows_0_to_k(bundled_rows, file, field, k):
    rows = list(bundled_rows["occlusion_decoy"][file][:40])
    bad = [math.nan, math.inf, -math.inf][k % 3]
    value = rows[k][field]
    if isinstance(value, tuple):
        value = (value[0], bad, *value[2:])
    else:
        value = bad
    rows[k] = {**rows[k], field: value}
    text, error = _write_rows(rows)
    assert text == "".join(ref_json_compact(r) + "\n" for r in rows[:k])
    assert isinstance(error, ValueError)
    assert str(error) == f"refusing to serialize non-finite float {bad!r}"
    _same_rows((text, error), _parent_rows(rows))


def test_more_row_shapes_than_the_plan_cache_holds():
    # each shape once, then all again after the cache has been cleared
    rows = [{f"k{i}": 0.5 + i, "v": (1.0 / (i + 1), float(i)), "n": i}
            for i in range(3 * logio._MAX_PLANS)]
    rows += [dict(reversed(r.items())) for r in rows] + rows
    assert _written(rows) == "".join(parent_json_compact(r) + "\n" for r in rows)
    assert len(logio._PLANS) <= logio._MAX_PLANS


def test_values_no_plan_places_take_the_per_type_encoders():
    # a sequence that is not all floats is written by the per-type table
    # (_json_seq and _json_bool), also in a cached shape
    assert logio._json_seq((1.0, 2, None, True)) == "[1,2,null,true]"
    assert logio._json_bool(False) == "false"
    rows = [{"s": (1.0, 2.5), "b": False}, {"s": (1.0, 2, None, True), "b": False},
            {"s": (0.5, 1.5), "b": True}]
    assert _written(rows) == ('{"s":[1,2.5],"b":false}\n{"s":[1,2,null,true],"b":false}\n'
                              '{"s":[0.5,1.5],"b":true}\n')


def test_keys_that_are_not_str_go_through_the_per_value_encoder():
    # 1, 1.0 and True are equal keys with different text
    rows = [{1: 0.5}, {1.0: 0.5}, {True: 0.5}, {None: 0.5, 2: "x"}] * 2
    assert _written(rows) == "".join(parent_json_compact(r) + "\n" for r in rows)


def test_trace_keys_are_json_strings_that_read_back(tmp_path):
    # a quote, a backslash, a percent sign, a non-ASCII and a control
    # character in keys, each row twice: once to build its plan, once
    # through it, and once through _json_compact
    keys = ['a"b', "c\\d", "e%f", "%.9g", "g\u00e9h", "i\x1fj"]
    rows = [{k: 0.5 * i for i, k in enumerate(keys)},
            {k: (0.25, float(i)) for i, k in enumerate(keys)},
            {"%s": "%d", "x": [None, {"y%": 1.5}]}]
    path = tmp_path / "keys.jsonl"
    write_jsonl(path, rows + rows)
    want = json.loads(json.dumps(rows))
    assert read_jsonl(path) == want + want
    assert path.read_text() == "".join(_json_compact(r) + "\n" for r in rows) * 2
    assert _json_compact({'a"b': 1.0}) == '{"a\\"b":1}'


# ---------------------------------------------------------------------------
# descriptors encoded in blocks, against '%.9g' % x per float
# ---------------------------------------------------------------------------
# write_events encodes a block's descriptors at once in numpy; g9_line is the
# oracle, one '%.9g' % x per float, and ref_write_events the writer that
# encodes event by event.


def g9_line(ev) -> str:
    """A finite record as '%.9g' % x per float writes it."""
    def g(xs):
        return "[" + ",".join(["%.9g" % float(x) for x in xs]) + "]"
    if isinstance(ev, GyroSample):
        return '{"t":%.9g,"kind":"gyro","w":%s}' % (ev.t, g(ev.w))
    dets = ev.detections
    return ('{"t":%.9g,"kind":"det","boxes":[%s],"conf":%s,"desc":[%s]}'
            % (ev.t, ",".join(g(box_array(d.box)) for d in dets),
               g([d.confidence for d in dets]),
               ",".join(g(d.descriptor) for d in dets)))


def g9_text(events) -> str:
    return "".join(g9_line(ev) + "\n" for ev in events)


def _write_failure(events):
    """write_events's text and the error it raised (None when it wrote
    every event)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "events.jsonl")
        try:
            write_events(path, events)
            error = None
        except (StreamOrderError, ValueError) as e:
            error = e
        with open(path, newline="") as fp:
            return fp.read(), error


def written_events(events) -> str:
    """The text write_events writes for `events`, which it must accept."""
    text, error = _write_failure(events)
    assert error is None
    return text


def descriptor_frames(values, size=256, per_frame=4):
    """Frames at t = 0, 1, ..., each with `per_frame` detections whose
    descriptors hold `values` in order, `size` entries each."""
    values = np.asarray(values, dtype=float)
    descs = [values[i:i + size] for i in range(0, len(values), size)]
    return [DetectionSet(float(k), [Detection(BoundingBox(1.0, 2.0, 3.0, 4.0), 0.5, d)
                                    for d in descs[i:i + per_frame]])
            for k, i in enumerate(range(0, len(descs), per_frame))]


def edge_floats() -> list[float]:
    """Values at and beside every boundary of the block encoder's fast path,
    with both signs."""
    xs = [0.0, 5e-324, 1.0, 1e308,
          # carries: 9 digits round up to the next power of ten
          0.0999999999951, 9.9999999995e-5, 0.9999999995, 0.00999999999951,
          0.0999999999949, 9.99999999949e-5, 0.999999999499]
    for k in range(-6, 2):
        p = 10.0 ** k
        xs += [p, np.nextafter(p, 0.0), np.nextafter(p, 20.0)]
    # 9-digit half-way points with z zeros after "0.", and their neighbours
    for z in range(4):
        for m in (100000000, 123456789, 499999999, 999999999):
            h = (m + 0.5) / 10.0 ** (9 + z)
            xs += [h, np.nextafter(h, 0.0), np.nextafter(h, 1.0)]
    # binary fractions, exact ties among them (2**-10 .. 2**-13)
    xs += [2.0 ** -k for k in range(1, 40)]
    xs = [float(x) for x in xs]
    return xs + [-x for x in xs]


def test_write_events_equals_the_oracle_on_a_million_descriptor_entries():
    # unit-descriptor-like entries: all but about 0.1% on the fast path,
    # across about 500 blocks
    xs = np.random.default_rng(37).normal(size=10**6) / 16
    events = descriptor_frames(xs)
    assert written_events(events) == g9_text(events)


def test_edge_floats_equal_the_oracle():
    xs = edge_floats()
    # all in one descriptor, one per descriptor, and in short descriptors
    # three to a frame; through write_events and through event_line alone
    for events in (descriptor_frames(xs, size=len(xs)), descriptor_frames(xs, size=1),
                   descriptor_frames(xs * 3, size=7, per_frame=3)):
        assert written_events(events) == g9_text(events)
        assert "".join(event_line(ev) + "\n" for ev in events) == g9_text(events)


@given(st.lists(finite, max_size=300))
def test_event_line_equals_the_oracle_on_float_lists(xs):
    ev = DetectionSet(1.0, [Detection(BoundingBox(1.0, 2.0, 3.0, 4.0), 0.5,
                                      np.array(xs, dtype=float))])
    assert event_line(ev) == g9_line(ev)


ragged_frames = st.lists(
    st.lists(st.lists(finite, max_size=20).map(np.array), max_size=4).map(
        lambda descs: [Detection(BoundingBox(1.0, 2.0, 3.0, 4.0), 0.5, d) for d in descs]),
    max_size=6).map(lambda frames: [DetectionSet(float(t), dets)
                                    for t, dets in enumerate(frames)])


@given(ragged_frames, st.sampled_from([1, 5, 2048]))
def test_ragged_and_empty_descriptors_in_any_block_size(events, block):
    # a block boundary after any frame; descriptors of any length, [] too
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(logio, "_BLOCK_FLOATS", block)
        assert written_events(events) == g9_text(events)


def test_empty_descriptors_and_frames():
    empty = np.zeros(0)
    events = [DetectionSet(0.0),
              frame(1.0, [(1, 2, 3, 4), (5, 6, 7, 8)], descs=[empty, empty]),
              frame(2.0, [(1, 2, 3, 4), (5, 6, 7, 8), (9, 9, 9, 9)],
                    descs=[empty, [0.25, -0.5], empty])]
    assert [event_line(ev) for ev in events] == [g9_line(ev) for ev in events]
    assert written_events(events) == g9_text(events)
    assert event_line(events[1]).endswith('"desc":[[],[]]}')


@pytest.mark.parametrize("name", scenarios.names())
def test_bundled_runs_write_the_oracles_bytes(name):
    # every event of a 2 s run: write_events, event_line record by record
    # and the oracle agree byte for byte
    sc = scenarios.get(name)
    events = run(dataclasses.replace(sc, duration=min(sc.duration, 2.0))).events
    assert any(isinstance(ev, DetectionSet) and len(ev) for ev in events)
    want = g9_text(events)
    assert written_events(events) == want
    assert "".join(event_line(ev) + "\n" for ev in events) == want


def ref_write_events(events):
    """The lines a writer that encodes event by event writes, and the error
    it stops on (None when it writes every event)."""
    lines, prev = [], None
    try:
        for ev in events:
            if prev is not None and (ev.t < prev.t or (
                    ev.t == prev.t and isinstance(prev, DetectionSet))):
                raise StreamOrderError(f"{ev.t!r} may not follow {prev.t!r}")
            lines.append(ref_event_line(ev))
            prev = ev
    except (StreamOrderError, ValueError) as e:
        return "".join(line + "\n" for line in lines), e
    return "".join(line + "\n" for line in lines), None


def _same_failure(got, want):
    assert got[0] == want[0]
    assert type(got[1]) is type(want[1])
    if isinstance(want[1], ValueError):
        assert str(got[1]) == str(want[1])


@given(st.lists(events(), min_size=1, max_size=6), st.data(),
       st.sampled_from([1, 7, 2048]))
def test_write_events_stops_like_the_per_event_writer(evs, data, block):
    # up to two non-finite values and a timestamp out of order anywhere in
    # the stream: the first refusal in record order is raised, and the file
    # holds exactly the lines before the refused event
    evs = [GyroSample(float(i), ev.w) if isinstance(ev, GyroSample)
           else DetectionSet(float(i), ev.detections) for i, ev in enumerate(evs)]
    for _ in range(data.draw(st.integers(0, 2))):
        i = data.draw(st.integers(0, len(evs) - 1))
        bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        evs[i] = spoil(evs[i], bad, data)
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(evs) - 1))
        ev = evs[i]
        evs[i] = (GyroSample(-1.0, ev.w) if isinstance(ev, GyroSample)
                  else DetectionSet(-1.0, ev.detections))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(logio, "_BLOCK_FLOATS", block)
        _same_failure(_write_failure(evs), ref_write_events(evs))


def test_the_first_non_finite_value_in_record_order_names_the_error():
    def record(t, conf=0.5, desc=(0.5, -0.25)):
        return DetectionSet(t, [Detection(BoundingBox(1.0, 2.0, 3.0, 4.0), conf,
                                          np.array(desc))])

    # within one block: an inf in a record's head and a NaN in a later
    # record's descriptor, the other way round, and both in one record,
    # whose head comes before its descriptors
    for evs, name in (
            ([record(0.0), record(1.0, conf=math.inf), record(2.0, desc=(0.5, math.nan))], "inf"),
            ([record(0.0), record(1.0, desc=(0.5, math.nan)), record(2.0, conf=math.inf)], "nan"),
            ([record(0.0), record(1.0, conf=math.inf, desc=(math.nan,))], "inf")):
        text, error = _write_failure(evs)
        assert text == g9_text(evs[:1])
        assert isinstance(error, ValueError)
        assert str(error) == f"refusing to serialize non-finite float {name}"


@pytest.mark.parametrize("k, refusal", [
    (k, refusal) for k in (0, 1, 4, 5, 30, 61)
    for refusal in ("order", "head", "descriptor")
    if k or refusal != "order"])     # the first event follows no other
def test_a_refused_event_leaves_the_lines_before_it(k, refusal):
    # gyro samples between frames of four 256-entry descriptors, two frames
    # a block; the refused event at the start, inside or at the end of a block
    xs = np.random.default_rng(5).normal(size=32 * 1024) / 16
    events = []
    for ev in descriptor_frames(xs):
        events += [gyro(ev.t), ev]
    ev = events[k]
    if refusal == "order":
        events[k] = (DetectionSet(-1.0, ev.detections) if isinstance(ev, DetectionSet)
                     else gyro(-1.0))
    elif refusal == "head":
        events[k] = DetectionSet(math.nan, ev.detections) if isinstance(
            ev, DetectionSet) else gyro(ev.t, (0.1, math.inf, 0.3))
    elif isinstance(ev, DetectionSet):
        desc = ev.detections[3].descriptor.copy()
        desc[200] = -math.inf
        events[k] = DetectionSet(ev.t, [*ev.detections[:3], Detection(
            ev.detections[3].box, 0.5, desc)])
    else:
        events[k] = gyro(ev.t, (math.nan, 0.2, 0.3))
    text, error = _write_failure(events)
    want = ref_write_events(events)
    assert want[1] is not None
    _same_failure((text, error), want)
    assert text == g9_text(events[:k])
