"""Sensor-log serialization: formatting, ordering, parse errors."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadtrack.detection import Detection, DetectionSet, GyroSample
from quadtrack.errors import LogParseError, StreamOrderError
from quadtrack.geometry import BoundingBox
from quadtrack.logio import (EventWriter, event_line, fmt_float, read_events,
                             read_jsonl, write_events, write_jsonl)


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
    with open(path, "w") as fp:
        w = EventWriter(fp)
        w.append(gyro(0.0))
        w.append(gyro(0.0))     # same-t gyro run is fine
        w.append(frame(0.0))    # detection closes the timestamp
        w.append(gyro(0.1))
    assert len(read_events(path)) == 4


def test_writer_rejects_time_regression(tmp_path):
    with open(tmp_path / "x.jsonl", "w") as fp:
        w = EventWriter(fp)
        w.append(gyro(1.0))
        with pytest.raises(StreamOrderError):
            w.append(gyro(0.5))


def test_writer_rejects_events_after_closing_detection(tmp_path):
    with open(tmp_path / "x.jsonl", "w") as fp:
        w = EventWriter(fp)
        w.append(frame(1.0))
        with pytest.raises(StreamOrderError):
            w.append(gyro(1.0))
        w.append(gyro(1.5))  # later timestamps reopen the stream


def test_reader_rejects_broken_order(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(event_line(frame(1.0)) + "\n" + event_line(gyro(1.0)) + "\n")
    with pytest.raises(StreamOrderError):
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
    assert f"line {line_no}" in str(err.value)


def test_parse_error_invalid_json(tmp_path):
    good = event_line(gyro(0.0))
    _expect_parse_error(tmp_path, [good, good, '{"t": 0.1, "kind"'], 3)


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
