"""Command-line harness: subcommands, scenario resolution, exit codes."""

import contextlib
import errno
import inspect
import io
import json
import os
import pickle
import re
import shutil
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quadtrack
from quadtrack import ablation, cli, errors, scenarios, simulator
from quadtrack.config import (
    ObjectConfig,
    PromptConfig,
    Scenario,
    save_scenario,
)
from quadtrack.detection import Detection, DetectionSet, SyntheticDetectorConfig
from quadtrack.errors import ConfigError
from quadtrack.logio import read_events, read_jsonl, write_jsonl
from quadtrack.metrics import MetricsParams, compute_metrics
from quadtrack.replay import replay_track
from quadtrack.tracker import Tracker

ALL_NAMES = ["corridor_approach", "false_positive_storm", "occlusion_decoy",
             "rotation_only", "sprint_7ms", "static_target"]
_BIG = 10 ** 400      # a 401-digit JSON integer: too large for a float
# the one line every runtime abort prints (exit code 2)
ABORT_LINE = re.compile(
    r"^abort: (physics|controller|detector|tracker): .+ at t=\d+\.\d{6} s$")


def make_scenario(**kw):
    base = dict(
        name="cli_unit",
        seed=5,
        duration=1.0,
        prompt=PromptConfig(480.0, 272.0),
        objects=(ObjectConfig(0, (0.6, 0.6), ((0.0, 12.0, 0.0, 1.5),)),),
        detector=SyntheticDetectorConfig(center_noise_px=0.5, size_noise_frac=0.01,
                                         feature_noise=0.05, p_dropout=0.0,
                                         descriptor_dim=16),
    )
    base.update(kw)
    return Scenario(**base)


@pytest.fixture(scope="module")
def sim_run(tmp_path_factory):
    """One closed-loop run shared by the sim/track/metrics tests."""
    root = tmp_path_factory.mktemp("cli")
    sc_path = root / "cli_unit.json"
    save_scenario(make_scenario(), sc_path)
    out = root / "run"
    assert cli.main(["sim", str(sc_path), "--out", str(out)]) == 0
    return sc_path, out


def test_scenario_ls(capsys):
    assert cli.main(["scenario", "ls"]) == 0
    assert capsys.readouterr().out.split() == ALL_NAMES


def test_scenario_describe_round_trips(capsys):
    assert cli.main(["scenario", "describe", "occlusion_decoy"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert Scenario.from_dict(d) == scenarios.get("occlusion_decoy")


def test_scenario_describe_errors(capsys):
    assert cli.main(["scenario", "describe"]) == 1
    assert "missing scenario name" in capsys.readouterr().err
    assert cli.main(["scenario", "describe", "nope"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_usage_errors_exit_1(capsys):
    assert cli.main(["--bogus"]) == 1
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["sim"]) == 1
    assert cli.main([]) == 1
    assert "error" in capsys.readouterr().err


def test_resolve_scenario(tmp_path):
    sc = make_scenario()
    path = tmp_path / "custom.json"
    save_scenario(sc, path)
    assert cli.resolve_scenario(str(path)) == sc
    assert cli.resolve_scenario(str(path)[:-5]) == sc
    assert cli.resolve_scenario("rotation_only") == scenarios.get("rotation_only")
    assert (cli.resolve_scenario("scenarios/rotation_only.json")
            == scenarios.get("rotation_only"))
    with pytest.raises(ConfigError, match="no scenario file or bundled"):
        cli.resolve_scenario(str(tmp_path / "missing.json"))


def test_resolve_bundled_name_outside_the_repo_root(tmp_path, monkeypatch):
    # the corpus is found beside the package source, not in the working directory
    monkeypatch.chdir(tmp_path)
    assert cli.resolve_scenario("rotation_only") == scenarios.get("rotation_only")


def test_scenario_describe_prints_the_corpus_file(capsys):
    corpus = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
    for name in scenarios.names():
        assert cli.main(["scenario", "describe", name]) == 0
        with open(os.path.join(corpus, f"{name}.json")) as fp:
            assert capsys.readouterr().out == fp.read(), name


def test_sim_writes_run_dir(sim_run):
    _, out = sim_run
    names = sorted(p.name for p in out.iterdir())
    assert names == ["commands.jsonl", "events.jsonl", "groundtruth.jsonl",
                     "summary.json", "tracker.jsonl"]
    with open(out / "summary.json") as fp:
        summary = json.load(fp)
    assert summary["scenario"] == "cli_unit"
    assert summary["seed"] == 5
    assert summary["counts"] == {"physics": 1000, "control": 100, "camera": 60}
    assert summary["metrics"]["tracked_pct"] > 0


def test_sim_unknown_scenario_exits_1(tmp_path, capsys):
    assert cli.main(["sim", str(tmp_path / "ghost.json")]) == 1
    assert "no scenario file" in capsys.readouterr().err


def _dropout_scenario(tmp_path) -> str:
    """A scenario file whose every run aborts at the prompt (exit 2): a
    detector that always drops leaves nothing to initialize from."""
    path = tmp_path / "dropout.json"
    save_scenario(make_scenario(
        detector=SyntheticDetectorConfig(p_dropout=1.0, descriptor_dim=16)), path)
    return str(path)


def test_sim_runtime_abort_exits_2(tmp_path, capsys):
    path = _dropout_scenario(tmp_path)
    assert cli.main(["sim", path, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == (
        "abort: tracker: no detections at prompt time; cannot initialize at t=0.000000 s\n")



def test_a_flown_run_with_no_scorable_frame_is_written_with_the_reason(tmp_path,
                                                                      capsys):
    # the target's first waypoint 100 times farther along x: the target
    # never projects to a box, the tracker locks a false positive, and no
    # frame of the flown run can be scored.  The run is written whole, with
    # null metrics and the scorer's reason, and exits 0 as a run whose
    # prompt falls after its last frame does; the ablation of the same
    # scenario fails with the same reason, before any replay
    d = scenarios.get("false_positive_storm").to_dict()
    d["duration"] = 0.5
    target = next(o for o in d["objects"] if o["obj_id"] == d["target_id"])
    target["waypoints"][0][1] *= 100
    path, out = tmp_path / "far.json", tmp_path / "run"
    path.write_text(json.dumps(d))
    reason = "no scorable frames (target never projectable)"
    assert cli.main(["sim", str(path), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"wrote {out}\nnull\n"
    assert captured.err == f"no metrics: {reason}\n"
    assert sorted(os.listdir(out)) == ["commands.jsonl", "events.jsonl",
                                       "groundtruth.jsonl", "summary.json",
                                       "tracker.jsonl"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["metrics"] is None and summary["metrics_error"] == reason
    assert any(r["status"] == "tracking" for r in read_jsonl(out / "tracker.jsonl"))
    assert_fails(capsys, ["metrics", str(out)], 1, f"error: {reason}")
    assert_fails(capsys, ["ablate", str(path), "--seeds", "1"], 1, f"error: {reason}")

# one noise, gain, vehicle or covariance value of a run, by section
_FUZZ_FIELDS = (
    *(("detector", key) for key in ("center_noise_px", "size_noise_frac",
                                    "feature_noise")),
    *(("controller", key) for key in ("kp_roll", "kd_roll", "kp_thrust", "kd_thrust",
                                      "kp_yaw", "kd_yaw", "attitude_kr", "attitude_kw")),
    *(("quad", key) for key in ("gyro_noise", "motor_lag", "mass")),
    *(("tracker", key) for key in ("q_diag", "r_diag", "p0_diag")),
    *(("camera_script", key) for key in ("amplitude", "period")),
)


def _scaled(v, k: int):
    """v times 10^k, entry by entry; a zero is scaled from 1, so that no
    case leaves its value as it was."""
    if isinstance(v, list):
        return [_scaled(x, k) for x in v]
    return (v or 1.0) * 10.0 ** k


# the lowest power of ten a field is scaled by, when not -3: a script period
# reaches the subnormal range, where 2 pi / period is infinite
_LOWEST_K = {("camera_script", "period"): -320}


def _fields_and_ks():
    """A _FUZZ_FIELDS entry and the power k, up to 308, that scales it."""
    return st.sampled_from(_FUZZ_FIELDS).flatmap(lambda field: st.tuples(
        st.just(field), st.integers(_LOWEST_K.get(field, -3), 308)))


def _scaled_scenario(name, field, k) -> dict:
    """A bundled scenario at 0.5 s with one _FUZZ_FIELDS value scaled by 10^k."""
    section, key = field
    d = scenarios.get(name).to_dict()
    d["duration"] = 0.5
    d[section][key] = _scaled(d[section][key], k)
    return d


def _sim_in_process(d) -> tuple[int, str]:
    """`sim` of scenario dict d through cli.main, in process with every
    warning an error: (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = os.path.join(tmp, "scaled.json")
        with open(path, "w") as fp:
            json.dump(d, fp)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["sim", path, "--out", os.path.join(tmp, "run")])
    return code, err.getvalue()


@settings(max_examples=40)
@given(st.sampled_from(ALL_NAMES), _fields_and_ks())
# an initial covariance near the float range (see the test after next)
@example("static_target", (("tracker", "p0_diag"), 306))
# a still script's amplitude 0 scaled from 1 to 10^308: its peak rate
# overflows, and the load check rejects it before any matmul warns
@example("occlusion_decoy", (("camera_script", "amplitude"), 308))
def test_a_scaled_value_exits_cleanly_with_one_abort_line(name, field_k):
    # the run ends, is rejected at load (a value scaled past the float
    # range), or aborts in one layer with one line in the abort shape;
    # nothing escapes cli.main
    code, err = _sim_in_process(_scaled_scenario(name, *field_k))
    assert code in (0, 1, 2), err
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and ABORT_LINE.match(lines[0]), err


def _uncompensated(d) -> dict:
    d["tracker"]["gyro_compensation"] = False
    return d


@pytest.mark.parametrize("d,line", [
    # the first update's posterior is finite, but its entries of ~1e275
    # are the rounding residue of 1e307-scale terms, and the next frame's
    # innovation covariance fails the exact gate
    (_scaled_scenario("static_target", ("tracker", "p0_diag"), 306),
     "abort: tracker: innovation covariance condition number exceeds 1e+12 "
     "at t=0.033333 s"),
    # box sizes beyond the float range: the update's product with the
    # innovation overflows to inf, which the check after it reports
    (_uncompensated(_scaled_scenario("static_target", ("detector", "size_noise_frac"),
                                     308)),
     "abort: tracker: filter mean or covariance is not finite after update "
     "at t=0.083333 s"),
], ids=["p0_diag_1e306", "size_noise_frac_1e308"])
def test_a_filter_near_the_float_range_aborts_with_one_tracker_line(d, line):
    # two of the fuzz's examples, in process with every warning an error:
    # the filter's Python floats overflow to inf with no warning, and the
    # run aborts in the tracker with one line
    assert _sim_in_process(d) == (2, line + "\n")


# the switches that change a run's structure rather than its scale; an
# "objects" switch is a key of a non-target object the test draws (the
# target cannot be an occluder), or of the only object
_FUZZ_SWITCHES = (("tracker", "gyro_compensation"), ("objects", "occluder"),
                  ("camera_script", "scripted"))


@settings(max_examples=20)
@given(st.sampled_from(ALL_NAMES), st.sampled_from(_FUZZ_SWITCHES),
       st.integers(0, 3), _fields_and_ks(),
       st.integers(0, 3), st.integers(0, 3), st.integers(-3, 308))
# uncompensated runs never read the gyro: its overflowed noise, and the
# filter update's product with a huge innovation
@example("rotation_only", ("tracker", "gyro_compensation"), 0,
         (("quad", "gyro_noise"), 308), 0, 1, 0)
@example("static_target", ("tracker", "gyro_compensation"), 0,
         (("detector", "size_noise_frac"), 308), 0, 1, 0)
# an object far off the image axis: its box is beyond the float range
@example("static_target", ("tracker", "gyro_compensation"), 0,
         (("detector", "center_noise_px"), 0), 0, 3, 306)
# a flown platform turned scripted, yawing at a peak rate of ~6e307 rad/s
@example("static_target", ("camera_script", "scripted"), 0,
         (("camera_script", "amplitude"), 307), 0, 1, 0)
# a still script turned flown, its period scaled to 10^-320: 2 pi / period
# is infinite, which the load check rejects before the script is built
@example("occlusion_decoy", ("camera_script", "scripted"), 0,
         (("camera_script", "period"), -320), 0, 1, 0)
def test_a_flipped_switch_with_a_scaled_value_exits_cleanly_with_one_line(
        name, switch, obj, field_k, waypoint, coord, j):
    # one switch flipped, one value scaled by 10^k and entry `coord` (t, x,
    # y or z) of one waypoint of a drawn object scaled by 10^j, in the same
    # run: it ends, or fails at load or in one layer with one line (an abort
    # in the abort shape); nothing escapes cli.main.  obj, and waypoint
    # within the object's path, count modulo the choices.  A time of a
    # path with more than one waypoint moves by its gap to its neighbour
    # scaled by 10^j, so that the times stay strictly increasing and the
    # run flies: the first waypoint's away from the second, and any other
    # draw the last waypoint's away from the one before it.
    d = _scaled_scenario(name, *field_k)
    objects = d["objects"]
    path = objects[obj % len(objects)]["waypoints"]
    i = waypoint % len(path)
    if coord == 0 and len(path) > 1:
        i = 0 if i == 0 else len(path) - 1
        t_near = path[1 if i == 0 else i - 1][0]
        path[i][0] = t_near + _scaled(path[i][0] - t_near, j)
    else:
        path[i][coord] = _scaled(path[i][coord], j)
    section, key = switch
    node = d[section]
    if section == "objects":
        others = [o for o in objects if o["obj_id"] != d["target_id"]] or objects
        node = others[obj % len(others)]
    node[key] = not node[key]
    code, err = _sim_in_process(d)
    assert code in (0, 1, 2), err
    lines = err.splitlines()
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), err
    if code == 2:
        assert len(lines) == 1 and ABORT_LINE.match(lines[0]), err


@pytest.mark.parametrize("section,key,value,message", [
    ("detector", "p_dropout", 1.5, "scenario.detector: p_dropout must be in [0, 1]"),
    ("tracker", "weights", [0, 0, 0],
     "scenario.tracker: at least one weight must be positive"),
    ("tracker", "memory_alpha", 2, "scenario.tracker: memory_alpha must be in [0, 1]"),
])
def test_sim_rejects_bad_layer_values_exits_1(tmp_path, capsys, section, key,
                                              value, message):
    d = make_scenario().to_dict()
    d[section][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    assert cli.main(["sim", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def _bad_runs():
    """Scenarios (and flags) that fail in different layers or at load, with
    the exit code and the stderr line `quadtrack sim` owes each."""
    ctrl = make_scenario().to_dict()
    ctrl["controller"].update(kp_thrust=1e307, kp_roll=1e307)
    fp_size = scenarios.get("false_positive_storm").to_dict()
    fp_size["detector"].update(fp_size_min=-50.0, fp_size_max=-10.0)
    noise = scenarios.get("false_positive_storm").to_dict()
    noise["detector"]["center_noise_px"] = 1e308
    feature = scenarios.get("false_positive_storm").to_dict()
    feature["detector"]["feature_noise"] = 1e308
    dropout = scenarios.get("static_target").to_dict()
    dropout["detector"]["p_dropout"] = 1.0
    # huge centre and gyro noise with an aggressive pitch law overflow the
    # filter's covariance in predict
    filter_overflow = scenarios.get("corridor_approach").to_dict()
    filter_overflow["seed"] = 21
    filter_overflow["detector"]["center_noise_px"] = 400.0
    filter_overflow["quad"]["gyro_noise"] = 1.0
    filter_overflow["controller"]["pitch_accel"] = 30.0

    # an object so far off the image axis that its box leaves the float range
    far = scenarios.get("static_target").to_dict()
    far["duration"] = 0.5
    far["objects"][0]["waypoints"][0][3] *= 1e306
    # a target so far away that its ground-truth distance overflows, with
    # the decoy to lock on in view
    far_target = scenarios.get("occlusion_decoy").to_dict()
    far_target["duration"] = 1.0
    far_target["objects"][0]["waypoints"] = [[0.0, 1.3e308, 1.3e308, 1.5]]
    far_target["objects"][3]["waypoints"] = [[0.0, 6.0, 3.566, 1.5]]
    far_target["prompt"] = {"x": 200.0, "y": 272.0, "t": 0.0}

    def edit(change):
        d = make_scenario().to_dict()
        change(d)
        return d

    backwards = [[0.0, 12.0, 0.0, 1.5], [2.0, 14.0, 0.0, 1.5], [1.0, 16.0, 0.0, 1.5]]

    def bundled(name, section, **values):
        d = scenarios.get(name).to_dict()
        d[section].update(values)
        return d

    def script(name, **values):
        d = scenarios.get(name).to_dict()
        d["duration"] = 0.5
        d["camera_script"].update(values)
        return d

    nan, inf = float("nan"), float("inf")
    decoy_flag = scenarios.get("occlusion_decoy").to_dict()
    decoy_flag["objects"][2]["occluder"] = "false"
    decoy_waypoints = scenarios.get("occlusion_decoy").to_dict()
    decoy_waypoints["objects"][2]["waypoints"] = backwards
    position = lambda v: lambda d: d["objects"][0].update(waypoints=[[0.0, *v]])
    return [
        ("controller_overflow", ctrl, (), 2, "abort: controller: non-finite thrust at t="),
        ("negative_fp_sizes", fp_size, (), 1, "error: scenario.detector: false-positive sizes"),
        ("detector_overflow", noise, (), 2, "abort: detector: box field"),
        ("descriptor_overflow", feature, (), 2,
         "abort: detector: descriptor norm is not finite: inf at t=0.000000 s"),
        ("box_overflow", far, (), 2,
         "abort: detector: box field y is not finite: -inf at t=0.000000 s"),
        ("truth_distance_overflow", far_target, (), 2,
         "abort: physics: ground-truth distance is not finite at t=0.000000 s"),
        ("tracker_initialization", dropout, (), 2,
         "abort: tracker: no detections at prompt time; cannot initialize at t=0.000000 s"),
        ("filter_overflow", filter_overflow, (), 2,
         "abort: tracker: filter mean or covariance is not finite after predict "
         "at t=0.600000 s"),
        # a scripted yaw swing of +-2 rad turns the camera more than 90 deg
        # away from the target: the coasting box leaves the image, and its
        # rotational flow, which grows as (1 + xn^2), diverges in finite time
        ("coast_off_image", bundled("rotation_only", "camera_script", amplitude=2.0),
         (), 2,
         "abort: tracker: filter mean or covariance is not finite after predict "
         "at t=0.560000 s"),
        # a script whose peak yaw rate amplitude * 2 pi / period is not
        # finite cannot be flown: an overflowing rate, or an infinite
        # 2 pi / period, which a still script's phase turns into 0 * inf
        *((row, sc, (), 1, "error: scenario.camera_script: peak yaw rate "
           "amplitude * 2 pi / period must be finite")
          for row, sc in (
              ("script_rate_overflow",
               script("static_target", scripted=True, amplitude=1e308)),
              ("script_period_underflow", script("rotation_only", period=1e-320)),
              ("still_script_period_underflow",
               script("occlusion_decoy", period=1e-320)))),
        # a tiny amplitude and period pass that check, but the phase w0 t
        # overflows within the run
        ("script_phase_overflow",
         {**script("rotation_only", amplitude=1e-308, period=4e-308), "duration": 2.0},
         (), 2, "abort: physics: scripted yaw phase is not finite at t=1.150000 s"),
        # the removed script mode is a key no section declares
        ("script_mode_key", bundled("occlusion_decoy", "camera_script", mode="static"),
         (), 1, "error: scenario.camera_script: unknown key(s) ['mode']"),
        ("negative_seed", edit(lambda d: d.update(seed=-1)), (), 1,
         "error: scenario: seed must be an integer >= 0"),
        ("negative_seed_flag", make_scenario().to_dict(), ("--seed", "-1"), 1,
         "error: scenario: seed must be an integer >= 0"),
        ("duration_string", edit(lambda d: d.update(duration="x")), (), 1,
         "error: scenario.duration: expected a number"),
        ("size_string", edit(lambda d: d["objects"][0].update(size=["a", 1])), (), 1,
         "error: scenario.objects[0].size: expected a list of numbers"),
        ("position_string", edit(position([10, 0, "x"])), (), 1,
         "error: scenario.objects[0].waypoints: expected a list of numbers"),
        ("position_nan", edit(position([10, 0, float("nan")])), (), 1,
         "error: scenario.objects[0].waypoints: every number must be finite"),
        ("prompt_string", edit(lambda d: d["prompt"].update(x="a")), (), 1,
         "error: scenario.prompt.x: expected a number"),
        ("waypoints_backwards",
         edit(lambda d: d["objects"][0].update(waypoints=backwards)), (), 1,
         "error: scenario.objects[0]: waypoint times must be strictly increasing"),
        ("waypoints_backwards_object_2", decoy_waypoints, (), 1,
         "error: scenario.objects[2]: waypoint times must be strictly increasing"),
        ("occluder_string", decoy_flag, (), 1,
         "error: scenario.objects[2].occluder: expected true or false"),
        ("start_position_nan",
         bundled("corridor_approach", "quad", start_position=[0.0, 0.0, nan]), (), 1,
         "error: scenario.quad.start_position: every number must be finite"),
        ("physics_hz_inf", bundled("rotation_only", "rates", physics_hz=inf), (), 1,
         "error: scenario.rates.physics_hz: every number must be finite"),
        ("camera_width_inf", bundled("rotation_only", "camera", width=inf), (), 1,
         "error: scenario.camera.width: every number must be finite"),
        ("acceptance_nan",
         bundled("occlusion_decoy", "tracker", acceptance_fraction=nan), (), 1,
         "error: scenario.tracker.acceptance_fraction: every number must be finite"),
        ("gyro_noise_inf", bundled("rotation_only", "quad", gyro_noise=inf), (), 1,
         "error: scenario.quad.gyro_noise: every number must be finite"),
        ("yaw_amplitude_nan",
         bundled("rotation_only", "camera_script", amplitude=nan), (), 1,
         "error: scenario.camera_script.amplitude: every number must be finite"),
        # a value of the wrong kind is rejected at load by its declared type,
        # not run as something else or left to fail in a layer
        # a key that no section declares, such as the removed
        # controller.literal_equations, is rejected by name
        ("literal_equations_key",
         bundled("rotation_only", "controller", literal_equations=False), (), 1,
         "error: scenario.controller: unknown key(s) ['literal_equations']"),
        ("gyro_compensation_string",
         bundled("rotation_only", "tracker", gyro_compensation="no"), (), 1,
         "error: scenario.tracker.gyro_compensation: expected true or false"),
        *((f"{key}_string", bundled("corridor_approach", "controller", **{key: "x"}),
           (), 1, f"error: scenario.controller.{key}: expected a number")
          for key in ("kp_roll", "pitch_accel", "min_thrust_frac", "deriv_tau")),
        ("attitude_kr_string",
         bundled("corridor_approach", "controller", attitude_kr=["a", 1, 1]), (), 1,
         "error: scenario.controller.attitude_kr: expected a list of numbers"),
        ("start_yaw_string", bundled("rotation_only", "quad", start_yaw="x"), (), 1,
         "error: scenario.quad.start_yaw: expected a number"),
        ("start_position_string",
         bundled("corridor_approach", "quad", start_position=["a", 0, 1]), (), 1,
         "error: scenario.quad.start_position: expected a list of numbers"),
        ("yaw_amplitude_string",
         bundled("rotation_only", "camera_script", amplitude="x"), (), 1,
         "error: scenario.camera_script.amplitude: expected a number"),
        ("descriptor_dim_float",
         bundled("rotation_only", "detector", descriptor_dim=8.0), (), 1,
         "error: scenario.detector.descriptor_dim: expected an integer, got 8.0"),
        ("descriptor_dim_fraction",
         bundled("rotation_only", "detector", descriptor_dim=3.5), (), 1,
         "error: scenario.detector.descriptor_dim: expected an integer, got 3.5"),
        ("deriv_tau_negative",
         bundled("corridor_approach", "controller", deriv_tau=-0.01), (), 1,
         "error: scenario.controller: deriv_tau must be >= 0"),
    ]


def _quadtrack_process(argv):
    """`python -m quadtrack *argv` in a fresh process: (exit code, stderr)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(quadtrack.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-m", "quadtrack", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stderr


def assert_fails(capsys, argv, code, message):
    """cli.main(argv) in process exits `code`, prints nothing to stdout and
    one stderr line that starts with `message`, an abort's line in the one
    abort shape (a traceback would escape main and fail the test)."""
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(message), captured.err
    assert code != 2 or ABORT_LINE.match(err[0]), captured.err


# The rows run cli.main in process, where a RuntimeWarning is an error; the
# entry point runs in a fresh process for one load error and one runtime
# abort.
_PROCESS_ROWS = {"negative_seed_flag", "controller_overflow"}


@pytest.mark.parametrize("name,scenario,flags,code,message", _bad_runs(),
                         ids=[r[0] for r in _bad_runs()])
def test_sim_process_fails_with_exit_code_and_no_traceback(tmp_path, capsys, name,
                                                           scenario, flags, code,
                                                           message):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(scenario))
    argv = ["sim", str(path), *flags, "--out", str(tmp_path / "run")]
    if name not in _PROCESS_ROWS:
        assert_fails(capsys, argv, code, message)
        return
    returncode, stderr = _quadtrack_process(argv)
    assert returncode == code, stderr
    assert "Traceback" not in stderr
    assert stderr.splitlines()[-1].startswith(message), stderr
    assert code != 2 or ABORT_LINE.match(stderr.splitlines()[-1]), stderr


def test_override_flags():
    sc = make_scenario()
    over = cli._with_flags(sc, {"seed": 42, "tracker.gyro_compensation": False})
    assert over.seed == 42
    assert over.tracker.gyro_compensation is False
    plain = cli._with_flags(sc, {"seed": None, "tracker.gyro_compensation": None})
    assert plain == sc


def test_track_replays_recorded_log(sim_run, tmp_path, capsys):
    _, out = sim_run
    events = str(out / "events.jsonl")
    trace_path = tmp_path / "trace.jsonl"
    code = cli.main(["track", events, "--prompt", "480,272",
                     "--out", str(trace_path)])
    assert code == 0
    trace = read_jsonl(str(trace_path))
    assert len(trace) == 60
    assert {"t", "status", "box", "s_total"} <= set(trace[0])
    capsys.readouterr()

    assert cli.main(["track", events, "--prompt", "480,272"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("frames=60 tracking=")


def test_track_replay_matches_live_decisions(sim_run, tmp_path):
    # Replay consumes the 9-digit-rounded log, so scores drift at the
    # rounding level, but every frame decision must agree with the live run.
    _, out = sim_run
    trace_path = tmp_path / "replayed.jsonl"
    assert cli.main(["track", str(out / "events.jsonl"), "--prompt", "480,272",
                     "--out", str(trace_path)]) == 0
    live = read_jsonl(str(out / "tracker.jsonl"))
    replayed = read_jsonl(str(trace_path))
    assert len(replayed) == len(live)
    for a, b in zip(live, replayed):
        assert (a["t"], a["status"], a["coast"]) == (b["t"], b["status"], b["coast"])
        assert a["box"] == b["box"]
        assert a["s_total"] == pytest.approx(b["s_total"], rel=1e-2)


def test_track_readme_command_matches_live_run(tmp_path):
    # README: quadtrack sim scenarios/occlusion_decoy.json --seed 7 --out runs/decoy-s7
    #         quadtrack track runs/decoy-s7/events.jsonl --prompt 527,272 --weights 3,3,4
    out = tmp_path / "decoy-s7"
    assert cli.main(["sim", "occlusion_decoy", "--seed", "7", "--out", str(out)]) == 0
    trace_path = tmp_path / "replayed.jsonl"
    assert cli.main(["track", str(out / "events.jsonl"), "--prompt", "527,272",
                     "--weights", "3,3,4", "--out", str(trace_path)]) == 0
    live = read_jsonl(str(out / "tracker.jsonl"))
    replayed = read_jsonl(str(trace_path))
    assert len(live) == len(replayed) == 1800
    decisions = lambda rows: [(r["t"], r["status"], r["box"], r["coast"]) for r in rows]
    assert decisions(replayed) == decisions(live)


def test_track_equals_library_replay_with_scenario_config(tmp_path):
    sc = scenarios.get("false_positive_storm").with_seed(2)
    out = tmp_path / "storm-s2"
    assert cli.main(["sim", sc.name, "--seed", "2", "--out", str(out)]) == 0
    events = str(out / "events.jsonl")
    assert cli.main(["track", events, "--prompt", f"{sc.prompt.x},{sc.prompt.y}",
                     "--out", str(tmp_path / "cli.jsonl")]) == 0
    trace = replay_track(read_events(events), (sc.prompt.x, sc.prompt.y),
                         sc.prompt.t, sc.tracker.build(sc.camera.build()))
    write_jsonl(tmp_path / "lib.jsonl", trace)
    assert (tmp_path / "cli.jsonl").read_bytes() == (tmp_path / "lib.jsonl").read_bytes()


def test_track_and_metrics_need_run_summary(sim_run, tmp_path, capsys):
    _, out = sim_run
    for name in ("events.jsonl", "tracker.jsonl", "groundtruth.jsonl"):
        (tmp_path / name).write_bytes((out / name).read_bytes())
    missing = str(tmp_path / "summary.json")
    assert cli.main(["track", str(tmp_path / "events.jsonl"), "--prompt", "480,272"]) == 1
    assert f"missing run summary: {missing}" in capsys.readouterr().err
    assert cli.main(["metrics", str(tmp_path)]) == 1
    assert f"missing run summary: {missing}" in capsys.readouterr().err


def test_track_bad_arguments(sim_run, capsys):
    _, out = sim_run
    events = str(out / "events.jsonl")
    assert cli.main(["track", events, "--prompt", "1,2,3"]) == 1
    assert "--prompt: expected 2" in capsys.readouterr().err
    assert cli.main(["track", events, "--prompt", "480,272",
                     "--weights", "1,nan?"]) == 1
    assert "--weights" in capsys.readouterr().err
    assert cli.main(["track", events]) == 1
    assert cli.main(["track", "no_such.jsonl", "--prompt", "1,2"]) == 1


def test_metrics_command(sim_run, capsys):
    _, out = sim_run
    assert cli.main(["metrics", str(out)]) == 0
    got = json.loads(capsys.readouterr().out)
    tracker = read_jsonl(str(out / "tracker.jsonl"))
    truth = read_jsonl(str(out / "groundtruth.jsonl"))
    with open(out / "summary.json") as fp:
        summary = json.load(fp)
    params = Scenario.from_dict(summary["scenario_config"]).metrics
    assert got == compute_metrics(tracker, truth, params).as_dict()

    # summary.json holds the live metrics, scored on full-precision boxes;
    # the trace files keep each box value v to %.9g, i.e. within 5e-9 |v|.
    # With c the largest |v| there, a box edge (x or x + w) moves by at most
    # eps = 1e-8 c.  That changes the intersection I and each area A by at
    # most 2 eps (w + h), so IOU = I / U moves by at most
    # (2 |dI| + |dA1| + |dA2|) / U <= 16 eps / s, s the smallest box side,
    # because (w + h) / U <= (w + h) / (w h) <= 2 / s.  iou_pct is 100 times
    # a mean IOU, and the stored value is itself rounded to %.9g.
    stored = summary["metrics"]
    boxes = ([r[k] for r in tracker for k in ("box", "pred") if r[k] is not None]
             + [r["box"] for r in truth if r["box"] is not None])
    c = max(abs(v) for b in boxes for v in b)
    s = min(min(b[2], b[3]) for b in boxes)
    bound = 100.0 * 16.0 * 1e-8 * c / s + 5e-9 * abs(stored["iou_pct"])
    assert abs(got["iou_pct"] - stored["iou_pct"]) <= bound
    # the count metrics flip only for a frame whose IOU lies within that
    # bound of the threshold or of 0; otherwise only the summary's rounding
    assert got["lock_lost_at"] is None and stored["lock_lost_at"] is None
    for key in ("overlap_pct", "tracked_pct"):
        assert got[key] == pytest.approx(stored[key], rel=5e-9)
    # stricter threshold can only lower the tracked fraction
    assert cli.main(["metrics", str(out), "--iou-threshold", "0.9"]) == 0
    strict = json.loads(capsys.readouterr().out)
    assert strict["tracked_pct"] <= got["tracked_pct"]


def test_metrics_defaults_to_recorded_settings(tmp_path, capsys):
    path = tmp_path / "strict.json"
    save_scenario(make_scenario(metrics=MetricsParams(0.95, 0)), path)
    out = tmp_path / "run"
    assert cli.main(["sim", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(["metrics", str(out)]) == 0
    recorded = json.loads(capsys.readouterr().out)
    assert cli.main(["metrics", str(out), "--iou-threshold", "0.3",
                     "--coast-credit", "60"]) == 0
    lenient = json.loads(capsys.readouterr().out)
    with open(out / "summary.json") as fp:
        stored = json.load(fp)["metrics"]
    assert recorded["tracked_pct"] == pytest.approx(stored["tracked_pct"], rel=1e-8)
    assert recorded["tracked_pct"] < lenient["tracked_pct"]


def test_metrics_missing_file_exits_1(tmp_path, capsys):
    assert cli.main(["metrics", str(tmp_path)]) == 1
    assert "missing trace file" in capsys.readouterr().err


def test_ablate_grid_parsing(tmp_path):
    sc = make_scenario()
    assert cli._parse_grid("table2", sc) == cli.DEFAULT_GRID
    grid_path = tmp_path / "grid.json"
    grid_path.write_text("[[3, 0, 0], [3, 3, 4]]\n")
    assert cli._parse_grid(str(grid_path), sc) == ((3.0, 0.0, 0.0), (3.0, 3.0, 4.0))
    with pytest.raises(ConfigError, match="grid file not found"):
        cli._parse_grid(str(tmp_path / "none.json"), sc)
    bad = tmp_path / "bad.json"
    bad.write_text("[[1, 2]]\n")
    with pytest.raises(ConfigError, match="expected a JSON list"):
        cli._parse_grid(str(bad), sc)
    bad.write_text("{nope\n")
    with pytest.raises(ConfigError, match="invalid JSON"):
        cli._parse_grid(str(bad), sc)


def test_ablate_command(sim_run, tmp_path, capsys):
    sc_path, _ = sim_run
    grid_path = tmp_path / "grid.json"
    grid_path.write_text("[[3, 0, 0], [3, 3, 4]]\n")
    out_path = tmp_path / "result.json"
    code = cli.main(["ablate", str(sc_path), "--grid", str(grid_path),
                     "--seeds", "1", "--out", str(out_path)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "scenario: cli_unit   seeds: 1"
    assert lines[1].split() == ["w_iou", "w_ekf", "w_map", "iou%", "overlap%",
                                "tracked%", "lock_lost"]
    assert lines[2].split()[:3] == ["3", "0", "0"]
    assert lines[3].split()[:3] == ["3", "3", "4"]
    assert lines[4].startswith("wrote ")

    with open(out_path) as fp:
        result = json.load(fp)
    assert result["scenario"] == "cli_unit"
    assert result["seeds"] == [5]
    assert [r["weights"] for r in result["rows"]] == [[3.0, 0.0, 0.0],
                                                      [3.0, 3.0, 4.0]]
    assert all(len(r["per_seed"]) == 1 for r in result["rows"])
    assert all(0.0 <= r["mean"]["tracked_pct"] <= 100.0 for r in result["rows"])


@pytest.mark.parametrize("flags,message", [
    (["--iou-threshold", "7"], "bad iou_threshold 7.0"),
    (["--iou-threshold", "nan"],
     "scenario.metrics.iou_threshold: every number must be finite"),
    (["--iou-threshold", "0"], "bad iou_threshold 0.0"),
    (["--coast-credit", "-3"], "bad coast credit -3"),
])
def test_metrics_rejects_bad_overrides_exits_1(sim_run, capsys, flags, message):
    # the overrides go through the same checks as the scenario's metrics section
    _, out = sim_run
    assert cli.main(["metrics", str(out)] + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: scenario.metrics")
    assert message in err[0]


@pytest.mark.parametrize("flags,message", [
    (["--prompt", "nan,nan"], "scenario.prompt.x: every number must be finite"),
    (["--prompt", "inf,272"], "scenario.prompt.x: every number must be finite"),
    (["--prompt-t", "nan"], "scenario.prompt.t: every number must be finite"),
    (["--prompt-t", "inf"], "scenario.prompt.t: every number must be finite"),
    (["--prompt-t", "-5"], "scenario.prompt: time must be non-negative"),
    (["--weights", "inf,3,4"], "scenario.tracker.weights: every number must be finite"),
    (["--weights", "1e308,1e308,1e308"],
     "scenario.tracker: weights and their total must be finite"),
    (["--weights=-1,3,4"], "scenario.tracker: weights must be 3 non-negative"),
], ids=["prompt_nan", "prompt_inf", "prompt_t_nan", "prompt_t_inf", "prompt_t_negative",
        "weights_inf", "weights_total_overflow", "weights_negative"])
def test_track_checks_its_flags_as_scenario_values(sim_run, capsys, flags, message):
    # a flag is an edit of the recorded scenario, checked as the same value
    # in a file would be, not run as given (a NaN prompt locked detection 0)
    _, out = sim_run
    argv = ["track", str(out / "events.jsonl"), "--prompt", "480,272", *flags]
    assert_fails(capsys, argv, 1, f"error: {message}")


def test_ablate_checks_its_seed_flag_as_a_scenario_value(sim_run, capsys):
    sc_path, _ = sim_run
    assert_fails(capsys, ["ablate", str(sc_path), "--seed", "-1"], 1,
                 "error: scenario: seed must be an integer >= 0, got -1")


@pytest.mark.parametrize("rows,message", [
    ("[[Infinity, 3, 4], [3, 3, 4]]",
     "row 0: scenario.tracker.weights: every number must be finite, got [inf, 3, 4]"),
    ("[[3, 3, 4], [NaN, 3, 4]]",
     "row 1: scenario.tracker.weights: every number must be finite, got [nan, 3, 4]"),
    ("[[1e308, 1e308, 1e308]]",
     "row 0: scenario.tracker: weights and their total must be finite"),
    (f"[[3, 3, 4], [{_BIG}, 3, 4]]",
     "row 1: scenario.tracker.weights: every number must be finite, got [1000"),
    ("[[3, 3, 4], [-1, 3, 4]]", "row 1: scenario.tracker: weights must be 3 non-negative"),
    ("[[0, 0, 0]]", "row 0: scenario.tracker: at least one weight must be positive"),
    ('[["a", 3, 4]]',
     "row 0: scenario.tracker.weights: expected a list of numbers, got ['a', 3, 4]"),
], ids=["infinity", "nan", "total_overflow", "int_401_digits", "negative", "all_zero",
        "string"])
def test_ablate_rejects_a_bad_grid_row_naming_it(sim_run, tmp_path, capsys, rows,
                                                  message):
    # each row is loaded as the scenario's tracker.weights, so it is checked,
    # and reported, as the same value in a scenario file would be
    sc_path, _ = sim_run
    grid = tmp_path / "grid.json"
    grid.write_text(rows + "\n")
    assert_fails(capsys, ["ablate", str(sc_path), "--grid", str(grid), "--seeds", "1"],
                 1, f"error: grid file {grid}: {message}")


def _copy_run(src, dst, name, change):
    """Copy the run directory src to dst, replacing each record of the file
    `name` for which change(record) gives a new one; the first such line's
    number."""
    dst.mkdir()
    for p in src.iterdir():
        (dst / p.name).write_bytes(p.read_bytes())
    lines = (dst / name).read_text().splitlines()
    changed = []
    for i, line in enumerate(lines):
        new = change(json.loads(line))
        if new is not None:
            lines[i] = json.dumps(new)      # NaN and Infinity as Python writes them
            changed.append(i + 1)
    (dst / name).write_text("\n".join(lines) + "\n")
    return changed[0]


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("kind,change,constant", [
    ("gyro", lambda r: {**r, "w": [_NAN, 0.0, 0.0]}, "NaN"),
    ("gyro", lambda r: {**r, "t": _NAN}, "NaN"),
    ("gyro", lambda r: {**r, "w": [-_INF, 0.0, 0.0]}, "-Infinity"),
    ("det", lambda r: {**r, "desc": [[_INF, *d[1:]] for d in r["desc"]]} if r["desc"]
     else None, "Infinity"),
], ids=["gyro_w_nan", "gyro_t_nan", "gyro_w_minus_infinity", "descriptor_infinity"])
def test_track_rejects_a_non_finite_log_value_naming_the_line(sim_run, tmp_path, capsys,
                                                              kind, change, constant):
    # Python's json reads NaN and Infinity; the log reader does not, so such
    # a value is a malformed line (exit 1), not a filter abort or a silent 0
    _, out = sim_run
    line_no = _copy_run(out, tmp_path / "run", "events.jsonl",
                        lambda r: change(r) if r["kind"] == kind else None)
    log = tmp_path / "run" / "events.jsonl"
    assert_fails(capsys, ["track", str(log), "--prompt", "480,272"], 1,
                 f"error: {log}: line {line_no}: invalid JSON: {constant} is not a "
                 "finite number")


@pytest.mark.parametrize("number", [str(_BIG), "1e999"], ids=["int_401_digits", "1e999"])
def test_track_rejects_a_number_beyond_the_float_range_naming_the_file_and_line(
        sim_run, tmp_path, capsys, number):
    # json reads a 401-digit integer as an int and 1e999 as an infinity; a
    # log holds finite floats only, so either is a malformed line, not a
    # traceback or a filter abort (tests/test_logio.py covers every field)
    _, out = sim_run
    line_no = _copy_run(out, tmp_path / "run", "events.jsonl",
                        lambda r: {**r, "w": ["NUMBER", 0.0, 0.0]}
                        if r["kind"] == "gyro" else None)
    log = tmp_path / "run" / "events.jsonl"
    log.write_text(log.read_text().replace('"NUMBER"', number))
    assert_fails(capsys, ["track", str(log), "--prompt", "480,272"], 1,
                 f"error: {log}: line {line_no}: ")


@pytest.mark.parametrize("cut", [8, 0], ids=["eight_entries", "empty"])
def test_track_rejects_a_descriptor_of_another_length_naming_the_line(
        sim_run, tmp_path, capsys, cut):
    # the tracker scores descriptors against a memory of the log's first
    # one's length (the run's descriptor_dim, 16); a shorter one later in
    # the log is a malformed line, not a shape error in the scorer or in the
    # memory update
    _, out = sim_run
    line_no = _copy_run(out, tmp_path / "run", "events.jsonl",
                        lambda r: {**r, "desc": [d[:cut] for d in r["desc"]]}
                        if r["kind"] == "det" and r["desc"] and r["t"] > 0.5 else None)
    log = tmp_path / "run" / "events.jsonl"
    assert_fails(capsys, ["track", str(log), "--prompt", "480,272"], 1,
                 f"error: {log}: line {line_no}: descriptor has {cut} entries, "
                 "the log's first 16")


def test_track_rejects_a_log_of_empty_descriptors_naming_the_line(tmp_path, capsys):
    # a log whose every descriptor has no entries is malformed at its first
    # detection (exit 1), not a tracker abort on a zero descriptor (exit 2)
    d = scenarios.get("rotation_only").to_dict()
    d["duration"] = 0.5
    path = tmp_path / "short.json"
    path.write_text(json.dumps(d))
    assert cli.main(["sim", str(path), "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    line_no = _copy_run(tmp_path / "run", tmp_path / "empty", "events.jsonl",
                        lambda r: {**r, "desc": [[] for _ in r["desc"]]}
                        if r["kind"] == "det" and r["desc"] else None)
    log = tmp_path / "empty" / "events.jsonl"
    prompt = f"{d['prompt']['x']},{d['prompt']['y']}"
    assert_fails(capsys, ["track", str(log), "--prompt", prompt], 1,
                 f"error: {log}: line {line_no}: descriptor has no entries")


@pytest.mark.parametrize("name,change,message", [
    ("groundtruth.jsonl", lambda r: {**r, "box": r["box"][:2]} if r["box"] else None,
     "malformed trace (ValueError: "),
    ("tracker.jsonl", lambda r: {k: v for k, v in r.items() if k != "t"},
     "malformed trace (KeyError: 't')"),
    ("tracker.jsonl", lambda r: {**r, "box": [_BIG, *r["box"][1:]]} if r["box"] else None,
     "malformed trace (OverflowError: "),
], ids=["two_element_box", "row_without_t", "int_401_digits_in_box"])
def test_metrics_reports_a_malformed_trace_naming_the_run(sim_run, tmp_path, capsys,
                                                          name, change, message):
    _, out = sim_run
    run_dir = tmp_path / "run"
    _copy_run(out, run_dir, name, change)
    assert_fails(capsys, ["metrics", str(run_dir)], 1, f"error: {run_dir}: {message}")


def test_metrics_rejects_a_non_finite_trace_value_naming_the_line(sim_run, tmp_path,
                                                                  capsys):
    _, out = sim_run
    run_dir = tmp_path / "run"
    line_no = _copy_run(out, run_dir, "groundtruth.jsonl",
                        lambda r: {**r, "box": [_NAN] * 4} if r["box"] else None)
    # metrics reads three files: the error names the one that holds the line
    assert_fails(capsys, ["metrics", str(run_dir)], 1,
                 f"error: {run_dir / 'groundtruth.jsonl'}: line {line_no}: invalid JSON: "
                 "NaN is not a finite number")


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_ablate_rejects_seed_count_below_one_exits_1(sim_run, capsys, seeds):
    sc_path, _ = sim_run
    assert cli.main(["ablate", str(sc_path), "--seeds", seeds]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: ablation needs at least one seed, got {seeds}"]


def _error_classes(cls=errors.QuadtrackError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


@pytest.mark.parametrize("cls", sorted(_error_classes(), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_errors_survive_a_pickle_round_trip(cls):
    # a process pool (`ablate --parallel`) sends a worker's error back pickled
    values = {"t": 0.123456789, "path": "run/events.jsonl", "line_no": 7,
              "message": "boom"}
    params = inspect.signature(cls.__init__).parameters
    err = cls(*([values[p] for p in params if p in values] or ["boom"]))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    for attr in ("t", "path", "line_no"):
        assert getattr(back, attr, None) == getattr(err, attr, None)


def test_ablate_parallel_reports_an_abort_like_the_sequential_path(tmp_path):
    d = make_scenario().to_dict()
    d["controller"].update(kp_thrust=1e307, kp_roll=1e307)
    path = tmp_path / "ctrl.json"
    path.write_text(json.dumps(d))
    src = os.path.dirname(os.path.dirname(os.path.abspath(quadtrack.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    runs = [subprocess.run([sys.executable, "-m", "quadtrack", "ablate", str(path),
                            "--seeds", "2", *flags], capture_output=True, text=True,
                           env=env, timeout=120)
            for flags in ((), ("--parallel",))]
    sequential, parallel = runs
    assert sequential.returncode == parallel.returncode == 2, parallel.stderr
    assert "Traceback" not in parallel.stderr
    line = sequential.stderr.splitlines()[-1]
    assert line.startswith("abort: controller: non-finite thrust at t=")
    assert ABORT_LINE.match(line), line
    assert parallel.stderr.splitlines()[-1] == line


def _errno_line(code, path) -> str:
    """The text of an OSError with errno `code` on `path`."""
    return f"[Errno {code}] {os.strerror(code)}: '{path}'"


# A file that cannot be read, written or decoded: (name, files made under
# {tmp}, argv, the error line's text after "error: ").  {sc} is the shared
# run's scenario file and {run} its run directory; {spoiled} is a copy of
# the run whose events.jsonl line 40 and tracker.jsonl line 30 begin with a
# byte that is not UTF-8.
_FILE_ERRORS = [
    ("track_a_directory", {}, ["track", "{run}/", "--prompt", "1,2"],
     _errno_line(errno.EISDIR, "{run}/")),
    ("sim_out_an_existing_file", {"file": b""}, ["sim", "{sc}", "--out", "{tmp}/file"],
     _errno_line(errno.EEXIST, "{tmp}/file")),
    ("sim_out_below_a_file", {"file": b""},
     ["sim", "{sc}", "--out", "{tmp}/file/sub"],
     _errno_line(errno.ENOTDIR, "{tmp}/file/sub")),
    ("ablate_grid_a_directory", {},
     ["ablate", "{sc}", "--seeds", "1", "--grid", "{tmp}"],
     _errno_line(errno.EISDIR, "{tmp}")),
    ("ablate_out_a_directory", {}, ["ablate", "{sc}", "--seeds", "1", "--out", "{tmp}"],
     _errno_line(errno.EISDIR, "{tmp}")),
    ("scenario_not_utf8", {"bad.json": b"\xff\xfe{"}, ["sim", "{tmp}/bad.json"],
     "{tmp}/bad.json: not UTF-8 text (invalid start byte)"),
    ("events_not_utf8", {}, ["track", "{spoiled}/events.jsonl", "--prompt", "480,272"],
     "{spoiled}/events.jsonl: line 40: not UTF-8 text (invalid start byte)"),
    ("tracker_trace_not_utf8", {}, ["metrics", "{spoiled}"],
     "{spoiled}/tracker.jsonl: line 30: not UTF-8 text (invalid start byte)"),
    ("grid_not_utf8", {"grid.json": b"[[3, 0, 0]]\xff\n"},
     ["ablate", "{sc}", "--seeds", "1", "--grid", "{tmp}/grid.json"],
     "grid file {tmp}/grid.json: not UTF-8 text (invalid start byte)"),
    ("summary_a_number", {"n/summary.json": b"5\n"},
     ["track", "{tmp}/n/events.jsonl", "--prompt", "1,2"],
     "{tmp}/n/summary.json: no recorded 'scenario_config'; re-run `quadtrack sim`"),
    ("summary_a_string", {"s/summary.json": b'"scenario_config"\n'},
     ["track", "{tmp}/s/events.jsonl", "--prompt", "1,2"],
     "{tmp}/s/summary.json: no recorded 'scenario_config'; re-run `quadtrack sim`"),
]


def _file_error(sim_run, tmp_path, files, argv, text):
    """Make the row's files; its argv and error line, filled in."""
    sc_path, run_dir = sim_run
    spoiled = tmp_path / "spoiled"
    shutil.copytree(run_dir, spoiled)
    for name, line_no in (("events.jsonl", 40), ("tracker.jsonl", 30)):
        lines = (spoiled / name).read_bytes().split(b"\n")
        lines[line_no - 1] = b"\xff" + lines[line_no - 1]
        (spoiled / name).write_bytes(b"\n".join(lines))
    for name, data in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes(data)
    fill = dict(sc=sc_path, run=run_dir, tmp=tmp_path, spoiled=spoiled)
    return [a.format(**fill) for a in argv], "error: " + text.format(**fill)


@pytest.mark.parametrize("files,argv,text", [r[1:] for r in _FILE_ERRORS],
                         ids=[r[0] for r in _FILE_ERRORS])
def test_a_file_error_exits_1_with_one_error_line(sim_run, tmp_path, capsys,
                                                  files, argv, text):
    # an OSError or a file that is not UTF-8 is one error line, never a
    # traceback
    argv, line = _file_error(sim_run, tmp_path, files, argv, text)
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [line]


def test_a_file_error_in_a_process_has_no_traceback(sim_run, tmp_path):
    files, argv, text = _FILE_ERRORS[0][1:]
    argv, line = _file_error(sim_run, tmp_path, files, argv, text)
    returncode, stderr = _quadtrack_process(argv)
    assert returncode == 1, stderr
    assert "Traceback" not in stderr
    assert stderr.splitlines() == [line]


_OUT_ERRORS = [r for r in _FILE_ERRORS if "_out_" in r[0]]


@pytest.mark.parametrize("files,argv,text", [r[1:] for r in _OUT_ERRORS],
                         ids=[r[0] for r in _OUT_ERRORS])
def test_an_unusable_out_fails_before_any_simulation(sim_run, tmp_path, capsys,
                                                     monkeypatch, files, argv, text):
    # a spy on simulator.run, under each name the commands call it by,
    # counts no call: the one error line comes first, with no table
    argv, line = _file_error(sim_run, tmp_path, files, argv, text)
    calls = []
    inner = simulator.run

    def spy(sc):
        calls.append(sc)
        return inner(sc)

    for module in (simulator, cli, ablation):
        monkeypatch.setattr(module, "run", spy)
    assert cli.main(argv) == 1
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [line]


def test_an_unusable_out_in_a_process_fails_before_any_simulation(tmp_path):
    # a simulation of this scenario would abort with exit 2; exit 1 with
    # the out error shows that none ran
    sc = _dropout_scenario(tmp_path)
    (tmp_path / "file").write_text("")
    for argv, line in (
            (["sim", sc, "--out", f"{tmp_path}/file"],
             _errno_line(errno.EEXIST, f"{tmp_path}/file")),
            (["ablate", sc, "--seeds", "2", "--out", str(tmp_path)],
             _errno_line(errno.EISDIR, str(tmp_path)))):
        returncode, stderr = _quadtrack_process(argv)
        assert returncode == 1, stderr
        assert "Traceback" not in stderr
        assert stderr.splitlines() == ["error: " + line]


def test_a_failed_command_leaves_its_out_path_as_it_was(tmp_path, capsys):
    # an existing --out keeps its bytes, and a new one is not left behind
    sc = _dropout_scenario(tmp_path)
    old = tmp_path / "old.json"
    old.write_text("kept\n")
    (tmp_path / "old_run").mkdir()
    (tmp_path / "old_run" / "x").write_text("kept\n")
    for argv in (["ablate", sc, "--seeds", "1", "--out", str(old)],
                 ["ablate", sc, "--seeds", "1", "--out", f"{tmp_path}/new.json"],
                 ["sim", sc, "--out", f"{tmp_path}/old_run"],
                 ["sim", sc, "--out", f"{tmp_path}/new_run"]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().out == ""
    assert old.read_text() == (tmp_path / "old_run" / "x").read_text() == "kept\n"
    assert not (tmp_path / "new.json").exists()
    assert not (tmp_path / "new_run").exists()


def _nan_truth_row(art):
    art.truth_trace[5]["dist_xy"] = float("nan")
    return art


def _nan_late_descriptor(art):
    i = max(i for i, ev in enumerate(art.events)
            if isinstance(ev, DetectionSet) and len(ev))
    ev = art.events[i]
    d = ev.detections[-1]
    desc = d.descriptor.copy()
    desc[len(desc) // 2] = float("nan")
    art.events[i] = DetectionSet(ev.t, [*ev.detections[:-1],
                                        Detection(d.box, d.confidence, desc)])
    return art


@pytest.mark.parametrize("existing", [False, True], ids=["new_out", "existing_out"])
def test_a_refused_row_value_leaves_out_as_it_was(tmp_path, capsys, monkeypatch,
                                                  existing):
    # one value set to NaN after the run, a ground-truth value (refused once
    # three files are written) or an entry of the last detection's
    # descriptor (refused by the block encoder, in events.jsonl, the first
    # file written): sim prints one error line, exits 1 and leaves --out as
    # it was, with no temporary directory beside it
    real_run = cli.run
    path = tmp_path / "short.json"
    d = scenarios.get("rotation_only").to_dict()
    d["duration"] = 0.5
    path.write_text(json.dumps(d))
    for spoil in (_nan_truth_row, _nan_late_descriptor):
        monkeypatch.setattr(cli, "run", lambda sc, spoil=spoil: spoil(real_run(sc)))
        work = tmp_path / spoil.__name__
        work.mkdir()
        out = work / "run"
        if existing:
            out.mkdir()
            (out / "events.jsonl").write_text("kept\n")
        before = sorted(os.listdir(work))
        assert cli.main(["sim", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {out}: run not written: refusing to serialize non-finite float nan"]
        assert sorted(os.listdir(work)) == before
        if existing:
            assert os.listdir(out) == ["events.jsonl"]
            assert (out / "events.jsonl").read_text() == "kept\n"
        else:
            assert not out.exists()


@pytest.mark.parametrize("existing", [False, True], ids=["new_out", "existing_out"])
def test_a_value_of_a_type_no_writer_takes_leaves_out_as_it_was(tmp_path, capsys,
                                                                monkeypatch, existing):
    # a numpy float in every tracker row's total score, which the metrics
    # never read: the trace writer's TypeError is one error line, exit 1,
    # and --out is left as it was, with no temporary directory beside it
    real = Tracker.trace_record

    def trace_record(self, res, t):
        row = real(self, res, t)
        if row["s_total"] is not None:
            row["s_total"] = np.float32(row["s_total"])
        return row

    monkeypatch.setattr(Tracker, "trace_record", trace_record)
    path = tmp_path / "short.json"
    d = scenarios.get("rotation_only").to_dict()
    d["duration"] = 0.5
    path.write_text(json.dumps(d))
    out = tmp_path / "run"
    if existing:
        out.mkdir()
        (out / "tracker.jsonl").write_text("kept\n")
    before = sorted(os.listdir(tmp_path))
    assert cli.main(["sim", str(path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {out}: run not written: unsupported trace value type numpy.float32"]
    assert sorted(os.listdir(tmp_path)) == before
    if existing:
        assert os.listdir(out) == ["tracker.jsonl"]
        assert (out / "tracker.jsonl").read_text() == "kept\n"
    else:
        assert not out.exists()
