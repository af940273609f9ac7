"""Command-line harness: subcommands, scenario resolution, exit codes."""

import json
import os
import subprocess
import sys

import pytest

import quadtrack
from quadtrack import cli, scenarios
from quadtrack.config import (
    MotionConfig,
    ObjectConfig,
    PromptConfig,
    Scenario,
    save_scenario,
)
from quadtrack.detection import SyntheticDetectorConfig
from quadtrack.errors import ConfigError
from quadtrack.logio import read_events, read_jsonl, write_jsonl
from quadtrack.metrics import MetricsParams, compute_metrics
from quadtrack.replay import replay_track

ALL_NAMES = ["static_target", "corridor_approach", "occlusion_decoy",
             "sprint_7ms", "rotation_only", "false_positive_storm"]


def make_scenario(**kw):
    base = dict(
        name="cli_unit",
        seed=5,
        duration=1.0,
        prompt=PromptConfig(480.0, 272.0),
        objects=(ObjectConfig(0, (0.6, 0.6),
                              MotionConfig("static", position=(12.0, 0.0, 1.5))),),
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


def test_sim_runtime_abort_exits_2(tmp_path, capsys):
    # a detector that always drops leaves nothing to initialize from
    path = tmp_path / "dropout.json"
    save_scenario(make_scenario(
        detector=SyntheticDetectorConfig(p_dropout=1.0, descriptor_dim=16)), path)
    assert cli.main(["sim", str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith("abort:")


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
    """Three scenarios that fail in different layers, with the exit code and
    the stderr line `quadtrack sim` owes each."""
    ctrl = make_scenario().to_dict()
    ctrl["controller"].update(kp_thrust=1e307, kp_roll=1e307)
    fp_size = scenarios.get("false_positive_storm").to_dict()
    fp_size["detector"].update(fp_size_min=-50.0, fp_size_max=-10.0)
    noise = scenarios.get("false_positive_storm").to_dict()
    noise["detector"]["center_noise_px"] = 1e308
    return [
        ("controller_overflow", ctrl, 2, "abort: controller: non-finite thrust at t="),
        ("negative_fp_sizes", fp_size, 1, "error: scenario.detector: false-positive sizes"),
        ("detector_overflow", noise, 2, "abort: detector: box field"),
    ]


@pytest.mark.parametrize("name,scenario,code,message", _bad_runs(),
                         ids=[r[0] for r in _bad_runs()])
def test_sim_process_fails_with_exit_code_and_no_traceback(tmp_path, name, scenario,
                                                           code, message):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(scenario))
    src = os.path.dirname(os.path.dirname(os.path.abspath(quadtrack.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-m", "quadtrack", "sim", str(path), "--out",
         str(tmp_path / "run")], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith(message), proc.stderr


def test_override_flags():
    parser = cli.build_parser()
    sc = make_scenario()
    args = parser.parse_args(["sim", "x", "--seed", "42", "--eq11-literal",
                              "--no-gyro-comp"])
    over = cli._apply_overrides(sc, args)
    assert over.seed == 42
    assert over.controller.literal_equations is True
    assert over.tracker.gyro_compensation is False
    plain = cli._apply_overrides(sc, parser.parse_args(["sim", "x"]))
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
    assert cli._parse_grid("table2") == cli.DEFAULT_GRID
    grid_path = tmp_path / "grid.json"
    grid_path.write_text("[[3, 0, 0], [3, 3, 4]]\n")
    assert cli._parse_grid(str(grid_path)) == ((3.0, 0.0, 0.0), (3.0, 3.0, 4.0))
    with pytest.raises(ConfigError, match="grid file not found"):
        cli._parse_grid(str(tmp_path / "none.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("[[1, 2]]\n")
    with pytest.raises(ConfigError, match="expected a JSON list"):
        cli._parse_grid(str(bad))
    bad.write_text("{nope\n")
    with pytest.raises(ConfigError, match="invalid JSON"):
        cli._parse_grid(str(bad))


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
    (["--iou-threshold", "nan"], "bad iou_threshold nan"),
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
    assert len(err) == 1 and err[0].startswith("error: metrics: ")
    assert message in err[0]


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_ablate_rejects_seed_count_below_one_exits_1(sim_run, capsys, seeds):
    sc_path, _ = sim_run
    assert cli.main(["ablate", str(sc_path), "--seeds", seeds]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: ablation needs at least one seed, got {seeds}"]
