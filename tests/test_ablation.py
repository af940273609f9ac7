"""The weight ablation against its definition: every row's metrics are those
of a replay of the seed's recorded stream with that row's tracker, however
many tracker passes the ablation itself makes.  A row is replayed only when
it chooses unlike the live tracker on some frame; every other row takes the
live run's metrics."""

import os
import subprocess
import sys
from dataclasses import replace

import pytest

import quadtrack
from quadtrack import ablation, scenarios
from quadtrack.ablation import DEFAULT_GRID, run_ablation
from quadtrack.errors import MetricsError
from quadtrack.metrics import compute_metrics
from quadtrack.replay import replay_track
from quadtrack.simulator import run, write_run
from quadtrack.tracker import choose, weighted_total

DUPLICATED = ((3.0, 0.0, 0.0), (3.0, 0.0, 0.0), (3.0, 3.0, 4.0))


def _kept_runs(monkeypatch) -> list:
    """Keep the artifacts of every run the ablation makes."""
    kept = []
    inner = ablation.run

    def run(sc):
        kept.append(inner(sc))
        return kept[-1]

    monkeypatch.setattr(ablation, "run", run)
    return kept


def _counted_replays(monkeypatch) -> list:
    """Record the weights of every replay the ablation makes."""
    weights = []
    inner = ablation.replay_track

    def counted(events, prompt_xy, prompt_t, cfg):
        weights.append(cfg.weights)
        return inner(events, prompt_xy, prompt_t, cfg)

    monkeypatch.setattr(ablation, "replay_track", counted)
    return weights


def _without_total(trace) -> list:
    """A tracker trace without s_total, its arrays as lists.  Two trackers
    that choose alike on every frame give the same; on the first frame
    where they do not, the status, the box or the filter mean differs
    (unless two candidates share a box exactly)."""
    return [{k: v.tolist() if hasattr(v, "tolist") else v
             for k, v in row.items() if k != "s_total"} for row in trace]


@pytest.mark.parametrize("name, seed", [
    ("occlusion_decoy", None), ("occlusion_decoy", 7003),
    ("false_positive_storm", None), ("false_positive_storm", 7003),
    ("rotation_only", None), ("rotation_only", 7003),
    ("corridor_approach", None), ("corridor_approach", 7001),
], ids=["occlusion_decoy-default", "occlusion_decoy-held_out",
        "false_positive_storm-default", "false_positive_storm-held_out",
        "rotation_only-default", "rotation_only-held_out",
        "corridor_approach-default", "corridor_approach-held_out"])
def test_every_row_equals_a_replay_of_the_recorded_stream(monkeypatch, name, seed):
    sc = scenarios.get(name)
    sc = sc if seed is None else sc.with_seed(seed)
    kept = _kept_runs(monkeypatch)
    result = run_ablation(sc, n_seeds=1)
    art, = kept
    # the scenario's own row, which the live run scores, is on the grid
    assert sc.tracker.weights in [row.weights for row in result.rows]
    cam = sc.camera.build()
    for row in result.rows:
        cfg = replace(sc.tracker, weights=row.weights).build(cam)
        trace = replay_track(art.events, (sc.prompt.x, sc.prompt.y),
                             sc.prompt.t, cfg)
        assert row.per_seed == (
            compute_metrics(trace, art.truth_trace, sc.metrics),), row.weights


@pytest.mark.parametrize("name, weights, grid, per_seed", [
    ("false_positive_storm", None, DEFAULT_GRID, 3),
    ("false_positive_storm", (1.0, 2.0, 5.0), DEFAULT_GRID, 4),
    ("false_positive_storm", None, DUPLICATED, 1),
    ("rotation_only", None, DEFAULT_GRID, 0),
    ("corridor_approach", None, DEFAULT_GRID, 0),
], ids=["own_weights_on_grid", "own_weights_off_grid", "duplicated_rows",
        "none_on_rotation_only", "none_on_corridor_approach"])
def test_each_distinct_tracker_config_is_replayed_once_per_seed(
        monkeypatch, name, weights, grid, per_seed):
    # per_seed distinct rows choose unlike the live tracker on some frame;
    # each of them is replayed once per seed, and no other row is
    sc = scenarios.get(name)
    if weights is not None:
        sc = replace(sc, tracker=replace(sc.tracker, weights=weights))
    kept = _kept_runs(monkeypatch)
    replayed = _counted_replays(monkeypatch)
    result = run_ablation(sc, grid=grid, n_seeds=2)
    assert len(replayed) == 2 * per_seed
    assert len(set(replayed)) == per_seed
    assert [row.weights for row in result.rows] == list(grid)
    cam = sc.camera.build()
    differing = []
    for art in kept:
        live = _without_total(art.tracker_trace)
        for w in dict.fromkeys(grid):
            cfg = replace(sc.tracker, weights=w).build(cam)
            trace = replay_track(art.events, (sc.prompt.x, sc.prompt.y),
                                 sc.prompt.t, cfg)
            if _without_total(trace) != live:
                differing.append(cfg.weights)
    assert replayed == differing


@pytest.mark.parametrize("name", ["false_positive_storm", "corridor_approach"])
def test_the_live_runs_recorded_scores_give_its_choices(name):
    # one list of weight-free cues per frame the live tracker stepped; the
    # shared rule applied to it with the live weights gives the frame's
    # trace row: the chosen candidate's cues and their weighted total, bit
    # for bit, on a lock, none on a coast
    sc = replace(scenarios.get(name), duration=4.0)
    art = ablation.run(sc)
    live = sc.tracker.build(sc.camera.build())
    stepped = art.tracker_trace[1:]
    assert len(art.frame_scores) == len(stepped) > 0
    for frame, row in zip(art.frame_scores, stepped):
        assert all(len(cues) == 3 for cues in frame)
        k = choose(frame, live.weights, live.s_min)
        got = (row["s_iou"], row["s_ekf"], row["s_map"], row["s_total"])
        if k is None:
            assert row["coast"] > 0 and got == (None,) * 4
        else:
            assert row["coast"] == 0 and got[:3] == frame[k]
            assert got[3] == weighted_total(live.weights, *frame[k])


def test_a_run_without_metrics_fails_before_any_replay(monkeypatch):
    # the prompt comes after the last frame: the live trace is empty, and
    # so is every row's replay of the same stream and prompt, whose metrics
    # fail with the error the ablation raises before replaying anything
    sc = scenarios.get("rotation_only")
    sc = replace(sc, prompt=replace(sc.prompt, t=sc.duration + 1.0))
    art = run(sc)
    for weights in (sc.tracker.weights, *DEFAULT_GRID):
        trace = replay_track(art.events, (sc.prompt.x, sc.prompt.y), sc.prompt.t,
                             replace(sc.tracker, weights=weights).build(sc.camera.build()))
        with pytest.raises(MetricsError, match="^empty tracker trace$"):
            compute_metrics(trace, art.truth_trace, sc.metrics)
    replayed = _counted_replays(monkeypatch)
    with pytest.raises(MetricsError, match="^empty tracker trace$"):
        run_ablation(sc, grid=(sc.tracker.weights, *DEFAULT_GRID), n_seeds=1)
    assert replayed == []


def test_the_ablation_leaves_the_live_runs_trace_as_it_was(monkeypatch, tmp_path):
    kept = []
    inner = ablation.run

    def run_and_write(sc):
        kept.append(inner(sc))
        write_run(kept[-1], tmp_path / "before")
        return kept[-1]

    monkeypatch.setattr(ablation, "run", run_and_write)
    run_ablation(scenarios.get("rotation_only"), n_seeds=1)
    write_run(kept[0], tmp_path / "after")
    for name in ("tracker.jsonl", "summary.json"):
        assert ((tmp_path / "after" / name).read_bytes()
                == (tmp_path / "before" / name).read_bytes()), name


def test_parallel_equals_sequential_with_a_duplicated_row():
    sc = scenarios.get("rotation_only")
    seq = run_ablation(sc, grid=DUPLICATED, n_seeds=2, parallel=False)
    par = run_ablation(sc, grid=DUPLICATED, n_seeds=2, parallel=True)
    assert par.as_dict() == seq.as_dict()
    assert par.table() == seq.table()
    assert seq.rows[0].per_seed == seq.rows[1].per_seed


def test_import_leaves_the_process_pool_unloaded():
    # only run_ablation's parallel branch imports the pool
    src = os.path.dirname(os.path.dirname(os.path.abspath(quadtrack.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import sys, quadtrack; print(sorted(m for m in sys.modules if m in "
            "('concurrent.futures.process', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
