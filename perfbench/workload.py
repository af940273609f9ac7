"""The three benchmark workloads and the checks on their outputs.

Every workload runs the same closed-loop operation, one after another in a
single process, on its own bundled scenario:

  1. ``run_ablation`` over the table-2 weight grid for one seed, run
     sequentially.  Its ``simulator.run`` call gives ``sim_rtf``.
  2. ``write_run`` of that live run (5 files).
  3. ``read_events`` of the written ``events.jsonl``.
  4. ``replay_track`` of that log with the scenario's own tracker config,
     which is the ``quadtrack sim`` then ``quadtrack track`` path.

The scenarios differ in which layers carry the work: physics and the applied
controller (corridor_approach), the detector and log I/O under many
candidates per frame (false_positive_storm), and batch replays over a long
stream (occlusion_decoy).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, replace

from quadtrack import ablation, load_scenario, read_events, run, write_run
from quadtrack.ablation import DEFAULT_GRID, run_ablation
from quadtrack.detection import DetectionSet
from quadtrack.errors import QuadtrackError
from quadtrack.logio import event_line
from quadtrack.replay import replay_track
from quadtrack.tracker import TrackerConfig
from speed import factor, kernel_time

# A seed is admitted when the tracker's prompt frame locks the target:
# initialized box vs. true box IOU at least this (the PASCAL VOC match rule).
PROMPT_IOU_MIN = 50.0
MAX_SEED_SCAN = 64
RUN_FILES = ("events.jsonl", "tracker.jsonl", "commands.jsonl",
             "groundtruth.jsonl", "summary.json")
BOX_RTOL = 1e-6   # %.9g round trip of a box coordinate


@dataclass(frozen=True)
class Spec:
    scenario: str
    check_ac3: bool


WORKLOADS = {
    "closed_loop": Spec("corridor_approach", False),
    "storm_record_replay": Spec("false_positive_storm", False),
    "decoy_ablation": Spec("occlusion_decoy", True),
}


def tracker_config(sc) -> TrackerConfig:
    """The scenario's own tracker, as the live loop builds it."""
    return TrackerConfig(
        camera=sc.camera.build(),
        weights=sc.tracker.build_weights(),
        memory_alpha=sc.tracker.memory_alpha,
        acceptance_fraction=sc.tracker.acceptance_fraction,
        q_diag=sc.tracker.q_diag,
        r_diag=sc.tracker.r_diag,
        p0_diag=sc.tracker.p0_diag,
        gyro_compensation=sc.tracker.gyro_compensation,
    )


def prompt_locks_target(sc) -> bool:
    """Simulate only up to the prompt frame and score the initial lock.

    Every draw before the prompt frame is the same in the shortened run, so
    this decides the full run's initialization.  Seeds whose prompt frame
    misses the target (dropout) lock a false positive or find no detection
    at all; they are inputs with a wrong prompt, not a workload.
    """
    k = math.ceil(sc.prompt.t * sc.rates.camera_hz - 1e-9)
    probe = replace(sc, duration=(k + 1) / sc.rates.camera_hz)
    try:
        art = run(probe)
    except QuadtrackError:
        return False
    return art.metrics is not None and art.metrics.iou_pct >= PROMPT_IOU_MIN


def admit_seed(base, seed: int) -> tuple[int, list[int]]:
    """First admitted scenario seed >= seed, and the seeds skipped."""
    for s in range(seed, seed + MAX_SEED_SCAN):
        if prompt_locks_target(base.with_seed(s)):
            return s, list(range(seed, s))
    raise RuntimeError(f"no admissible seed in [{seed}, {seed + MAX_SEED_SCAN})")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fp:
        for chunk in iter(lambda: fp.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Workload:
    """One workload at one admitted seed; `op()` is one timed operation."""

    def __init__(self, name: str, root: str, seed: int | None, out_dir: str):
        self.spec = WORKLOADS[name]
        base = load_scenario(os.path.join(root, "scenarios",
                                          f"{self.spec.scenario}.json"))
        requested = base.seed if seed is None else seed
        first, self.skipped = admit_seed(base, requested)
        self.requested_seed = requested
        self.sc = base.with_seed(first)
        self.cfg = tracker_config(self.sc)
        self.run_dir = os.path.join(out_dir, f"run-{name}-{os.getpid()}")
        self.quality = None       # (tracked_pct, iou_pct)
        self.digests = None       # from the first operation
        self.first = None         # artifacts of the first operation, for tracing
        self._captured: list = []
        self._install_sim_timer()

    def _install_sim_timer(self):
        """Time the simulator.run call the ablation makes and keep its
        artifacts; two clock reads per operation."""
        inner = ablation.run
        captured = self._captured

        def timed_run(sc):
            t0 = time.perf_counter()
            art = inner(sc)
            captured.append((time.perf_counter() - t0, art))
            return art

        ablation.run = timed_run

    def op(self, call) -> tuple[dict, dict, list[str]]:
        """One operation; `call(name, fn, *args)` invokes a layer.  Returns
        its host times, the same scaled to the reference speed (each stage
        by the kernel timings on either side of it), and the failed checks
        (none when the outputs are correct)."""
        sc = self.sc
        self._captured.clear()
        kernel = [kernel_time()]
        host = {}

        def stage(key, name, fn, *args):
            t0 = time.perf_counter()
            out = call(name, fn, *args)
            host[key] = time.perf_counter() - t0
            kernel.append(kernel_time())
            return out

        result = stage("ablation_s", "ablation.run_ablation", run_ablation,
                       sc, DEFAULT_GRID, 1, False)
        (sim_s, art), = self._captured
        stage("write_run_s", "simulator.write_run", write_run, art, self.run_dir)
        events_path = os.path.join(self.run_dir, "events.jsonl")
        events = stage("read_events_s", "logio.read_events", read_events, events_path)
        trace = stage("replay_s", "replay.replay_track.log", replay_track, events,
                      (sc.prompt.x, sc.prompt.y), sc.prompt.t, self.cfg)

        frames = sum(1 for ev in events if isinstance(ev, DetectionSet))
        f = {key: factor(kernel[i], kernel[i + 1]) for i, key in enumerate(host)}
        scaled = {k: v * f[k] for k, v in host.items()}
        host["sim_rtf"] = sc.duration / sim_s
        scaled["sim_rtf"] = sc.duration / (sim_s * f["ablation_s"])
        for times in (host, scaled):
            times["replay_fps"] = frames / times["replay_s"]
            times["op_s"] = sum(times[k] for k in f)

        digests = {name: sha256_file(os.path.join(self.run_dir, name))
                   for name in RUN_FILES}
        digests["ablation"] = hashlib.sha256(
            json.dumps(result.as_dict(), sort_keys=True).encode()).hexdigest()
        if self.digests is not None:
            # Same inputs every operation: the bytes, and so the verdict of
            # the first operation's checks, must repeat.
            return host, scaled, self.first_problems + [
                f"{k} differs from the first operation"
                for k, v in digests.items() if v != self.digests[k]]
        self.digests = digests
        self.first = (art, events, trace)
        self.events_bytes = os.path.getsize(events_path)
        if self.spec.check_ac3:
            row = result.rows[3]
            self.quality = (row.mean("tracked_pct"), row.mean("iou_pct"))
        else:
            self.quality = (art.metrics.tracked_pct, art.metrics.iou_pct)
        self.first_problems = self.check(art, events_path, events, trace, result)
        return host, scaled, self.first_problems

    def check(self, art, events_path, events, trace, result) -> list[str]:
        sc, failed = self.sc, []
        counts = art.summary["counts"]
        n_cam = round(sc.duration * sc.rates.camera_hz)
        n_ctrl = round(sc.duration * sc.rates.control_hz)
        dets = [ev for ev in events if isinstance(ev, DetectionSet)]
        if not len(dets) == counts["camera"] == n_cam:
            failed.append(f"detection records {len(dets)}, counts "
                          f"{counts['camera']}, duration x rate {n_cam}")
        if not len(art.command_trace) == counts["control"] == n_ctrl:
            failed.append(f"command rows {len(art.command_trace)}, counts "
                          f"{counts['control']}, duration x rate {n_ctrl}")
        with open(events_path) as fp:
            written = fp.read()
        if "".join(event_line(ev) + "\n" for ev in events) != written:
            failed.append("events.jsonl does not re-encode byte-identically")
        from_prompt = sum(1 for d in dets if d.t >= sc.prompt.t - 1e-9)
        if len(trace) != from_prompt:
            failed.append(f"replay rows {len(trace)} != frames from prompt {from_prompt}")
        ms = [art.metrics] + [m for r in result.rows for m in r.per_seed]
        for m in ms:
            for v in (m.iou_pct, m.overlap_pct, m.tracked_pct):
                if not (math.isfinite(v) and 0.0 <= v <= 100.0):
                    failed.append(f"metric out of [0, 100]: {m}")
        if self.spec.check_ac3:
            rows = [[m.tracked_pct for m in r.per_seed] for r in result.rows]
            per_seed = [list(col) for col in zip(*rows)]
            means = [sum(r) / len(r) for r in rows]
            for vals in per_seed + [means]:
                if vals != sorted(vals):
                    failed.append(f"AC3 ordering broken: tracked_pct rows {vals}")
        return failed

    def live_mismatch_frames(self) -> int:
        """Frames where the replay of the written log differs from the live
        tracker in status or box."""
        art, _, trace = self.first
        n = abs(len(art.tracker_trace) - len(trace))
        for live, rep in zip(art.tracker_trace, trace):
            a, b = live["box"], rep["box"]
            same_box = (a is None) == (b is None) and (a is None or all(
                math.isclose(x, y, rel_tol=BOX_RTOL, abs_tol=BOX_RTOL)
                for x, y in zip(a, b)))
            if live["status"] != rep["status"] or not same_box:
                n += 1
        return n
