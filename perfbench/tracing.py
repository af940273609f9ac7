"""Traced run: spans around calls into each layer's public functions.

Each function is wrapped where its name is looked up at call time: a name
imported into another module (``project_box`` in ``detection`` and in
``simulator``) is wrapped in each of those modules, and methods are wrapped
on their class.  A span records its name, start, end, parent span and the
operation it belongs to.  Self time is the span's duration minus the time
its child spans cover.  Aggregates cover every traced operation; the full
span list of the first traced operation is written out at the end.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict

from quadtrack import ablation, controller, detection, logio, simulator, tracker

SIM = "simulator.run"
REPLAY = "replay.replay_track"             # the ablation's in-memory replays
LOG_REPLAY = "replay.replay_track.log"     # replay of the written log


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op_id = 0
        self.keep_spans = False
        self.spans: list[tuple] = []   # (id, parent, op, name, start_ns, end_ns)
        self.durations = defaultdict(list)   # name -> [ns]
        self.self_ns = defaultdict(list)     # name -> [ns]
        self.counts = Counter()
        self._stack: list[list] = []         # [span id, child ns]
        self._next_id = 0
        self._replaying = 0
        self._pending_tick = False
        self._originals: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def call(self, name, fn, *args):
        """Invoke fn(*args) inside a span named `name`."""
        return self._span(name, fn, args, {}, None)

    def _span(self, name, fn, args, kwargs, observe):
        if not self.enabled:
            return fn(*args, **kwargs)
        if callable(name):
            name = name()
        stack = self._stack
        self._next_id += 1
        frame = [self._next_id, 0]
        parent = stack[-1][0] if stack else 0
        replaying = name in (REPLAY, LOG_REPLAY)
        self._replaying += replaying
        stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self._replaying -= replaying
            d = t1 - t0
            if stack:
                stack[-1][1] += d
            self.durations[name].append(d)
            self.self_ns[name].append(d - frame[1])
            if self.keep_spans:
                self.spans.append((frame[0], parent, self.op_id, name, t0, t1))
        if observe is not None:
            observe(args, result)
        return result

    def _wrap(self, owner, attr, name, observe=None):
        fn = getattr(owner, attr)
        self._originals.append((owner, attr, fn))
        span = self._span

        def wrapper(*args, **kwargs):
            return span(name, fn, args, kwargs, observe)

        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap the layer functions; `uninstall` restores them."""
        w = self._wrap
        w(ablation, "run", SIM)
        w(ablation, "replay_track", REPLAY)
        for mod in (ablation, simulator):
            w(mod, "compute_metrics", "metrics.compute_metrics")
        for mod in (simulator, detection):
            w(mod, "project_box", "geometry.project_box")
        w(simulator, "dynamics_step", "simulator.dynamics_step")
        w(simulator, "motor_wrench", "controller.motor_wrench", self._on_wrench)
        w(simulator, "imu_sample", "simulator.imu_sample")
        w(simulator, "camera_pose", "simulator.camera_pose")
        w(simulator, "predicted_center", "simulator.predicted_center")
        w(simulator, "scene_step", "scene.scene_step", self._on_scene)
        vc = controller.VisualController
        w(vc, "tick", "controller.tick", self._on_tick)
        w(vc, "hover_tick", "controller.hover_tick", self._on_tick)
        w(vc, "command_record", "controller.command_record")
        sd = detection.SyntheticDetector
        w(sd, "detect", "detection.detect", self._on_detect)
        w(sd, "extract_target_feature", "detection.extract_target_feature")
        tr = tracker.Tracker
        w(tr, "initialize", "tracker.initialize")
        w(tr, "predict", "tracker.predict")
        w(tr, "step", self._step_name, self._on_step)
        w(tr, "trace_record", "tracker.trace_record")
        w(tracker, "ekf_predict", "tracker.ekf_predict")
        w(tracker, "ekf_update", "tracker.ekf_update")
        w(logio, "event_line", "logio.event_line")
        self.enabled = True

    def uninstall(self):
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()
        self.enabled = False

    # -- counters at the same boundaries ----------------------------------

    def _step_name(self):
        return "tracker.step.replay" if self._replaying else "tracker.step.live"

    def _on_tick(self, args, result):
        self.counts["ticks"] += 1
        self._pending_tick = True

    def _on_wrench(self, args, result):
        # The first physics step after a tick applies that tick's motors.
        if self._pending_tick:
            self.counts["ticks_applied"] += 1
            self._pending_tick = False

    def _on_scene(self, args, result):
        self.counts["scene_frames"] += 1
        self.counts["scene_objects"] += len(result.objects)

    def _on_detect(self, args, result):
        self.counts["candidates"] += len(result)

    def _on_step(self, args, result):
        if not self._replaying:
            self.counts["live_accepted"] += result.selected is not None

    def write_spans(self, path):
        t_base = self.spans[0][4] if self.spans else 0
        with open(path, "w") as fp:
            fp.write("id,parent,op,name,start_us,end_us\n")
            for sid, parent, op, name, t0, t1 in self.spans:
                fp.write(f"{sid},{parent},{op},{name},{(t0 - t_base) / 1e3:.3f},"
                         f"{(t1 - t_base) / 1e3:.3f}\n")


def _pct(xs, q):
    """q-th percentile (nearest rank) of a list of ns, in microseconds."""
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[min(len(s) - 1, int(q / 100.0 * len(s)))] / 1e3


def _mean_us(xs):
    return statistics.fmean(xs) / 1e3 if xs else 0.0


def per_layer(tr: Tracer, n_ops: int, events_per_op: int) -> dict:
    """Per-layer metrics from the spans and counts of `n_ops` traced
    operations.  A layer that never ran reads 0."""
    d, c = tr.durations, tr.counts
    frames = len(d["detection.detect"])
    steps = len(d["tracker.step.live"]) + len(d["tracker.step.replay"])
    ratio = lambda a, b: a / b if b else 0.0
    ablation_ns = sum(d["ablation.run_ablation"])
    return {
        "simulator.dynamics_step.us_p50": _pct(d["simulator.dynamics_step"], 50),
        "simulator.dynamics_step.us_p99": _pct(d["simulator.dynamics_step"], 99),
        "simulator.dynamics_step.calls": len(d["simulator.dynamics_step"]) / n_ops,
        "simulator.loop_self_s": statistics.fmean(tr.self_ns[SIM]) / 1e9,
        "controller.tick.us_p50": _pct(d["controller.tick"], 50),
        "controller.hover_tick.us_p50": _pct(d["controller.hover_tick"], 50),
        "controller.command_record.us": _mean_us(d["controller.command_record"]),
        "controller.applied_tick_ratio": ratio(c["ticks_applied"], c["ticks"]),
        "scene.scene_step.us": _mean_us(d["scene.scene_step"]),
        "scene.objects_per_frame": ratio(c["scene_objects"], c["scene_frames"]),
        "geometry.project_box.calls_per_frame":
            ratio(len(d["geometry.project_box"]), frames),
        "detection.detect.us_p50": _pct(d["detection.detect"], 50),
        "detection.detect.us_p99": _pct(d["detection.detect"], 99),
        "detection.extract_target_feature.us":
            _mean_us(d["detection.extract_target_feature"]),
        "detection.extract_target_feature.calls":
            len(d["detection.extract_target_feature"]) / n_ops,
        "tracker.step.live.us_p50": _pct(d["tracker.step.live"], 50),
        "tracker.step.live.us_p99": _pct(d["tracker.step.live"], 99),
        "tracker.step.replay.us_p50": _pct(d["tracker.step.replay"], 50),
        "tracker.step.replay.us_p99": _pct(d["tracker.step.replay"], 99),
        "tracker.ekf_predict.us": _mean_us(d["tracker.ekf_predict"]),
        "tracker.ekf_predict.calls_per_frame":
            ratio(len(d["tracker.ekf_predict"]), steps),
        "tracker.ekf_update.us": _mean_us(d["tracker.ekf_update"]),
        "tracker.ekf_update.calls": len(d["tracker.ekf_update"]) / n_ops,
        "tracker.candidates_per_frame": ratio(c["candidates"], frames),
        "tracker.accept_ratio":
            ratio(c["live_accepted"], len(d["tracker.step.live"])),
        "logio.event_line.us": _mean_us(d["logio.event_line"]),
        "logio.read_events.us_per_event":
            ratio(_mean_us(d["logio.read_events"]), events_per_op),
        "ablation.sim_share": ratio(sum(d[SIM]), ablation_ns),
        "ablation.replay_share": ratio(sum(d[REPLAY]), ablation_ns),
        "metrics.compute_metrics.s": _mean_us(d["metrics.compute_metrics"]) / 1e6,
    }
