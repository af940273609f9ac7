"""perfbench against the program: every name its tracer wraps still
resolves, is called where the benchmark's per-layer metrics expect it, and
is restored afterwards; its workloads build each scenario's tracker as the
live loop does.  perfbench/tracing.py and perfbench/workload.py are loaded
read-only."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

from quadtrack import ablation, scenarios, simulator
from quadtrack.ablation import DEFAULT_GRID
from quadtrack.tracker import TrackerConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
# nothing in the program calls SyntheticDetector.extract_target_feature any
# more; the method and its metrics go together in a benchmark change
# (ROADMAP item 1, step 1)
DEAD = {"detection.extract_target_feature"}


def _tracer():
    """A perfbench Tracer that records the span name of every wrap."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tr = tracing.Tracer()
    tr.names = []
    wrap = tr._wrap

    def recording_wrap(owner, attr, name, observe=None):
        tr.names.append(name)
        wrap(owner, attr, name, observe)

    tr._wrap = recording_wrap
    return tr


def test_traced_names_resolve_are_called_and_are_restored(tmp_path):
    tr = _tracer()
    try:
        tr.install()   # getattr raises here if a wrapped name is gone
        originals = list(tr._originals)
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in originals)
        for name, closed_loop in (("false_positive_storm", False),
                                  ("corridor_approach", True)):
            sc = dataclasses.replace(scenarios.get(name), duration=1.0)
            before = {k: len(v) for k, v in tr.durations.items()}
            art = ablation.run(sc)

            def calls(span):
                return len(tr.durations[span]) - before.get(span, 0)

            assert calls("simulator.dynamics_step") == (
                art.counts["physics"] if closed_loop else 0), name
            assert calls("detection.detect") == art.counts["camera"], name
            assert (calls("controller.tick") + calls("controller.hover_tick")
                    == art.counts["control"]), name
        simulator.write_run(art, tmp_path)
        # storm's (3, 0, 0) row chooses unlike its live tracker, so it is
        # replayed; a corridor_approach row takes the live metrics
        storm = dataclasses.replace(scenarios.get("false_positive_storm"),
                                    duration=1.0)
        ablation.run_ablation(storm, grid=DEFAULT_GRID[:1], n_seeds=1)
    finally:
        tr.uninstall()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)

    # the tracker's step span is named live or replay when it is entered
    spans = {n for n in tr.names if isinstance(n, str)}
    spans |= {"tracker.step.live", "tracker.step.replay"}
    assert {n for n in spans if not tr.durations[n]} == DEAD


def _workload():
    """perfbench/workload.py as a module.  While it runs, perfbench/ is on
    sys.path for its `import speed`, and the module is in sys.modules for
    its dataclass."""
    name = "perfbench_workload"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workload.py")
    workload = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(PERFBENCH))
    sys.modules[name] = workload
    try:
        spec.loader.exec_module(workload)
    finally:
        sys.path.remove(str(PERFBENCH))
        del sys.modules[name]
    return workload


def test_workload_tracker_config_is_the_live_loops():
    # perfbench rebuilds the tracker config field by field; a field it
    # misses, or a rename it depends on, fails here and not only in the
    # benchmark's smoke run
    workload = _workload()
    for spec in workload.WORKLOADS.values():
        sc = scenarios.get(spec.scenario)
        got, want = workload.tracker_config(sc), sc.tracker.build(sc.camera.build())
        assert type(got) is type(want) is TrackerConfig
        for f in dataclasses.fields(TrackerConfig):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert (type(a), a) == (type(b), b), (spec.scenario, f.name)
