"""perfbench's tracer against the program: every name it wraps still
resolves, is called where the benchmark's per-layer metrics expect it, and
is restored afterwards.  perfbench/tracing.py is loaded read-only."""

import dataclasses
import importlib.util
from pathlib import Path

from quadtrack import ablation, scenarios, simulator
from quadtrack.ablation import DEFAULT_GRID

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
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
        ablation.run_ablation(sc, grid=DEFAULT_GRID[:1], n_seeds=1)
    finally:
        tr.uninstall()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)

    # the tracker's step span is named live or replay when it is entered
    spans = {n for n in tr.names if isinstance(n, str)}
    spans |= {"tracker.step.live", "tracker.step.replay"}
    assert {n for n in spans if not tr.durations[n]} == DEAD
