"""quadtrack benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload closed_loop --seed 21 --seconds 30 --trace 0

Run it from anywhere inside a source checkout; it imports quadtrack from the
checkout's ``src`` directory and reads the bundled ``scenarios/*.json``.
Operations run back to back in this one process (a closed loop, no worker
pool) until ``--seconds`` have passed.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it (``{"info": ...}``) carries
sample counts, output digests, the admitted seeds and host details; the same
record and, for a traced run, the spans of its first traced operation are
written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_RUNS = 7          # timed fresh processes per run, after one warm-up
SETUP_TIMEOUT_S = 60


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="scenario seed to start from (default: the scenario's own)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed is not None and args.seed < 0:
        fail("--seed must be >= 0")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    return args


def import_quadtrack():
    """Import the package from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "quadtrack", "__init__.py")):
        fail(f"no quadtrack sources under {SRC}")
    sys.path.insert(0, SRC)
    import quadtrack

    if not os.path.abspath(quadtrack.__file__).startswith(SRC + os.sep):
        fail(f"imported quadtrack from {quadtrack.__file__}, not {SRC}")
    return quadtrack


def setup_times(scenario_path: str) -> list[dict]:
    """Fresh-process import + scenario load, SETUP_RUNS times after a warm-up
    that fills the bytecode cache."""
    cmd = [sys.executable, os.path.join(HERE, "setup_child.py"), SRC, scenario_path]
    out = []
    for _ in range(SETUP_RUNS + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            fail(f"set-up process failed: {proc.stderr.strip()}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        if not os.path.abspath(rec["module"]).startswith(SRC + os.sep):
            fail(f"set-up process imported {rec['module']}")
        out.append(rec)
    return out[1:]


def summary(xs: list[float]) -> dict:
    """Median, sample count and the highest percentile with at least ten
    samples beyond it (None below 20 samples)."""
    s = sorted(xs)
    n = len(s)
    tail = None
    if n >= 20:
        q = 100.0 * (1.0 - 10.0 / n)
        tail = {"pct": q, "value": s[min(n - 1, int(q / 100.0 * n))]}
    return {"n": n, "median": statistics.median(s), "tail": tail, "values": xs}


def main() -> int:
    args = parse_args()
    quadtrack = import_quadtrack()
    import numpy as np

    from tracing import Tracer, per_layer
    from workload import WORKLOADS, Workload

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    spec = WORKLOADS[args.workload]
    scenario_path = os.path.join(ROOT, "scenarios", f"{spec.scenario}.json")
    if not os.path.isfile(scenario_path):
        fail(f"missing scenario file {scenario_path}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        bench = json.load(fp)
    os.makedirs(OUT, exist_ok=True)

    setup = setup_times(scenario_path)
    wl = Workload(args.workload, ROOT, args.seed, OUT)
    tracer = Tracer() if args.trace else None

    def plain(name, fn, *a):
        return fn(*a)

    # In a traced run, operations alternate untraced / traced so that the
    # tracing overhead is measured on the same inputs in the same process.
    attempted = failed = 0
    problems: list[str] = []
    ops = {False: [], True: []}     # traced? -> [(host times, scaled times)]
    min_ops = 2 if tracer else 1
    deadline = time.perf_counter() + args.seconds
    while attempted < min_ops or time.perf_counter() < deadline:
        traced = tracer is not None and attempted % 2 == 1
        if traced:
            tracer.op_id = attempted
            tracer.keep_spans = not tracer.spans
            tracer.install()
        times = None
        try:
            *times, found = wl.op(tracer.call if traced else plain)
        except Exception as e:  # a failed operation is counted, not fatal
            found = [f"{type(e).__name__}: {e}"]
        finally:
            if traced:
                tracer.uninstall()
        if times is not None:
            ops[traced].append(times)
        attempted += 1
        if found:
            failed += 1
            problems.extend(found)
    shutil.rmtree(wl.run_dir, ignore_errors=True)
    if not ops[False] or (tracer and not ops[True]):
        fail(f"no operation completed: {problems[:3]}")

    def scaled(key, traced=False):
        return [t[key] for _, t in ops[traced]]

    section = "per_layer" if tracer else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[section]}
    setup_s = [r["import_s"] + r["load_s"] for r in setup]
    if tracer is None:
        tracked, iou = wl.quality
        values = {k: statistics.median(scaled(k)) for k in
                  ("sim_rtf", "write_run_s", "read_events_s", "replay_fps", "ablation_s")}
        values.update({
            "setup_s": statistics.median(setup_s),
            "tracked_pct": tracked,
            "iou_pct": iou,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
    else:
        plain_s = statistics.median(scaled("op_s"))
        overhead = statistics.median(scaled("op_s", traced=True)) - plain_s
        n_events = len(wl.first[1])
        values = per_layer(tracer, len(ops[True]), n_events)
        values.update({
            "logio.bytes_per_event": wl.events_bytes / n_events,
            "replay.live_mismatch_frames": wl.live_mismatch_frames(),
            "config.load_scenario.s": statistics.median(r["load_s"] for r in setup),
            "setup.import_s": statistics.median(r["import_s"] for r in setup),
            "trace.overhead_s": overhead,
            "trace.overhead_pct": 100.0 * overhead / plain_s,
        })
        spans_path = os.path.join(
            OUT, f"spans-{args.workload}-s{wl.requested_seed}.csv")
        tracer.write_spans(spans_path)

    info = {
        "workload": args.workload,
        "scenario": spec.scenario,
        "requested_seed": wl.requested_seed,
        "scenario_seed": wl.sc.seed,
        "skipped_seeds": wl.skipped,
        "trace": args.trace,
        # Host times as measured, one per completed operation; in a traced
        # run only the untraced operations.
        "host": {k: summary([t[k] for t, _ in ops[False]]) for k in ops[False][0][0]},
        "scaled": {k: summary(scaled(k)) for k in ops[False][0][0]},
        "setup_s": summary(setup_s),
        "digests": wl.digests,
        "problems": problems[:20],
        "machine": {"nproc": os.cpu_count(), "arch": platform.machine(),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "quadtrack": quadtrack.__version__},
    }
    if set(values) != set(units):
        fail(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    report = os.path.join(
        OUT, f"report-{args.workload}-s{wl.requested_seed}-trace{args.trace}.json")
    with open(report, "w") as fp:
        json.dump({"info": info, "result": result}, fp, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
