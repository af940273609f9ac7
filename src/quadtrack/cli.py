"""Command-line harness.

    quadtrack sim <scenario> [--out DIR] [--seed N] [--no-gyro-comp]
    quadtrack track <events.jsonl> --prompt X,Y [--prompt-t T] [--weights a,b,c] [--out FILE]
    quadtrack ablate <scenario> [--grid table2|FILE] [--seeds N] [--parallel] [--out FILE]
    quadtrack metrics <run-dir> [--iou-threshold F] [--coast-credit N]
    quadtrack scenario ls | describe <name>

<scenario> is a JSON file path or a bundled name (a missing ".json" is
tried automatically, so `scenarios/occlusion_decoy` works).  `track` and
`metrics` rebuild the run's configs from the scenario recorded in the
summary.json beside the log.  Every flag that sets a scenario value is an
edit of the given or recorded scenario at a dotted path (`--seed` is
`seed`, `--weights` is `tracker.weights`), and the edited scenario is
reloaded, so a flag is checked and reported as the same value in a file
(`error: scenario.<path>: ...`).  Exit codes: 0 success, 1
configuration/usage error (a file that cannot be read, written or decoded
as UTF-8 included), 2 runtime abort.  `sim` writes a whole run or
nothing: the five files go to a temporary sibling of --out and move into
it only once all five are written, so a value a writer refuses (one
`error:` line, exit 1) leaves --out as it was.  A `sim` whose run flies to
its end succeeds even when the scorer finds no frame to score: the run is
written with null metrics, and summary.json's "metrics_error" and one
stderr line give the reason.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

from . import scenarios as bundled
from .ablation import DEFAULT_GRID, run_ablation
from .config import Scenario, load_scenario
from .errors import ConfigError, QuadtrackError, RuntimeAbort
from .logio import SCENARIO_KEY, read_events, read_jsonl, write_jsonl
from .metrics import compute_metrics
from .replay import replay_track
from .simulator import run, write_run


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the harness contract
    reserves 2 for runtime aborts, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def resolve_scenario(ref: str) -> Scenario:
    if os.path.isfile(ref):
        return load_scenario(ref)
    if os.path.isfile(ref + ".json"):
        return load_scenario(ref + ".json")
    name = os.path.basename(ref)
    if name.endswith(".json"):
        name = name[:-5]
    if name in bundled.names():
        return bundled.get(name)
    raise ConfigError(f"no scenario file or bundled scenario named {ref!r}")


def _parse_floats(text: str, n: int, what: str) -> tuple:
    parts = text.split(",")
    if len(parts) != n:
        raise ConfigError(f"{what}: expected {n} comma-separated values")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as e:
        raise ConfigError(f"{what}: {e}") from e


def _recorded_scenario(run_dir: str) -> Scenario:
    """The scenario a run directory was simulated with (its summary.json)."""
    path = os.path.join(run_dir, "summary.json")
    if not os.path.isfile(path):
        raise ConfigError(f"missing run summary: {path}")
    records = read_jsonl(path)
    if (len(records) != 1 or not isinstance(records[0], dict)
            or SCENARIO_KEY not in records[0]):
        raise ConfigError(f"{path}: no recorded {SCENARIO_KEY!r}; "
                          "re-run `quadtrack sim`")
    return Scenario.from_dict(records[0][SCENARIO_KEY])


def _parse_grid(text: str, sc: Scenario) -> tuple:
    """The weight rows of `--grid`: table 2, or a JSON file whose every row
    is loaded as `sc`'s tracker.weights."""
    if text == "table2":
        return DEFAULT_GRID
    try:
        with open(text, encoding="utf-8") as fp:
            rows = json.load(fp)
    except FileNotFoundError:
        raise ConfigError(f"grid file not found: {text}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"grid file {text}: not UTF-8 text ({e.reason})") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"grid file {text}: invalid JSON ({e.msg})") from e
    if (not isinstance(rows, list) or not rows
            or not all(isinstance(r, list) and len(r) == 3 for r in rows)):
        raise ConfigError(f"grid file {text}: expected a JSON list of "
                          "[w_iou, w_ekf, w_map] rows")
    grid = []
    for i, row in enumerate(rows):
        try:
            grid.append(_with_flags(sc, {"tracker.weights": row}).tracker.weights)
        except ConfigError as e:
            raise ConfigError(f"grid file {text}: row {i}: {e}") from e
    return tuple(grid)


def _with_flags(sc: Scenario, flags: dict) -> Scenario:
    """sc with each flag value that was given (not None) set at its dotted
    scenario path, reloaded so that it is checked as the same value in a
    file would be."""
    d = sc.to_dict()
    for path, value in flags.items():
        if value is not None:
            *parents, key = path.split(".")
            node = d
            for k in parents:
                node = node[k]
            node[key] = value
    return Scenario.from_dict(d)


def _write_run_whole(art, out: str) -> None:
    """write_run into a temporary sibling directory of `out`, then move the
    five files into `out`, each over its old copy, once all five are
    written.  A value a writer refuses (its ValueError, or its TypeError
    for a type it does not write) is one error, and `out` stays as it was;
    the temporary directory never outlives the call."""
    parent, base = os.path.split(os.path.abspath(out))
    tmp = tempfile.mkdtemp(prefix=f".{base}.", dir=parent)
    try:
        try:
            write_run(art, tmp)
        except (TypeError, ValueError) as e:
            raise QuadtrackError(f"{out}: run not written: {e}") from e
        for name in sorted(os.listdir(tmp)):
            os.replace(os.path.join(tmp, name), os.path.join(out, name))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def cmd_sim(args) -> int:
    sc = _with_flags(resolve_scenario(args.scenario), {
        "seed": args.seed,
        "tracker.gyro_compensation": args.gyro_compensation})
    out = args.out or os.path.join("runs", f"{sc.name}-s{sc.seed}")
    # an --out that cannot be made fails before the run, and a failed run
    # or write leaves no directory of its own
    made = not os.path.isdir(out)
    os.makedirs(out, exist_ok=True)
    try:
        art = run(sc)
        _write_run_whole(art, out)
    except BaseException:
        if made:
            os.rmdir(out)
        raise
    print(f"wrote {out}")
    print(json.dumps(art.summary["metrics"]))
    if "metrics_error" in art.summary:
        print(f"no metrics: {art.summary['metrics_error']}", file=sys.stderr)
    return 0


def cmd_track(args) -> int:
    px, py = _parse_floats(args.prompt, 2, "--prompt")
    weights = (None if args.weights is None
               else list(_parse_floats(args.weights, 3, "--weights")))
    sc = _with_flags(_recorded_scenario(os.path.dirname(args.log)), {
        "prompt.x": px, "prompt.y": py, "prompt.t": args.prompt_t,
        "tracker.weights": weights})
    trace = replay_track(read_events(args.log), (sc.prompt.x, sc.prompt.y),
                         sc.prompt.t, sc.tracker.build(sc.camera.build()))
    if args.out:
        write_jsonl(args.out, trace)
        print(f"wrote {args.out} ({len(trace)} frames)")
    else:
        tracked = sum(1 for r in trace if r["status"] == "tracking")
        print(f"frames={len(trace)} tracking={tracked} "
              f"coasting={len(trace) - tracked}")
    return 0


def cmd_ablate(args) -> int:
    sc = _with_flags(resolve_scenario(args.scenario), {"seed": args.seed})
    grid = _parse_grid(args.grid, sc)
    # an --out that cannot be opened fails before the first seed; opening
    # to append leaves an existing file as it is, and a failed ablation
    # leaves no file of its own
    made = False
    if args.out:
        made = not os.path.exists(args.out)
        open(args.out, "a").close()
    try:
        result = run_ablation(sc, grid=grid, n_seeds=args.seeds,
                              parallel=args.parallel)
    except BaseException:
        if made:
            os.remove(args.out)
        raise
    print(result.table(), end="")
    if args.out:
        with open(args.out, "w") as fp:
            json.dump(result.as_dict(), fp, indent=2)
            fp.write("\n")
        print(f"wrote {args.out}")
    return 0


def cmd_metrics(args) -> int:
    tracker_path = os.path.join(args.run_dir, "tracker.jsonl")
    truth_path = os.path.join(args.run_dir, "groundtruth.jsonl")
    for p in (tracker_path, truth_path):
        if not os.path.isfile(p):
            raise ConfigError(f"missing trace file: {p}")
    sc = _with_flags(_recorded_scenario(args.run_dir), {
        "metrics.iou_threshold": args.iou_threshold,
        "metrics.coast_credit_frames": args.coast_credit})
    tracker, truth = read_jsonl(tracker_path), read_jsonl(truth_path)
    try:
        m = compute_metrics(tracker, truth, sc.metrics)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"{args.run_dir}: malformed trace "
                          f"({type(e).__name__}: {e})") from e
    print(json.dumps(m.as_dict()))
    return 0


def cmd_scenario(args) -> int:
    if args.action == "ls":
        for name in bundled.names():
            print(name)
        return 0
    if not args.name:
        raise ConfigError("scenario describe: missing scenario name")
    sc = bundled.get(args.name)
    print(json.dumps(sc.to_dict(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="quadtrack", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sim", help="run a scenario closed loop")
    ps.add_argument("scenario")
    ps.add_argument("--out", default=None, help="output directory")
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--no-gyro-comp", dest="gyro_compensation",
                    action="store_const", const=False,
                    help="disable gyro compensation in the tracker")
    ps.set_defaults(fn=cmd_sim)

    pt = sub.add_parser("track", help="replay the tracker over a recorded log")
    pt.add_argument("log")
    pt.add_argument("--prompt", required=True, help="X,Y init point")
    pt.add_argument("--prompt-t", type=float, default=None,
                    help="default: the recorded prompt time")
    pt.add_argument("--weights", default=None,
                    help="a,b,c (default: the recorded weights)")
    pt.add_argument("--out", default=None, help="trace output file")
    pt.set_defaults(fn=cmd_track)

    pa = sub.add_parser("ablate", help="tracker-weight ablation table")
    pa.add_argument("scenario")
    pa.add_argument("--grid", default="table2",
                    help="'table2' or a JSON file of weight rows")
    pa.add_argument("--seeds", type=int, default=5)
    pa.add_argument("--seed", type=int, default=None, help="base seed override")
    pa.add_argument("--parallel", action="store_true")
    pa.add_argument("--out", default=None, help="JSON result file")
    pa.set_defaults(fn=cmd_ablate)

    pm = sub.add_parser("metrics", help="recompute metrics for a run directory")
    pm.add_argument("run_dir")
    pm.add_argument("--iou-threshold", type=float, default=None,
                    help="default: the recorded value")
    pm.add_argument("--coast-credit", type=int, default=None,
                    help="default: the recorded value")
    pm.set_defaults(fn=cmd_metrics)

    pc = sub.add_parser("scenario", help="list or show bundled scenarios")
    pc.add_argument("action", choices=["ls", "describe"])
    pc.add_argument("name", nargs="?", default=None)
    pc.set_defaults(fn=cmd_scenario)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as e:
        return int(e.code or 0)
    except RuntimeAbort as e:
        print(f"abort: {e}", file=sys.stderr)
        return 2
    except (QuadtrackError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
