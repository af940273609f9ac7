"""Reachability gate: every `def` in src/quadtrack/ is called by a run of
the command line, or is on ALLOWED with a reason that this test checks.

The corpus runs `quadtrack` in process under sys.setprofile: every bundled
scenario cut to MAX_SECONDS through `sim`, `metrics` and `track`; `scenario
ls` and `describe`; a sequential `ablate --out`; every failing run of
tests/test_cli.py's `_bad_runs()`; and three error rows (an argparse usage
error, and a NaN token and a number beyond the float range in an event
log).  A `def` is keyed by its file and its first line (the decorator line
if it has one), as ast reads them and as its code object's co_firstlineno
gives them.  A name that a module imports from the package and never uses
(a re-export) is listed too.

A function that only a test or the benchmark calls belongs there, not in
src/.  When this test reports a new `def`, prefer a corpus row that reaches
it to an ALLOWED entry.
"""

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

import quadtrack
from quadtrack import cli
from test_cli import _bad_runs, _copy_run

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(quadtrack.__file__).resolve().parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))
# every bundled scenario reaches the same defs at 0.5 s as at 2 s and at
# full length; 1 s keeps a margin and the gate under 2.5 s
MAX_SECONDS = 1.0
ABLATE = "rotation_only"

# (file, qualified name) -> why the def stays although no corpus row calls
# it.  A reason is one of:
#   ("acceptance",)        tests/test_acceptance.py imports the name;
#   ("api",)               the name is in quadtrack.__all__, or the def is a
#                          dunder method of a class that is;
#   ("fallback", test)     a fail-closed path; `test`, given as
#                          "tests/<file>.py::<test>", names it and calls it;
#   ("perfbench", file, text)  perfbench's `file` holds `text`, which looks
#                          the def up by name (a dunder by its builtin, as
#                          `len(` calls __len__).
ALLOWED = {
    ("config.py", "save_scenario"): ("api",),
    ("config.py", "TrackerParams.build_weights"):
        ("perfbench", "perfbench/workload.py", "sc.tracker.build_weights()"),
    ("detection.py", "Detection.__repr__"): ("api",),
    ("detection.py", "DetectionSet.__len__"):
        ("perfbench", "perfbench/tracing.py", "len(result)"),
    ("detection.py", "GyroSample.__repr__"): ("api",),
    ("detection.py", "SyntheticDetector.extract_target_feature"):
        ("perfbench", "perfbench/tracing.py", '"extract_target_feature"'),
    ("geometry.py", "BoundingBox.__eq__"): ("api",),
    ("geometry.py", "BoundingBox.__hash__"): ("api",),
    ("geometry.py", "BoundingBox.__repr__"): ("api",),
    ("geometry.py", "CameraPose.__repr__"): ("api",),
    ("geometry.py", "nearest_rotation"):
        ("fallback", "tests/test_simulator.py::"
                     "test_dynamics_step_hands_fallback_result_back_unchanged"),
    # the per-type encoder of a bool that no trace-row plan places
    ("logio.py", "_json_bool"):
        ("fallback", "tests/test_logio.py::"
                     "test_values_no_plan_places_take_the_per_type_encoders"),
    ("simulator.py", "project_box"):
        ("perfbench", "perfbench/tracing.py", 'w(mod, "project_box"'),
    # the array constructor, which refuses a covariance that is not exactly
    # symmetric; the run paths build states from floats (_finite_state)
    ("tracker.py", "EkfState.__init__"):
        ("fallback", "tests/test_tracker.py::"
                     "test_ekf_state_keeps_the_upper_triangle_of_a_symmetric_covariance"),
    # the exact gate reads the covariance as an array; no other run path does
    ("tracker.py", "EkfState.cov"):
        ("fallback", "tests/test_tracker.py::"
                     "test_the_exact_gate_takes_what_the_cholesky_declines"),
    ("tracker.py", "_exact_gain"):
        ("fallback", "tests/test_tracker.py::"
                     "test_cholesky_gate_decides_like_the_exact_gate"),
    # AC1 reads the filter's mean as an array; the run paths read the tuple
    ("tracker.py", "EkfState.mean"):
        ("fallback", "tests/test_acceptance.py::"
                     "test_ac1_transition_jacobian_and_covariance_health"),
    ("tracker.py", "predict_jacobian"): ("acceptance",),
}


def _cli(argv, code=0) -> str:
    """cli.main(argv) with its output captured; asserts the exit code and
    returns what it printed to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        got = cli.main([str(a) for a in argv])
    assert got == code, (argv, err.getvalue())
    return err.getvalue()


def _corpus(tmp: Path):
    for path in SCENARIOS:
        d = json.loads(path.read_text())
        d["duration"] = min(d["duration"], MAX_SECONDS)
        run = tmp / path.stem
        (tmp / path.name).write_text(json.dumps(d))
        _cli(["sim", tmp / path.name, "--out", run])
        _cli(["metrics", run])
        prompt = f"{d['prompt']['x']},{d['prompt']['y']}"
        _cli(["track", run / "events.jsonl", "--prompt", prompt])
    _cli(["scenario", "ls"])
    _cli(["scenario", "describe", ABLATE])
    _cli(["ablate", tmp / f"{ABLATE}.json", "--seeds", "2",
          "--out", tmp / "ablation.json"])
    for name, scenario, flags, code, message in _bad_runs():
        path = tmp / f"bad-{name}.json"
        path.write_text(json.dumps(scenario))
        err = _cli(["sim", path, *flags, "--out", tmp / "bad-run"], code)
        assert err.splitlines()[-1].startswith(message), err

    # error rows, with the logs that tests/test_cli.py writes (the last
    # scenario's run and prompt)
    assert "error: the following arguments are required" in _cli(["sim"], 1)
    nan = float("nan")
    _copy_run(run, tmp / "nan", "events.jsonl",
              lambda r: {**r, "w": [nan, 0.0, 0.0]} if r["kind"] == "gyro" else None)
    assert "NaN is not a finite number" in _cli(
        ["track", tmp / "nan" / "events.jsonl", "--prompt", prompt], 1)
    _copy_run(run, tmp / "big", "events.jsonl",
              lambda r: {**r, "w": ["NUMBER", 0.0, 0.0]} if r["kind"] == "gyro" else None)
    log = tmp / "big" / "events.jsonl"
    log.write_text(log.read_text().replace('"NUMBER"', "1e999"))
    assert f"error: {log}: line " in _cli(["track", log, "--prompt", prompt], 1)


def _reached(tmp: Path) -> set:
    """(file, first line, name) of every function in src/quadtrack/ that
    the corpus calls."""
    # a functools cache hit calls nothing, so empty the package's caches:
    # what ran earlier in this process must not hide a call
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quadtrack":
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    codes = set()
    add = codes.add

    def probe(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(probe)
    try:
        _corpus(tmp)
    finally:
        sys.setprofile(previous)
    return {(Path(c.co_filename).name, c.co_firstlineno, c.co_name)
            for c in codes if Path(c.co_filename).resolve().parent == SRC}


def _defs() -> dict:
    """(file, first line, name) -> qualified name of every def in
    src/quadtrack/, nested ones included."""
    defs = {}

    def visit(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defs[(file, first, child.name)] = prefix + child.name
                visit(child, file, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, file, f"{prefix}{child.name}.")
            else:
                visit(child, file, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.name, "")
    return defs


def _reexports() -> dict:
    """(file, line, name) -> name of every name that a module of
    src/quadtrack/ other than __init__.py imports from the package and
    never uses."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    name = alias.asname or alias.name
                    if name not in used:
                        found[(path.name, node.lineno, name)] = name
    return found


def _acceptance_imports() -> set:
    """(module file, name) of each name tests/test_acceptance.py imports
    from a module of the package."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return {(node.module.split(".")[-1] + ".py", alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.startswith("quadtrack.")
            for alias in node.names}


def _reason_problem(file: str, qualname: str, reason: tuple) -> str | None:
    """Why `reason` does not hold for the def, or None when it does."""
    kind, *args = reason
    top, _, member = qualname.partition(".")
    name = qualname.rsplit(".", 1)[-1]
    dunder = name.startswith("__") and name.endswith("__")
    if kind == "acceptance" and not args:
        if not member and (file, top) in _acceptance_imports():
            return None
        return "tests/test_acceptance.py does not import it"
    if kind == "api" and not args:
        obj = getattr(quadtrack, top, None)
        if (top in quadtrack.__all__ and (not member or dunder)
                and getattr(obj, "__module__", None) == f"quadtrack.{file[:-3]}"):
            return None
        return "neither in quadtrack.__all__ nor a dunder method of a class that is"
    if kind == "fallback" and len(args) == 1:
        test_file, _, test = args[0].partition("::")
        path = ROOT / test_file
        body = path.is_file() and next(
            (node for node in ast.parse(path.read_text()).body
             if isinstance(node, ast.FunctionDef) and node.name == test), None)
        if not body:
            return f"no Tier-1 test {args[0]}"
        names = {n.id for n in ast.walk(body) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(body) if isinstance(n, ast.Attribute)}
        names |= {n.value for n in ast.walk(body) if isinstance(n, ast.Constant)}
        return None if name in names else f"{args[0]} does not name it"
    if kind == "perfbench" and len(args) == 2:
        path, text = ROOT / args[0], args[1]
        needle = f"{name[2:-2]}(" if dunder else name
        if needle in text and path.is_file() and text in path.read_text():
            return None
        return f"{args[0]} does not look it up as {text!r}"
    return f"unknown reason {reason!r}"


def test_every_def_in_src_is_reached_or_allowed(tmp_path):
    reached = _reached(tmp_path)
    listed = {**_defs(), **_reexports()}
    where = {(file, name): f"{file}:{line} {name}"
             for (file, line, _), name in listed.items()}
    unreached = {(key[0], name) for key, name in listed.items() if key not in reached}
    problems = [f"{where[key]}: not reached by the corpus; add a corpus row or an "
                "ALLOWED entry" for key in sorted(unreached - ALLOWED.keys())]
    for (file, name), reason in sorted(ALLOWED.items()):
        loc = where.get((file, name), f"{file}:? {name}")
        if (file, name) not in where:
            problems.append(f"{loc}: on ALLOWED but no longer exists")
        elif (file, name) not in unreached:
            problems.append(f"{loc}: on ALLOWED but reached by the corpus")
        elif (problem := _reason_problem(file, name, reason)) is not None:
            problems.append(f"{loc}: ALLOWED reason {reason[0]!r} fails: {problem}")
    assert not problems, "\n".join(problems)
