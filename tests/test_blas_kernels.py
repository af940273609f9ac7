"""The bundled runs do not depend on the BLAS kernel that numpy's OpenBLAS
picks for the host CPU.

One child process per kernel (Haswell, Sandybridge and Prescott, set by
OPENBLAS_CORETYPE; three processes and no more) runs every bundled scenario
cut to SECONDS and returns its fingerprint: the sha256 of the four stream
files, and float.hex of the final plant floats and of the filter's mean and
covariance.  The logs round every float to 9 or 10 digits, so the full-
precision state is what shows a last-bit change before it moves a printed
digit.  The default kernel's fingerprints are computed in this process.
Each child's `Core:` line (OPENBLAS_VERBOSE=2) shows that it got the kernel
it asked for; an OpenBLAS build that aliases Katmai to Prescott prints
Katmai for the latter.

The tracker's appearance memory is left out.  Its 256-float dots
(`cosine_score`, `update_memory`, `_unit`, the `initialize` norm and
`build_scene`'s latent norm) stay on `ndarray.dot`, which rounds as the
kernel's dot product does: under each of the three kernels the memory
after 2 s differs from the default kernel's on five of the six bundled
scenarios (all but `rotation_only`, whose feature noise is 0).  No decision
and no logged digit has moved with it, and every fixed-order form measured
costs more than `a.dot(b)` (ROADMAP item 1).
"""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from quadtrack import scenarios, simulator

SECONDS = 2.0
STREAMS = ("events.jsonl", "tracker.jsonl", "commands.jsonl", "groundtruth.jsonl")
# the kernel each child asks for -> the names its Core: line may print
KERNELS = {"Haswell": ("Haswell",), "Sandybridge": ("Sandybridge",),
           "Prescott": ("Prescott", "Katmai")}


def _hex(values) -> list:
    return [float(v).hex() for v in values]


def fingerprint(name: str) -> dict:
    """The bundled scenario `name` cut to SECONDS: its stream files' sha256,
    and float.hex of the final plant floats and of the filter's mean and
    covariance (None before the tracker initializes)."""
    sc = dataclasses.replace(scenarios.get(name), duration=SECONDS)
    kept = {}
    real_stream, real_tracker = simulator.sensor_stream, simulator.Tracker

    def stream(sc, platform, truth_trace):
        kept["platform"] = platform
        return real_stream(sc, platform, truth_trace)

    class KeptTracker(real_tracker):
        def __init__(self, *args):
            super().__init__(*args)
            kept["tracker"] = self

    simulator.sensor_stream, simulator.Tracker = stream, KeptTracker
    try:
        art = simulator.run(sc)
    finally:
        simulator.sensor_stream, simulator.Tracker = real_stream, real_tracker
    with tempfile.TemporaryDirectory() as d:
        simulator.write_run(art, d)
        files = {f: hashlib.sha256(Path(d, f).read_bytes()).hexdigest()
                 for f in STREAMS}
    # the platform at the last physics tick steps no further
    hz = sc.rates.physics_hz
    plant = kept["platform"](art.counts["physics"] / hz).floats()
    state = kept["tracker"].state
    ekf = None if state is None else {"m": _hex(state.ekf.m), "p": _hex(state.ekf.p)}
    return {"files": files, "plant": _hex(plant), "filter": ekf}


def fingerprints() -> dict:
    return {name: fingerprint(name) for name in scenarios.names()}


def _not_dynamic_openblas() -> str | None:
    """Why OPENBLAS_CORETYPE cannot select a kernel here, or None."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "numpy does not report its BLAS build"
    conf = blas.get("openblas configuration", "")
    if "openblas" not in blas.get("name", "").lower() or "DYNAMIC_ARCH" not in conf:
        return (f"numpy's BLAS is {blas.get('name')!r} ({conf!r}), not a "
                "DYNAMIC_ARCH OpenBLAS, so OPENBLAS_CORETYPE selects no kernel")
    return None


def test_bundled_runs_are_the_same_under_three_blas_kernels():
    reason = _not_dynamic_openblas()
    if reason is not None:
        pytest.skip(reason)
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here),
                                         os.environ.get("PYTHONPATH")]))
    code = "import json, test_blas_kernels as k; print(json.dumps(k.fingerprints()))"
    children = {
        kernel: subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": kernel,
                 "OPENBLAS_VERBOSE": "2"})
        for kernel in KERNELS}
    try:
        want = fingerprints()
        outputs = {k: child.communicate(timeout=600) for k, child in children.items()}
    finally:
        for child in children.values():
            if child.poll() is None:
                child.kill()
                child.wait()
    for kernel, (out, err) in outputs.items():
        assert children[kernel].returncode == 0, (kernel, err)
        cores = re.findall(r"^Core: (\w+)", err, flags=re.M)
        assert len(cores) == 1 and cores[0] in KERNELS[kernel], (kernel, err)
        got = json.loads(out)
        for name in want:
            moved = [k for k in want[name] if got[name][k] != want[name][k]]
            assert not moved, (kernel, name, moved)
