"""Pinned sha256 digests of whole run directories and of an ablation result.

Any change to an output byte fails here.  Re-pin only on purpose, and give
the reason with the change that does it.
"""

import dataclasses
import hashlib
import json

import pytest

from quadtrack import scenarios
from quadtrack.ablation import run_ablation
from quadtrack.simulator import run, write_run

# (scenario, seed, duration override, motor lag override) -> file -> sha256
PINNED_RUNS = {
    ("false_positive_storm", 2, None, None): {
        "events.jsonl": "6ab57ebfedfea43387010c71acddc55125aa5857e16fa0d2ced4cec61e1d229e",
        "tracker.jsonl": "cb8798d5a5d70d332e68ba9329ee387777893c87c6142d3e1a543d4b299ef215",
        "commands.jsonl": "7e8f9a966d68638e8975363be24cc0788e0ac2363e84056146358fa828df3053",
        "groundtruth.jsonl": "43de0d4d52ac6364043dd6fb17b1fd9ef7f63f4d4426ba43ab779af1b3c86052",
        "summary.json": "c9d4141e615d02369d9e8f17b8b8a1d3b385a65ab6efd675b8a3cb0bf63e7d8b",
    },
    ("corridor_approach", 21, 2.0, None): {
        "events.jsonl": "9c0d5a69cb878f1d04b70b553516d28fe2f95e173350397ac63872701c1a94bb",
        "tracker.jsonl": "8e90558fad74b952104786ae21d04a99205a159a2f3fbf475af87185f25df83e",
        "commands.jsonl": "5701fa9dd76bed57d2c918cb2920744f3db5f79fe30f4ec637400118acbd8e00",
        "groundtruth.jsonl": "6340cf909969115cb03d45273c0d448eedb006b7c03e44a0f4395307cdd54a75",
        "summary.json": "fca716f550423e76ea37c3e5ff315a91d4afe672f22c41d778c1e4a930d98fa6",
    },
    # first-order motor lag: the rotor thrusts, and so the wrench, move on
    # every physics step rather than once per control tick
    ("corridor_approach", 21, 2.0, 0.02): {
        "events.jsonl": "1d66a58b9fea8f60ebebd007fa3db65be8192e43284602a4c565724e0536108b",
        "tracker.jsonl": "fa383a47dffb2261f9d531de732d91d8a765f99cd26c9dc9e09e89d93593260e",
        "commands.jsonl": "bf14ce1ef51213410b77be941ffeafc5eb498f14b00323b415336b5c00ea4793",
        "groundtruth.jsonl": "ad44e48fbe936747f04c707243a14b0334dcbe94c93fa95f2e8a35f657646635",
        "summary.json": "3ecae11b6008ed0b02a403c54700046e89f4f6f9c6a2db13e2ac381ef819892d",
    },
    # a scripted camera with a decoy and two occluders: the occluded
    # fraction, the occlusion gate and the truth rows' box all take part
    ("occlusion_decoy", 1, 6.0, None): {
        "events.jsonl": "24ae54a642d8d3e7931ad68e94415bea4dcc17cfc1b372304166250c9487a169",
        "tracker.jsonl": "29f953f21785af19199ec6671699a43bba71be5a15992bd4c59a8a476eecc984",
        "commands.jsonl": "e3c5a873f5129378de987dfab5c3ea02f6adb859fae49a472d2325fddc255ee6",
        "groundtruth.jsonl": "0d5d65f70b2ad57d09f694fd9f078ba20b1ad2d2c081260a3d2dcdf17c21176e",
        "summary.json": "081d30f56da632fa11685de602584ed7350db2e0a21329bbf821cfbe8b20b06e",
    },
}

# table-2 grid, false_positive_storm seed 2, one seed; digest of the
# sorted-key JSON of AblationResult.as_dict()
PINNED_ABLATION = "7fda8f6bf2f3d40032d44e62d565a50469058afb9187c4fdee01d4e7f09cceff"


def _scenario(name, seed, duration, motor_lag=None):
    sc = scenarios.get(name).with_seed(seed)
    if duration is not None:
        sc = dataclasses.replace(sc, duration=duration)
    if motor_lag is not None:
        sc = dataclasses.replace(sc, quad=dataclasses.replace(sc.quad, motor_lag=motor_lag))
    return sc


def _case_id(case):
    name, seed, _, motor_lag = case
    return f"{name}-s{seed}" + ("" if motor_lag is None else f"-lag{motor_lag}")


@pytest.mark.parametrize("case", list(PINNED_RUNS), ids=_case_id)
def test_run_directory_matches_pinned_digests(tmp_path, case):
    write_run(run(_scenario(*case)), tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in PINNED_RUNS[case]}
    assert got == PINNED_RUNS[case]


def test_ablation_result_matches_pinned_digest():
    result = run_ablation(_scenario("false_positive_storm", 2, None), n_seeds=1)
    blob = json.dumps(result.as_dict(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED_ABLATION
