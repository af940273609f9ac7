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
        "summary.json": "bcb2960d2fbac07810f645baa2e60f1181158a3fadd2a6d7066a293d2110c9c4",
    },
    ("corridor_approach", 21, 2.0, None): {
        "events.jsonl": "9c0d5a69cb878f1d04b70b553516d28fe2f95e173350397ac63872701c1a94bb",
        "tracker.jsonl": "8e90558fad74b952104786ae21d04a99205a159a2f3fbf475af87185f25df83e",
        "commands.jsonl": "5701fa9dd76bed57d2c918cb2920744f3db5f79fe30f4ec637400118acbd8e00",
        "groundtruth.jsonl": "6340cf909969115cb03d45273c0d448eedb006b7c03e44a0f4395307cdd54a75",
        "summary.json": "b9ff61079274f361331bf9ddeefd54f65aa1a227a1830b4c77ef4c8e6153394d",
    },
    # first-order motor lag: the rotor thrusts, and so the wrench, move on
    # every physics step rather than once per control tick
    ("corridor_approach", 21, 2.0, 0.02): {
        "events.jsonl": "1d66a58b9fea8f60ebebd007fa3db65be8192e43284602a4c565724e0536108b",
        "tracker.jsonl": "fa383a47dffb2261f9d531de732d91d8a765f99cd26c9dc9e09e89d93593260e",
        "commands.jsonl": "bf14ce1ef51213410b77be941ffeafc5eb498f14b00323b415336b5c00ea4793",
        "groundtruth.jsonl": "ad44e48fbe936747f04c707243a14b0334dcbe94c93fa95f2e8a35f657646635",
        "summary.json": "7a0409864ee981e16b9fafcbc9ca9f603a43a139b1f172f70ac3cb687492ff01",
    },
    # a scripted camera with a decoy and two occluders: the occluded
    # fraction, the occlusion gate and the truth rows' box all take part
    ("occlusion_decoy", 1, 6.0, None): {
        "events.jsonl": "24ae54a642d8d3e7931ad68e94415bea4dcc17cfc1b372304166250c9487a169",
        "tracker.jsonl": "29f953f21785af19199ec6671699a43bba71be5a15992bd4c59a8a476eecc984",
        "commands.jsonl": "e3c5a873f5129378de987dfab5c3ea02f6adb859fae49a472d2325fddc255ee6",
        "groundtruth.jsonl": "0d5d65f70b2ad57d09f694fd9f078ba20b1ad2d2c081260a3d2dcdf17c21176e",
        "summary.json": "c055f30d118f2107eb67cf800f0f68fcc3de5e1e8983815c63c8cede7759830d",
    },
    # the only yaw_sine camera pose, with sigma = 0 gyro draws and a
    # noiseless detector
    ("rotation_only", 41, None, None): {
        "events.jsonl": "71d568c2cb9f3f7006930b9016fe56749130d9856ac7afc6a11a8d4d0c5569fa",
        "tracker.jsonl": "0a84207a8d5b44db9b40f2ad5e578f73359e6c27e52859577afc394329b67db4",
        "commands.jsonl": "987451f807d1bb48b6313269a09d4956d1e614d9d5f72bef0336f84b53a4c176",
        "groundtruth.jsonl": "6d9041afea815e9902e9e299e5a8e406ae943503e39cae52720bd579f4968558",
        "summary.json": "7ac2f34928ad1c6b31e8660bc33fcb1ef0d994327b4ee7daf634d8b8fe363b2e",
    },
    # closed loop on a target that stays put, with a wide field of view
    ("static_target", 11, 3.0, None): {
        "events.jsonl": "6ba8cf3df3b7846869518d9491b31d5cc4b206dde4d13af4ba3acc59ee7319ec",
        "tracker.jsonl": "210d8ad8487d3a33bb076459ba954246f77ecfee8d2728fb2cd5c2b80d9adef5",
        "commands.jsonl": "6cabbdfda436a5013ffffc061e07bd6fdcd761035fd172e02c4f831489086d94",
        "groundtruth.jsonl": "c2d8d125753d2ae45d50751fedb5aa2f404d339af0dc57e8c616d9a7333ec462",
        "summary.json": "724f3601d9add6ef426a2f02c179755cee3d7b9e64ca2121c12692e5a326a942",
    },
    # closed loop on a target that sprints at 7 m/s
    ("sprint_7ms", 31, 3.0, None): {
        "events.jsonl": "7e2efbf93ecc3d94ab769dda618a4ec34c2f4bdde6dd9985ffc0bf6206ad18ff",
        "tracker.jsonl": "9260048cecb88f97db0630c2c37d2e93cbb01ed0459de3433976ff59dc6bff34",
        "commands.jsonl": "755f25215d911dafb5e02210b2978dc083c03396dca739a2a013adb066e1ed50",
        "groundtruth.jsonl": "a8ba16e79bbac761c6857b75bac7898e78cce3f7fdf034044f93b67ba6382a88",
        "summary.json": "7215157fdb0875836fa2fb4c84511e7c781f506829cac7a0a26f81c669bfd676",
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
