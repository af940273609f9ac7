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

# (scenario, seed, duration override) -> file -> sha256
PINNED_RUNS = {
    ("false_positive_storm", 2, None): {
        "events.jsonl": "68aa2fa70eb11c11004dd652ff545552a60c21cdba67795e8e157e9d0714d9e8",
        "tracker.jsonl": "de0c9911a5ec0d91132c7f455b843662ef138f032c1a80fd62d23cff1f8b3fca",
        "commands.jsonl": "9734fa37704885ed2e655bf3e11781d595f28fc5938aaaa495b947e95f82ced0",
        "groundtruth.jsonl": "43de0d4d52ac6364043dd6fb17b1fd9ef7f63f4d4426ba43ab779af1b3c86052",
        "summary.json": "91947631160029850fad6b2a24a395361cbe0601df4bdb8c8225f2b3b6d16dfb",
    },
    ("corridor_approach", 21, 2.0): {
        "events.jsonl": "74a293ba44f2fbdd6c8c34f4978fdf68ce7934dc6b8f9cade1654a7c34802920",
        "tracker.jsonl": "d9a8132d973bdc8fed28645ecced3ceb3c0ba7082b3e2dd948b8e7f243d05f13",
        "commands.jsonl": "efc562dbd8e8b3bc17720b057c8149956df20eea15985fd2bd3e9fb839b6101f",
        "groundtruth.jsonl": "1fcfd6cc66602a2a1bc94c8f6c1ebf0ea92065203730e5eb59e23bcb42dfe465",
        "summary.json": "6ffeda7085acfed1fa9ebf1f9f8ab3a84db43fbd04781bb1d1e9b6d16aa3848c",
    },
}

# table-2 grid, false_positive_storm seed 2, one seed; digest of the
# sorted-key JSON of AblationResult.as_dict()
PINNED_ABLATION = "ca8c669831fa7120e9cd41d4b2011a0129fafaa609f8f02f7f5688cb0d00f6ef"


def _scenario(name, seed, duration):
    sc = scenarios.get(name).with_seed(seed)
    return sc if duration is None else dataclasses.replace(sc, duration=duration)


@pytest.mark.parametrize("case", list(PINNED_RUNS), ids=lambda c: f"{c[0]}-s{c[1]}")
def test_run_directory_matches_pinned_digests(tmp_path, case):
    write_run(run(_scenario(*case)), tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in PINNED_RUNS[case]}
    assert got == PINNED_RUNS[case]


def test_ablation_result_matches_pinned_digest():
    result = run_ablation(_scenario("false_positive_storm", 2, None), n_seeds=1)
    blob = json.dumps(result.as_dict(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED_ABLATION
