"""Scenario schema: strict parsing, round trips, hashing, bundled corpus."""

import copy
import json
import pathlib

import pytest

from quadtrack import scenarios
from quadtrack.config import (
    MotionConfig,
    ObjectConfig,
    PromptConfig,
    RatesConfig,
    Scenario,
    load_scenario,
    save_scenario,
    scenario_hash,
)
from quadtrack.errors import ConfigError

ALL_NAMES = [
    "static_target",
    "corridor_approach",
    "occlusion_decoy",
    "sprint_7ms",
    "rotation_only",
    "false_positive_storm",
]


def minimal_scenario(**kw):
    base = dict(
        name="unit",
        seed=3,
        duration=1.0,
        prompt=PromptConfig(480.0, 272.0),
        objects=(ObjectConfig(0, (0.6, 0.6),
                              MotionConfig("static", position=(10.0, 0.0, 1.5))),),
    )
    base.update(kw)
    return Scenario(**base)


def raises_with(msg, fn, *args, **kw):
    with pytest.raises(ConfigError) as ei:
        fn(*args, **kw)
    assert msg in str(ei.value)


def test_bundled_names():
    names = scenarios.names()
    assert names == ALL_NAMES
    assert len(set(names)) == len(names)


def test_bundled_scenarios_validate():
    for name in ALL_NAMES:
        sc = scenarios.get(name)
        assert sc.name == name
        assert sc.duration > 0
        assert any(o.obj_id == sc.target_id for o in sc.objects)


def test_get_unknown_name_raises():
    raises_with("bundled", scenarios.get, "no_such_scenario")


def test_save_load_save_byte_identical(tmp_path):
    for name in ALL_NAMES:
        sc = scenarios.get(name)
        first = tmp_path / f"{name}_a.json"
        second = tmp_path / f"{name}_b.json"
        save_scenario(sc, first)
        loaded = load_scenario(first)
        assert loaded == sc
        save_scenario(loaded, second)
        assert first.read_bytes() == second.read_bytes()


def test_scenario_corpus_matches_builders(tmp_path):
    # the benchmark reads scenarios/*.json while the CLI uses the builders
    corpus = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    assert sorted(p.stem for p in corpus.glob("*.json")) == sorted(ALL_NAMES)
    for name in ALL_NAMES:
        path = tmp_path / f"{name}.json"
        save_scenario(scenarios.get(name), path)
        assert path.read_bytes() == (corpus / f"{name}.json").read_bytes(), name


def test_dict_round_trip_equality():
    for name in ALL_NAMES:
        sc = scenarios.get(name)
        assert Scenario.from_dict(sc.to_dict()) == sc


def test_saved_file_is_indented_json(tmp_path):
    path = tmp_path / "sc.json"
    save_scenario(minimal_scenario(), path)
    text = path.read_text()
    assert text.endswith("\n")
    assert "\n  " in text
    assert json.loads(text)["name"] == "unit"


def test_hash_stable_across_rebuild_and_reload(tmp_path):
    a = scenarios.get("occlusion_decoy")
    b = scenarios.get("occlusion_decoy")
    assert scenario_hash(a) == scenario_hash(b)
    path = tmp_path / "sc.json"
    save_scenario(a, path)
    assert scenario_hash(load_scenario(path)) == scenario_hash(a)
    h = scenario_hash(a)
    assert len(h) == 64 and set(h) <= set("0123456789abcdef")


def test_hash_sensitive_to_content():
    sc = scenarios.get("static_target")
    assert scenario_hash(sc.with_seed(sc.seed + 1)) != scenario_hash(sc)
    assert scenario_hash(sc.with_weights((3.0, 0.0, 0.0))) != scenario_hash(sc)


def test_with_seed_and_with_weights_replace_only_their_fields():
    sc = scenarios.get("sprint_7ms")
    reseeded = sc.with_seed(99)
    assert reseeded.seed == 99
    assert reseeded == sc.with_seed(99)
    assert reseeded.with_seed(sc.seed) == sc

    reweighted = sc.with_weights([1, 2, 3.5])
    assert reweighted.tracker.weights == (1.0, 2.0, 3.5)
    assert reweighted.tracker.memory_alpha == sc.tracker.memory_alpha
    assert reweighted.with_weights(sc.tracker.weights) == sc
    assert sc.tracker.weights == scenarios.get("sprint_7ms").tracker.weights


def test_unknown_keys_raise_with_dotted_path():
    d = minimal_scenario().to_dict()
    bad = copy.deepcopy(d)
    bad["bogus"] = 1
    raises_with("scenario: unknown key(s) ['bogus']", Scenario.from_dict, bad)

    bad = copy.deepcopy(d)
    bad["tracker"] = {"weights": [3, 3, 4], "extra": 0}
    raises_with("scenario.tracker: unknown key(s) ['extra']", Scenario.from_dict, bad)

    bad = copy.deepcopy(d)
    bad["objects"][0]["colour"] = "red"
    raises_with("scenario.objects[0]: unknown key(s) ['colour']",
                Scenario.from_dict, bad)


def test_missing_required_keys_raise():
    d = minimal_scenario().to_dict()
    for key in ("name", "seed", "duration", "prompt", "objects"):
        bad = copy.deepcopy(d)
        del bad[key]
        raises_with(f"scenario: missing {key!r}", Scenario.from_dict, bad)
    bad = copy.deepcopy(d)
    del bad["objects"][0]["motion"]
    raises_with("scenario.objects[0]: missing 'motion'", Scenario.from_dict, bad)


def test_non_object_sections_raise():
    d = minimal_scenario().to_dict()
    bad = copy.deepcopy(d)
    bad["tracker"] = [1, 2, 3]
    raises_with("scenario.tracker: expected an object", Scenario.from_dict, bad)
    bad = copy.deepcopy(d)
    bad["objects"] = {"0": {}}
    raises_with("scenario.objects: expected a list", Scenario.from_dict, bad)
    raises_with("scenario: expected a JSON object", Scenario.from_dict, [])


def test_scenario_validation():
    raises_with("duration must be positive", minimal_scenario, duration=0.0)
    raises_with("needs at least one object", minimal_scenario, objects=())
    obj = minimal_scenario().objects[0]
    raises_with("duplicate obj_id", minimal_scenario, objects=(obj, obj))
    raises_with("target_id 5 not among objects", minimal_scenario, target_id=5)
    occ = ObjectConfig(0, (0.6, 0.6),
                       MotionConfig("static", position=(10.0, 0.0, 1.5)),
                       occluder=True)
    raises_with("target cannot be an occluder", minimal_scenario, objects=(occ,))
    raises_with("unsupported schema_version", minimal_scenario, schema_version=2)


def test_section_validation_propagates_through_parse():
    d = minimal_scenario().to_dict()
    bad = copy.deepcopy(d)
    bad["rates"] = {"physics_hz": 100, "control_hz": 100, "camera_hz": 200}
    raises_with("rates: require physics_hz >= control_hz >= camera_hz",
                Scenario.from_dict, bad)
    bad = copy.deepcopy(d)
    bad["controller"] = {"beta": 1.5}
    raises_with("controller: beta outside [0, 1]", Scenario.from_dict, bad)
    bad = copy.deepcopy(d)
    bad["metrics"] = {"iou_threshold": 0.0}
    raises_with("metrics: bad iou_threshold", Scenario.from_dict, bad)
    bad = copy.deepcopy(d)
    bad["quad"] = {"mass": -1.0}
    raises_with("quad: mass must be positive", Scenario.from_dict, bad)
    bad = copy.deepcopy(d)
    bad["camera_script"] = {"mode": "orbit"}
    raises_with("camera_script: unknown mode 'orbit'", Scenario.from_dict, bad)
    bad = copy.deepcopy(d)
    bad["tracker"] = {"weights": [3, 3]}
    raises_with("tracker: weights must be 3 non-negative values",
                Scenario.from_dict, bad)


def test_quad_rejects_singular_mixer_geometry():
    d = minimal_scenario().to_dict()
    d["quad"] = {"yaw_coeff": 0.0}
    raises_with("scenario.quad: arm_length, yaw_coeff and max_thrust must be positive",
                Scenario.from_dict, d)


def test_layer_builders_carry_every_field():
    sc = scenarios.get("corridor_approach")
    quad = sc.quad.build()
    assert (quad.mass, quad.inertia, quad.motor_lag) == (
        sc.quad.mass, sc.quad.inertia, sc.quad.motor_lag)
    assert (quad.geometry.arm_length, quad.geometry.yaw_coeff,
            quad.geometry.max_thrust) == (sc.quad.arm_length, sc.quad.yaw_coeff,
                                          sc.quad.max_rotor_thrust)
    cam = sc.camera.build()
    ctl = sc.controller.build(quad, cam, sc.rates.control_hz)
    c = sc.controller
    g = ctl.gains
    assert (g.kp_roll, g.kd_roll, g.kp_thrust, g.kd_thrust, g.kp_yaw, g.kd_yaw,
            g.beta, g.pitch_accel, g.min_thrust_frac) == (
        c.kp_roll, c.kd_roll, c.kp_thrust, c.kd_thrust, c.kp_yaw, c.kd_yaw,
        c.beta, c.pitch_accel, c.min_thrust_frac)
    assert g.mass == sc.quad.mass
    assert (ctl.att_gains.kr, ctl.att_gains.kw) == (c.attitude_kr, c.attitude_kw)
    assert ctl.geom is quad.geometry and ctl.cam == cam
    assert ctl.inertia.tolist() == list(sc.quad.inertia)
    assert ctl.dt == 1.0 / sc.rates.control_hz
    assert (ctl.deriv_tau, ctl.literal) == (c.deriv_tau, c.literal_equations)


def test_object_size_validation():
    raises_with("object 7: size must be 2 positive values",
                ObjectConfig, 7, (0.6, -0.6),
                MotionConfig("static", position=(0.0, 0.0, 0.0)))


def test_motion_mode_validation():
    raises_with("motion: unknown mode 'orbit'", MotionConfig, "orbit")
    raises_with("key 'period' not valid for mode 'static'",
                MotionConfig, "static", position=(0.0, 0.0, 0.0), period=2.0)
    raises_with("static needs position", MotionConfig, "static")
    raises_with("waypoints needs >= 2 entries",
                MotionConfig, "waypoints", waypoints=((0.0, 1.0, 2.0, 3.0),))
    raises_with("waypoint entries are (t, x, y, z)",
                MotionConfig, "waypoints",
                waypoints=((0.0, 1.0, 2.0), (1.0, 2.0, 3.0)))
    raises_with("sinusoid needs center",
                MotionConfig, "sinusoid", amplitude=(1.0, 0.0, 0.0), period=2.0)
    raises_with("sinusoid needs positive period",
                MotionConfig, "sinusoid", center=(0.0, 0.0, 1.0),
                amplitude=(1.0, 0.0, 0.0), period=0.0)


def test_motion_to_dict_drops_inapplicable_fields():
    static = MotionConfig("static", position=(1.0, 2.0, 3.0))
    assert static.to_dict() == {"mode": "static", "position": (1.0, 2.0, 3.0)}
    sine = MotionConfig("sinusoid", center=(0.0, 0.0, 1.0),
                        amplitude=(1.0, 0.0, 0.0), period=4.0)
    assert sine.to_dict()["phase"] == 0.0
    assert "waypoints" not in sine.to_dict()


def test_prompt_and_rates_validation():
    raises_with("prompt: time must be non-negative", PromptConfig, 1.0, 2.0, -0.5)
    raises_with("rates: require", RatesConfig, 1000, 100, 0)


def test_load_scenario_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  "seed": }\n')
    with pytest.raises(ConfigError) as ei:
        load_scenario(path)
    assert "invalid JSON" in str(ei.value)
    assert "line 2" in str(ei.value)
