"""Scenario schema: strict parsing, round trips, hashing, bundled corpus."""

import ast
import copy
import inspect
import json
import math
import pathlib
import typing
from dataclasses import MISSING, asdict, astuple, fields, is_dataclass, replace

import pytest

from quadtrack import config, scenarios, simulator
from quadtrack.config import (
    CameraScriptConfig,
    ObjectConfig,
    PromptConfig,
    RatesConfig,
    Scenario,
    load_scenario,
    save_scenario,
    scenario_hash,
)
from quadtrack.errors import ConfigError
from quadtrack.tracker import TrackerWeights

ALL_NAMES = [
    "corridor_approach",
    "false_positive_storm",
    "occlusion_decoy",
    "rotation_only",
    "sprint_7ms",
    "static_target",
]
CORPUS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def minimal_scenario(**kw):
    base = dict(
        name="unit",
        seed=3,
        duration=1.0,
        prompt=PromptConfig(480.0, 272.0),
        objects=(ObjectConfig(0, (0.6, 0.6), ((0.0, 10.0, 0.0, 1.5),)),),
    )
    base.update(kw)
    return Scenario(**base)


def raises_with(msg, fn, *args, **kw):
    with pytest.raises(ConfigError) as ei:
        fn(*args, **kw)
    assert msg in str(ei.value)


def rejects(msg, fn, *args, **kw):
    """A section built directly in Python raises ValueError with the bare
    message; only the loader adds the value's path."""
    with pytest.raises(ValueError) as ei:
        fn(*args, **kw)
    assert str(ei.value).startswith(msg), str(ei.value)


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
    # only a listed name is loaded, so a name cannot reach outside the corpus
    raises_with("unknown scenario '../rotation_only'; bundled: corridor_approach",
                scenarios.get, "../rotation_only")


def test_missing_corpus_directory_raises_naming_it(tmp_path, monkeypatch):
    monkeypatch.setattr(scenarios, "CORPUS", tmp_path / "gone")
    raises_with(f"bundled scenario directory not found: {tmp_path / 'gone'}",
                scenarios.names)
    raises_with("bundled scenario directory not found", scenarios.get, "rotation_only")


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


def test_bundled_names_are_the_corpus_files():
    assert scenarios.names() == sorted(p.stem for p in CORPUS.glob("*.json"))


def test_bundled_get_loads_the_corpus_file():
    for name in scenarios.names():
        assert scenarios.get(name) == load_scenario(CORPUS / f"{name}.json"), name


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
    reweighted = replace(sc, tracker=replace(sc.tracker, weights=(3.0, 0.0, 0.0)))
    assert scenario_hash(reweighted) != scenario_hash(sc)


def test_with_seed_replaces_only_the_seed():
    sc = scenarios.get("sprint_7ms")
    reseeded = sc.with_seed(99)
    assert reseeded.seed == 99
    assert reseeded == sc.with_seed(99)
    assert reseeded.with_seed(sc.seed) == sc
    assert sc.seed == scenarios.get("sprint_7ms").seed


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


def test_quad_defaults_are_the_layer_types_own():
    # the vehicle's default mass and mixer geometry are written once, in the
    # controller gains and the mixer geometry
    from quadtrack.controller import ControllerGains, MixerGeometry
    defaults = {f.name: f.default for f in fields(config.QuadConfig)}
    assert defaults["mass"] is ControllerGains.mass
    assert defaults["arm_length"] is MixerGeometry.arm_length
    assert defaults["yaw_coeff"] is MixerGeometry.yaw_coeff
    assert defaults["max_rotor_thrust"] is MixerGeometry.max_thrust


def test_missing_required_keys_raise():
    # the fields without a default are the required keys
    required = [f.name for f in fields(Scenario)
                if f.default is MISSING and f.default_factory is MISSING]
    assert required == ["name", "seed", "duration", "objects", "prompt"]
    d = minimal_scenario().to_dict()
    for key in required:
        bad = copy.deepcopy(d)
        del bad[key]
        raises_with(f"scenario: missing {key!r}", Scenario.from_dict, bad)
    for key in ("obj_id", "size", "waypoints"):
        bad = copy.deepcopy(d)
        del bad["objects"][0][key]
        raises_with(f"scenario.objects[0]: missing {key!r}", Scenario.from_dict, bad)
    for key in ("x", "y"):
        bad = copy.deepcopy(d)
        del bad["prompt"][key]
        raises_with(f"scenario.prompt: missing {key!r}", Scenario.from_dict, bad)


def test_non_object_sections_raise():
    d = minimal_scenario().to_dict()
    bad = copy.deepcopy(d)
    bad["tracker"] = [1, 2, 3]
    raises_with("scenario.tracker: expected an object", Scenario.from_dict, bad)
    bad = copy.deepcopy(d)
    bad["objects"] = {"0": {}}
    raises_with("scenario.objects: expected a list", Scenario.from_dict, bad)
    raises_with("scenario: expected an object, got []", Scenario.from_dict, [])


def test_scenario_validation():
    rejects("duration must be positive", minimal_scenario, duration=0.0)
    rejects("duration must be positive and finite", minimal_scenario,
            duration=float("inf"))
    rejects("seed must be an integer >= 0", minimal_scenario, seed=-1)
    rejects("seed must be an integer >= 0", minimal_scenario, seed=1.5)
    rejects("seed must be an integer >= 0", minimal_scenario().with_seed, -3)
    rejects("needs at least one object", minimal_scenario, objects=())
    obj = minimal_scenario().objects[0]
    rejects("duplicate obj_id", minimal_scenario, objects=(obj, obj))
    rejects("target_id 5 not among objects", minimal_scenario, target_id=5)
    occ = ObjectConfig(0, (0.6, 0.6), ((0.0, 10.0, 0.0, 1.5),), occluder=True)
    rejects("target cannot be an occluder", minimal_scenario, objects=(occ,))
    rejects("unsupported schema_version", minimal_scenario, schema_version=2)


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
    bad["controller"] = {"deriv_tau": -0.01}
    raises_with("controller: deriv_tau must be >= 0", Scenario.from_dict, bad)
    bad = copy.deepcopy(d)
    bad["metrics"] = {"iou_threshold": 0.0}
    raises_with("metrics: bad iou_threshold", Scenario.from_dict, bad)
    bad = copy.deepcopy(d)
    bad["quad"] = {"mass": -1.0}
    raises_with("quad: mass must be positive", Scenario.from_dict, bad)
    bad = copy.deepcopy(d)
    bad["camera_script"] = {"mode": "yaw_sine"}
    raises_with("scenario.camera_script: unknown key(s) ['mode']",
                Scenario.from_dict, bad)
    bad = copy.deepcopy(d)
    bad["tracker"] = {"weights": [3, 3]}
    raises_with("tracker: weights must be 3 non-negative values",
                Scenario.from_dict, bad)


@pytest.mark.parametrize("section,key,value", [
    ("rates", "physics_hz", float("inf")),
    ("camera", "height", float("inf")),
    ("quad", "inertia", [0.01, float("inf"), 0.02]),
    ("camera_script", "period", float("inf")),
    ("detector", "descriptor_dim", float("inf")),
    ("tracker", "q_diag", [0.01, 0.01, 0.01, 0.01, 0.1, float("inf")]),
    ("controller", "attitude_kw", [0.3, float("nan"), 0.15]),
    ("metrics", "coast_credit_frames", float("inf")),
    # an integer too large for a float is not finite either
    pytest.param("quad", "mass", 10 ** 400, id="quad-mass-10**400"),
    pytest.param("prompt", "x", 10 ** 400, id="prompt-x-10**400"),
])
def test_non_finite_numbers_raise_naming_the_field(section, key, value):
    # each value passes its section's own checks; the finite-number rule
    # at load names the field
    d = minimal_scenario().to_dict()
    d[section][key] = value
    raises_with(f"scenario.{section}.{key}: every number must be finite",
                Scenario.from_dict, d)


# values of the wrong kind for each declared type: a string for a number, a
# number for a bool, a bool for a number
_WRONG_KINDS = {
    float: ("x", True, [1.0]),
    int: ("x", True, 1.5),
    bool: (1, 0, "true"),
    str: (1, True),
    tuple: ("x", True, ["x", 1.0], [True, 1.0], [[1.0], 2.0]),
}


def _declared_fields(obj, path=()):
    """(path, declared type) of every leaf field under the dataclass obj;
    a tuple of sections (objects) is walked at its first entry."""
    hints = typing.get_type_hints(type(obj))
    for f in fields(obj):
        v, p = getattr(obj, f.name), path + (f.name,)
        if is_dataclass(v):
            yield from _declared_fields(v, p)
        elif isinstance(v, tuple) and is_dataclass(v[0]):
            yield from _declared_fields(v[0], p + (0,))
        else:
            yield p, hints[f.name]


_SOURCE = scenarios.get("corridor_approach")


@pytest.mark.parametrize("path,kind", list(_declared_fields(_SOURCE)),
                         ids=lambda x: ".".join(map(str, x)) if isinstance(x, tuple)
                         else x.__name__)
def test_every_field_rejects_a_value_of_the_wrong_kind(path, kind):
    name = "scenario" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                                for k in path)
    for wrong in _WRONG_KINDS[kind]:
        d = _SOURCE.to_dict()
        node = d
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = wrong
        with pytest.raises(ConfigError) as ei:
            Scenario.from_dict(d)
        assert str(ei.value).startswith(f"{name}: expected "), (wrong, str(ei.value))


def _edited(change):
    d = scenarios.get("occlusion_decoy").to_dict()
    change(d)
    return d


@pytest.mark.parametrize("change,message", [
    (lambda d: d["objects"][2].update(waypoints=[
        [0.0, 1.0, 0.0, 1.0], [2.0, 2.0, 0.0, 1.0], [1.0, 3.0, 0.0, 1.0]]),
     "scenario.objects[2]: waypoint times must be strictly increasing"),
    (lambda d: d["objects"][1].update(size=[0.5, -1.0]),
     "scenario.objects[1]: size must be 2 positive values"),
    # the removed motion section is an unknown key, with no alias
    (lambda d: d["objects"][3].update(motion={"mode": "static",
                                              "position": [6.0, 3.566, -2.2]}),
     "scenario.objects[3]: unknown key(s) ['motion']"),
    (lambda d: d["camera"].update(vfov=0.0),
     "scenario.camera: vfov out of range (0, pi): 0.0"),
    (lambda d: d["camera"].update(width=0),
     "scenario.camera: image dimensions must be positive"),
    (lambda d: d["prompt"].update(t=-1.0),
     "scenario.prompt: time must be non-negative"),
    (lambda d: d["tracker"].update(weights=[1e308, 1e308, 1e308]),
     "scenario.tracker: weights and their total must be finite"),
], ids=["waypoints", "size", "motion_key", "vfov", "width", "prompt_t",
        "weight_total"])
def test_a_rejected_value_is_named_by_its_path(change, message):
    # a section's own check raises a bare ValueError; the loader names the
    # section or object that holds the value
    with pytest.raises(ConfigError) as ei:
        Scenario.from_dict(_edited(change))
    assert str(ei.value).startswith(message), str(ei.value)


def test_only_the_loader_raises_config_error():
    tree = ast.parse(inspect.getsource(config))
    raisers = {fn.name for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Raise) and node.exc is not None
               and "ConfigError" in ast.unparse(node.exc)}
    assert raisers == {"_build", "_value", "load_scenario"}


def test_quad_rejects_singular_mixer_geometry():
    d = minimal_scenario().to_dict()
    d["quad"] = {"yaw_coeff": 0.0}
    raises_with("scenario.quad: arm_length, yaw_coeff and max_thrust must be positive",
                Scenario.from_dict, d)


def _moved(section):
    """`section` with every field moved off its value (numbers halved,
    flags flipped), so a builder that drops or swaps a field shows."""
    def move(v):
        if isinstance(v, bool):
            return not v
        if isinstance(v, tuple):
            return tuple(move(x) for x in v)
        return 0.5 * v
    return replace(section, **{k: move(v) for k, v in asdict(section).items()})


def test_layer_builders_carry_every_field():
    sc = scenarios.get("corridor_approach")
    cam = sc.camera.build()
    c = _moved(sc.controller)
    ctl = c.build(sc.quad, cam, sc.rates.control_hz)
    carried = {f.name: getattr(ctl.gains, f.name) for f in fields(ctl.gains)
               if f.name != "mass"}
    carried.update(attitude_kr=ctl.att_gains.kr, attitude_kw=ctl.att_gains.kw,
                   deriv_tau=ctl.deriv_tau)
    assert carried == asdict(c)
    assert ctl.gains.mass == sc.quad.mass
    assert ctl.geom is sc.quad.geometry and ctl.cam == cam
    assert ctl.inertia == tuple(sc.quad.inertia)
    assert ctl.dt == 1.0 / sc.rates.control_hz

    t = _moved(sc.tracker)
    cfg = t.build(cam)
    carried = {f.name: getattr(cfg, f.name) for f in fields(cfg)
               if f.name != "camera"}
    carried["weights"] = astuple(cfg.weights)
    assert carried == asdict(t) and cfg.camera is cam
    assert (replace(t, weights=(1, 2, 3)).build(cam).weights
            == TrackerWeights(1.0, 2.0, 3.0))
    assert t.build_weights() == cfg.weights


def test_run_hands_the_scenario_sections_to_their_layers(monkeypatch):
    sc = minimal_scenario(duration=0.1)
    seen = {}

    def spy(name, fn, index):
        def wrapper(*args):
            seen.setdefault(name, set()).add(id(args[index]))
            return fn(*args)
        monkeypatch.setattr(simulator, name, wrapper)

    spy("SyntheticDetector", simulator.SyntheticDetector, 0)
    spy("dynamics_step", simulator.dynamics_step, 2)
    spy("compute_metrics", simulator.compute_metrics, 2)
    art = simulator.run(sc)
    assert art.metrics is not None
    assert seen == {"SyntheticDetector": {id(sc.detector)},
                    "dynamics_step": {id(sc.quad)},
                    "compute_metrics": {id(sc.metrics)}}


def test_object_size_validation():
    rejects("size must be 2 positive values",
            ObjectConfig, 7, (0.6, -0.6), ((0.0, 0.0, 0.0, 0.0),))


def test_prompt_and_rates_validation():
    rejects("time must be non-negative", PromptConfig, 1.0, 2.0, -0.5)
    rejects("y must be a finite number", PromptConfig, 1.0, float("inf"))
    rejects("require physics_hz", RatesConfig, 1000, 100, 0)


def test_camera_script_needs_a_finite_peak_rate():
    # an overflowing amplitude * 2 pi / period, or an infinite 2 pi / period
    # (a still script's phase would be 0 * inf); flown or scripted alike
    rate = "peak yaw rate amplitude * 2 pi / period must be finite"
    for scripted in (True, False):
        rejects(rate, CameraScriptConfig, scripted, 1e308, 1.0)
        rejects(rate, CameraScriptConfig, scripted, 0.0, 1e-320)
    assert CameraScriptConfig(True, 1.7e308, 2.0 * math.pi).amplitude == 1.7e308


def test_load_scenario_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(ConfigError) as ei:
        load_scenario(path)
    assert str(ei.value) == f"{path}: not UTF-8 text (invalid start byte)"


def test_load_scenario_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  "seed": }\n')
    with pytest.raises(ConfigError) as ei:
        load_scenario(path)
    assert "invalid JSON" in str(ei.value)
    assert "line 2" in str(ei.value)
