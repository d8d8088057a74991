"""Configuration tests: defaults agree between SimConfig and the key table;
out-of-range values are rejected when the configuration is built."""

import dataclasses
import math
import random
import re
from collections import Counter

import pytest

from sandwalk import sim
from sandwalk.config import (
    CONFIG_KEYS,
    ConfigError,
    build_config,
    flatten_config,
    load_config,
    write_config,
)
from sandwalk.dynamics import FrontalParams, SagittalParams
from sandwalk.gait import GaitConfig
from sandwalk.sim import SimConfig
from sandwalk.terrain import TerrainParams

from test_golden import EVERY_KEY, ROBOT_ONLY

# NaN and +-inf for every float key, plus the ranges of keys that had no check
BAD_VALUES = [(key, bad) for key, value in flatten_config(SimConfig()).items()
              if isinstance(value, float) for bad in ("nan", "inf", "-inf")] + [
    ("control.torque_limit", "-5"), ("control.torque_limit", "0"),
    ("gait.hip_height", "0"), ("sim.r_eff_cap", "-1"), ("sim.initial_jitter", "-1"),
    ("sim.seed", "-1"),
]


def test_simconfig_defaults_match_build_config():
    assert flatten_config(SimConfig()) == flatten_config(build_config({}))
    assert SimConfig() == build_config({})


@pytest.mark.parametrize("key,field", [
    ("robot.foot_radius", "foot_radius"), ("sim.h_com", "h_com"), ("robot.g", "g"),
])
@pytest.mark.parametrize("value", ["0", "-0.01"])
def test_nonpositive_robot_and_com_inputs_rejected(key, field, value):
    # the configuration object names its field, the diagnostic the key that set it
    with pytest.raises(ConfigError, match=f"^invalid configuration: {re.escape(key)} must be") \
            as err:
        load_config(None, [f"{key}={value}"])
    assert str(err.value.__cause__).startswith(f"{field} must be")


@pytest.mark.parametrize("key,value", BAD_VALUES)
def test_bad_value_rejected_naming_the_field(key, value):
    with pytest.raises(ConfigError, match=f"invalid configuration: {re.escape(key)} must"):
        load_config(None, [f"{key}={value}"])


# every float field of each configuration object
FLOAT_FIELDS = [(cls, f.name)
                for cls in (SimConfig, GaitConfig, TerrainParams, SagittalParams, FrontalParams)
                for f in dataclasses.fields(cls) if f.init and f.type == "float"]


@pytest.mark.parametrize("cls,field", FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{field}" for cls, field in FLOAT_FIELDS])
@pytest.mark.parametrize("value", [float("inf"), float("-inf")])
def test_infinite_field_rejected_when_built_directly(cls, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        cls(**{field: value})


def test_every_setting_is_one_configuration_key():
    # every field of SimConfig is an init field, and each, like each init
    # field of its gait, terrain and sagittal parts, is set by exactly one
    # key; the frontal model is derived, not a field
    paths = []
    for f in dataclasses.fields(SimConfig):
        if f.name in ("gait", "terrain", "sagittal"):
            paths += [f"{f.name}.{g.name}" for g in dataclasses.fields(f.default_factory)
                      if g.init]
        else:
            assert f.init
            paths.append(f.name)
    key_paths = Counter(path for path, _ in CONFIG_KEYS.values())
    assert key_paths == Counter(paths) and set(key_paths.values()) == {1}
    for flat in ({}, EVERY_KEY, ROBOT_ONLY):
        cfg = build_config(flat)
        assert build_config(flatten_config(cfg)) == cfg


def test_configurations_compare_and_hash():
    cfg = SimConfig()
    assert cfg == SimConfig()
    assert dataclasses.replace(cfg, torque_limit=60.0) == cfg
    assert hash(cfg) == hash(SimConfig())
    assert dataclasses.replace(cfg, torque_limit=50.0) != cfg
    # a frontal key set to its default gives the same settings
    same = build_config({"frontal.b": 0.12, "frontal.d_2": 0.2})
    assert same == cfg and hash(same) == hash(cfg)
    assert build_config({"frontal.b": 0.11}) != cfg


def test_replace_derives_the_frontal_model_of_the_new_robot():
    # the frontal model follows the sagittal model and foot radius of the
    # config that replace builds
    changed = dict(sagittal=SagittalParams(m_b=7.0), foot_radius=0.05, duration=0.4)
    replaced = dataclasses.replace(SimConfig(), **changed)
    built = SimConfig(**changed)
    assert replaced == built and hash(replaced) == hash(built)
    assert (replaced.frontal.m_b, replaced.frontal.l_1) == (7.0, built.frontal.l_1)
    assert sim.run(replaced).data.tobytes() == sim.run(built).data.tobytes()
    # the frontal keys that were set keep their values over the model
    # derived from the new robot, as when the config is built with both
    replaced = dataclasses.replace(build_config({"frontal.b": 0.11}),
                                   sagittal=SagittalParams(m_b=7.0))
    built = build_config({"frontal.b": 0.11, "robot.m_b": 7.0})
    assert (replaced.frontal.m_b, replaced.frontal.b) == (7.0, 0.11)
    assert replaced == built and flatten_config(replaced) == flatten_config(built)
    assert hash(replaced) == hash(built)


def test_json_infinity_for_integer_key_rejected(tmp_path):
    # json reads Infinity as a float, which no integer can hold
    path = tmp_path / "run.json"
    path.write_text('{"sim.seed": Infinity}')
    with pytest.raises(ConfigError, match="invalid value for 'sim.seed'"):
        load_config(path)


@pytest.mark.parametrize("value", ["true", "false"])
@pytest.mark.parametrize("key", ["sim.seed", "sim.decimation", "gait.v_target"])
def test_json_boolean_for_number_key_rejected(tmp_path, key, value):
    # json reads true and false as bool, which Python counts as an int
    section, name = key.split(".")
    path = tmp_path / "run.json"
    path.write_text(f'{{"{section}": {{"{name}": {value}}}}}')
    with pytest.raises(ConfigError, match=f"invalid value for '{key}': {value.title()}"):
        load_config(path)


@pytest.mark.parametrize("text,line,first", [
    ("sim.seed = 1\nsim.seed = 2\n", 2, 1),
    # the same value, a comment and blank lines between, spacing aside
    ("sim.seed = 1\n# seed\n\n  sim.seed=1  # again\n", 4, 1),
    ("sim.dt = 0.001\nsim.seed = 1\ngait.duty = 0.5\nsim.seed = 2\nsim.seed = 3\n", 4, 2),
])
def test_text_key_set_twice_rejected(tmp_path, text, line, first):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == f"{path}:{line}: 'sim.seed' is already set on line {first}"


@pytest.mark.parametrize("text", [
    '{"sim.seed": 1, "sim.seed": 2}',
    '{"sim": {"seed": 1, "seed": 1}}',
    '{"sim.seed": 1, "sim": {"seed": 2}}',
    '{"sim": {"seed": 1}, "sim.seed": 2}',
    '{"sim": {"seed": 1}, "sim": {"seed": 2}}',
])
def test_json_key_set_twice_rejected(tmp_path, text):
    # a repeated name and a flat and a nested spelling set the key twice
    path = tmp_path / "run.json"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == f"{path}: duplicate configuration key 'sim.seed'"


def test_json_section_named_twice_sets_each_key_once(tmp_path):
    # a section spelled twice sets the union of its keys: no key is set twice
    path = tmp_path / "run.json"
    path.write_text('{"sim": {"seed": 4}, "gait.duty": 0.5, "sim": {"dt": 0.002}}')
    cfg = load_config(path)
    assert (cfg.seed, cfg.dt, cfg.gait.duty) == (4, 0.002, 0.5)


@pytest.mark.parametrize("text", ["[1, 2]", "5", '"sim.seed"', "null", "[]"])
def test_json_top_level_must_be_an_object(tmp_path, text):
    path = tmp_path / "run.json"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == f"{path}: expected a JSON object"


@pytest.mark.parametrize("suffix,text", [(".cfg", "sim.seed = 1\n"), (".json", '{"sim.seed": 1}')])
def test_overrides_layer_over_the_file_last_wins(tmp_path, suffix, text):
    # the file sets a key once; --set pairs and flags apply over it in order
    path = tmp_path / f"run{suffix}"
    path.write_text(text)
    assert load_config(path).seed == 1
    assert load_config(path, ["sim.seed=2"]).seed == 2
    assert load_config(path, ["sim.seed=2", "sim.seed=3"]).seed == 3
    assert load_config(None, ["sim.seed=3", "sim.seed=2"]).seed == 2


@pytest.mark.parametrize("suffix", [".json", ".JSON", ".Json"])
def test_json_suffix_in_any_case_reads_json(tmp_path, suffix):
    path = tmp_path / f"run{suffix}"
    path.write_text('{"sim.seed": 1}')
    assert load_config(path).seed == 1


@pytest.mark.parametrize("key,value,message", [
    # a value checked against another key is named next to that key
    ("robot.a_1", "0.2", "robot.a_1 must not exceed robot.l_t, the thigh length"),
    ("robot.l_t", "0.05", "robot.a_1 must not exceed robot.l_t, the thigh length"),
    ("robot.a_2", "0.3", "robot.a_2 must not exceed robot.l_c, the calf length"),
    ("sim.duration", "0.3", "sim.duration must be at least gait.cycle_period, one gait cycle"),
    ("sim.decimation", "0", "sim.decimation must be >= 1"),
    ("gait.duty", "1", "gait.duty must lie in (0, 1)"),
    ("terrain.phi_s_deg", "0", "terrain.phi_s_deg must lie in (0, 90)"),
])
def test_rejected_value_named_by_its_key(key, value, message):
    with pytest.raises(ConfigError) as err:
        load_config(None, [f"{key}={value}"])
    assert str(err.value) == f"invalid configuration: {message}"


# degree values that math.degrees does not give back from math.radians:
# every such integer in (0, 90) and some of the 49 such tenths
LOSSY_DEGREES = [3.0, 6.0, 12.0, 24.0, 48.0, 57.0, 1.5, 2.3, 4.6, 9.2, 10.6, 11.3]


@pytest.mark.parametrize("degrees", [*LOSSY_DEGREES, 38.0, 35.0, 0.001, 89.999])
def test_written_configuration_reloads_to_the_same_configuration(tmp_path, degrees):
    cfg = build_config({"terrain.phi_s_deg": degrees})
    flat = flatten_config(cfg)
    assert flat["terrain.phi_s_deg"] == degrees
    path = tmp_path / "run.cfg"
    write_config(path, flat)
    assert load_config(path) == cfg


def test_flattened_friction_angle_gives_back_its_bits():
    # the angle is stored in degrees, as its key writes it: stored in
    # radians, the lossy angles would not come back from math.degrees
    for degrees in LOSSY_DEGREES:
        assert math.radians(math.degrees(math.radians(degrees))) != math.radians(degrees)
    rng = random.Random(5)
    for _ in range(2000):
        degrees = rng.uniform(1e-3, 90.0 - 1e-3)
        cfg = build_config({"terrain.phi_s_deg": degrees})
        flat = flatten_config(cfg)
        assert flat["terrain.phi_s_deg"] == degrees and build_config(flat) == cfg
        assert cfg.terrain.phi_s == math.radians(degrees)


def test_configuration_built_in_python_writes_back_to_itself(tmp_path):
    # every init field is a key's value in the key's unit, so a written
    # configuration reloads to the same one, whatever angle it holds
    cfg = SimConfig(hip_spacing=0.11, swing_com=0.19, sagittal=SagittalParams(m_t=0.9),
                    terrain=TerrainParams(phi_s_deg=80.00000000001266))
    path = tmp_path / "run.cfg"
    write_config(path, flatten_config(cfg))
    assert load_config(path) == cfg
    assert (cfg.frontal.b, cfg.frontal.d_2, cfg.frontal.m_1) == (0.11, 0.19, 1.4)
