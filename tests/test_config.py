"""Configuration tests: defaults agree between SimConfig and the key table;
out-of-range values are rejected when the configuration is built."""

import pytest

from sandwalk.config import CONFIG_KEYS, ConfigError, build_config, flatten_config, load_config
from sandwalk.sim import SimConfig

# NaN and +-inf for every float key, plus the ranges of keys that had no check
BAD_VALUES = [(key, bad) for key, value in flatten_config(SimConfig()).items()
              if isinstance(value, float) for bad in ("nan", "inf", "-inf")] + [
    ("control.torque_limit", "-5"), ("control.torque_limit", "0"),
    ("gait.hip_height", "0"), ("sim.r_eff_cap", "-1"), ("sim.initial_jitter", "-1"),
    ("sim.seed", "-1"),
]


def test_simconfig_defaults_match_build_config():
    # flattened, because == on SimConfig compares the gain arrays
    assert flatten_config(SimConfig()) == flatten_config(build_config({}))


@pytest.mark.parametrize("key,field", [
    ("robot.foot_radius", "foot_radius"), ("sim.h_com", "h_com"), ("robot.g", "g"),
])
@pytest.mark.parametrize("value", ["0", "-0.01"])
def test_nonpositive_robot_and_com_inputs_rejected(key, field, value):
    with pytest.raises(ConfigError, match=f"invalid configuration: {field} must be"):
        load_config(None, [f"{key}={value}"])


@pytest.mark.parametrize("key,value", BAD_VALUES)
def test_bad_value_rejected_naming_the_field(key, value):
    field = CONFIG_KEYS[key][0].rpartition(".")[2]
    with pytest.raises(ConfigError, match=f"invalid configuration: {field} must"):
        load_config(None, [f"{key}={value}"])


def test_json_infinity_for_integer_key_rejected(tmp_path):
    # json reads Infinity as a float, which no integer can hold
    path = tmp_path / "run.json"
    path.write_text('{"sim.seed": Infinity}')
    with pytest.raises(ConfigError, match="invalid value for 'sim.seed'"):
        load_config(path)
