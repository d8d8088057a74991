"""Configuration tests: defaults agree between SimConfig and the key table;
out-of-range values are rejected when the configuration is built."""

import pytest

from sandwalk.config import ConfigError, build_config, flatten_config, load_config
from sandwalk.sim import SimConfig


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
