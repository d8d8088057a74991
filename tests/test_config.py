"""Configuration tests: defaults agree between SimConfig and the key table."""

from sandwalk.config import build_config, flatten_config
from sandwalk.sim import SimConfig


def test_simconfig_defaults_match_build_config():
    # flattened, because == on SimConfig compares the gain arrays
    assert flatten_config(SimConfig()) == flatten_config(build_config({}))
