"""Run configuration: flat dotted-key text files, JSON alternative, overrides.

The text format is one ``section.key = value`` pair per line with ``#``
comments; JSON files may be either flat ``{"sim.dt": ...}`` or nested
``{"sim": {"dt": ...}}``.  Unknown keys, and keys a file sets twice, are
rejected by name.
"""

from __future__ import annotations

import hashlib
import json
import re
from operator import attrgetter
from pathlib import Path

from . import dynamics as dyn
from . import gait as gt
from . import sim as simulation
from . import terrain as tr

__all__ = ["ConfigError", "load_config", "build_config", "flatten_config",
           "config_hash", "write_config", "CONFIG_KEYS"]


class ConfigError(ValueError):
    """Malformed configuration file or unknown/invalid key."""


# key -> (SimConfig attribute path, description); the single source of
# accepted keys.  Types and defaults are those of the SimConfig dataclasses.
CONFIG_KEYS: dict[str, tuple[str, str]] = {
    "sim.dt": ("dt", "integration step [s]"),
    "sim.duration": ("duration", "simulated time [s]"),
    "sim.integrator": ("integrator", "semi_implicit | rk4"),
    "sim.terrain_mode": ("terrain_mode", "granular | rigid"),
    "sim.decimation": ("decimation", "log every n-th step"),
    "sim.seed": ("seed", "seed for the initial-state jitter"),
    "sim.initial_jitter": ("initial_jitter", "initial joint offset amplitude [rad]"),
    "sim.h_com": ("h_com", "CoM height for dimensionless speed [m]"),
    "sim.r_eff_cap": ("r_eff_cap", "effective-radius log saturation [m]"),
    "gait.cycle_period": ("gait.cycle_period", "full gait cycle [s]"),
    "gait.duty": ("gait.duty", "stance fraction"),
    "gait.swing_height": ("gait.swing_height", "swing apex clearance [m]"),
    "gait.v_target": ("gait.v_target", "commanded forward speed [m/s]"),
    "gait.hip_height": ("gait.hip_height", "hip reference height above surface [m]"),
    "gait.trunk_ref": ("gait.trunk_ref", "trunk posture reference [rad]"),
    "terrain.phi_s_deg": ("terrain.phi_s_deg", "internal friction angle [deg]"),
    "terrain.zeta": ("terrain.zeta", "local stress scaling factor"),
    "terrain.lambda": ("terrain.lam", "bulldozing saturation length [m]"),
    "terrain.width": ("terrain.width", "foot width [m]"),
    "terrain.sand_level": ("terrain.sand_level", "surface height [m]"),
    "terrain.alpha_scale": ("terrain.alpha_scale", "media stiffness multiplier"),
    "robot.m_b": ("sagittal.m_b", "trunk mass [kg]"),
    "robot.m_t": ("sagittal.m_t", "thigh mass [kg]"),
    "robot.m_c": ("sagittal.m_c", "calf mass [kg]"),
    "robot.l_t": ("sagittal.l_t", "thigh length [m]"),
    "robot.l_c": ("sagittal.l_c", "calf length [m]"),
    "robot.l_b": ("sagittal.l_b", "hip to trunk CoM [m]"),
    "robot.a_1": ("sagittal.a_1", "hip to thigh CoM [m]"),
    "robot.a_2": ("sagittal.a_2", "knee to calf CoM [m]"),
    "robot.g": ("sagittal.g", "gravity [m/s^2]"),
    "robot.foot_radius": ("foot_radius", "sole radius [m]"),
    "frontal.d_2": ("swing_com", "swing hip to swing-leg CoM [m]"),
    "frontal.b": ("hip_spacing", "hip spacing [m]"),
    "control.torque_limit": ("torque_limit", "actuator torque saturation [N m]"),
}

# the field that each key sets -> that key; no two parts share a field name
_KEY_OF = {path.rpartition(".")[2]: key for key, (path, _) in CONFIG_KEYS.items()}


def _coerce(key: str, raw, where: str = "") -> object:
    """Value of a known key converted to its field type; ``where`` prefixes
    the diagnostics with the input location."""
    if key not in CONFIG_KEYS:
        raise ConfigError(f"{where}unknown configuration key '{key}'")
    typ = type(_DEFAULTS[key])
    try:
        if isinstance(raw, bool) and typ is not str:  # JSON true/false is no number
            raise TypeError
        if typ is int:
            if isinstance(raw, str):
                return int(raw.strip())
            if float(raw) != int(raw):
                raise ValueError
            return int(raw)
        if typ is float:
            return float(raw)
        return str(raw).strip()
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}invalid value for '{key}': {raw!r}") from exc


def _parse_pair(pair: str, where: str = "") -> tuple[str, object]:
    """(key, value) of one 'key = value' text pair."""
    if "=" not in pair:
        raise ConfigError(f"{where}expected 'key = value', got '{pair}'")
    key, _, value = pair.partition("=")
    return key.strip(), _coerce(key.strip(), value, where)


def _parse_text(path) -> dict:
    """Flat key dict of a text file; a key set on two lines is rejected."""
    with open(path) as fh:
        lines = [line.split("#", 1)[0].strip() for line in fh]
    flat: dict[str, object] = {}
    set_on: dict[str, int] = {}  # key -> the line that set it
    for lineno, line in enumerate(lines, start=1):
        if line:
            where = f"{path}:{lineno}: "
            key, value = _parse_pair(line, where)
            if key in set_on:
                raise ConfigError(f"{where}'{key}' is already set on line {set_on[key]}")
            flat[key], set_on[key] = value, lineno
    return flat


def _parse_json(path) -> dict:
    """Flat key dict of a JSON object, flat or nested; a key set twice, by
    a repeated name or by a flat and a nested spelling, is rejected."""
    with open(path) as fh:
        try:
            # an object loads as its (name, value) pairs in a tuple, which
            # keeps a repeated name; an array loads as a list
            data = json.load(fh, object_pairs_hook=tuple)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, tuple):
        raise ConfigError(f"{path}: expected a JSON object")
    flat: dict[str, object] = {}

    def visit(prefix: str, node):
        if isinstance(node, tuple):
            for k, v in node:
                visit(f"{prefix}.{k}" if prefix else k, v)
        elif prefix in flat:
            raise ConfigError(f"{path}: duplicate configuration key '{prefix}'")
        else:
            flat[prefix] = _coerce(prefix, node, f"{path}: ")

    visit("", data)
    return flat


def build_config(flat: dict) -> simulation.SimConfig:
    """SimConfig from a validated flat key dict (missing keys -> defaults)."""
    parts = {part: {} for part in ("", "gait", "terrain", "sagittal")}
    for key, value in flat.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown configuration key '{key}'")
        part, _, name = CONFIG_KEYS[key][0].rpartition(".")
        parts[part][name] = value

    try:
        gait = gt.GaitConfig(**parts["gait"])
        terrain = tr.TerrainParams(**parts["terrain"])
        sagittal = dyn.SagittalParams(**parts["sagittal"])
        return simulation.SimConfig(**parts[""], gait=gait, terrain=terrain, sagittal=sagittal)
    except ValueError as exc:
        message = str(exc)
        if message.partition(" must ")[0] in _KEY_OF:
            # each field a field-led message names is named as the key that sets it
            message = re.sub(r"\w+", lambda m: _KEY_OF.get(m[0], m[0]), message)
        raise ConfigError(f"invalid configuration: {message}") from exc


def load_config(path=None, overrides=None) -> simulation.SimConfig:
    """Configuration from an optional file plus key=value overrides.  A file
    whose suffix is .json in any case is read as JSON, any other as text."""
    flat: dict[str, object] = {}
    if path is not None:
        parse = _parse_json if Path(path).suffix.lower() == ".json" else _parse_text
        flat.update(parse(path))
    flat.update(_parse_pair(pair) for pair in overrides or [])
    return build_config(flat)


def flatten_config(cfg: simulation.SimConfig) -> dict:
    """Effective configuration as the flat key dict."""
    return {key: attrgetter(path)(cfg) for key, (path, _) in CONFIG_KEYS.items()}


_DEFAULTS = flatten_config(simulation.SimConfig())


def config_hash(cfg: simulation.SimConfig) -> str:
    payload = json.dumps(flatten_config(cfg), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def write_config(path, flat: dict, header: str = "") -> None:
    """Write a flat key dict in the text format."""
    with open(path, "w") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for key in sorted(flat):
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown configuration key '{key}'")
            fh.write(f"{key} = {flat[key]}\n")

