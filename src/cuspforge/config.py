"""Line-oriented analysis configuration: ``key = value`` with # comments.

Recognized keys: family, a1, a2, b1, b2, d, a, b, phi_min, phi_max, y_max.
Unset keys fall back to the defaults of whatever module consumes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .maps import FAMILY_KINDS, MapFamily, make_family

_FAMILY_KEYS = ("a1", "a2", "b1", "b2", "d", "a", "b")
_FLOAT_KEYS = _FAMILY_KEYS + ("phi_min", "phi_max", "y_max")


@dataclass(frozen=True)
class AnalysisConfig:
    family: str
    a1: float | None = None
    a2: float | None = None
    b1: float | None = None
    b2: float | None = None
    d: float | None = None
    a: float | None = None
    b: float | None = None
    phi_min: float | None = None
    phi_max: float | None = None
    y_max: float | None = None


def parse_config(text: str) -> AnalysisConfig:
    """Parse config text; unknown keys and malformed lines raise ConfigError."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key == "family":
            if val not in FAMILY_KINDS:
                known = ", ".join(sorted(FAMILY_KINDS))
                raise ConfigError(f"line {lineno}: unknown family {val!r} (known: {known})")
            values[key] = val
        elif key in _FLOAT_KEYS:
            try:
                values[key] = float(val)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} needs a number, got {val!r}") from None
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values and isinstance(values[key], float) and not math.isfinite(values[key]):
            raise ConfigError(f"line {lineno}: {key} must be finite")
    if "family" not in values:
        raise ConfigError("config must set 'family'")
    return AnalysisConfig(**values)


def emit_config(cfg: AnalysisConfig) -> str:
    """Emit config text that parses back to an identical config."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        lines.append(f"{f.name} = {value!r}" if isinstance(value, float)
                     else f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def load_config(path) -> AnalysisConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def family_from_config(cfg: AnalysisConfig) -> MapFamily:
    """Build the map family from the family keys that the config sets;
    :func:`make_family` checks them."""
    params = {k: getattr(cfg, k) for k in _FAMILY_KEYS if getattr(cfg, k) is not None}
    return make_family(cfg.family, **params)


def workspace_box(cfg: AnalysisConfig, family: MapFamily):
    """Workspace window from the config, defaulting per family."""
    (x0, x1), (y0, y1) = family.default_box()
    if cfg.phi_min is not None:
        x0 = cfg.phi_min
    if cfg.phi_max is not None:
        x1 = cfg.phi_max
    if cfg.y_max is not None:
        y0, y1 = -cfg.y_max, cfg.y_max
    if not (x1 > x0 and y1 > y0):
        raise ConfigError("workspace window is degenerate")
    return ((x0, x1), (y0, y1))

