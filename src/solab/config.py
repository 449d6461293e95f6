"""Experiment configuration: one plain-text ``key = value`` document.

A config names the structure function, the grid on a box of H^1 (axes x, y,
t), the boundary family and the audit parameters; it is the only place a
setting is given.  Each value is read as JSON, or else as a bare string.
Example:

    structure = power:p=3
    boundary = poly2:x1=0.5,x1t=0.4,x2=0.2
    resolution = 17
    box = [[-1,1],[-1,1],[-1,1]]
    epsilon = 1e-4
    sigma = 0.5
    gammas = [1, 2]
    omegas = [1, 2]
    radius = 0.8
    seed = 1234
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

from .grid import GaugeBall, Grid, ball_node_mask
from .orlicz import UnknownLabelError, catalog_structure_function
from .problems import boundary_field

__all__ = ["ExperimentConfig", "ConfigError", "load_config"]


class ConfigError(ValueError):
    """Invalid or unresolvable experiment configuration (CLI exit code 2)."""


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return _is_int(v) or isinstance(v, float) and math.isfinite(v)


def _is_list(v, item) -> bool:
    return isinstance(v, list) and all(item(x) for x in v)


# (keys, test, what the value must be); bool is not counted as a number
_VALUE_KINDS = [
    (("structure", "boundary"), lambda v: isinstance(v, str), "a string"),
    (("refinements", "max_iters", "seed"), _is_int, "an integer"),
    (("epsilon", "sigma", "radius", "eta_inner", "eta_outer"), _is_real, "a finite real number"),
    (("gammas", "omegas", "center"), lambda v: _is_list(v, _is_real), "a list of finite real numbers"),
    (("box",), lambda v: _is_list(v, lambda e: _is_list(e, _is_real)), "a list of [lo, hi] extents"),
    (("resolution",), lambda v: _is_int(v) or _is_list(v, _is_int), "an integer or a list of integers"),
    (("residual_tol",), lambda v: v is None or _is_real(v) and v > 0, "a positive number (or absent)"),
]


@dataclass
class ExperimentConfig:
    structure: str = "power:p=2"
    boundary: str = "affine:x1=1"
    box: list = field(default_factory=lambda: [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]])
    resolution: int | list = 9
    epsilon: float = 1e-4
    sigma: float = 0.5
    gammas: list = field(default_factory=lambda: [1.0])
    omegas: list = field(default_factory=lambda: [1.0])
    center: list = field(default_factory=lambda: [0.0, 0.0, 0.0])
    radius: float = 0.8
    eta_inner: float = 0.3
    eta_outer: float = 0.6
    refinements: int = 2
    seed: int = 1234
    residual_tol: float | None = None
    max_iters: int = 100_000

    def validate(self) -> "ExperimentConfig":
        for keys, ok, kind in _VALUE_KINDS:
            for key in keys:
                if not ok(getattr(self, key)):
                    raise ConfigError(f"{key} must be {kind}")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be positive")
        if len(self.box) != 3 or any(len(ext) != 2 or ext[0] >= ext[1] for ext in self.box):
            raise ConfigError("box must list 3 nondegenerate extents")
        res = self.resolutions()
        if len(res) != 3 or any(r < 9 for r in res):
            raise ConfigError("resolutions must be >= 9 per axis")
        if not 0 < self.sigma < 1:
            raise ConfigError("sigma must lie in the open interval (0,1)")
        if not 0 < self.epsilon < 1:
            raise ConfigError("epsilon must lie in (0,1)")
        if not 0 < self.eta_inner < self.eta_outer:
            raise ConfigError("need 0 < eta_inner < eta_outer")
        if len(self.center) != 3:
            raise ConfigError("center must have 3 coordinates")
        if self.radius <= 0:
            raise ConfigError("radius must be positive")
        if self.refinements < 0:
            raise ConfigError("refinements must be nonnegative")
        # a repeated gamma or omega would audit one inequality twice under one report key
        if not self.gammas or min(self.gammas) < 0 or len(set(self.gammas)) < len(self.gammas):
            raise ConfigError("gammas must be a nonempty list of distinct nonnegative numbers")
        if not self.omegas or min(self.omegas) < 1 or len(set(self.omegas)) < len(self.omegas):
            raise ConfigError("omegas must be a nonempty list of distinct numbers >= 1")
        grid = Grid.from_box(self.box, self.resolutions())
        for key in ("radius", "eta_outer"):
            if not GaugeBall(self.center, getattr(self, key)).fits_inside(grid):
                raise ConfigError(f"the gauge ball of {key} around center leaves the box")
        # refined grids keep every coarse node, so one check on the first grid suffices
        if not ball_node_mask(grid, GaugeBall(self.center, self.sigma * self.radius)).any():
            raise ConfigError("the gauge ball of sigma * radius around center contains no grid node")
        try:
            catalog_structure_function(self.structure)
        except UnknownLabelError as exc:
            raise ConfigError(str(exc)) from exc
        # sampled on the first grid: finer grids span the same box, so they see the same extremes
        try:
            boundary_field(self.boundary, grid)
        except (UnknownLabelError, ValueError) as exc:
            raise ConfigError(f"boundary {self.boundary!r}: {exc}") from exc
        return self

    def resolutions(self) -> list[int]:
        if isinstance(self.resolution, int):
            return [self.resolution] * 3
        return list(self.resolution)


def _parse_keyvalue(text: str) -> dict:
    out, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key = key.strip()
        # a key is an identifier, so a line of a JSON document fails here, not as an unknown key
        if not sep or not key.isidentifier():
            raise ConfigError(f"line {lineno}: expected key = value")
        val = val.strip()
        if key in lines:
            raise ConfigError(f"config key {key!r} repeated on lines {lines[key]} and {lineno}")
        lines[key] = lineno
        try:
            out[key] = json.loads(val)
        except json.JSONDecodeError:
            out[key] = val  # bare strings (labels)
    return out


def load_config(path) -> ExperimentConfig:
    """Load a ``key = value`` config file and validate it."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    data = _parse_keyvalue(text)
    unknown = set(data) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**data).validate()
