"""Named analytic boundary-data families.

Families are addressed by label strings in the same ``name:key=val`` syntax
as the structure-function catalog:

    affine:c0=0.1,x1=0.7,x2=-0.3,t=0.5
    poly2:x1=0.5,x1t=0.4,x1x2=0.2        (n = 1 only for the quadratic part)
    sine:amp=0.25,kx=2,ky=1,x1=0.6

A nonzero t (or x1t/x2t/tt) coefficient produces genuinely t-dependent
solutions with Tu != 0; pure affine t-independent data is reproduced exactly
by the solver.  Affine data with any t coefficient still solve the equation
exactly (their horizontal Hessian is skew), so the barriers of
`solver.barrier_residual_study` are ``affine:`` fields.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, ScalarField
from .orlicz import UnknownLabelError, parse_label

__all__ = ["boundary_field"]


def _affine_part(grid: Grid, params: dict) -> np.ndarray:
    vals = np.full(grid.shape, params.pop("c0", 0.0))
    for i in range(2 * grid.n):
        coef = params.pop(f"x{i + 1}", 0.0)
        if coef:
            vals = vals + coef * grid.coord(i)
    coef_t = params.pop("t", 0.0)
    if coef_t:
        vals = vals + coef_t * grid.coord(grid.dim - 1)
    return vals


def _poly2(grid: Grid, params: dict) -> np.ndarray:
    vals = _affine_part(grid, params)
    quad = {k: params.pop(k, 0.0) for k in ("x1x1", "x1x2", "x2x2", "x1t", "x2t", "tt")}
    if any(quad.values()):
        if grid.n != 1:
            raise UnknownLabelError("quadratic poly2 terms are defined for n = 1")
        x1, x2, t = grid.coord(0), grid.coord(1), grid.coord(2)
        vals = (vals + quad["x1x1"] * x1 * x1 + quad["x1x2"] * x1 * x2
                + quad["x2x2"] * x2 * x2 + quad["x1t"] * x1 * t
                + quad["x2t"] * x2 * t + quad["tt"] * t * t)
    return vals


def _sine(grid: Grid, params: dict) -> np.ndarray:
    amp = params.pop("amp", 0.25)
    kx = params.pop("kx", 2.0)
    ky = params.pop("ky", 1.0)
    vals = _affine_part(grid, params)
    if grid.n != 1:
        raise UnknownLabelError("the sine family is defined for n = 1")
    return vals + amp * np.sin(kx * grid.coord(0)) * np.cos(ky * grid.coord(1))


_FAMILIES = {"affine": _affine_part, "poly2": _poly2, "sine": _sine}


def boundary_field(label: str, grid: Grid) -> ScalarField:
    """Sample a named analytic family on the grid (full-grid extension).

    Each family pops the parameters it reads; any left over are unknown.
    Data that overflow on the box fail the field's finiteness check
    (ValueError) without a numpy warning.
    """
    name, params = parse_label(label)
    if name not in _FAMILIES:
        raise UnknownLabelError(f"unknown boundary family {name!r} (have {', '.join(_FAMILIES)})")
    params = dict(params)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _FAMILIES[name](grid, params) * np.ones(grid.shape)
    if params:
        raise UnknownLabelError(f"unknown {name} parameters {sorted(params)}")
    return ScalarField(grid, vals)
