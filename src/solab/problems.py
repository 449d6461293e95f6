"""Named analytic boundary-data families.

Families are addressed by label strings in the same ``name:key=val`` syntax
as the structure-function catalog:

    affine:c0=0.1,x1=0.7,x2=-0.3,t=0.5
    poly2:x1=0.5,x1t=0.4,x1x2=0.2
    sine:amp=0.25,kx=2,ky=1,x1=0.6

The coordinates of H^1 are x1 = x, x2 = y and t.  A nonzero t (or
x1t/x2t/tt) coefficient produces genuinely t-dependent solutions with
Tu != 0; pure affine t-independent data is reproduced exactly by the solver.
Affine data with any t coefficient still solve the equation exactly (their
horizontal Hessian is skew), so ``affine:`` fields are the affine barriers of
the comparison argument.

t-independent non-affine data (``sine:``, ``poly2:`` without t terms) do not
give t-independent solutions: the t-faces of the box hold the Dirichlet data
b(x, y), which does not solve the 2-D problem, so Tu on the interior is small
but genuine.  The weak form keeps t-independence exactly (every gradient of a
t-independent field is t-independent at the interior nodes); on
``sine:amp=0.25,kx=2,ky=1,x1=0.6`` with power:p=3 the solution still varies
by 0.107 along t at 17^3 and 0.105 at 33^3.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, ScalarField
from .orlicz import UnknownLabelError, parse_label

__all__ = ["boundary_field"]


def _affine_part(grid: Grid, params: dict) -> np.ndarray:
    vals = np.full(grid.shape, params.pop("c0", 0.0))
    for k, key in enumerate(("x1", "x2", "t")):
        coef = params.pop(key, 0.0)
        if coef:
            vals = vals + coef * grid.coord(k)
    return vals


def _poly2(grid: Grid, params: dict) -> np.ndarray:
    vals = _affine_part(grid, params)
    quad = {k: params.pop(k, 0.0) for k in ("x1x1", "x1x2", "x2x2", "x1t", "x2t", "tt")}
    if any(quad.values()):
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
