import numpy as np
import pytest

import solab.solver as sv
from oracles import hessian_frobenius
from solab.grid import Grid, horizontal_gradient, horizontal_hessian, refine_values, vertical_derivative
from solab.operator import prototype_operator, regularized_energy_density, regularized_weight
from solab.orlicz import OrliczTriple, catalog_structure_function

# labels exercised across the suites; the two catalog examples from the
# introduction are loglin (power-log perturbation) and sinlog (oscillating
# exponent)
POWER_LABELS = ["power:p=1.5", "power:p=2", "power:p=3", "power:p=4"]
CATALOG_LABELS = POWER_LABELS + [
    "loglin:alpha=1,beta=1,a=2.718281828",
    "sinlog:a=2.5,b=1",
    "glued:alpha=1.5,beta=2.5,eps=0.5,k1=1,k2=2",
]

# the interior nodes of a field's values, the unknowns of a solve
INTERIOR = (slice(1, -1),) * 3

_TRIPLES: dict[str, OrliczTriple] = {}


def triple_for(label: str) -> OrliczTriple:
    """Session-cached triples (the lazily built G/H tables are worth reusing)."""
    if label not in _TRIPLES:
        _TRIPLES[label] = OrliczTriple(catalog_structure_function(label))
    return _TRIPLES[label]


@pytest.fixture
def rng():
    """A fresh seeded generator per test: its draws do not depend on which tests ran before."""
    return np.random.default_rng(20240817)


@pytest.fixture
def grid9():
    return Grid.from_box([(-1, 1)] * 3, 9)


@pytest.fixture
def grid11():
    return Grid.from_box([(-1, 1)] * 3, 11)


@pytest.fixture
def grid17():
    return Grid.from_box([(-1, 1)] * 3, 17)


def field_from(grid: Grid, expr) -> np.ndarray:
    """Sample an expression of (x1, x2, t) on the grid."""
    x1, x2, t = grid.coord(0), grid.coord(1), grid.coord(2)
    return expr(x1, x2, t) * np.ones(grid.shape)


def embed(grid: Grid, box, values: np.ndarray) -> np.ndarray:
    """A field given on a node box, extended by 0 to the whole grid (leading component axes kept)."""
    out = np.zeros(values.shape[:-grid.dim] + grid.shape)
    out[(...,) + box] = values
    return out


def bumped_start(grid: Grid, values: np.ndarray, height: float = 0.1) -> np.ndarray:
    """``values`` plus a smooth bump that vanishes on the box boundary.

    A cold solve starts from the boundary field, so data that already solves the problem
    would take no iteration; this start is off the solution and keeps the data's scale.
    """
    bump = np.ones(grid.shape)
    for axis, (lo, hi) in enumerate(zip(grid.lo, grid.hi)):
        x = grid.coord(axis)
        bump = bump * (4.0 * (x - lo) * (hi - x) / (hi - lo) ** 2)
    return values + height * bump


def energy_and_residual(prob, values: np.ndarray) -> tuple[float, float]:
    """The solver's energy of ``values`` under prob's A_eps, and its weak residual:
    the largest nodal weak form at an interior node."""
    energy, grad, _ = sv._weak_form(prob.grid, values, regularized_weight(prob.triple, prob.eps),
                                    regularized_energy_density(prob.triple, prob.eps))
    return energy, float(np.max(np.abs(grad[INTERIOR])))


def barrier_residuals(grid: Grid, values: np.ndarray, triple: OrliczTriple, refinements: int) -> list[float]:
    """Weak residual of affine data under the raw operator F(|z|) z, on ``grid`` and each halving.

    A halving is `Grid.refined` with the data prolonged by `refine_values`, exact on affine data.
    """
    weight = prototype_operator(triple).weight
    residuals = []
    for level in range(refinements + 1):
        if level:
            grid, values = grid.refined(), refine_values(values)
        grad = sv._weak_form(grid, values, weight, triple.G)[1]
        residuals.append(float(np.max(np.abs(grad[INTERIOR]))))
    return residuals


def comparison_gap(prob_u, prob_v) -> float:
    """min over the interior nodes of u - v, for the converged solutions u, v of the two problems."""
    (u, rep_u), = sv.solve_ladder([prob_u])
    (v, rep_v), = sv.solve_ladder([prob_v])
    assert rep_u.converged and rep_v.converged
    return float(np.min((u - v)[INTERIOR]))


def commutator_and_td_margin(grid: Grid, u: np.ndarray) -> tuple[float, float]:
    """max over the interior of |XYu - YXu - Tu| ([X, Y] = T), and min of 2 |XXu| - |Tu|."""
    hess = horizontal_hessian(grid, horizontal_gradient(grid, u))
    tu = vertical_derivative(grid, u)
    return (float(np.max(np.abs((hess[1, 0] - hess[0, 1] - tu)[INTERIOR]))),
            float(np.min((2.0 * hessian_frobenius(hess) - np.abs(tu))[INTERIOR])))
