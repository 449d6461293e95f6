import numpy as np
import pytest

from solab.grid import Grid, ScalarField
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

_TRIPLES: dict[str, OrliczTriple] = {}


def triple_for(label: str) -> OrliczTriple:
    """Session-cached triples (the lazily built G/H tables are worth reusing)."""
    if label not in _TRIPLES:
        _TRIPLES[label] = OrliczTriple(catalog_structure_function(label))
    return _TRIPLES[label]


@pytest.fixture(scope="session")
def rng():
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


def field_from(grid: Grid, expr) -> ScalarField:
    """Sample an expression of (x1, x2, t) on the grid."""
    x1, x2, t = grid.coord(0), grid.coord(1), grid.coord(2)
    return ScalarField(grid, expr(x1, x2, t) * np.ones(grid.shape))


def bumped_start(field: ScalarField, height: float = 0.1) -> np.ndarray:
    """``field`` plus a smooth bump that vanishes on the box boundary.

    A cold solve starts from the boundary field, so data that already solves the problem
    would take no iteration; this start is off the solution and keeps the data's scale.
    """
    grid = field.grid
    bump = np.ones(grid.shape)
    for axis, (lo, hi) in enumerate(zip(grid.lo, grid.hi)):
        x = grid.coord(axis)
        bump = bump * (4.0 * (x - lo) * (hi - x) / (hi - lo) ** 2)
    return field.values + height * bump
