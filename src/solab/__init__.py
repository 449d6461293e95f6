"""solab: a numerical laboratory for degenerate quasilinear operators with
Orlicz growth on the Heisenberg group.

Modules by concern: group primitives (heisenberg), growth laws and Young
machinery (orlicz), the operator class and its regularization (operator),
grids and stencils (grid), boundary data (problems), experiment
configuration (config), the variational Dirichlet solver (solver), inequality
audits (verify), and the command-line drivers (cli).  Each public name is
imported from its module, e.g. ``from solab.solver import solve_dirichlet``.
"""

__version__ = "0.1.0"
