"""solab: a numerical laboratory for degenerate quasilinear operators with
Orlicz growth on the Heisenberg group.

Subpackages by concern: group calculus (heisenberg), growth laws and Young
machinery (orlicz), the operator class and its regularization (operator),
grids and stencils (grid), the variational Dirichlet solver (solver),
inequality audits (verify), and the command-line drivers (cli).
"""

from .heisenberg import (GroupPoint, dilate, group_inverse, group_multiply,
                         homogeneous_norm, origin, quasi_distance)
from .orlicz import (OrliczTriple, StructureFunction, YoungFunction,
                     catalog_structure_function, conjugate, conjugate_young,
                     doubling_constant, generalized_inverse, lemma_gG_audit,
                     verify_exponents, young_gap)
from .operator import (OperatorSpec, RegularizationParams, ellipticity_margin,
                       monotonicity_gap, p_laplace_gap, prototype_operator,
                       regularized_operator, structure_margins)
from .grid import (CutoffFunction, GaugeBall, Grid, HorizontalField,
                   ScalarField, commutator_residual, horizontal_divergence,
                   horizontal_gradient, integrate, make_cutoff,
                   td_bound_margin, vertical_derivative)
from .solver import (DirichletProblem, SolveReport, barrier_residual_study,
                     comparison_check, discrete_energy, solve_dirichlet,
                     weak_residual)
from .verify import (AuditReport, caccioppoli_T_audit, caccioppoli_X_audit,
                     horizontal_estimate_audit, lipschitz_ratio, moser_trace,
                     reverse_audit, vertical_estimate_audit)

__version__ = "0.1.0"
