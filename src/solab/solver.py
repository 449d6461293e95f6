"""Variational finite-difference solver for the Dirichlet problem div_H A(Xu) = 0.

The discretization is cell-based: on every grid cell the horizontal gradient
is formed from forward differences averaged over the neighbour pairs of the
transverse axes, that is, the gradient of the trilinear interpolant at the
cell centroid, and the energy

    E(u) = sum_cells G_eps(|Xu|) * cell_volume

is minimized over the interior node values by L-BFGS descent with halving
backtracking and one acceptance rule, Armijo (1e-4) plus a float-noise
allowance; when 40 halvings fail the solve stops with 'line_search_stall'.
L-BFGS keeps 3 curvature pairs: 3-7 are adequate (Liu-Nocedal, Math. Prog.
45, 1989), more left the 65^3 iteration count of the README ladder flat, and
each costs two dots and two vector updates per iteration in the two-loop
recursion (`_lbfgs_direction`, which writes H g into a preallocated vector
and forms its products in one work block of `_BLOCK` entries; each pair
keeps its <y, My>, formed once when it is stored).
A solve holds two node arrays and nine interior vectors, and allocates no
vector per iteration once its pairs are stored.  The node arrays share the
boundary values: one holds the iterate, the other each line-search trial,
written into its interior as x - alpha H g, and an accepted trial swaps the
two, so an evaluation copies nothing in.  The vectors are the gradient, the
direction, the metric, the trial's gradient, the next s and two stored
pairs during the line search; once three pairs are stored, the oldest, which
the line search never reads, hands its two vectors over as the trial's
gradient and the next s before it.  An accepted step writes y into the old
gradient's vector.  A rejected pair returns its vectors to the spares, so it
leaves two stored pairs.  The ``init`` array is released once copied into
the iterate's node array.
The assembled gradient of E is exactly the discrete weak form residual
max_phi |sum <A_eps(Xu), X phi>| over unit node bumps phi, with
A_eps(z) = F_eps(|z|) z, so the stopping test and the weak-solution contract
coincide.  That A_eps is `operator.regularized_operator`, the map
`operator-check` certifies.  `_weak_form` is the one assembly of the energy
and its gradient vol * X^T(w(|Xu|) Xu).  Nested iteration (Hackbusch,
Multi-Grid Methods and Applications, 1985, ch. 5) is `solve_ladder`, the
one code that nests: it halves its first problem while every axis has an
even cell count of at least 32 and serves `solab solve` and `solab audit`.
`solve_dirichlet` solves one grid, from a start array or else from the
problem's own boundary field, interior values included.

The start fixes one diagonal metric for the whole solve: D_i, the sum of
F_eps(|Xu|) over the cells of node i, is added up in the slab loop of the
start's evaluation, and H_0 = gamma D^-1, with D^-1 scaled to mean 1 and
gamma = <s,y>/<y, D^-1 y> (diagonally scaled L-BFGS, Gilbert-Lemarechal,
Math. Prog. 45, 1989); without pairs, at the first step and at a restart,
gamma is 1/max(res, 1).  The weight F(|Xu|) vanishes (p > 2) or blows up
(p < 2) where Xu -> 0, so the energy Hessian's diagonal spans orders of magnitude,
and D follows it.  For p = 2, F_eps = 1 and D^-1 is exactly 1.  A start
whose interior has Xu = 0 weighs its inner nodes by F_eps(0) alone, so a
start must carry the scale of the data, as the boundary field does.

`_weak_form` runs in slabs of consecutive cell planes along x_1, sized so that
one scalar cell field of a slab, without its padding cells, takes
`_SLAB_BYTES`: each slab forms Xu, |Xu|, the weight w and, from r and w, the
energy density (the law is evaluated once per stored cell) from its own node
planes and writes its part straight into the solver's gradient vector, so an
evaluation allocates no full-grid array (the start's evaluation adds D's node
sums into a full-grid array of the solver).  Slab temporaries stay in the
allocator's free lists, where full-grid ones were unmapped and page-faulted
back in on every evaluation.

The averages are regrouped into one chain of pair sums: axis k's derivative
pair-sums the nodes along axes 0..k-1 (a prefix shared by all axes), takes
the edge difference along k, pair-sums along the later axes and scales once
by 0.5^(d-1)/h_k, 11 passes over a slab where averaging each axis
separately took 18.  The adjoint runs the same chain backwards with one
accumulator (about 13 passes, against 39).  The scales and cell-centre
coordinates are built once per grid (`_frame`), not once per slab.
A cell field is stored with the node count along the last (contiguous) axis:
each row's n_2 - 1 cells are followed by one padding cell.  A pair sum or
difference along that axis is then one op over the slab's flat buffer, as
along axes 0 and 1, where numpy ran a compact field's shifted views one row
at a time; these are 3 of the forward's 11 passes and 3 of the adjoint's,
and the adjoint's last-axis passes need no end copies, since its input is 0
in the padding.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import Grid, refine_values
from .heisenberg import horizontal, horizontal_adjoint
from .operator import regularized_energy_density, regularized_weight
from .orlicz import OrliczTriple

__all__ = [
    "DirichletProblem",
    "SolveReport",
    "cell_gradient",
    "cell_gradient_adjoint",
    "solve_dirichlet",
    "solve_ladder",
]


# --------------------------------------------------------------------------
# cell-based operators
# --------------------------------------------------------------------------


def _halves(axis: int) -> tuple[tuple, tuple]:
    """Index tuples of the lower and the upper member of every neighbour pair along ``axis``."""
    lead = (slice(None),) * axis
    return lead + (slice(None, -1),), lead + (slice(1, None),)


def _pair(a: np.ndarray, axis: int, op) -> np.ndarray:
    """op(upper, lower) over the neighbour pairs along ``axis``: the pair sum (np.add) or the edge difference.

    Along the last axis ``a`` keeps its length: the pairs are those of the flat
    buffer, so the pair across each row's end lands in the row's last entry,
    its padding cell, and the buffer's final entry is 0.
    """
    if axis < a.ndim - 1:
        lo, hi = _halves(axis)
        return op(a[hi], a[lo])
    out = np.empty(a.shape)
    flat, dst = a.reshape(-1), out.reshape(-1)
    op(flat[1:], flat[:-1], out=dst[:-1])
    dst[-1] = 0.0
    return out


def _pair_adjoint(a: np.ndarray, axis: int, op) -> np.ndarray:
    """Transpose along ``axis`` of the pair sum (op np.add) or the edge difference (np.subtract).

    Along the last axis ``a``'s padding cells must be 0: the transpose of the
    flat pairs is then out[0] = +-a[0], out[j] = a[j-1] +- a[j], which gives
    each row's end nodes their one cell.
    """
    if axis == a.ndim - 1:
        out = np.empty(a.shape)
        flat, dst = a.reshape(-1), out.reshape(-1)
        op(flat[:-1], flat[1:], out=dst[1:])
        dst[0] = flat[0] if op is np.add else -flat[0]
        return out
    lead = (slice(None),) * axis
    shape = list(a.shape)
    shape[axis] += 1
    out = np.empty(shape)
    lo, hi = _halves(axis)
    op(a[lo], a[hi], out=out[lead + (slice(1, -1),)])
    out[lead + (-1,)] = a[lead + (-1,)]
    out[lead + (0,)] = a[lead + (0,)] if op is np.add else -a[lead + (0,)]
    return out


@functools.lru_cache(maxsize=32)
def _frame(grid: Grid) -> tuple[np.ndarray, list[np.ndarray]]:
    """The stencil scale c_k = 0.5^(d-1)/h_k and grid.cell_coord(k) of every axis k."""
    return 0.5 ** (grid.dim - 1) / grid.spacing, [grid.cell_coord(k) for k in range(grid.dim)]


def _cell_coords(grid: Grid, first: int, planes: int) -> list[np.ndarray]:
    """grid.cell_coord(k) of every axis, on the cell planes first..first+planes-1 of axis 0."""
    coords = _frame(grid)[1]
    return [coords[0][first:first + planes]] + coords[1:]


def cell_gradient(grid: Grid, values: np.ndarray, first: int = 0) -> np.ndarray:
    """Horizontal gradient (X, Y) at cell centers, in the padded cell layout.

    ``values`` holds the grid's node planes along axis 0 from plane ``first``
    on (all of them by default); the result covers the cells between them.
    Its shape is (2, planes, n_1 - 1, n_2): a row along the last axis holds
    its n_2 - 1 cells and then one padding cell, which is exactly 0.
    Axis k's derivative is c_k S_{k+1..d-1}(Δ_k P_k): the edge difference
    along k of the prefix P_k (the nodes pair-summed along axes 0..k-1, one
    chain shared by all axes), pair-summed along the later axes.
    """
    scales = _frame(grid)[0]
    derivs = []
    prefix = values
    for k in range(grid.dim):
        d = _pair(prefix, k, np.subtract)
        for b in range(k + 1, grid.dim):
            d = _pair(d, b, np.add)
        d *= scales[k]
        derivs.append(d)
        if k + 1 < grid.dim:
            prefix = _pair(prefix, k, np.add)
    out = horizontal(derivs, _cell_coords(grid, first, derivs[0].shape[0]))
    out[..., -1] = 0.0
    return out


def cell_gradient_adjoint(grid: Grid, w: np.ndarray, first: int = 0) -> np.ndarray:
    """Adjoint of cell_gradient: cell vector fields in the padded layout to node values.

    ``w`` covers the cell planes along axis 0 from plane ``first`` on, shape
    (2, planes, n_1 - 1, n_2), and its padding cells must be 0; the result
    covers the node planes around them.  The transpose runs from axis d-1
    down to 0: axis k's scaled load is spread over the later axes and over
    its own edges to prefix level k, added to the one accumulator, and the
    sum spread along axis k-1 to the level below.
    """
    scales = _frame(grid)[0]
    loads = list(w) + [horizontal_adjoint(w, _cell_coords(grid, first, w.shape[1]))]
    acc = None
    for k in reversed(range(grid.dim)):
        part = loads[k] * scales[k]
        for b in range(k + 1, grid.dim):
            part = _pair_adjoint(part, b, np.add)
        part = _pair_adjoint(part, k, np.subtract)
        if acc is not None:
            part += acc
        acc = _pair_adjoint(part, k - 1, np.add) if k else part
    return acc


# --------------------------------------------------------------------------
# problem and report
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DirichletProblem:
    """Dirichlet data for div_H A_eps(Xu) = 0 on the interior nodes of the grid.

    ``boundary`` is an array of the grid's shape whose boundary node values are
    the Dirichlet data; its interior values are the start of a solve without
    an ``init`` array, and of the coarsest level of `solve_ladder`.  Precondition:
    they carry the data's scale, as those of `problems.boundary_field` do.  The
    start fixes the L-BFGS metric, and an interior with Xu = 0 weighs every
    inner node by F_eps(0): from a zero interior the README data at 9^3, p = 3,
    take 4,155 iterations against 57 from the boundary field.
    """

    grid: Grid
    triple: OrliczTriple
    boundary: np.ndarray
    eps: float = 1e-4
    residual_tol: float | None = None
    max_iters: int = 100_000

    def __post_init__(self):
        if self.boundary.shape != self.grid.shape:
            raise ValueError(f"boundary shape {self.boundary.shape} is not the grid's {self.grid.shape}")
        if not (0 < self.eps < 1):
            raise ValueError("eps must lie in (0,1)")


@dataclass
class SolveReport:
    """Outcome of one solve; ``stop_reason`` is 'tol', 'max_iters' or 'line_search_stall'.

    Every evaluation after the start's is one line-search trial and each
    iteration accepts one trial, so the rejected trials (backtracks) number
    evaluations - 1 - iterations; they are not stored twice.
    """

    iterations: int
    evaluations: int  # energy-and-gradient evaluations, line-search trials included
    restarts: int  # steepest-descent restarts on a non-descent L-BFGS direction
    final_energy: float
    weak_residual: float
    rejected_pairs: int  # curvature pairs not stored because <s, y> <= 1e-300
    tol: float  # the stopping tolerance on the weak residual
    energy_history: list[float] = field(default_factory=list)
    residual_history: list[float] = field(default_factory=list)
    gradient_cap_observed: float = 0.0
    stop_reason: str = "tol"
    start_levels: list[dict] = field(default_factory=list)  # coarser solves of a nested start, coarsest first

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tol"

    def record(self) -> dict:
        """The solve's entries in ``solve_report.json`` and in each level of ``audit_report.json``."""
        return {"iterations": self.iterations, "evaluations": self.evaluations, "restarts": self.restarts,
                "stop_reason": self.stop_reason, "final_energy": self.final_energy,
                "weak_residual": self.weak_residual, "rejected_pairs": self.rejected_pairs, "tol": self.tol}


# Bytes of one scalar cell field per slab of `_weak_form`.  Slab temporaries
# this small are reused from the allocator's free lists; full-grid ones were
# returned to the OS and page-faulted back in on every evaluation.
_SLAB_BYTES = 128 * 1024


def _slab_planes(grid: Grid) -> int:
    """Cell planes along axis 0 per slab of `_weak_form`."""
    plane_bytes = 8 * math.prod(s - 1 for s in grid.shape[1:])
    return max(1, _SLAB_BYTES // plane_bytes)


def _weak_form(grid: Grid, values: np.ndarray, weight, density, grad: np.ndarray, weight_sums=None):
    """The energy vol * sum density(r, w) and its gradient, the nodal weak form vol * X^T(w Xu).

    r = |Xu| per cell and w = weight(r); the density is called as
    density(r, w, max r) on the slab's stored cells, with the slab's max r,
    which the loop reduces anyway.  ``grad`` is a contiguous array of the
    interior nodes' count; every slab (a run of `_slab_planes` cell planes along axis 0)
    writes its part into the interior nodes around it, assigning the node
    planes it is first to reach and adding into the one it shares with the
    slab before, so no full-grid array is allocated.  Returns (energy, max r).
    A full-grid ``weight_sums`` gets every node's sum of w over its cells
    added in, the transposed pair sums along all axes.

    The cell fields are in `cell_gradient`'s padded layout.  Its padding
    cells have Xu = 0, so r = 0 there never raises max r.  The density reads
    only the stored cells (a table law's lookup never sees the padding's
    r = 0), and its sum runs over a compact array in the compact layout's
    order.  w is then set to 0 in the padding, which keeps it out of the
    weight sums and makes the adjoint's input xc * w 0 there.
    """
    vol = grid.cell_volume
    cells = grid.shape[0] - 1
    step = _slab_planes(grid)
    target = grad.reshape(tuple(s - 2 for s in grid.shape))
    across = (slice(1, -1),) * (grid.dim - 1)
    r_max, total = 0.0, 0.0
    for lo in range(0, cells, step):
        hi = min(lo + step, cells)
        xc = cell_gradient(grid, values[lo:hi + 1], lo)
        r = xc[0] * xc[0]
        r += xc[1] * xc[1]
        np.sqrt(r, out=r)
        top = float(r.max())
        r_max = max(r_max, top)
        w = weight(r)
        total += float(np.sum(density(r[..., :-1], w[..., :-1], top)))
        del r  # free before the adjoint's temporaries, and xc before the next slab's
        w[..., -1] = 0.0  # no weight in the padding, for D's sums and the adjoint's input
        if weight_sums is not None:
            part = w
            for k in range(grid.dim):
                part = _pair_adjoint(part, k, np.add)
            weight_sums[lo:hi + 1] += part
        xc *= w
        del w
        nodal = cell_gradient_adjoint(grid, xc, lo)
        del xc
        # the slab's node planes lo..hi that are interior, 1..cells-1; plane lo > 0 is the slab before's last
        last = min(hi, cells - 1)
        np.multiply(nodal[(slice(1, last - lo + 1),) + across], vol, out=target[lo:last])
        if lo:
            target[lo - 1] += nodal[(0,) + across] * vol
        del nodal
    return vol * total, r_max


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product outside BLAS, so solves do not depend on the BLAS thread count."""
    return float(np.einsum("i,i", a, b))


def _max_abs(v: np.ndarray) -> float:
    """max |v| with no temporary vector; NaN if v holds one."""
    return float(np.maximum(v.max(), -v.min()))


# Entries of the two-loop's work block: its products y a and s c are formed
# one block at a time, so the direction needs no vector-sized work space.
_BLOCK = 32 * 1024


def _blockwise(out: np.ndarray, src: np.ndarray, v: np.ndarray, c: float, op, work: np.ndarray):
    """out = op(src, v * c), the product formed in ``work`` one `_BLOCK` of entries at a time."""
    for lo in range(0, out.size, _BLOCK):
        hi = min(lo + _BLOCK, out.size)
        part = np.multiply(v[lo:hi], c, out=work[:hi - lo])
        op(src[lo:hi], part, out=out[lo:hi])


def _lbfgs_direction(grad, memory, res: float, q: np.ndarray, metric: np.ndarray) -> np.ndarray:
    """H grad by the L-BFGS two-loop recursion, written into ``q``.

    H is H_0 updated by the pairs (s, y, 1/<s,y>, <y,My>) of ``memory``, oldest first.
    H_0 is gamma M for the diagonal ``metric`` M, with gamma = <s,y>/<y,My> of the newest
    pair (<s,y> read off the stored 1/<s,y>); without pairs gamma is 1/max(res, 1).
    The descent direction is -q.  The updates q = src - a y and q += c s take
    their products one block at a time (`_blockwise`): each entry gets the
    arithmetic of the whole-vector update, and the inner products run over
    whole vectors, so the result is the same bit for bit, and the work space
    is one block, not one vector.
    """
    work = np.empty(min(_BLOCK, q.size))
    src = grad  # the first update reads grad and writes q
    alphas = []
    for s, y, rho, _ in reversed(memory):
        a = rho * _dot(s, src)
        alphas.append(a)
        _blockwise(q, src, y, a, np.subtract, work)
        src = q
    np.multiply(src, metric, out=q)
    if not memory:
        q *= 1.0 / max(res, 1.0)
    else:
        _, _, rho, ymy = memory[-1]
        q *= 1.0 / (rho * ymy)
    for (s, y, rho, _), a in zip(memory, reversed(alphas)):
        _blockwise(q, q, s, a - rho * _dot(y, q), np.add, work)
    return q


def solve_ladder(problems: list[DirichletProblem]) -> list[tuple[np.ndarray, SolveReport]]:
    """(solution values, report) per problem, each grid the refinement of the one before.

    While every axis of the first grid has an even count of at least 32
    cells, the problem on the grid with half the cells (the data at every
    other node) is solved before it; these coarser solves are recorded,
    coarsest first, in the first report's ``start_levels``.  The coarsest
    level starts from its boundary field, each later one from the
    `refine_values` prolongation of the solution before it.  Every level is
    one call to the module-level `solve_dirichlet` with ``init`` passed; one
    that does not converge is reported, not raised.
    """
    ladder = list(problems)
    while ladder and all(s - 1 >= 32 and (s - 1) % 2 == 0 for s in ladder[0].grid.shape):
        fine = ladder[0]
        grid = Grid(tuple((s + 1) // 2 for s in fine.grid.shape), fine.grid.lo, fine.grid.hi)
        boundary = fine.boundary[(slice(None, None, 2),) * grid.dim]
        ladder.insert(0, replace(fine, grid=grid, boundary=boundary))
    solves = []
    for prob in ladder:
        solves.append(solve_dirichlet(prob, init=refine_values(solves[-1][0]) if solves else None))
    below = len(ladder) - len(problems)
    if below:
        solves[below][1].start_levels = [{"shape": list(s.shape), "iterations": r.iterations,
                                          "evaluations": r.evaluations, "stop_reason": r.stop_reason}
                                         for s, r in solves[:below]]
    return solves[below:]


def solve_dirichlet(prob: DirichletProblem, init=None):
    """Minimize the regularized energy over the interior values of one grid.

    ``init`` is a full array whose interior values are the start, or None
    for the problem's boundary field; a nested start is `solve_ladder`'s.
    The start also fixes the L-BFGS metric, so it must carry the data's
    scale (see `DirichletProblem`).  Returns the solution values and a
    SolveReport; an exhausted iteration budget or a stalled line search is
    flagged (stop_reason), not raised.
    """
    grid = prob.grid
    start = np.asarray(prob.boundary if init is None else init, dtype=float)
    if start.shape != grid.shape:
        raise ValueError("init array shape mismatch")
    inner = (slice(1, -1),) * grid.dim
    u = np.array(prob.boundary, dtype=float)  # the iterate's node array
    u[inner] = start[inner]
    del start, init  # a nested start is not held through the solve
    trial = np.array(prob.boundary, dtype=float)  # the trial's: the same boundary values
    x, x_new = u[inner], trial[inner]  # the interior nodes as views

    f_eps = regularized_weight(prob.triple, prob.eps)
    g_eps = regularized_energy_density(prob.triple, prob.eps)

    # the metric is allocated with the other vectors, before the start's
    # temporaries: allocated after them it raised the audit's peak RSS by 3 MB
    grad, q, metric = (np.empty(x.size) for _ in range(3))
    weight_sums = np.zeros(grid.shape)
    energy, cap = _weak_form(grid, u, f_eps, g_eps, grad, weight_sums)
    np.reciprocal(weight_sums[inner], out=metric.reshape(x.shape))  # D^-1 scaled to mean 1
    metric /= np.mean(metric)
    del weight_sums
    res = _max_abs(grad) if grad.size else 0.0
    tol = prob.residual_tol if prob.residual_tol is not None else 1e-8 * (1.0 + res)
    history = [energy]
    res_history = [res]
    memory = deque(maxlen=3)  # curvature pairs (s, y, 1/<s,y>, <y,My>), oldest first
    spare = []  # the vectors of released, cleared and rejected pairs: the next trial gradients and s
    iters, evaluations, restarts, rejected_pairs = 0, 1, 0, 0  # the start is the first evaluation
    stop_reason = "max_iters"

    while not res <= tol and iters < prob.max_iters:  # a NaN residual is not converged
        hg = _lbfgs_direction(grad, memory, res, q, metric)  # the direction is -hg
        gd = -_dot(grad, hg)
        if gd >= 0:  # stale curvature; restart from the scaled steepest descent
            spare += [v for s_vec, y_vec, *_ in memory for v in (s_vec, y_vec)]
            memory.clear()
            restarts += 1
            hg = _lbfgs_direction(grad, memory, res, q, metric)
            gd = -_dot(grad, hg)
        if len(memory) == memory.maxlen:  # the line search never reads the oldest pair
            spare += memory.popleft()[:2]

        alpha = 1.0
        # near the minimizer genuine decreases drop below the float resolution
        # of the energy; the allowance keeps full steps acceptable there while
        # the gradient is still being polished
        noise = 4.0 * np.finfo(float).eps * (abs(energy) + 1.0)
        g_new = spare.pop() if spare else np.empty_like(grad)
        step = hg.reshape(x.shape)
        for _ in range(40):
            scaled = step if alpha == 1.0 else np.multiply(step, alpha, out=x_new)
            np.subtract(x, scaled, out=x_new)  # x - alpha hg, bit for bit x + (-alpha hg): negation is exact
            e_new, cap_new = _weak_form(grid, trial, f_eps, g_eps, g_new)
            evaluations += 1
            if e_new <= energy + 1e-4 * alpha * gd + noise:
                break
            alpha *= 0.5
        else:
            stop_reason = "line_search_stall"
            break
        # the pair takes a spare vector for s and the old gradient's for y
        s_vec = spare.pop() if spare else np.empty_like(grad)
        np.subtract(x_new, x, out=s_vec.reshape(x.shape))
        y_vec = np.subtract(g_new, grad, out=grad)
        sy = _dot(s_vec, y_vec)
        if sy > 1e-300:
            ymy = float(np.einsum("i,i,i", y_vec, metric, y_vec))  # one pass, outside BLAS
            memory.append((s_vec, y_vec, 1.0 / sy, ymy))
        else:
            rejected_pairs += 1
            spare += [s_vec, y_vec]
        u, trial, x, x_new = trial, u, x_new, x
        energy, grad, cap = e_new, g_new, cap_new
        res = _max_abs(grad)
        history.append(energy)
        res_history.append(res)
        iters += 1

    report = SolveReport(
        iterations=iters,
        evaluations=evaluations,
        restarts=restarts,
        final_energy=energy,
        weak_residual=res,
        rejected_pairs=rejected_pairs,
        tol=float(tol),
        energy_history=history,
        residual_history=res_history,
        gradient_cap_observed=cap,
        stop_reason="tol" if res <= tol else stop_reason,
    )
    return u, report
