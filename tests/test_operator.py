import numpy as np
import pytest

import solab.operator as op
from conftest import CATALOG_LABELS, triple_for
from oracles import energy_density_reference, fd_jacobian, prototype_jacobian, two_branch_energy_density


def sample_points(rng, m, d=2, r_lo=1e-2, r_hi=1e2):
    radii = np.exp(rng.uniform(np.log(r_lo), np.log(r_hi), size=m))
    dirs = rng.normal(size=(m, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return radii[:, None] * dirs


# ---------------------------------------------------------------- prototype

def test_prototype_A_values():
    spec4 = op.prototype_operator(triple_for("power:p=4"))
    assert np.allclose(spec4.A(np.zeros(2)), 0.0)
    assert np.allclose(spec4.A(np.array([2.0, 0.0])), [8.0, 0.0])
    spec2 = op.prototype_operator(triple_for("power:p=2"))
    z = np.array([0.3, -1.2])
    assert np.allclose(spec2.A(z), z)  # A is the identity for g(t)=t


def test_prototype_DA_identity_and_eigs():
    spec2 = op.prototype_operator(triple_for("power:p=2"))
    z = np.array([0.5, 2.0])
    assert np.allclose(spec2.DA(z), np.eye(2), atol=1e-14)
    spec4 = op.prototype_operator(triple_for("power:p=4"))
    eigs = np.linalg.eigvalsh(spec4.DA(np.array([1.0, 0.0])))
    assert np.allclose(sorted(eigs), [1.0, 3.0], atol=1e-12)  # {delta, g0} * F(1)


def test_prototype_DA_rejects_zero():
    with pytest.raises(ValueError):
        op.prototype_operator(triple_for("power:p=3")).DA(np.zeros(2))


@pytest.mark.parametrize("label", ["power:p=1.5", "power:p=3",
                                   "loglin:alpha=1,beta=1,a=2.718281828", "sinlog:a=2.5,b=1"])
def test_DA_matches_fd_jacobian(label, rng):
    spec = op.prototype_operator(triple_for(label))
    z = sample_points(rng, 200)
    da = spec.DA(z)
    fd = fd_jacobian(spec.A, z)
    rel = np.max(np.abs(da - fd), axis=(1, 2)) / np.max(np.abs(da), axis=(1, 2))
    assert float(rel.max()) <= 1e-5


@pytest.mark.parametrize("label", CATALOG_LABELS)
def test_DA_symmetry_and_eigen_bracket(label, rng):
    tr = triple_for(label)
    g = tr.g
    z = sample_points(rng, 400)
    da = op.prototype_operator(tr).DA(z)
    scale = np.max(np.abs(da), axis=(1, 2))
    ref = prototype_jacobian(g, z)
    assert float(np.max(np.max(np.abs(da - ref), axis=(1, 2)) / scale)) <= 1e-13
    assert float(np.max(np.max(np.abs(da - np.swapaxes(da, 1, 2)), axis=(1, 2)) / scale)) <= 1e-10
    eigs = np.linalg.eigvalsh(da)
    r = np.linalg.norm(z, axis=1)
    fv = g(r) / r
    assert np.all(eigs[:, 0] >= min(1.0, g.delta) * fv * (1 - 1e-6))
    assert np.all(eigs[:, -1] <= max(1.0, g.g0) * fv * (1 + 1e-6))


# ---------------------------------------------------------------- margins

def test_structure_margins_linear_exact():
    tr = triple_for("power:p=2")
    spec = op.prototype_operator(tr)
    assert spec.hi / spec.lo == 1.0
    z = np.array([1.0, 2.0])
    xi = np.array([0.3, -0.4])
    lower, upper, growth = op.structure_margins(spec, z, xi)
    assert abs(lower) <= 1e-14 and abs(upper) <= 1e-14 and abs(growth) <= 1e-14


def test_structure_margins_p3_nonnegative(rng):
    tr = triple_for("power:p=3")
    spec = op.prototype_operator(tr)
    assert spec.hi / spec.lo == pytest.approx(2.0)  # max{1, g0} with delta >= 1
    z = sample_points(rng, 10_000)
    xi = rng.normal(size=z.shape)
    lower, upper, growth = op.structure_margins(spec, z, xi)
    assert lower.min() >= -1e-9 * np.max(np.abs(upper))
    assert upper.min() >= -1e-9 * np.max(np.abs(upper))
    assert growth.min() >= -1e-12


def test_structure_margin_orthogonal_direction():
    # xi perpendicular to z annihilates the rank-one part: lower margin 0
    tr = triple_for("power:p=3")
    spec = op.prototype_operator(tr)
    z = np.array([2.0, 0.0])
    xi = np.array([0.0, 5.0])
    lower, _, _ = op.structure_margins(spec, z, xi)
    assert lower == pytest.approx(0.0, abs=1e-12)


def test_structure_margins_delta_below_one(rng):
    # for p = 1.5 the reference weight is rescaled by min{1, delta} = 1/2
    tr = triple_for("power:p=1.5")
    spec = op.prototype_operator(tr)
    assert spec.hi / spec.lo == pytest.approx(2.0)  # max{1,g0}/min{1,delta} = 1/(1/2)
    z = sample_points(rng, 5000)
    xi = rng.normal(size=z.shape)
    lower, upper, _ = op.structure_margins(spec, z, xi)
    assert lower.min() >= -1e-9 * np.max(np.abs(upper))
    assert upper.min() >= -1e-9 * np.max(np.abs(upper))


# ---------------------------------------------------------------- monotonicity

def test_monotonicity_linear_case():
    tr = triple_for("power:p=2")
    spec = op.prototype_operator(tr)
    z, w = np.array([1.0, 1.0]), np.array([0.0, 2.0])
    gap, fitted = op.monotonicity_gap(spec, z, w)
    assert gap == pytest.approx(float(np.sum((z - w) ** 2)))
    assert fitted == pytest.approx(1.0)


def test_monotonicity_degenerate_pair_flagged():
    tr = triple_for("power:p=2")
    spec = op.prototype_operator(tr)
    z = np.array([1.0, 2.0])
    gap, fitted = op.monotonicity_gap(spec, z, z.copy())
    assert gap == 0.0 and np.isnan(fitted)


def test_monotonicity_sampled_positive(rng):
    tr = triple_for("power:p=3")
    spec = op.prototype_operator(tr)
    z = sample_points(rng, 10_000)
    w = sample_points(rng, 10_000)
    gap, fitted = op.monotonicity_gap(spec, z, w)
    assert gap.min() >= 0.0
    assert np.nanmin(fitted) > 0.0


# ---------------------------------------------------------------- ellipticity

def test_ellipticity_values():
    tr = triple_for("power:p=2")
    spec = op.prototype_operator(tr)
    assert op.ellipticity_margin(spec, tr, np.zeros(2)) == pytest.approx(0.0)
    z = np.array([2.0, 0.0])
    # <A,z> = 4, G(2) = 2
    assert op.ellipticity_margin(spec, tr, z) == pytest.approx(2.0)


@pytest.mark.parametrize("label", ["power:p=1.5", "power:p=3", "loglin:alpha=1,beta=1,a=2.718281828"])
def test_ellipticity_prototype_dominates_G(label, rng):
    tr = triple_for(label)
    spec = op.prototype_operator(tr)
    z = sample_points(rng, 3000)
    margins = op.ellipticity_margin(spec, tr, z)
    assert margins.min() >= -1e-9 * (1 + np.max(np.abs(margins)))


# ---------------------------------------------------------------- p-Laplace

def test_p_laplace_special_values():
    z, w = np.array([3.0, 4.0]), np.array([1.0, -1.0])
    gap, ratio = op.p_laplace_gap(2.0, z, w)
    assert gap == pytest.approx(float(np.sum((z - w) ** 2)))
    assert ratio == pytest.approx(1.0)
    gap3, ratio3 = op.p_laplace_gap(3.0, np.array([1.0, 1.0]), np.zeros(2))
    assert gap3 == pytest.approx(np.sqrt(2.0) ** 3)
    assert ratio3 == pytest.approx(1.0)


def test_p_laplace_rejects_equal_points():
    with pytest.raises(ValueError):
        op.p_laplace_gap(1.5, np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        op.p_laplace_gap(1.0, np.ones(2), np.zeros(2))


def test_p_laplace_sampled_ratio_positive(rng):
    z = sample_points(rng, 10_000)
    w = sample_points(rng, 10_000)
    for p in (1.5, 2.0, 3.0):
        gap, ratio = op.p_laplace_gap(p, z, w)
        assert ratio.min() > 0.0


# ---------------------------------------------------------------- regularization

def test_regularized_weight_saturates():
    tr = triple_for("power:p=1.5")
    f_eps = op.regularized_weight(tr, 0.01)
    assert f_eps(0.0) == pytest.approx(10.0)        # F(0.01) = 0.01^{-1/2}
    assert f_eps(200.0) == pytest.approx(0.1)       # F(100) for t beyond 1/eps
    assert f_eps(150.0) == f_eps(99.99 + 50)


def test_regularize_m_constants_closed_form():
    tr = triple_for("power:p=1.5")
    spec = op.regularized_operator(tr, 0.01)
    assert spec.weight(0.0) == pytest.approx(10.0)
    assert spec.weight(1.0 / 0.01) == pytest.approx(0.1)
    assert max(spec.hi, 1.0 / spec.lo) == 2.0  # 1/min{1, delta} with delta = 1/2
    assert spec.hi / spec.lo == 2.0


def test_regularize_linear_growth_is_fixed_point():
    # g(t) = t has F = 1, so A_eps = A
    tr = triple_for("power:p=2")
    base = op.prototype_operator(tr)
    spec = op.regularized_operator(tr, 0.05)
    z = np.array([[0.0, 0.0], [0.01, 0.02], [0.2, -0.1], [3.0, 4.0], [30.0, 0.0]])
    assert np.allclose(spec.A(z), base.A(z), atol=1e-14)
    assert spec.weight(0.0) == spec.weight(1.0 / 0.05) == pytest.approx(1.0)


def test_regularize_rejects_bad_eps():
    tr = triple_for("power:p=2")
    for eps in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(ValueError):
            op.regularized_operator(tr, eps)


def test_regularized_operator_converges_pointwise(rng):
    tr = triple_for("power:p=3")
    base = op.prototype_operator(tr)
    z = sample_points(rng, 500, r_lo=1e-3, r_hi=10.0)
    sups = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        spec = op.regularized_operator(tr, eps)
        sups.append(float(np.max(np.linalg.norm(spec.A(z) - base.A(z), axis=-1))))
    assert all(a > b for a, b in zip(sups, sups[1:]))
    assert sups[-1] > 0


def test_regularized_jacobian_vs_fd(rng):
    tr = triple_for("power:p=3")
    spec = op.regularized_operator(tr, 0.05)
    # probe on both sides of the saturation kink at 1/eps - eps = 19.95, away from it
    radii = np.array([0.01, 0.03, 0.2, 1.0, 5.0, 30.0])
    dirs = rng.normal(size=(radii.size, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    z = radii[:, None] * dirs
    fd = fd_jacobian(spec.A, z, h_rel=1e-7)
    da = spec.DA(z)
    rel = np.max(np.abs(da - fd), axis=(1, 2)) / np.max(np.abs(da), axis=(1, 2))
    assert float(rel.max()) <= 1e-4
    assert np.array_equal(spec.DA(np.zeros(2)), op.regularized_weight(tr, 0.05)(0.0) * np.eye(2))


def test_regularized_structure_margins_hold(rng):
    tr = triple_for("power:p=1.5")
    spec = op.regularized_operator(tr, 0.05)
    z = sample_points(rng, 3000, r_lo=1e-3, r_hi=1e2)
    xi = rng.normal(size=z.shape)
    lower, upper, growth = op.structure_margins(spec, z, xi)
    scale = np.max(np.abs(upper))
    assert lower.min() >= -1e-9 * scale
    assert upper.min() >= -1e-9 * scale
    assert growth.min() >= -1e-9 * (1 + np.max(np.abs(growth)))


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("label", CATALOG_LABELS)
def test_regularized_eigen_bracket_closed_form(label, d, rng):
    # the bracket min{1,delta} F_eps <= eig DA_eps <= max{1,g0} F_eps holds with nothing fitted,
    # below and past saturation (1/eps - eps), and at z = 0
    tr = triple_for(label)
    lo, hi = min(1.0, tr.g.delta), max(1.0, tr.g.g0)
    for eps in (1e-2, 1e-3):
        spec = op.regularized_operator(tr, eps)
        assert (spec.lo, spec.hi) == (lo, hi)
        z = np.concatenate([np.zeros((1, d)), sample_points(rng, 2000, d=d, r_lo=1e-4, r_hi=1e4)])
        eigs = np.linalg.eigvalsh(spec.DA(z))
        r = np.linalg.norm(z, axis=1)
        assert np.all(eigs[:, 0] >= spec.lo * spec.weight(r) * (1 - 1e-9))
        assert np.all(eigs[:, -1] <= spec.hi * spec.weight(r) * (1 + 1e-9))


@pytest.mark.parametrize("label", CATALOG_LABELS)
def test_energy_density_derivative_is_t_F_eps(label):
    # G_eps is the energy the solver minimizes; its derivative is |A_eps(z)| = t F_eps(t)
    tr = triple_for(label)
    t = np.geomspace(1e-4, 1e4, 400)
    for eps in (1e-2, 1e-3):
        t_smooth = t[np.abs(t - (1.0 / eps - eps)) > 1e-4 * t]  # skip the saturation kink
        h = 1e-4 * t_smooth
        g_eps = op.regularized_energy_density(tr, eps)
        dens = t_smooth * op.regularized_weight(tr, eps)(t_smooth)
        fd = (g_eps(t_smooth + h) - g_eps(t_smooth - h)) / (2 * h)
        assert float(np.max(np.abs(fd - dens) / dens)) <= 1e-6


@pytest.mark.parametrize("label", ["loglin:alpha=1,beta=1,a=2.718281828", "sinlog:a=2.5,b=1"])
@pytest.mark.parametrize("eps", [1e-2, 1e-4])
def test_energy_density_table_matches_quadrature(label, eps):
    # the table laws read G_eps from one table of int_0^t s F_eps; composing
    # G(t+eps) - G(eps) instead cancels at small t
    tr = triple_for(label)
    g_eps = op.regularized_energy_density(tr, eps)
    for t in np.geomspace(1e-10, 2.0 / eps, 13):
        ref = energy_density_reference(tr.g, eps, t)
        assert abs(g_eps(t) - ref) <= 1e-9 * ref, t


@pytest.mark.parametrize("label", ["power:p=3", "glued:alpha=1.5,beta=2.5,eps=0.5,k1=1,k2=2",
                                   "loglin:alpha=1,beta=1,a=2.718281828"])
@pytest.mark.parametrize("eps", [1e-2, 1e-4])
def test_energy_density_skips_tail_only_below_saturation(label, eps):
    # below T = 1/eps - eps G_eps evaluates the body alone; any point past T, or NaN, takes both branches
    tr = triple_for(label)
    g_eps, ref = op.regularized_energy_density(tr, eps), two_branch_energy_density(tr, eps)
    T = 1.0 / eps - eps
    below = np.geomspace(1e-6, T, 40)
    mixed = np.concatenate([below, [1.5 * T, 2.0 / eps]])
    for t in (below, below.reshape(4, 10), mixed, np.append(below, np.nan), np.append(mixed, np.nan), np.array([])):
        np.testing.assert_array_equal(g_eps(t), ref(t))
    for t in (0.0, 0.5, T, 2.0 / eps, np.nan):
        out = g_eps(np.asarray(t))
        assert type(out) is float and (out == ref(t) or np.isnan(out) and np.isnan(ref(t))), t


@pytest.mark.parametrize("label", CATALOG_LABELS)
def test_nan_propagates(label):
    # a NaN |Xu| must not turn into a finite energy; H exists for the closed-form laws only
    tr = triple_for(label)
    t = np.array([np.nan, 1.0])
    fns = [tr.G, op.regularized_energy_density(tr, 1e-4)] + ([tr.H] if tr.g.closed_H is not None else [])
    for fn in fns:
        out = fn(t)
        assert np.isnan(out[0]) and np.isfinite(out[1])
        assert np.isnan(fn(np.nan))
