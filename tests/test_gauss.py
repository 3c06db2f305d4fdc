"""Gaussian primitives against independent oracles.

Closed forms are checked three ways: frozen hand-computed values,
scipy.stats evaluations, and seeded Monte Carlo with 4 standard error
acceptance bands.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats
from scipy.linalg import solve_triangular

from conftest import random_component
from gmreduce import (
    GaussianComponent,
    GaussianMixture,
    Merge,
    apply,
    expected_log,
    kld_gauss,
    mahalanobis_sq,
    max_value,
    moment_match_merge,
    product_decompose,
)
from gmreduce.gauss import (
    _EXP_FLOOR,
    ComponentArrays,
    _exp_ftz,
    _log_sum_exp,
    _solve_lower,
    log_pdf,
    pdf,
)
from gmreduce.mixture import _component_log_pdf


def test_log_pdf_matches_scipy():
    rng = np.random.default_rng(11)
    for dim in (1, 2, 3):
        for _ in range(20):
            c = random_component(rng, dim)
            xs = rng.uniform(-6.0, 6.0, (7, dim))
            want = stats.multivariate_normal(c.mean, c.cov).logpdf(xs)
            got = log_pdf(c, xs)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
            single = log_pdf(c, xs[0])
            assert isinstance(single, float)
            assert abs(single - want[0]) < 1e-12


def test_pdf_shapes_and_values():
    rng = np.random.default_rng(12)
    c = random_component(rng, 2)
    xs = rng.uniform(-3.0, 3.0, (5, 2))
    batch = pdf(c, xs)
    assert batch.shape == (5,)
    assert np.allclose(batch, np.exp(log_pdf(c, xs)))
    assert isinstance(pdf(c, xs[2]), float)


@st.composite
def _weighted_components_and_points(draw):
    """Up to four components in d <= 8, condition numbers up to 1e12, weights in [1e-9, 1]."""
    dim = draw(st.integers(1, 8))
    size = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    comps = []
    for _ in range(size):
        cond = 10.0 ** draw(st.floats(0.0, 12.0))
        rot, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        scales = np.geomspace(1.0, 1.0 / cond, dim) * 10.0 ** rng.uniform(-2.0, 2.0)
        cov = (rot * scales) @ rot.T
        weight = draw(st.floats(1e-9, 1.0))
        comps.append(GaussianComponent(weight, rng.uniform(-5.0, 5.0, dim), 0.5 * (cov + cov.T)))
    # Points near the components in their own metric, and points at
    # unwhitened offsets that are remote along the thin directions.
    near = [c.mean + rng.normal(size=(3, dim)) @ c.chol.T for c in comps]
    pts = np.vstack(near + [rng.uniform(-8.0, 8.0, size=(4, dim))])
    return comps, pts


@settings(max_examples=200, deadline=None)
@given(_weighted_components_and_points())
def test_stacked_weighted_log_pdfs_match_component_log_pdf(case):
    comps, pts = case
    got = _component_log_pdf(ComponentArrays.of(comps), pts)
    # Independent oracle: LAPACK's triangular solve with each component's factor.
    want = np.stack(
        [
            np.log(c.weight)
            - 0.5 * (c.dim * math.log(2.0 * math.pi) + c.log_det)
            - 0.5 * np.sum(solve_triangular(c.chol, (pts - c.mean).T, lower=True) ** 2, axis=0)
            for c in comps
        ]
    )
    assert got.shape == (len(comps), len(pts))
    assert np.allclose(got, want, rtol=1e-9, atol=1e-9)


def test_log_pdf_rejects_wrong_dimension():
    c = GaussianComponent(1.0, [0.0, 0.0], np.eye(2))
    with pytest.raises(ValueError):
        log_pdf(c, [1.0, 2.0, 3.0])
    # One point-shape rule: a (k,) point or an (n, k) batch, nothing else.
    for fn in (log_pdf, pdf, mahalanobis_sq):
        with pytest.raises(ValueError, match=re.escape("shape (3, 2, 2)")):
            fn(c, np.zeros((3, 2, 2)))
    with pytest.raises(ValueError, match=re.escape("shape ()")):
        log_pdf(GaussianComponent(1.0, [0.0], [[1.0]]), 0.5)
    with pytest.raises(ValueError, match="dimension mismatch"):
        kld_gauss(GaussianComponent(1.0, [0.0], [[1.0]]), c)


def test_mahalanobis_matches_direct_solve():
    rng = np.random.default_rng(13)
    for _ in range(20):
        c = random_component(rng, 3)
        x = rng.uniform(-5.0, 5.0, 3)
        want = float((x - c.mean) @ np.linalg.solve(c.cov, x - c.mean))
        assert abs(mahalanobis_sq(c, x) - want) < 1e-9
    batch = mahalanobis_sq(c, rng.uniform(-5.0, 5.0, (4, 3)))
    assert batch.shape == (4,)


def test_kld_known_value():
    # D(N(0,1) || N(0,2)) = (log 2 - 1 + 1/2) / 2
    a = GaussianComponent(1.0, [0.0], [[1.0]])
    b = GaussianComponent(1.0, [0.0], [[2.0]])
    assert abs(kld_gauss(a, b) - 0.09657359027997264) < 1e-14


def test_kld_nonnegative_zero_iff_equal():
    rng = np.random.default_rng(14)
    for dim in (1, 2, 3):
        for _ in range(30):
            a = random_component(rng, dim)
            b = random_component(rng, dim)
            assert kld_gauss(a, b) > 1e-8
            assert abs(kld_gauss(a, a)) < 1e-12


def test_kld_matches_monte_carlo():
    rng = np.random.default_rng(15)
    n = 200_000
    for dim in (1, 2, 3):
        a = random_component(rng, dim)
        b = random_component(rng, dim)
        xs = stats.multivariate_normal(a.mean, a.cov).rvs(n, random_state=rng)
        diff = stats.multivariate_normal(a.mean, a.cov).logpdf(xs) - stats.multivariate_normal(
            b.mean, b.cov
        ).logpdf(xs)
        se = np.std(diff, ddof=1) / math.sqrt(n)
        assert abs(kld_gauss(a, b) - np.mean(diff)) < 4.0 * se


def test_kld_asymmetry():
    a = GaussianComponent(1.0, [0.0], [[1.0]])
    b = GaussianComponent(1.0, [0.0], [[4.0]])
    assert kld_gauss(a, b) != kld_gauss(b, a)


def test_product_identity_pointwise():
    rng = np.random.default_rng(16)
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        a = random_component(rng, dim)
        b = random_component(rng, dim)
        d = product_decompose(a, b)
        star = GaussianComponent(1.0, d.mean_star, d.cov_star)
        xs = rng.uniform(-5.0, 5.0, (5, dim))
        assert np.allclose(pdf(a, xs) * pdf(b, xs), d.scale * pdf(star, xs), atol=1e-9)


def test_product_scale_matches_scipy():
    rng = np.random.default_rng(17)
    for dim in (1, 2, 3):
        a = random_component(rng, dim)
        b = random_component(rng, dim)
        want = stats.multivariate_normal(a.mean, a.cov + b.cov).pdf(b.mean)
        assert abs(product_decompose(a, b).scale - want) < 1e-12


def test_product_of_identical_standard_normals():
    for dim in (1, 2):
        c = GaussianComponent(1.0, np.zeros(dim), np.eye(dim))
        d = product_decompose(c, c)
        assert abs(d.scale - (4.0 * math.pi) ** (-dim / 2.0)) < 1e-15
        assert np.allclose(d.mean_star, 0.0, atol=1e-15)
        assert np.allclose(d.cov_star, 0.5 * np.eye(dim), atol=1e-12)


def test_expected_log_known_value():
    # E_{N(0,1)}[log N(x; 3, 1)] = -log(2 pi)/2 - (1 + 9)/2
    under = GaussianComponent(1.0, [0.0], [[1.0]])
    of = GaussianComponent(1.0, [3.0], [[1.0]])
    want = -0.5 * math.log(2.0 * math.pi) - 5.0
    assert abs(expected_log(under, of) - want) < 1e-14


def test_expected_log_matches_monte_carlo():
    rng = np.random.default_rng(18)
    n = 200_000
    for dim in (1, 2):
        under = random_component(rng, dim)
        of = random_component(rng, dim)
        xs = stats.multivariate_normal(under.mean, under.cov).rvs(n, random_state=rng)
        vals = stats.multivariate_normal(of.mean, of.cov).logpdf(xs)
        se = np.std(vals, ddof=1) / math.sqrt(n)
        assert abs(expected_log(under, of) - np.mean(vals)) < 4.0 * se


def test_expected_log_self_is_negative_entropy():
    rng = np.random.default_rng(19)
    for dim in (1, 2, 3):
        c = random_component(rng, dim)
        want = -stats.multivariate_normal(c.mean, c.cov).entropy()
        assert abs(expected_log(c, c) - want) < 1e-10


def test_max_value_attained_at_mean():
    rng = np.random.default_rng(20)
    for dim in (1, 2, 3):
        c = random_component(rng, dim)
        assert abs(max_value(c) - pdf(c, c.mean)) < 1e-15 * max_value(c)
        xs = rng.uniform(-6.0, 6.0, (50, dim))
        assert np.all(pdf(c, xs) <= max_value(c) * (1.0 + 1e-12))


def test_moment_match_merge_worked_example():
    a = GaussianComponent(0.5, [-3.0], [[1.0]])
    b = GaussianComponent(0.5, [3.0], [[1.0]])
    m = moment_match_merge(a, b)
    assert m.weight == 1.0
    assert m.mean[0] == 0.0
    assert m.cov[0, 0] == 10.0


def test_moment_match_preserves_pair_moments():
    rng = np.random.default_rng(21)
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        # The merged weight is the pair total, so it must stay a weight.
        wa, wb = rng.uniform(0.05, 0.5, 2)
        a = random_component(rng, dim, wa)
        b = random_component(rng, dim, wb)
        m = moment_match_merge(a, b)
        assert abs(m.weight - (wa + wb)) < 1e-15
        want_mean = (wa * a.mean + wb * b.mean) / (wa + wb)
        assert np.allclose(m.mean, want_mean, atol=1e-12)
        # Second moment of the normalized pair equals that of the merge.
        second = (
            wa * (a.cov + np.outer(a.mean, a.mean)) + wb * (b.cov + np.outer(b.mean, b.mean))
        ) / (wa + wb)
        assert np.allclose(m.cov + np.outer(m.mean, m.mean), second, atol=1e-12)


def test_moment_match_is_forward_optimal_1d():
    """Perturbing the merged parameters increases D(pair || single)."""
    rng = np.random.default_rng(22)
    for _ in range(3):
        wa = rng.uniform(0.2, 0.8)
        a = GaussianComponent(wa, [rng.uniform(-2, 0)], [[rng.uniform(0.5, 2.0)]])
        b = GaussianComponent(1.0 - wa, [rng.uniform(0, 2)], [[rng.uniform(0.5, 2.0)]])
        merged = moment_match_merge(a, b)

        def fkld(mean, var):
            c = GaussianComponent(1.0, [mean], [[var]])

            def f(x):
                pt = np.array([x])
                p = a.weight * pdf(a, pt) + b.weight * pdf(b, pt)
                if p == 0.0:
                    return 0.0
                return p * (math.log(p) - log_pdf(c, pt))

            lo = min(a.mean[0], b.mean[0]) - 12.0
            hi = max(a.mean[0], b.mean[0]) + 12.0
            val, _ = integrate.quad(f, lo, hi, epsabs=1e-11, epsrel=0.0, limit=300)
            return val

        base_mean = float(merged.mean[0])
        base_var = float(merged.cov[0, 0])
        base = fkld(base_mean, base_var)
        for dm, dv in ((1e-3, 0.0), (-1e-3, 0.0), (0.0, 1e-3), (0.0, -1e-3)):
            assert base <= fkld(base_mean + dm, base_var * (1.0 + dv)) + 1e-12


def test_moment_match_overflow_is_factorization_error():
    a = GaussianComponent(0.5, [0.0], [[1.0]])
    b = GaussianComponent(0.5, [1e200], [[1.0]])
    message = "moment-matched merge overflows or is not positive definite"
    with pytest.raises(np.linalg.LinAlgError, match=message):
        moment_match_merge(a, b)
    with pytest.raises(np.linalg.LinAlgError, match=message):
        apply(GaussianMixture((a, b)), Merge(1, 2))


def test_moment_match_zero_total_weight():
    # A pair without weight cannot be built, so no merge meets one.
    with pytest.raises(ValueError, match="component 1 weight must be finite, positive and at most 1, got 0.0"):
        GaussianComponent(0.0, [0.0], [[1.0]])


def test_component_validation():
    with pytest.raises(ValueError):
        GaussianComponent(-0.1, [0.0], [[1.0]])
    with pytest.raises(ValueError):
        GaussianComponent(1.1, [0.0], [[1.0]])
    with pytest.raises(ValueError):
        GaussianComponent(0.5, [0.0, 0.0], [[1.0, 0.5], [0.1, 1.0]])  # asymmetric
    with pytest.raises(ValueError):
        GaussianComponent(0.5, [0.0], [[1.0, 0.0]])  # wrong shape
    with pytest.raises(ValueError):
        GaussianComponent(0.5, [np.nan], [[1.0]])
    with pytest.raises(ValueError):
        GaussianComponent(0.5, [[0.0, 1.0]], [[1.0]])  # 2-D mean
    with pytest.raises(np.linalg.LinAlgError):
        GaussianComponent(0.5, [0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])  # singular


def test_component_arrays_read_only():
    c = GaussianComponent(0.5, [0.0], [[1.0]])
    with pytest.raises(ValueError):
        c.mean[0] = 5.0
    with pytest.raises(ValueError):
        c.cov[0, 0] = 5.0


def test_with_weight():
    c = GaussianComponent(0.5, [1.0], [[2.0]])
    d = c.with_weight(0.25)
    assert d.weight == 0.25
    assert np.array_equal(d.mean, c.mean)
    assert np.array_equal(d.cov, c.cov)
    # The validated covariance is not factorized again: the factor is shared.
    assert np.shares_memory(d.chol, c.chol)
    assert d.log_det == c.log_det
    assert not d.chol.flags.writeable
    for bad in (-0.1, 1.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            c.with_weight(bad)


def test_cached_factorization_consistent():
    rng = np.random.default_rng(23)
    c = random_component(rng, 3)
    assert np.allclose(c.chol @ c.chol.T, c.cov, atol=1e-12)
    assert abs(c.log_det - math.log(np.linalg.det(c.cov))) < 1e-10


@pytest.mark.parametrize("dim", [1, 2, 4, 8])
def test_weighted_log_pdfs_centre_before_whitening(dim):
    """Thin components far from the origin, at their means, near them and far off.

    Whitening the points and the means apart, L^-1 x - L^-1 m, would
    cancel most of the digits of z near the mean; the kernel whitens the
    centred points.
    """
    rng = np.random.default_rng(720 + dim)
    comps = []
    for log_cond in (0.0, 4.0, 7.0, 10.0):
        rot, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        cov = (rot * np.geomspace(1.0, 10.0**-log_cond, dim) * 10.0 ** rng.uniform(-1.0, 1.0)) @ rot.T
        comps.append(GaussianComponent(rng.uniform(0.1, 0.3), rng.uniform(-1e4, 1e4, dim), 0.5 * (cov + cov.T)))
    pts = np.vstack(
        [np.vstack([c.mean, c.mean + rng.normal(size=(4, dim)) @ c.chol.T]) for c in comps]
        + [rng.uniform(-2e4, 2e4, size=(4, dim))]
    )
    got = _component_log_pdf(ComponentArrays.of(comps), pts)
    # Oracle: LAPACK's general solve with each component's factor.
    want = np.stack(
        [
            np.log(c.weight)
            - 0.5 * (dim * math.log(2.0 * math.pi) + c.log_det)
            - 0.5 * np.sum(np.linalg.solve(c.chol, (pts - c.mean).T) ** 2, axis=0)
            for c in comps
        ]
    )
    assert np.allclose(got, want, rtol=1e-9, atol=0.0)


def _solve_lower_by_middle_axis_sum(chol, rhs):
    """The forward substitution that sums each row over a middle axis, kept as an oracle."""
    out = np.empty(rhs.shape)
    for r in range(rhs.shape[1]):
        acc = rhs[:, r] - np.sum(chol[:, r, :r, None] * out[:, :r], axis=1)
        out[:, r] = acc / chol[:, r, r, None]
    return out


@pytest.mark.parametrize("k", range(1, 9))
def test_solve_lower_matches_middle_axis_sum_bit_for_bit(k):
    rng = np.random.default_rng(700 + k)
    # Every (P, c) pair but the largest, which would need 80 MB at k = 8.
    for p, c in [(1, 1), (1, 3), (1, 1100), (23, 1), (23, 3), (23, 1100), (1128, 1), (1128, 3)]:
        a = rng.normal(size=(p, k, k))
        chol = np.linalg.cholesky(a @ a.transpose(0, 2, 1) + 0.1 * np.eye(k))
        rhs = rng.normal(size=(p, k, c))
        for factor in (chol, chol[:1]):  # a (1, k, k) factor broadcasts over the stack
            got = _solve_lower(factor, rhs)
            want = _solve_lower_by_middle_axis_sum(factor, rhs)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _log_sum_exp_unflushed(log_terms):
    top = log_terms.max(axis=0)
    top[np.isneginf(top)] = 0.0
    with np.errstate(divide="ignore"):
        return top + np.log(np.sum(np.exp(log_terms - top), axis=0))


def test_exp_ftz_flushes_below_floor_only():
    x = np.array([0.0, -1.0, _EXP_FLOOR, np.nextafter(_EXP_FLOOR, 0.0), -700.5, -720.0, -800.0, -np.inf, np.nan])
    got = _exp_ftz(x)
    assert np.array_equal(got[:4], np.exp(x[:4]))
    assert np.min(got[:4]) >= math.exp(_EXP_FLOOR) > 1e-305
    assert np.array_equal(got[4:8], np.zeros(4))
    assert np.isnan(got[8])


def test_log_sum_exp_matches_unflushed_formula_bit_for_bit():
    rng = np.random.default_rng(701)
    n, k = 400, 15
    top = rng.uniform(-50.0, 50.0, (n, 1))
    # Offsets from each point's maximum: normal results, results that would
    # be subnormal (-720), that underflow (-800), near the floor, and -inf.
    offsets = rng.choice(
        [-0.5, -3.0, -40.0, -699.9, -700.1, -720.0, -745.0, -800.0, -np.inf], size=(n, k)
    ) * rng.uniform(0.99, 1.01, (n, k))
    offsets[:, 0] = 0.0
    log_terms = (top + offsets).T  # (component, point)
    assert np.any((log_terms - top.T > -745.2) & (log_terms - top.T < _EXP_FLOOR))
    got = _log_sum_exp(log_terms)[0]
    want = _log_sum_exp_unflushed(log_terms)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    edge = np.array([[-np.inf] * 3, [0.0, np.nan, -1.0], [-1000.0, -1720.0, -np.inf]]).T
    got = _log_sum_exp(edge)[0]
    assert np.isneginf(got[0])
    assert np.isnan(got[1])
    assert got[2] == _log_sum_exp_unflushed(edge)[2] == -1000.0
