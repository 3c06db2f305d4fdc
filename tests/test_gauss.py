"""Gaussian primitives against independent oracles.

Closed forms are checked three ways: frozen hand-computed values,
scipy.stats evaluations, and seeded Monte Carlo with 4 standard error
acceptance bands.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from conftest import random_component
from gmreduce import (
    GaussianComponent,
    expected_log,
    jitter,
    kld_gauss,
    mahalanobis_sq,
    max_value,
    moment_match_merge,
    product_decompose,
)
from gmreduce.gauss import log_pdf, pdf


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


def test_log_pdf_rejects_wrong_dimension():
    c = GaussianComponent(1.0, [0.0, 0.0], np.eye(2))
    with pytest.raises(ValueError):
        log_pdf(c, [1.0, 2.0, 3.0])


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
    with pytest.raises(np.linalg.LinAlgError):
        moment_match_merge(a, b)


def test_moment_match_zero_total_weight():
    a = GaussianComponent(0.0, [0.0], [[1.0]])
    with pytest.raises(ValueError):
        moment_match_merge(a, a)


def test_jitter():
    c = GaussianComponent(0.3, [1.0, -1.0], [[1.0, 0.9], [0.9, 1.0]])
    j = jitter(c, 0.5)
    assert j.weight == c.weight
    assert np.array_equal(j.mean, c.mean)
    assert np.allclose(j.cov, c.cov + 0.5 * np.eye(2))
    with pytest.raises(ValueError):
        jitter(c, -1e-9)


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
