"""Adaptive quadrature oracle for one-dimensional mixture divergences."""

import math

import numpy as np
import pytest

from conftest import random_mixture
from gmreduce import GaussianComponent, GaussianMixture, envelope_1d, kld_quad, kld_gauss


def _single(w, mu, var):
    return GaussianMixture((GaussianComponent(w, [mu], [[var]]),))


def test_kld_quad_matches_gaussian_closed_form():
    p = _single(1.0, 0.0, 1.0)
    q = _single(1.0, 2.0, 3.0)
    value, converged = kld_quad(p, q)
    assert converged
    want = kld_gauss(p.components[0], q.components[0])
    assert abs(value - want) < 1e-7


def test_kld_quad_self_is_zero():
    rng = np.random.default_rng(60)
    for _ in range(5):
        m = random_mixture(rng, int(rng.integers(1, 5)), 1)
        value, converged = kld_quad(m, m)
        assert converged
        assert abs(value) < 1e-9


def test_kld_quad_nonnegative_between_mixtures():
    rng = np.random.default_rng(61)
    for _ in range(10):
        p = random_mixture(rng, int(rng.integers(1, 4)), 1)
        q = random_mixture(rng, int(rng.integers(1, 4)), 1)
        value, converged = kld_quad(p, q)
        assert converged
        assert value > -1e-9


def test_envelope_covers_all_components():
    m1 = GaussianMixture(
        (
            GaussianComponent(0.5, [-7.0], [[4.0]]),
            GaussianComponent(0.5, [3.0], [[0.25]]),
        )
    )
    m2 = _single(1.0, 20.0, 1.0)
    lo, hi = envelope_1d(m1, m2)
    assert lo <= -7.0 - 12.0 * 2.0
    assert hi >= 20.0 + 12.0 * 1.0
    lo_single, hi_single = envelope_1d(m2)
    assert lo_single == 20.0 - 12.0
    assert hi_single == 20.0 + 12.0
    with pytest.raises(ValueError, match="at least one mixture"):
        envelope_1d()


def test_quadrature_rejects_multivariate_input():
    m = GaussianMixture((GaussianComponent(1.0, [0.0, 0.0], np.eye(2)),))
    with pytest.raises(ValueError):
        envelope_1d(m)
    with pytest.raises(ValueError):
        kld_quad(m, m)


def test_kld_quad_bimodal_against_high_accuracy_sum():
    """Split the integral at the modes by hand and compare."""
    from scipy import integrate

    from gmreduce.mixture import log_pdf, pdf

    p = GaussianMixture(
        (
            GaussianComponent(0.8, [-2.0], [[1.0]]),
            GaussianComponent(0.2, [2.0], [[1.0]]),
        )
    )
    q = _single(1.0, 0.0, 4.0)

    def integrand(x):
        pt = np.array([x])
        return pdf(p, pt) * (log_pdf(p, pt) - log_pdf(q, pt))

    pieces = [(-40.0, -2.0), (-2.0, 0.0), (0.0, 2.0), (2.0, 40.0)]
    want = sum(
        integrate.quad(integrand, lo, hi, epsabs=1e-12, epsrel=0.0, limit=500)[0]
        for lo, hi in pieces
    )
    value, converged = kld_quad(p, q)
    assert converged
    assert abs(value - want) < 1e-8
    assert math.isfinite(value)
