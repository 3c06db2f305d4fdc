"""Data generation, EM fitting and the reduce-and-reassign workflow."""

import re
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from gmreduce import (
    DISCARDED,
    SPURIOUS,
    CostKind,
    EMConfig,
    EMError,
    GaussianComponent,
    GaussianMixture,
    LabeledDataset,
    Merge,
    Prune,
    em_fit,
    em_fit_details,
    generate_corrupted_data,
    log_pdf as component_log_pdf,
    reduce_and_reassign,
    six_cluster_mixture,
)
from gmreduce import apply as apply_step
from gmreduce import cluster, gauss
from gmreduce.cluster import _factorize, _seed_means
from gmreduce.gauss import _cholesky, _log_sum_exp
from gmreduce.mixture import _component_log_pdf, log_pdf as mixture_log_pdf


def test_six_cluster_mixture_frozen_values():
    m = six_cluster_mixture()
    assert m.size == 6
    assert m.dim == 2
    assert m.is_normalized
    assert np.array_equal(m.weights, [0.2, 0.2, 0.2, 0.2, 0.1, 0.1])
    assert np.array_equal(m.components[0].mean, [-5.0, 5.0])
    assert np.array_equal(m.components[5].mean, [7.0, 0.0])
    assert np.array_equal(m.components[3].cov, [[2.0, -2.0], [-2.0, 3.0]])
    assert np.array_equal(m.components[4].cov, m.components[5].cov)


def test_generate_corrupted_data_shapes_and_truth():
    ds = generate_corrupted_data(50, 7, seed=3)
    assert ds.points.shape == (57, 2)
    assert ds.labels is None
    assert ds.truth.shape == (57,)
    assert np.all((ds.truth[:50] >= 1) & (ds.truth[:50] <= 6))
    assert np.all(ds.truth[50:] == SPURIOUS)


def test_generate_corrupted_data_clutter_only_and_bounds():
    ds = generate_corrupted_data(0, 10, side=20.0, seed=4)
    assert ds.points.shape == (10, 2)
    assert np.all(ds.truth == SPURIOUS)
    assert np.all(np.abs(ds.points) <= 10.0)


def test_generate_corrupted_data_deterministic():
    a = generate_corrupted_data(30, 5, seed=11)
    b = generate_corrupted_data(30, 5, seed=11)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.truth, b.truth)
    c = generate_corrupted_data(30, 5, seed=12)
    assert not np.array_equal(a.points, c.points)


def test_generate_corrupted_data_validation():
    for bad in (-1, 2.5, True):
        with pytest.raises(ValueError, match="nonnegative integers"):
            generate_corrupted_data(bad, 5)
        with pytest.raises(ValueError, match="nonnegative integers"):
            generate_corrupted_data(5, bad)
    with pytest.raises(ValueError):
        generate_corrupted_data(5, 5, side=0.0)
    for side in (np.nan, np.inf):
        with pytest.raises(ValueError):
            generate_corrupted_data(5, 5, side=side)


def test_labeled_dataset_validation():
    pts = np.zeros((4, 2))
    ds = LabeledDataset(pts, labels=[1, 2, DISCARDED, 1], truth=[1, 1, SPURIOUS, 2])
    assert ds.labels.dtype.kind == "i"
    assert ds.truth.dtype.kind == "i"
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros(4))
    with pytest.raises(ValueError):
        LabeledDataset(pts, labels=[1, 2])
    with pytest.raises(ValueError):
        LabeledDataset(pts, truth=np.zeros(3, dtype=int))


def test_em_config_validation():
    with pytest.raises(ValueError):
        EMConfig(n_clusters=0)
    with pytest.raises(ValueError):
        EMConfig(n_clusters=2, max_iters=0)
    with pytest.raises(ValueError):
        EMConfig(n_clusters=2, tol=-1.0)
    for tol in (np.nan, np.inf):
        with pytest.raises(ValueError):
            EMConfig(n_clusters=2, tol=tol)
    for count in (2.5, True, 2.0):
        with pytest.raises(ValueError):
            EMConfig(n_clusters=count)
        with pytest.raises(ValueError):
            EMConfig(n_clusters=2, max_iters=count)
    assert EMConfig(n_clusters=np.int64(2), max_iters=np.int32(5)).n_clusters == 2


def test_em_single_component_recovers_sample_moments():
    """With one cluster EM has a closed-form fixed point."""
    rng = np.random.default_rng(80)
    pts = rng.multivariate_normal([1.0, -2.0], [[2.0, 0.3], [0.3, 0.5]], size=400)
    mixture, resp = em_fit(pts, EMConfig(n_clusters=1, seed=0))
    assert mixture.size == 1
    comp = mixture.components[0]
    assert comp.weight == 1.0
    assert np.allclose(comp.mean, pts.mean(axis=0), atol=1e-9)
    centered = pts - pts.mean(axis=0)
    assert np.allclose(comp.cov, centered.T @ centered / len(pts), atol=1e-9)
    assert np.allclose(resp, 1.0)


def test_em_separates_distant_clusters():
    rng = np.random.default_rng(81)
    a = rng.normal([0.0, 0.0], 1.0, size=(120, 2))
    b = rng.normal([100.0, 100.0], 1.0, size=(80, 2))
    pts = np.vstack([a, b])
    truth = np.concatenate([np.zeros(120, dtype=int), np.ones(80, dtype=int)])
    mixture, resp = em_fit(pts, EMConfig(n_clusters=2, seed=1))
    hard = np.argmax(resp, axis=1)
    acc = max(np.mean(hard == truth), np.mean(hard == 1 - truth))
    assert acc >= 0.99
    weights = sorted(mixture.weights)
    assert abs(weights[0] - 0.4) < 0.02
    assert abs(weights[1] - 0.6) < 0.02


def test_em_responsibilities_are_a_soft_partition():
    ds = generate_corrupted_data(300, 30, seed=21)
    fit = em_fit_details(ds.points, EMConfig(n_clusters=8, seed=2))
    assert fit.responsibilities.shape == (330, 8)
    assert np.all(fit.responsibilities >= 0.0)
    assert np.max(np.abs(fit.responsibilities.sum(axis=1) - 1.0)) <= 1e-12


def test_em_log_likelihood_is_monotone_outside_perturbations():
    ds = generate_corrupted_data(300, 30, seed=22)
    fit = em_fit_details(ds.points, EMConfig(n_clusters=8, seed=3))
    lls = fit.log_likelihoods
    assert len(lls) >= 2
    perturbed = set(fit.perturbed_iterations)
    for i in range(len(lls) - 1):
        if i in perturbed or (i + 1) in perturbed:
            continue
        assert lls[i + 1] - lls[i] >= -1e-8
    assert fit.converged


def test_em_matches_generator_likelihood():
    """An over-fit mixture scores the data nearly as well as the truth."""
    ds = generate_corrupted_data(1000, 0, seed=23)
    fit = em_fit_details(ds.points, EMConfig(n_clusters=6, seed=4))
    fitted_ll = float(np.mean(mixture_log_pdf(fit.mixture, ds.points)))
    true_ll = float(np.mean(mixture_log_pdf(six_cluster_mixture(), ds.points)))
    assert abs(fitted_ll - true_ll) <= 0.15


def test_em_error_conditions():
    with pytest.raises(EMError):
        em_fit(np.zeros((3, 2)), EMConfig(n_clusters=5))
    with pytest.raises(EMError):
        em_fit(np.empty((0, 2)), EMConfig(n_clusters=1))
    with pytest.raises(EMError):
        em_fit(np.zeros(7), EMConfig(n_clusters=1))


def test_em_identical_points_rescued_by_jitter(monkeypatch):
    """A zero sample covariance is bumped rather than aborting the fit.

    The variance scale falls back to 1 for constant data, so the bump
    is the jitter constant itself.
    """
    pts = np.ones((20, 2))
    fit = em_fit_details(pts, EMConfig(n_clusters=2, seed=0))
    assert fit.converged
    assert fit.jitter_events > 0
    for comp in fit.mixture.components:
        assert np.allclose(comp.cov, 1e-6 * np.eye(2))
        assert np.allclose(comp.mean, [1.0, 1.0])
    # With the bump disabled the degenerate covariance is fatal.
    monkeypatch.setattr(cluster, "_JITTER", 0.0)
    with pytest.raises(EMError):
        em_fit(pts, EMConfig(n_clusters=2, seed=0))


def test_factorizable_jitter_retries():
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    covs, chols, _, bumps = _factorize(np.stack([np.eye(2), singular]), 0.5, 3)
    assert bumps.tolist() == [0, 1]
    assert np.array_equal(covs[0], np.eye(2))
    assert np.allclose(covs[1], singular + 0.5 * np.eye(2))
    assert np.allclose(chols[1] @ chols[1].T, covs[1])
    with pytest.raises(EMError):
        _factorize(singular[None], 0.0, 0)
    with pytest.raises(EMError):
        _factorize(singular[None], 0.0, 3)


def test_factorize_fast_path_is_one_stacked_cholesky():
    rng = np.random.default_rng(95)
    a = rng.normal(size=(6, 3, 3))
    covs = a @ a.transpose(0, 2, 1) + 1e-3 * np.eye(3)
    given = covs.copy()
    got, chols, log_dets, bumps = _factorize(covs, 0.5, 3)
    want_chols, want_log_dets, _ = _cholesky(given)
    assert not bumps.any()
    assert np.array_equal(covs, given) and np.array_equal(got, given)
    assert np.array_equal(chols.view(np.uint64), want_chols.view(np.uint64))
    assert np.array_equal(log_dets.view(np.uint64), want_log_dets.view(np.uint64))
    # A failing row takes the bump loop: test_factorizable_jitter_retries.


def _loop_component(weight, mean, cov, eps):
    """A validated component of ``cov``, bumped by multiples of ``eps`` until it factorizes, and the bumps."""
    for attempt in range(cluster._MAX_JITTER_RETRIES + 1):
        try:
            return GaussianComponent(weight, mean, cov + attempt * eps * np.eye(len(mean))), attempt
        except np.linalg.LinAlgError:
            continue
    raise EMError("covariance failed to factorize")


def _loop_em_step(points, var_scale, weights, means, covs, rng):
    """One iteration of the per-component EM loop that the stacked iteration replaced, kept as an oracle.

    The same jitter and re-seed rules as :func:`cluster._em_step`, written
    one component at a time with validated components and their own log
    densities.  Returns (log-likelihood, bumps, the covariances evaluated,
    the next (weights, means, covs), components re-seeded).
    """
    n, dim = points.shape
    eps = cluster._JITTER * var_scale
    means, covs = means.copy(), covs.copy()
    comps, bumps = [], 0
    for c in range(len(weights)):
        comp, attempts = _loop_component(weights[c], means[c], covs[c], eps)
        comps.append(comp)
        if attempts:
            bumps += attempts
            covs[c] = comp.cov
    evaluated = covs.copy()
    log_terms = np.stack([np.log(weights[c]) + component_log_pdf(comp, points) for c, comp in enumerate(comps)], 1)
    log_norm = logsumexp(log_terms, axis=1)
    resp = np.exp(log_terms - log_norm[:, None])
    counts = resp.sum(axis=0)
    dead = 0
    for c in range(len(weights)):
        if counts[c] < n * 1e-12:
            means[c] = points[rng.integers(n)]
            covs[c] = var_scale * np.eye(dim)
            counts[c] = 1.0
            dead += 1
        else:
            mu = resp[:, c] @ points / counts[c]
            centered = points - mu
            cov = (resp[:, c, None] * centered).T @ centered / counts[c]
            means[c] = mu
            covs[c] = 0.5 * (cov + cov.T)
    return float(np.sum(log_norm)), bumps, evaluated, (counts / counts.sum(), means, covs), dead


def _loop_em_fit(points, cfg):
    """The per-component EM loop: :func:`_loop_em_step` under em_fit_details' seeding and stopping rules."""
    n, dim = points.shape
    k = cfg.n_clusters
    rng = np.random.default_rng(cfg.seed)
    var_scale = float(np.mean(np.var(points, axis=0)))
    if var_scale <= 0.0:
        var_scale = 1.0
    means = _seed_means(points, k, rng)
    covs = np.tile(var_scale * np.eye(dim), (k, 1, 1))
    weights = np.full(k, 1.0 / k)
    lls, perturbed = [], []
    jitter_events = reinit_events = 0
    for it in range(cfg.max_iters):
        ll, bumps, evaluated, update, dead = _loop_em_step(points, var_scale, weights, means, covs, rng)
        jitter_events += bumps
        if bumps:
            perturbed.append(it)
        lls.append(ll)
        if len(lls) > 1 and abs(lls[-1] - lls[-2]) <= cfg.tol:
            covs = evaluated
            break
        weights, means, covs = update
        reinit_events += dead
        if dead and (not perturbed or perturbed[-1] != it):
            perturbed.append(it)
    final = []
    for c in range(k):
        comp, attempts = _loop_component(weights[c], means[c], covs[c], cluster._JITTER * var_scale)
        jitter_events += attempts
        final.append(comp)
    mixture = GaussianMixture(tuple(final)).renormalized()
    log_terms = np.stack([np.log(c.weight) + component_log_pdf(c, points) for c in mixture.components], 1)
    resp = np.exp(log_terms - logsumexp(log_terms, axis=1)[:, None])
    return mixture, resp, lls, jitter_events, reinit_events, perturbed


def _assert_matches_loop(points, cfg, scale=1.0):
    """The fit of ``points`` equals the per-component loop's, in the units of ``points / scale``."""
    fit = em_fit_details(points, cfg)
    mixture, resp, lls, jitter_events, reinit_events, perturbed = _loop_em_fit(points, cfg)
    offset = points.size * np.log(scale)  # each log density of points * s is that of points less d log s
    assert np.allclose(np.add(fit.log_likelihoods, offset), np.add(lls, offset), rtol=1e-9, atol=0.0)
    for got, want in zip(fit.mixture.components, mixture.components):
        assert abs(got.weight - want.weight) <= 1e-9
        assert np.allclose(got.mean / scale, want.mean / scale, rtol=0.0, atol=1e-9)
        assert np.allclose(got.cov / scale**2, want.cov / scale**2, rtol=0.0, atol=1e-9)
    assert np.allclose(fit.responsibilities, resp, rtol=0.0, atol=1e-9)
    assert (fit.jitter_events, fit.reinit_events) == (jitter_events, reinit_events)
    assert fit.perturbed_iterations == tuple(perturbed)
    # The fit's own factorization and workspace give the same bits as
    # validating its parameters afresh and re-evaluating the densities.
    comps = fit.mixture.components
    fresh = GaussianMixture.from_arrays(fit.mixture.weights, [c.mean for c in comps], [c.cov for c in comps])
    for got, want in zip(comps, fresh.components):
        assert np.array_equal(got.chol, want.chol) and got.log_det == want.log_det
    log_terms = _component_log_pdf(fresh._arr, points)
    assert np.array_equal(fit.responsibilities, np.exp(log_terms - _log_sum_exp(log_terms)[0]).T)
    return fit


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_stacked_em_matches_component_loop(dim):
    rng = np.random.default_rng(90 + dim)
    centers = rng.uniform(-6.0, 6.0, size=(4, dim))
    pts = np.vstack(
        [c + rng.normal(size=(80, dim)) * rng.uniform(0.3, 1.5, dim) for c in centers]
        + [rng.uniform(-10.0, 10.0, size=(20, dim))]
    )
    fit = _assert_matches_loop(pts, EMConfig(n_clusters=6, max_iters=20, seed=dim))
    assert len(fit.log_likelihoods) == 20


def _is_thin(data, cov):
    """em_fit_details' thin-row rule, tau tr S^-1 > 1, evaluated apart from the iteration."""
    return data.tau * np.trace(np.linalg.inv(cov)) > 1.0


def test_stacked_em_matches_component_loop_on_jitter_and_reseed():
    # Constant data: every covariance is zero and is bumped on every iteration.
    fit = _assert_matches_loop(np.ones((20, 2)), EMConfig(n_clusters=2, max_iters=20, seed=0))
    assert fit.jitter_events > 0 and fit.perturbed_iterations
    # One iteration from parameters that force each branch: a covariance
    # that does not factorize (bumped), a remote component that gets no
    # responsibility (re-seeded), and a thin component on a tight group of
    # points (the centred kernels), beside two ordinary ones.  Whole fits
    # that collapse are decided by their last bits (a stacked product and a
    # per-row one round differently), so they are compared one step at a time.
    rng = np.random.default_rng(96)
    for dim in (1, 2, 3):
        pts = np.vstack(
            [rng.normal(size=(60, dim)), 6.0 + rng.normal(size=(60, dim)), 3.0 + 1e-6 * rng.normal(size=(5, dim))]
        )
        data = cluster._em_data(pts, 5)
        weights = np.array([0.3, 0.3, 0.2, 0.1, 0.1])
        means = np.stack([np.zeros(dim), np.full(dim, 6.0), np.full(dim, 1e4), np.full(dim, 3.0), np.full(dim, 2.0)])
        covs = np.stack([np.eye(dim), np.eye(dim), np.eye(dim), 1e-12 * np.eye(dim), np.ones((dim, dim))])
        assert _is_thin(data, covs[3]) and not any(_is_thin(data, covs[c]) for c in (0, 1, 2))
        step = cluster._em_step(data, weights, means, covs, np.random.default_rng(7))
        ll, bumps, evaluated, (w, m, c), dead = _loop_em_step(
            pts, data.var_scale, weights, means, covs, np.random.default_rng(7)
        )
        assert (step.bumps, step.dead) == (bumps, dead)
        assert bumps == int(dim > 1) and dead >= 1
        assert np.array_equal(step.covs, evaluated)
        assert np.isclose(step.log_likelihood, ll, rtol=1e-9, atol=0.0)
        got_w, got_m, got_c = step.update
        assert np.allclose(got_w, w, rtol=0.0, atol=1e-9)
        assert np.allclose(got_m, m, rtol=0.0, atol=1e-9)
        assert np.allclose(got_c, c, rtol=0.0, atol=1e-9)
        # The thin component's new covariance, about 1e-12, holds to the oracle's relative precision.
        assert np.allclose(got_c[3], c[3], rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("separation", [1e2, 1e4, 1e6])
def test_stacked_em_matches_component_loop_on_remote_clusters(separation):
    """Two width-1 clusters far apart: the moment form would lose the covariances; thin rows keep them."""
    rng = np.random.default_rng(97)
    pts = np.vstack([rng.normal(size=(100, 2)), [separation, 0.0] + rng.normal(size=(100, 2))])
    fit = _assert_matches_loop(pts, EMConfig(n_clusters=2, max_iters=30, seed=1))
    for comp in fit.mixture.components:
        assert np.allclose(comp.cov, np.eye(2), atol=0.3)


@pytest.mark.parametrize("shift, scale, k", [(1e3, 1.0, 2), (1e6, 1.0, 2), (0.0, 1e-150, 6), (0.0, 1e150, 6)])
def test_stacked_em_matches_component_loop_on_shifted_and_scaled_data(shift, scale, k):
    """Features centred on the data's mean keep the moment form's precision far from the origin and at any scale.

    At a shift of 1e6 the oracle's 1e-9 on the means is about 8 ulps of the
    data: a well-determined fit (k = 2) holds it, an over-fit one does not
    reliably, with stacked or per-row sums alike.
    """
    pts = generate_corrupted_data(200, 20, seed=26).points
    _assert_matches_loop((pts + shift) * scale, EMConfig(n_clusters=k, max_iters=20, seed=5), scale)
    # The thin threshold does not grow with the shift, so these fits run the moment form.
    assert np.isclose(cluster._em_data(pts + shift, k).tau, cluster._em_data(pts, k).tau, rtol=1e-6)


def test_em_flushes_in_loop_responsibilities_below_e_minus_700(monkeypatch):
    # Three copies of one remote point: a component collapses onto them
    # and is bumped on most iterations, while far points get
    # responsibilities between e^-745 and e^-700, which the flush zeroes.
    pts = np.vstack([generate_corrupted_data(100, 10, seed=25).points, [[30.0, 30.0]] * 3])
    cfg = EMConfig(n_clusters=6, max_iters=40, seed=0)
    seen = []

    def spy(x, out=None):
        # EM hands its reused workspace buffers in, flushed in place: keep copies.
        arg = x.copy()
        out = flush(x, out)
        seen.append((arg, out.copy()))
        return out

    flush = gauss._exp_ftz
    monkeypatch.setattr(gauss, "_exp_ftz", spy)
    fit = em_fit_details(pts, cfg)
    assert fit.jitter_events > 0
    # One call per iteration, and one for the returned responsibilities' normalizer.
    assert len(seen) == len(fit.log_likelihoods) + 1
    args = np.concatenate([x.ravel() for x, _ in seen])
    resp = np.concatenate([out.ravel() for _, out in seen])
    assert np.any((args > -745.0) & (args < -700.0))
    assert np.all((resp == 0.0) | (resp >= np.exp(-700.0)))

    # On this fixture the flush moves no bit of the fit.
    monkeypatch.setattr(gauss, "_exp_ftz", np.exp)
    plain = em_fit_details(pts, cfg)
    assert plain.log_likelihoods == fit.log_likelihoods
    assert plain.jitter_events == fit.jitter_events
    assert np.array_equal(plain.responsibilities, fit.responsibilities)
    for a, b in zip(plain.mixture.components, fit.mixture.components):
        assert a.weight == b.weight
        assert np.array_equal(a.mean, b.mean) and np.array_equal(a.cov, b.cov)


def test_em_rejects_non_finite_points():
    for bad in (np.nan, np.inf, -np.inf):
        pts = np.zeros((10, 2))
        pts[3, 1] = bad
        with pytest.raises(EMError):
            em_fit_details(pts, EMConfig(n_clusters=2, seed=0))


@pytest.mark.parametrize("scale", [1e155, 1e300])
def test_em_refuses_points_whose_squared_spread_overflows(scale):
    pts = generate_corrupted_data(100, 10, seed=27).points * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(EMError, match="squared spread of the points overflows"):
            em_fit_details(pts, EMConfig(n_clusters=3, seed=0))


def test_em_is_bit_deterministic():
    ds = generate_corrupted_data(300, 30, seed=25)
    cfg = EMConfig(n_clusters=8, max_iters=50, seed=6)
    a = em_fit_details(ds.points, cfg)
    b = em_fit_details(ds.points, cfg)
    assert a.log_likelihoods == b.log_likelihoods
    assert np.array_equal(a.responsibilities, b.responsibilities)
    for ca, cb in zip(a.mixture.components, b.mixture.components):
        assert ca.weight == cb.weight
        assert np.array_equal(ca.mean, cb.mean) and np.array_equal(ca.cov, cb.cov)


def _three_component_fixture():
    m = GaussianMixture(
        (
            GaussianComponent(0.8, [0.0], [[1.0]]),
            GaussianComponent(0.08, [15.0], [[1.0]]),
            GaussianComponent(0.12, [-15.0], [[1.0]]),
        )
    )
    pts = np.array([[0.0], [15.0], [-15.0], [0.5]])
    resp = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.9, 0.05, 0.05],
        ]
    )
    return m, pts, resp


def test_reassign_noop_when_target_equals_size():
    m, pts, resp = _three_component_fixture()
    reduced, assigned, trace = reduce_and_reassign(m, resp, pts, 3, CostKind.ARKL_FULL)
    assert reduced is m
    assert trace.steps == ()
    assert isinstance(assigned, LabeledDataset)
    assert np.array_equal(assigned.labels, [1, 2, 3, 1])


def test_prune_discards_points():
    """Reverse-divergence reduction drops a light component and its points."""
    m, pts, resp = _three_component_fixture()
    reduced, assigned, trace = reduce_and_reassign(m, resp, pts, 2, CostKind.ARKL_FULL)
    assert trace.steps[0].chosen == Prune(2)
    assert np.array_equal(assigned.labels, [1, DISCARDED, 2, 1])
    assert reduced.size == 2
    assert np.array_equal(reduced.components[0].mean, [0.0])
    assert np.array_equal(reduced.components[1].mean, [-15.0])
    assert abs(reduced.weights[0] - 0.8 / 0.92) < 1e-12


def test_merge_only_method_never_discards():
    m, pts, resp = _three_component_fixture()
    reduced, assigned, trace = reduce_and_reassign(m, resp, pts, 2, CostKind.RUNNALLS_B)
    assert all(isinstance(s.chosen, Merge) for s in trace.steps)
    assert np.all(assigned.labels >= 1)
    assert trace.steps[0].chosen == Merge(2, 3)
    assert np.array_equal(assigned.labels, [1, 2, 2, 1])


def test_merge_reassigns_to_nearest_component():
    m = GaussianMixture(
        (
            GaussianComponent(0.45, [0.0], [[1.0]]),
            GaussianComponent(0.45, [0.5], [[1.0]]),
            GaussianComponent(0.1, [10.0], [[1.0]]),
        )
    )
    pts = np.array([[0.0], [0.5], [10.0], [0.25]])
    resp = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.5, 0.5, 0.0],
        ]
    )
    reduced, assigned, trace = reduce_and_reassign(m, resp, pts, 2, CostKind.ARKL_FULL)
    assert trace.steps[0].chosen == Merge(1, 2)
    assert np.array_equal(assigned.labels, [1, 1, 2, 1])
    assert abs(reduced.components[0].mean[0] - 0.25) < 1e-12


def test_merge_reassigns_by_weighted_density():
    """A broad light component that is Mahalanobis-nearer does not take merged points."""
    m = GaussianMixture(
        (
            GaussianComponent(0.45, [0.0], [[1.0]]),
            GaussianComponent(0.45, [0.5], [[1.0]]),
            GaussianComponent(0.1, [3.0], [[100.0]]),
        )
    )
    pts = np.array([[0.0], [0.5], [2.0], [3.0]])
    resp = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    reduced, assigned, trace = reduce_and_reassign(m, resp, pts, 2, CostKind.ARKL_FULL)
    assert trace.steps[0].chosen == Merge(1, 2)
    assert np.array_equal(assigned.labels, [1, 1, 1, 2])


def test_labels_stay_in_range_through_deep_reduction():
    ds = generate_corrupted_data(400, 40, seed=24)
    mixture, resp = em_fit(ds.points, EMConfig(n_clusters=10, seed=5))
    for kind in (CostKind.ARKL_FULL, CostKind.WILLIAMS_ISE, CostKind.RUNNALLS_B):
        reduced, assigned, _ = reduce_and_reassign(mixture, resp, ds.points, 4, kind)
        assert reduced.size == 4
        labels = assigned.labels
        assert np.all((labels == DISCARDED) | ((labels >= 1) & (labels <= 4)))
        if kind is CostKind.RUNNALLS_B:
            assert np.all(labels >= 1)


def test_reassign_validates_responsibility_shape():
    m, pts, resp = _three_component_fixture()
    with pytest.raises(ValueError):
        reduce_and_reassign(m, resp[:, :2], pts, 2, CostKind.ARKL_FULL)
    with pytest.raises(ValueError):
        reduce_and_reassign(m, resp[:3], pts, 2, CostKind.ARKL_FULL)
    # Points of another dimension are refused even when no merge moves a point.
    with pytest.raises(ValueError, match=re.escape("shape (4, 2)")):
        reduce_and_reassign(m, resp, np.hstack([pts, pts]), 2, CostKind.ARKL_FULL)


def test_component_log_pdf_used_by_em_matches_mixture():
    """Weighted component log densities assemble into the mixture density."""
    m = six_cluster_mixture()
    rng = np.random.default_rng(82)
    pts = rng.uniform(-8.0, 8.0, size=(20, 2))
    per = np.stack(
        [np.log(c.weight) + component_log_pdf(c, pts) for c in m.components]
    )
    assert np.allclose(logsumexp(per, axis=0), mixture_log_pdf(m, pts), atol=1e-12)


def _apply_replay_labels(mixture, resp, points, trace):
    """The label replay through the public apply, one mixture per step, kept as an oracle."""
    labels = np.argmax(resp, axis=1) + 1
    cur = mixture
    for step in trace.steps:
        h = step.chosen
        cur = apply_step(cur, h)
        if isinstance(h, Prune):
            labels = np.where(labels == h.j, DISCARDED, labels)
            labels = np.where(labels > h.j, labels - 1, labels)
        else:
            moved = (labels == h.i) | (labels == h.j)
            labels = np.where(labels > h.j, labels - 1, labels)
            labels[moved] = np.argmax(_component_log_pdf(cur._arr, points[moved]), axis=0) + 1
    return labels


def test_reassign_matches_apply_replay_at_benchmark_size():
    ds = generate_corrupted_data(1000, 100, seed=26)
    mixture, resp = em_fit(ds.points, EMConfig(n_clusters=15, max_iters=150, seed=8))
    kinds_seen = set()
    for kind in (CostKind.ARKL_FULL, CostKind.RUNNALLS_B):
        _, assigned, trace = reduce_and_reassign(mixture, resp, ds.points, 6, kind)
        kinds_seen |= {type(s.chosen) for s in trace.steps}
        assert np.array_equal(assigned.labels, _apply_replay_labels(mixture, resp, ds.points, trace))
    assert kinds_seen == {Prune, Merge}
