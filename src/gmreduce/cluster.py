"""Robust clustering by over-fitting EM and reducing the fitted mixture.

The workflow: fit a deliberately over-sized mixture to contaminated
data with EM, then shrink it with a reduction method.  A method whose
prune costs reflect the reverse divergence will discard the diffuse
low-weight components that EM spends on background clutter, and the
points assigned to them; a merge-only method must keep every point.

EM runs on sufficient statistics: each iteration is one stacked
factorization and two matrix products with the points' quadratic
features, built once per fit from the points centred on their mean, and
one exp pass (see :func:`em_fit_details`).  Thin components, where that
moment form would lose precision, keep the centred kernel
(:func:`gauss._centered_log_pdfs`), which also gives the final
responsibilities and reassigns merged pairs' points.  In the iteration an
exp below e^-700 is exactly zero, off exp's slow path
(:func:`gauss._exp_ftz`).

Labels are 1-based component indices; :data:`DISCARDED` (-1) marks
points dropped by a prune step.  Ground-truth arrays use the same
1-based indices with :data:`SPURIOUS` (0) for clutter points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mixture as mix
from .costs import CostKind
from .gauss import _LOG_2PI, ComponentArrays, _centered_log_pdfs, _cholesky, _log_sum_exp, _points, _solve_lower
from .mixture import GaussianMixture, Prune, _apply, _component_log_pdf
from .reduction import ReductionTrace, reduce

__all__ = [
    "DISCARDED",
    "SPURIOUS",
    "LabeledDataset",
    "EMConfig",
    "EMFit",
    "EMError",
    "six_cluster_mixture",
    "generate_corrupted_data",
    "em_fit",
    "em_fit_details",
    "reduce_and_reassign",
]

DISCARDED = -1
SPURIOUS = 0

# A covariance that fails to factorize is bumped by multiples of _JITTER times
# the mean per-coordinate data variance, at most _MAX_JITTER_RETRIES times.
_JITTER = 1e-6
_MAX_JITTER_RETRIES = 3


class EMError(RuntimeError):
    """EM could not produce a usable mixture (degenerate fit or bad input)."""


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Points with optional cluster labels and optional ground truth.

    ``labels[i]`` is the 1-based index of the mixture component point i
    is assigned to, or :data:`DISCARDED`; ``None`` means not yet
    assigned.  ``truth[i]`` is the 1-based generating component, or
    :data:`SPURIOUS` for clutter.
    """

    points: np.ndarray
    labels: np.ndarray | None = None
    truth: np.ndarray | None = None

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        if points.ndim != 2:
            raise ValueError(f"points must be a 2-D array, got shape {points.shape}")
        object.__setattr__(self, "points", points)
        for name in ("labels", "truth"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=int)
            if arr.shape != (points.shape[0],):
                raise ValueError(f"{name} must have one entry per point")
            object.__setattr__(self, name, arr)


def six_cluster_mixture() -> GaussianMixture:
    """The fixed six-component 2-D mixture behind the clustering benchmark."""
    weights = [0.2, 0.2, 0.2, 0.2, 0.1, 0.1]
    means = [[-5.0, 5.0], [4.0, 5.0], [4.0, -4.0], [-4.0, -4.0], [-7.0, 0.0], [7.0, 0.0]]
    covs = [
        [[1.0, 0.5], [0.5, 0.5]],
        [[1.0, 0.2], [0.2, 0.5]],
        [[2.0, 0.0], [0.0, 1.0]],
        [[2.0, -2.0], [-2.0, 3.0]],
        [[0.1, 0.0], [0.0, 3.0]],
        [[0.1, 0.0], [0.0, 3.0]],
    ]
    return GaussianMixture.from_arrays(weights, means, covs)


def generate_corrupted_data(n: int, m: int, side: float = 20.0, seed=None) -> LabeledDataset:
    """Draws from the benchmark mixture plus uniform clutter.

    ``n`` points come from :func:`six_cluster_mixture` (truth = 1-based
    component of origin) followed by ``m`` points uniform on the
    origin-centered square of the given side (truth = SPURIOUS).
    Deterministic given ``seed``; labels are left unassigned.
    """
    if not (mix._is_integer(n) and mix._is_integer(m) and n >= 0 and m >= 0):
        raise ValueError(f"n and m must be nonnegative integers, got {n!r} and {m!r}")
    if not 0.0 < side < np.inf:
        raise ValueError(f"side must be positive and finite, got {side}")
    rng = np.random.default_rng(seed)
    pts, comp = mix.sample(six_cluster_mixture(), n, rng, return_components=True)
    clutter = rng.uniform(-side / 2.0, side / 2.0, size=(m, 2))
    points = np.vstack([pts, clutter])
    truth = np.concatenate([comp, np.full(m, SPURIOUS, dtype=int)])
    return LabeledDataset(points, labels=None, truth=truth)


@dataclass(frozen=True)
class EMConfig:
    """Settings for :func:`em_fit`.

    ``tol`` is the total log-likelihood improvement below which the
    iteration stops.
    """

    n_clusters: int
    max_iters: int = 500
    tol: float = 1e-6
    seed: int | None = None

    def __post_init__(self):
        for name in ("n_clusters", "max_iters"):
            value = getattr(self, name)
            if not mix._is_integer(value) or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
        if not 0.0 <= self.tol < np.inf:
            raise ValueError(f"tol must be finite and nonnegative, got {self.tol}")


@dataclass(frozen=True, eq=False)
class EMFit:
    """Fit result plus diagnostics for convergence analysis."""

    mixture: GaussianMixture
    responsibilities: np.ndarray
    log_likelihoods: tuple[float, ...]
    converged: bool
    jitter_events: int
    reinit_events: int
    # Iterations whose parameter update was perturbed (jitter or
    # reinitialization); the usual monotonicity guarantee does not
    # cover the following log-likelihood evaluation.
    perturbed_iterations: tuple[int, ...]


def _seed_means(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Spread-out initial means: each next seed drawn with probability
    proportional to its squared distance from the nearest chosen seed."""
    n = points.shape[0]
    means = np.empty((k, points.shape[1]))
    means[0] = points[rng.integers(n)]
    d2 = np.sum((points - means[0]) ** 2, axis=1)
    for i in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            probs = d2 / total
            idx = rng.choice(n, p=probs)
        else:
            idx = rng.integers(n)
        means[i] = points[idx]
        d2 = np.minimum(d2, np.sum((points - means[i]) ** 2, axis=1))
    return means


def _factorize(covs: np.ndarray, eps: float, retries: int):
    """Cholesky factors of a (k, d, d) covariance stack, bumping the rows that fail.

    One stacked :func:`_cholesky`; only a row that fails is re-tried, with
    cov + attempt * eps * I, attempt = 1 .. ``retries``.  Returns (the
    covariances with the bumps applied, factors, log determinants, bumps
    per row); raises EMError when a row still fails after the last retry.
    """
    chols, log_dets, ok = _cholesky(covs)
    bumps = np.zeros(len(covs), dtype=int)
    bad = np.flatnonzero(~ok)
    if bad.size == 0:
        return covs, chols, log_dets, bumps
    bumped = covs.copy()
    for attempt in range(1, retries + 1):
        bumped[bad] = covs[bad] + attempt * eps * np.eye(covs.shape[-1])
        chols[bad], log_dets[bad], ok = _cholesky(bumped[bad])
        bumps[bad] = attempt
        bad = bad[~ok]
        if bad.size == 0:
            return bumped, chols, log_dets, bumps
    raise EMError(f"covariance failed to factorize after {retries} jitter retries")


@dataclass(frozen=True, eq=False)
class _EMData:
    """What every EM iteration reads of the (n, d) points, built once per fit by :func:`_em_data`.

    ``features`` is the (m, n) array F = [1, y_i, y_i y_j (i <= j)] of the
    centred points y = x - ``shift``, m = 1 + d + d(d + 1)/2; ``pairs`` are
    the (i, j) of its quadratic rows, as from ``np.triu_indices(d)``, and
    ``quad_scale`` their factor in -1/2 y'Py: -1/2 for i = j, -1 for i < j.
    ``identity`` is the (k, d, d) right-hand side that gives each L^-1.
    """

    points: np.ndarray
    points_t: np.ndarray  # (d, n), C-contiguous: the centred kernels' products stay on one BLAS path
    shift: np.ndarray
    features: np.ndarray
    pairs: tuple[np.ndarray, np.ndarray]
    quad_scale: np.ndarray
    identity: np.ndarray
    # A component is thin, and keeps the centred kernels, when tau |L^-1|_F^2 > 1: where
    # the moment form could lose more than 2^-30 of its smallest variance (see em_fit_details).
    tau: float
    var_scale: float


def _em_data(points, k: int) -> _EMData:
    """Checks the points for a fit of ``k`` components and builds their features.

    Raises EMError unless the points are a finite, non-empty (n, d) array
    with n >= k whose variance scale and largest squared distance from
    their mean, R^2, are finite.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise EMError(f"points must be a non-empty 2-D array, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise EMError("points must be finite")
    n, dim = points.shape
    if n < k:
        raise EMError(f"cannot fit {k} clusters to {n} points")
    points_t = np.ascontiguousarray(points.T)
    with np.errstate(over="ignore", invalid="ignore"):
        var_scale = float(np.mean(np.var(points, axis=0)))
        shift = points.mean(axis=0)
        centered = points_t - shift[:, None]
        radius_sq = float(np.max(np.sum(np.square(centered), axis=0)))
    if not (np.isfinite(var_scale) and np.isfinite(radius_sq)):
        raise EMError("the squared spread of the points overflows")
    if var_scale <= 0.0:
        var_scale = 1.0
    pairs = np.triu_indices(dim)
    features = np.concatenate([np.ones((1, n)), centered, centered[pairs[0]] * centered[pairs[1]]])
    tau = 2.0**30 * np.finfo(float).eps * radius_sq
    identity = np.broadcast_to(np.eye(dim), (k, dim, dim))
    quad_scale = np.where(pairs[0] == pairs[1], -0.5, -1.0)
    return _EMData(points, points_t, shift, features, pairs, quad_scale, identity, tau, var_scale)


@dataclass(frozen=True, eq=False)
class _EMStep:
    """One EM iteration (:func:`_em_step`): the evaluated parameters and their update."""

    covs: np.ndarray  # the covariances that were evaluated, bumps applied
    bumps: int
    log_likelihood: float
    update: tuple[np.ndarray, np.ndarray, np.ndarray]  # the next (weights, means, covs)
    dead: int  # components re-seeded by the update


def _em_step(data: _EMData, weights: np.ndarray, means: np.ndarray, covs: np.ndarray, rng) -> _EMStep:
    """One iteration of :func:`em_fit_details`: factorize, expect, maximize."""
    n, dim = data.points.shape
    k = len(weights)
    covs, chols, log_dets, bumps = _factorize(covs, _JITTER * data.var_scale, _MAX_JITTER_RETRIES)
    lo, hi = data.pairs
    with np.errstate(over="ignore", invalid="ignore"):
        inv = _solve_lower(chols, data.identity)
        thin = ~(data.tau * np.sum(np.square(inv), axis=(1, 2)) <= 1.0)
        # -1/2 |L^-1 (y - mu)|^2 = -1/2 y'Py + y'P mu - 1/2 |z|^2, with P = L^-T L^-1 and z = L^-1 mu.
        z = np.matmul(inv, (means - data.shift)[:, :, None])
        prec = np.matmul(inv.transpose(0, 2, 1), np.concatenate([inv, z], axis=2))  # [P | P mu]
        coef = np.empty((k, len(data.features)))
        coef[:, 0] = np.log(weights) - 0.5 * (dim * _LOG_2PI + log_dets + np.sum(np.square(z), axis=(1, 2)))
        coef[:, 1 : 1 + dim] = prec[:, :, dim]
        coef[:, 1 + dim :] = data.quad_scale * prec[:, lo, hi]
    coef[thin] = 0.0
    log_terms = coef @ data.features
    if thin.any():
        arr = ComponentArrays(weights, means, covs, chols, log_dets).take(thin)
        log_terms[thin] = _centered_log_pdfs(arr, data.points_t - means[thin, :, None])
    log_norm, resp = _log_sum_exp(log_terms, log_terms)
    total_ll = float(np.sum(log_norm))

    counts = resp.sum(axis=1)
    dead = np.flatnonzero(counts < n * 1e-12)
    counts[dead] = 1.0
    new_means = resp @ data.points / counts[:, None]
    for c in dead:
        new_means[c] = data.points[rng.integers(n)]
    moments = resp @ data.features[1:].T / counts[:, None]
    first = moments[:, :dim]
    new_covs = np.empty((k, dim, dim))
    new_covs[:, lo, hi] = new_covs[:, hi, lo] = moments[:, dim:] - first[:, lo] * first[:, hi]
    if thin.any():
        centered = data.points_t - new_means[thin, :, None]
        thin_covs = (centered * resp[thin, None]) @ centered.transpose(0, 2, 1) / counts[thin, None, None]
        new_covs[thin] = 0.5 * (thin_covs + thin_covs.transpose(0, 2, 1))
    new_covs[dead] = data.var_scale * np.eye(dim)
    return _EMStep(covs, int(bumps.sum()), total_ll, (counts / counts.sum(), new_means, new_covs), dead.size)


def em_fit_details(points: np.ndarray, cfg: EMConfig) -> EMFit:
    """Full EM fit with diagnostics; :func:`em_fit` is the plain wrapper.

    Expectation and maximization follow the standard Gaussian mixture
    updates; initialization uses spread-out seeded means with identity
    covariances scaled to the data variance.  Each iteration
    (:func:`_em_step`) works on all k components at once: one stacked
    factorization (bumping only the rows that fail, see :func:`_factorize`),
    then two products with the points' quadratic features
    F = [1, y_i, y_i y_j (i <= j)], built once per fit from the points
    centred on their mean, y = x - mean(x).  The weighted log densities are
    (k, m) coefficients @ F, and their log-sum-exp
    (:func:`gauss._log_sum_exp`) gives the responsibilities; the second
    moments are responsibilities @ F^T, less the outer product of the first
    moments.  The means are responsibilities @ x / counts.

    The moment form loses about eps R^2 / lambda_min(S) of precision, with
    R^2 the largest |y|^2.  So a *thin* component, one with
    tau |L^-1|_F^2 > 1 for tau = 2^30 eps R^2 (|L^-1|_F^2 = tr S^-1 bounds
    1 / lambda_min), keeps the exact centred kernels: its log densities come
    from :func:`gauss._centered_log_pdfs` and its covariance from the
    responsibility-weighted product of the points centred on its new mean.
    A component that loses all responsibility is re-seeded at a random
    point (``reinit_events``).  In the loop, not in the returned ones, an
    exp below e^-700 of its column's largest is 0 (:func:`gauss._exp_ftz`).
    The returned responsibilities come from the centred kernel on every row.
    """
    k = cfg.n_clusters
    data = _em_data(points, k)
    rng = np.random.default_rng(cfg.seed)
    weights = np.full(k, 1.0 / k)
    means = _seed_means(data.points, k, rng)
    covs = np.tile(data.var_scale * np.eye(data.points.shape[1]), (k, 1, 1))

    lls: list[float] = []
    perturbed: list[int] = []
    jitter_events = 0
    reinit_events = 0
    converged = False
    for it in range(cfg.max_iters):
        step = _em_step(data, weights, means, covs, rng)
        jitter_events += step.bumps
        if not np.isfinite(step.log_likelihood):
            raise EMError(f"log-likelihood became non-finite at iteration {it}")
        if step.bumps:
            perturbed.append(it)
        lls.append(step.log_likelihood)
        if len(lls) > 1 and abs(lls[-1] - lls[-2]) <= cfg.tol:
            converged = True
            covs = step.covs
            break
        weights, means, covs = step.update
        reinit_events += step.dead
        if step.dead and (not perturbed or perturbed[-1] != it):
            perturbed.append(it)

    covs, chols, log_dets, bumps = _factorize(covs, _JITTER * data.var_scale, _MAX_JITTER_RETRIES)
    jitter_events += int(bumps.sum())
    final = ComponentArrays(weights / weights.sum(), means, covs, chols, log_dets)
    # Responsibilities always correspond to the returned parameters (the
    # loop may have ended on a maximization step).
    log_terms = _centered_log_pdfs(final, data.points_t - means[:, :, None])
    resp = np.exp(log_terms - _log_sum_exp(log_terms)[0]).T
    return EMFit(
        GaussianMixture._of(final),
        resp,
        tuple(lls),
        converged,
        jitter_events,
        reinit_events,
        tuple(perturbed),
    )


def em_fit(points: np.ndarray, cfg: EMConfig) -> tuple[GaussianMixture, np.ndarray]:
    """Fit a Gaussian mixture by EM; returns (mixture, responsibilities).

    Responsibility rows sum to 1.  Raises :class:`EMError` when the fit
    degenerates (non-finite likelihood, unrecoverable covariance, or too
    few points).
    """
    fit = em_fit_details(points, cfg)
    return fit.mixture, fit.responsibilities


def reduce_and_reassign(
    mixture: GaussianMixture,
    responsibilities: np.ndarray,
    points: np.ndarray,
    target: int,
    kind: CostKind,
) -> tuple[GaussianMixture, LabeledDataset, ReductionTrace]:
    """Reduce a fitted mixture and carry the point assignments along.

    Initial labels are the argmax responsibilities.  Replaying the trace
    on one component stack (:func:`mixture._apply`), a pruned component's
    points become :data:`DISCARDED`; the points of a merged pair are
    reassigned by the same rule, to the component of largest weighted
    density in the mixture after that step.  Returns (reduced mixture,
    labeled points, trace).
    """
    points = _points(points, mixture.dim)
    responsibilities = np.asarray(responsibilities, dtype=float)
    if responsibilities.shape != (points.shape[0], mixture.size):
        raise ValueError(
            f"responsibilities shape {responsibilities.shape} does not match "
            f"{points.shape[0]} points x {mixture.size} components"
        )
    labels = np.argmax(responsibilities, axis=1) + 1
    reduced, trace = reduce(mixture, target, kind)
    arr = mixture._arr
    for step in trace.steps:
        h = step.chosen
        arr = _apply(arr, h)
        gone = labels == h.j
        labels = np.where(labels > h.j, labels - 1, labels)
        if isinstance(h, Prune):
            labels[gone] = DISCARDED
        else:
            moved = gone | (labels == h.i)
            if np.any(moved):
                labels[moved] = np.argmax(_component_log_pdf(arr, points[moved]), axis=0) + 1
    return reduced, LabeledDataset(points, labels=labels), trace
