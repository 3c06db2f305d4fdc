"""Robust clustering by over-fitting EM and reducing the fitted mixture.

The workflow: fit a deliberately over-sized mixture to contaminated
data with EM, then shrink it with a reduction method.  A method whose
prune costs reflect the reverse divergence will discard the diffuse
low-weight components that EM spends on background clutter, and the
points assigned to them; a merge-only method must keep every point.

Each EM iteration is a fixed number of stacked numpy calls on
(component, point) arrays allocated once per fit, with one exp pass;
its weighted log-density kernel also gives the final responsibilities
and reassigns merged pairs' points.  In the iteration an exp below
e^-700 is exactly zero, off exp's slow path (:func:`gauss._exp_ftz`).

Labels are 1-based component indices; :data:`DISCARDED` (-1) marks
points dropped by a prune step.  Ground-truth arrays use the same
1-based indices with :data:`SPURIOUS` (0) for clutter points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mixture as mix
from .costs import CostKind
from .gauss import ComponentArrays, _centered_log_pdfs, _cholesky, _log_sum_exp, _points
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


def em_fit_details(points: np.ndarray, cfg: EMConfig) -> EMFit:
    """Full EM fit with diagnostics; :func:`em_fit` is the plain wrapper.

    Expectation and maximization follow the standard Gaussian mixture
    updates; initialization uses spread-out seeded means with identity
    covariances scaled to the data variance.  Each iteration works on
    all k components at once, in (k, d, n) and (k, n) buffers of the fit:
    one stacked factorization (bumping only the rows that fail, see
    :func:`_factorize`), the weighted log densities of the centred points
    and their log-sum-exp (:func:`gauss._log_sum_exp`), whose shares are
    the responsibilities, then one product for the means and one for the
    covariances, whose centred points serve the next densities.  A
    component that loses all responsibility is re-seeded at a random
    point (``reinit_events``).  In the loop, not in the returned ones, an
    exp below e^-700 of its column's largest is 0 (:func:`gauss._exp_ftz`).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise EMError(f"points must be a non-empty 2-D array, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise EMError("points must be finite")
    n, dim = points.shape
    k = cfg.n_clusters
    if n < k:
        raise EMError(f"cannot fit {k} clusters to {n} points")
    rng = np.random.default_rng(cfg.seed)
    var_scale = float(np.mean(np.var(points, axis=0)))
    if var_scale <= 0.0:
        var_scale = 1.0
    eps = _JITTER * var_scale
    means = _seed_means(points, k, rng)
    covs = np.tile(var_scale * np.eye(dim), (k, 1, 1))
    weights = np.full(k, 1.0 / k)
    points_t = np.ascontiguousarray(points.T)
    centered, work = np.empty((2, k, dim, n))  # centred points; whitened or weighted ones
    log_terms, resp = np.empty((2, k, n))
    np.subtract(points_t, means[:, :, None], out=centered)

    lls: list[float] = []
    perturbed: list[int] = []
    jitter_events = 0
    reinit_events = 0
    converged = False
    for it in range(cfg.max_iters):
        covs, chols, log_dets, bumps = _factorize(covs, eps, _MAX_JITTER_RETRIES)
        jitter_events += int(bumps.sum())
        _centered_log_pdfs(ComponentArrays(weights, means, covs, chols, log_dets), centered, work, log_terms)
        total_ll = float(np.sum(_log_sum_exp(log_terms, resp)[0]))
        if not np.isfinite(total_ll):
            raise EMError(f"log-likelihood became non-finite at iteration {it}")
        if bumps.any():
            perturbed.append(it)
        lls.append(total_ll)
        if len(lls) > 1 and abs(lls[-1] - lls[-2]) <= cfg.tol:
            converged = True
            break
        # Maximization.
        counts = resp.sum(axis=1)
        dead = np.flatnonzero(counts < n * 1e-12)
        counts[dead] = 1.0
        means = resp @ points / counts[:, None]
        for c in dead:
            means[c] = points[rng.integers(n)]
        np.subtract(points_t, means[:, :, None], out=centered)
        np.multiply(centered, resp[:, None], out=work)
        covs = work @ centered.transpose(0, 2, 1) / counts[:, None, None]
        covs = 0.5 * (covs + covs.transpose(0, 2, 1))
        covs[dead] = var_scale * np.eye(dim)
        reinit_events += dead.size
        if dead.size and (not perturbed or perturbed[-1] != it):
            perturbed.append(it)
        weights = counts / counts.sum()

    covs, chols, log_dets, bumps = _factorize(covs, eps, _MAX_JITTER_RETRIES)
    jitter_events += int(bumps.sum())
    final = ComponentArrays(weights / weights.sum(), means, covs, chols, log_dets)
    # Responsibilities always correspond to the returned parameters (the
    # loop may have ended on a maximization step); `centered` holds the final means.
    log_terms = _centered_log_pdfs(final, centered, work, log_terms)
    resp = np.exp(log_terms - _log_sum_exp(log_terms, resp)[0]).T
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
