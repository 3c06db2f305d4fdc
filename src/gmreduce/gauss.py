"""Closed-form primitives for multivariate Gaussian densities.

Everything downstream (mixture handling, reduction costs, clustering) is
built on the handful of identities implemented here: density evaluation,
the Kullback-Leibler divergence between two Gaussians, the decomposition
of a product of two Gaussians into a scale factor times a Gaussian, the
expectation of one Gaussian's log density under another, the density
maximum, and the moment-matched merge of a weighted pair.

The pair statistics also come in stacked form.  :class:`ComponentArrays`
holds many components as arrays, and the private stacked kernels here
(Cholesky factorization, forward substitution, the divergence with its
whitened frame, the overlap and the moment match) evaluate every row of
such a stack in one pass of numpy calls.  :func:`kld_gauss`,
:func:`product_decompose` and :func:`moment_match_merge` are batches of
one over them, and :mod:`gmreduce.costs` builds the cost kernels of the
reduction engines on them.

Positive definiteness is established only by Cholesky factorization;
there is no silent regularization anywhere.  Callers that need to repair
a borderline covariance (the EM loop does) must do so explicitly via
:func:`jitter`.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .constants import SYMMETRY_RTOL, WEIGHT_EXCESS_ATOL

__all__ = [
    "GaussianComponent",
    "ComponentArrays",
    "ProductDecomposition",
    "log_pdf",
    "pdf",
    "kld_gauss",
    "product_decompose",
    "expected_log",
    "max_value",
    "moment_match_merge",
    "mahalanobis_sq",
    "jitter",
]

_LOG_2PI = math.log(2.0 * math.pi)


def _as_mean(mean) -> np.ndarray:
    mean = np.asarray(mean, dtype=float)
    if mean.ndim != 1 or mean.size == 0:
        raise ValueError(f"mean must be a non-empty 1-D vector, got shape {mean.shape}")
    return mean


def _check_weight(weight) -> float:
    weight = float(weight)
    if not np.isfinite(weight) or weight < 0.0:
        raise ValueError(f"weight must be finite and nonnegative, got {weight}")
    if weight > 1.0 + WEIGHT_EXCESS_ATOL:
        raise ValueError(f"weight must not exceed 1, got {weight}")
    return weight


def _as_cov(cov, k: int) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (k, k):
        raise ValueError(f"cov must have shape ({k}, {k}), got {cov.shape}")
    asym = np.max(np.abs(cov - cov.T))
    if asym > SYMMETRY_RTOL * max(1.0, np.max(np.abs(cov))):
        raise ValueError(f"cov is not symmetric (max asymmetry {asym:.3e})")
    return cov


class GaussianComponent:
    """A weighted Gaussian density, immutable once constructed.

    Parameters
    ----------
    weight : float
        Nonnegative mixture weight.  Mixtures additionally require
        strictly positive weights; a bare component may carry weight 0.
    mean : array_like, shape (k,)
    cov : array_like, shape (k, k)
        Symmetric positive definite covariance.  Positive definiteness
        is established by a Cholesky factorization at construction;
        failure raises ``numpy.linalg.LinAlgError``.

    The mean, the covariance and its cached lower Cholesky factor
    ``chol`` are read-only views of one (2k + 1, k) row of a parameter
    block, so a component holds no array of its own; components made
    together by :meth:`GaussianMixture.from_arrays` share one block.
    ``log_det`` caches log |cov|.
    """

    __slots__ = ("weight", "log_det", "_block", "_row")

    def __init__(self, weight: float, mean, cov):
        self.__post_init__(weight, mean, cov)

    # Validation and factorization stay in one method that call tracers
    # (perfbench/layers.py) wrap to count constructions.
    def __post_init__(self, weight, mean, cov):
        weight = _check_weight(weight)
        mean, cov = _checked_moments(mean, cov)
        chol = np.linalg.cholesky(cov)  # LinAlgError if not positive definite
        block = np.concatenate([mean[None], cov, chol])[None]
        block.flags.writeable = False
        _set_state(self, weight, _log_det(chol), block, 0)

    @property
    def dim(self) -> int:
        return self._block.shape[2]

    @property
    def _params(self) -> np.ndarray:
        return self._block[self._row]

    @property
    def mean(self) -> np.ndarray:
        return self._block[self._row, 0]

    @property
    def cov(self) -> np.ndarray:
        return self._block[self._row, 1 : self.dim + 1]

    @property
    def chol(self) -> np.ndarray:
        return self._block[self._row, self.dim + 1 :]

    def with_weight(self, weight: float) -> "GaussianComponent":
        """Same density, different weight.

        Only the new weight is validated: the read-only mean, covariance
        and Cholesky factor are shared with ``self``, not re-checked or
        re-factorized.
        """
        out = object.__new__(type(self))
        _set_state(out, _check_weight(weight), self.log_det, self._block, self._row)
        return out

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"GaussianComponent(weight={self.weight!r}, mean={self.mean!r}, cov={self.cov!r})"

    def __reduce__(self):
        return type(self), (self.weight, self.mean, self.cov)


def _checked_moments(mean, cov) -> tuple[np.ndarray, np.ndarray]:
    mean = _as_mean(mean)
    cov = _as_cov(cov, mean.size)
    if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
        raise ValueError("mean and cov must be finite")
    return mean, cov


def _log_det(chol: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def _set_state(c: GaussianComponent, weight: float, log_det: float, block: np.ndarray, row: int) -> None:
    object.__setattr__(c, "weight", weight)
    object.__setattr__(c, "log_det", log_det)
    object.__setattr__(c, "_block", block)
    object.__setattr__(c, "_row", row)


def _stacked_components(weights, means, covs) -> tuple[GaussianComponent, ...]:
    """Validated components whose parameters share one read-only block.

    Each row is checked as :class:`GaussianComponent` checks it, and the
    covariances are factorized in one stacked call that gives the same
    factors bit for bit.  A kept mixture then costs one array, not one
    per component.
    """
    checked = [(_check_weight(w),) + _checked_moments(m, s) for w, m, s in zip(weights, means, covs)]
    if not checked:
        return ()
    means = np.array([m for _, m, _ in checked])
    covs = np.array([s for _, _, s in checked])
    chols = np.linalg.cholesky(covs)  # LinAlgError if any is not positive definite
    block = np.concatenate([means[:, None], covs, chols], axis=1)
    block.flags.writeable = False
    comps = []
    for row, (weight, _, _) in enumerate(checked):
        c = object.__new__(GaussianComponent)
        _set_state(c, weight, _log_det(chols[row]), block, row)
        comps.append(c)
    return tuple(comps)


@dataclass(frozen=True, eq=False)
class ComponentArrays:
    """A stack of P Gaussian components in struct-of-arrays form.

    ``weights`` (P,), ``means`` (P, k), ``covs`` and lower Cholesky
    factors ``chols`` (P, k, k), and ``log_dets`` (P,).  The stacked
    kernels take two stacks aligned row by row; a stack of one row
    broadcasts against a stack of any length.  Pair statistics for index
    lists I, J are kernels of ``arr.take(I)`` and ``arr.take(J)``.
    """

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    chols: np.ndarray
    log_dets: np.ndarray

    @classmethod
    def of(cls, components) -> "ComponentArrays":
        """Stack validated components, reusing their cached factors."""
        comps = tuple(components)
        params = np.array([c._params for c in comps])
        k = params.shape[2]
        return cls(
            np.array([c.weight for c in comps]),
            params[:, 0],
            params[:, 1 : k + 1],
            params[:, k + 1 :],
            np.array([c.log_det for c in comps]),
        )

    def __len__(self) -> int:
        return self.weights.shape[0]

    def take(self, idx) -> "ComponentArrays":
        """The rows selected by an index array or a boolean mask."""
        return ComponentArrays(
            self.weights[idx], self.means[idx], self.covs[idx], self.chols[idx], self.log_dets[idx]
        )


def _cholesky(covs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower Cholesky factors, log determinants and success flags of a (P, k, k) stack.

    Reads the lower triangle, one column per pass.  A matrix that is not
    finite or not numerically positive definite gets a NaN factor and
    log determinant and a False flag instead of an exception, so one bad
    matrix does not fail its stack.
    """
    k = covs.shape[-1]
    chol = np.zeros(covs.shape)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for j in range(k):
            row = chol[:, j, :j]
            pivot = np.sqrt(covs[:, j, j] - np.sum(row * row, axis=1))
            chol[:, j, j] = pivot
            below = covs[:, j + 1 :, j] - np.sum(chol[:, j + 1 :, :j] * row[:, None, :], axis=2)
            chol[:, j + 1 :, j] = below / pivot[:, None]
        diag = np.diagonal(chol, axis1=1, axis2=2)
        ok = np.all(diag > 0.0, axis=1) & np.all(np.isfinite(chol), axis=(1, 2))
        log_dets = 2.0 * np.sum(np.log(diag), axis=1)
    chol[~ok] = np.nan
    log_dets[~ok] = np.nan
    return chol, log_dets, ok


def _solve_lower(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """L^-1 B by forward substitution over the k rows, for a whole stack.

    ``chol`` is (P, k, k) or (1, k, k) and lower triangular, ``rhs`` is
    (P, k, c).  Each row of the solution is one stacked update, so
    L^-1 L comes out as the identity exactly.
    """
    out = np.empty(rhs.shape)
    for r in range(rhs.shape[1]):
        acc = rhs[:, r] - np.sum(chol[:, r, :r, None] * out[:, :r], axis=1)
        out[:, r] = acc / chol[:, r, r, None]
    return out


def _whiten(from_: ComponentArrays, to: ComponentArrays) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D(from_ || to) per row, with from_'s spread and offset in to's whitened frame.

    Returns (D, W, z) with W = L_to^-1 L_from and z = L_to^-1 (m_from -
    m_to), so that for x = m_from + L_from y the Mahalanobis term of
    q_to is |z + W y|^2.  D is the closed form of :func:`kld_gauss`, read
    off the same solve; it overflows to +inf for remote pairs.
    """
    offset = from_.means - to.means
    p, k = offset.shape
    spread = np.broadcast_to(from_.chols, (p, k, k))
    sol = _solve_lower(to.chols, np.concatenate([spread, offset[:, :, None]], axis=2))
    w, z = sol[:, :, :-1], sol[:, :, -1]
    with np.errstate(over="ignore"):
        div = 0.5 * (to.log_dets - from_.log_dets - k + np.sum(w * w, axis=(1, 2)) + np.sum(z * z, axis=1))
    return div, w, z


def _overlaps(a: ComponentArrays, b: ComponentArrays) -> np.ndarray:
    """Integral of q_a q_b for aligned rows: N(m_a; m_b, S_a + S_b).

    Only the scale of the product decomposition is computed.  A sum of
    two valid covariances fails to factorize only by overflow, which
    raises ``LinAlgError`` for the whole stack.
    """
    chol, log_det, ok = _cholesky(a.covs + b.covs)
    if not np.all(ok):
        raise np.linalg.LinAlgError("a covariance sum of an overlap is not positive definite")
    offset = a.means - b.means
    z = _solve_lower(chol, offset[:, :, None])[:, :, 0]
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * (offset.shape[1] * _LOG_2PI + log_det + np.sum(z * z, axis=1)))


def _merged_moments(wa, ma, sa, wb, mb, sb) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Total weight, mean and covariance of the moment matches of stacked weighted pairs.

    The spread term overflows for extreme separations and a zero total
    weight gives NaN; callers check the result.
    """
    total = wa + wb
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pa = wa / total
        pb = wb / total
        mean = pa[:, None] * ma + pb[:, None] * mb
        delta = ma - mb
        cov = (
            pa[:, None, None] * sa
            + pb[:, None, None] * sb
            + (pa * pb)[:, None, None] * (delta[:, :, None] * delta[:, None, :])
        )
    return total, mean, cov


def _moment_match(a: ComponentArrays, b: ComponentArrays) -> tuple[ComponentArrays, np.ndarray]:
    """Moment-matched merges of aligned pairs, and a flag per row.

    A row whose moments are not finite or whose covariance fails to
    factorize is flagged False and holds NaN factors; the other rows are
    unaffected.
    """
    total, mean, cov = _merged_moments(a.weights, a.means, a.covs, b.weights, b.means, b.covs)
    chols, log_dets, ok = _cholesky(cov)
    ok &= np.all(np.isfinite(mean), axis=1)
    return ComponentArrays(total, mean, cov, chols, log_dets), ok


@dataclass(frozen=True, eq=False)
class ProductDecomposition:
    """Product of two Gaussian densities, written as scale * N(mean_star, cov_star).

    ``scale`` equals the density of one component's mean under a Gaussian
    whose covariance is the sum of the two covariances; it underflows to
    0.0 for widely separated inputs, which downstream code treats as the
    exact limit.
    """

    scale: float
    mean_star: np.ndarray
    cov_star: np.ndarray


def _check_same_dim(a: GaussianComponent, b: GaussianComponent):
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _half_maha(chol: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis norms of rows of ``delta`` given a Cholesky factor."""
    z = solve_triangular(chol, delta.T, lower=True)
    return np.einsum("ij,ij->j", z, z)


def log_pdf(c: GaussianComponent, x) -> float | np.ndarray:
    """Log density of ``c`` at ``x``.

    ``x`` may be a single point of shape (k,) or a batch of shape (n, k);
    the result is a scalar or an array of shape (n,) accordingly.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[1] != c.dim:
        raise ValueError(f"point dimension {pts.shape[1]} does not match component dimension {c.dim}")
    quad = _half_maha(c.chol, pts - c.mean)
    out = -0.5 * (c.dim * _LOG_2PI + c.log_det + quad)
    return float(out[0]) if single else out


def pdf(c: GaussianComponent, x) -> float | np.ndarray:
    """Density of ``c`` at ``x`` (see :func:`log_pdf` for shapes)."""
    return np.exp(log_pdf(c, x))


def mahalanobis_sq(c: GaussianComponent, x) -> float | np.ndarray:
    """Squared Mahalanobis distance from ``x`` to the component mean."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[1] != c.dim:
        raise ValueError(f"point dimension {pts.shape[1]} does not match component dimension {c.dim}")
    quad = _half_maha(c.chol, pts - c.mean)
    return float(quad[0]) if single else quad


def kld_gauss(from_: GaussianComponent, to: GaussianComponent) -> float:
    """Kullback-Leibler divergence D(from_ || to) between two Gaussians.

    Closed form::

        1/2 [ log(|S_to| / |S_from|) - k + tr(S_to^-1 S_from)
              + (m_to - m_from)^T S_to^-1 (m_to - m_from) ]

    Always nonnegative; zero iff the densities coincide.
    """
    _check_same_dim(from_, to)
    div, _, _ = _whiten(ComponentArrays.of((from_,)), ComponentArrays.of((to,)))
    return float(div[0])


def product_decompose(a: GaussianComponent, b: GaussianComponent) -> ProductDecomposition:
    """Write the pointwise product of two Gaussian densities as a scaled Gaussian.

    N(x; m_a, S_a) N(x; m_b, S_b) = scale * N(x; m*, S*) with

        scale = N(m_b; m_a, S_a + S_b)
        m*    = m_a + S_a (S_a + S_b)^-1 (m_b - m_a)
        S*    = S_a - S_a (S_a + S_b)^-1 S_a
    """
    _check_same_dim(a, b)
    scale = float(_overlaps(ComponentArrays.of((a,)), ComponentArrays.of((b,)))[0])
    # gain = S_a (S_a + S_b)^-1, the transpose of (S_a + S_b)^-1 S_a
    gain = np.linalg.solve(a.cov + b.cov, a.cov).T
    mean_star = a.mean + gain @ (b.mean - a.mean)
    cov_star = a.cov - gain @ a.cov
    cov_star = 0.5 * (cov_star + cov_star.T)
    return ProductDecomposition(scale, mean_star, cov_star)


def expected_log(under: GaussianComponent, of: GaussianComponent) -> float:
    """E_{x ~ under}[ log of(x) ] in closed form.

    Equals -1/2 log|2 pi S_of| - 1/2 tr[ S_of^-1 (S_under + d d^T) ]
    with d the difference of means.
    """
    _check_same_dim(under, of)
    return _expected_log(under.mean, under.cov, of)


def _expected_log(mean: np.ndarray, cov: np.ndarray, of: GaussianComponent) -> float:
    """E[log of(x)] for any x with the given mean and covariance.

    Only ``of`` is factorized: ``cov`` enters through
    tr(S_of^-1 cov) = sum((L^-1 cov) * L^-1), so it may be singular.
    """
    k = of.dim
    rhs = np.concatenate([np.eye(k), cov, (of.mean - mean)[:, None]], axis=1)
    sol = _solve_lower(of.chol[None], rhs[None])[0]
    inv, whitened, z = sol[:, :k], sol[:, k:-1], sol[:, -1]
    return -0.5 * (k * _LOG_2PI + of.log_det + float(np.sum(whitened * inv)) + float(z @ z))


def max_value(c: GaussianComponent) -> float:
    """Maximum of the density, attained at the mean: (2 pi)^(-k/2) |S|^(-1/2)."""
    return math.exp(-0.5 * (c.dim * _LOG_2PI + c.log_det))


def moment_match_merge(a: GaussianComponent, b: GaussianComponent) -> GaussianComponent:
    """Single Gaussian matching the zeroth, first and second moments of a weighted pair.

    The merged component carries weight ``w_a + w_b``, the weighted mean,
    and the weighted covariance plus the spread term between the means::

        S = wa' S_a + wb' S_b + wa' wb' (m_a - m_b)(m_a - m_b)^T

    with wa', wb' the weights normalized over the pair.  Among single
    Gaussians this choice minimizes the forward divergence from the
    normalized pair.
    """
    _check_same_dim(a, b)
    total = a.weight + b.weight
    if total <= 0.0:
        raise ValueError("cannot merge a pair with zero total weight")
    _, mean, cov = _merged_moments(
        np.array([a.weight]), a.mean[None], a.cov[None], np.array([b.weight]), b.mean[None], b.cov[None]
    )
    mean, cov = mean[0], cov[0]
    # The spread term can overflow for extreme separations; surface that
    # as a factorization failure so callers treat the pair as unmergeable.
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
        raise np.linalg.LinAlgError("moment-matched merge overflows to non-finite moments")
    return GaussianComponent(total, mean, cov)


def jitter(c: GaussianComponent, eps: float) -> GaussianComponent:
    """Return ``c`` with ``eps`` added to every covariance diagonal entry.

    The library never regularizes on its own; this is the explicit
    escape hatch for iterative callers whose covariance estimates go
    numerically singular.
    """
    if eps < 0.0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    return GaussianComponent(c.weight, c.mean, c.cov + eps * np.eye(c.dim))
