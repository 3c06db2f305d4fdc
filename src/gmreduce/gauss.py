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
:func:`product_decompose` and the density functions are batches of one
over them, and :mod:`gmreduce.costs` builds the cost kernels of the
reduction engines on them.  :func:`moment_match_merge` is a batch of one
over :func:`_moment_match`, the one moment match that prices a merge in
the cost kernels and applies it in :mod:`gmreduce.mixture`; a stack
that is already validated and factorized becomes components again
through :func:`_components`, without a second check.  One more stacked
kernel gives the weighted log densities of every component at every
point, and :func:`_log_sum_exp` sums them; the mixture density and each
EM iteration use both.

Positive definiteness is established by one factorization rule,
:func:`_cholesky`: a covariance is accepted iff its entries are finite
and LAPACK factorizes it.  Pricing a merge, applying it, building a
component and fitting EM all go through it, so a merge priced as valid
is a merge that applies.  There is no silent regularization anywhere;
the EM loop repairs a borderline covariance explicitly.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass

import numpy as np

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
]

_LOG_2PI = math.log(2.0 * math.pi)


def _check_weight(weight) -> float:
    weight = float(weight)
    if not math.isfinite(weight) or weight < 0.0:
        raise ValueError(f"weight must be finite and nonnegative, got {weight}")
    if weight > 1.0 + WEIGHT_EXCESS_ATOL:
        raise ValueError(f"weight must not exceed 1, got {weight}")
    return weight


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
        (c,) = _stacked_components((weight,), (mean,), (cov,))
        _set_state(self, c.weight, c.log_det, c._block, 0)

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
    mean = np.asarray(mean, dtype=float)
    if mean.ndim != 1 or mean.size == 0:
        raise ValueError(f"mean must be a non-empty 1-D vector, got shape {mean.shape}")
    k = mean.size
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (k, k):
        raise ValueError(f"cov must have shape ({k}, {k}), got {cov.shape}")
    asym = np.abs(cov - cov.T).max()
    if asym > SYMMETRY_RTOL * max(1.0, np.abs(cov).max()):
        raise ValueError(f"cov is not symmetric (max asymmetry {asym:.3e})")
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise ValueError("mean and cov must be finite")
    return mean, cov


def _set_state(c: GaussianComponent, weight: float, log_det: float, block: np.ndarray, row: int) -> None:
    object.__setattr__(c, "weight", weight)
    object.__setattr__(c, "log_det", log_det)
    object.__setattr__(c, "_block", block)
    object.__setattr__(c, "_row", row)


def _stacked_components(weights, means, covs) -> tuple[GaussianComponent, ...]:
    """Validated components whose parameters share one read-only block.

    The one constructor behind :class:`GaussianComponent` and
    :meth:`GaussianMixture.from_arrays`.  Each row is checked, and the
    covariances are factorized in one stacked :func:`_cholesky` call;
    ``LinAlgError`` if a row is refused.  A kept mixture then costs one
    array, not one per component.
    """
    checked = [(_check_weight(w),) + _checked_moments(m, s) for w, m, s in zip(weights, means, covs)]
    if not checked:
        return ()
    weights, means, covs = (np.array(column) for column in zip(*checked))
    chols, log_dets, ok = _cholesky(covs)
    if not np.all(ok):
        raise np.linalg.LinAlgError("covariance is not positive definite")
    return _components(ComponentArrays(weights, means, covs, chols, log_dets))


def _components(arr: ComponentArrays) -> tuple[GaussianComponent, ...]:
    """An already validated and factorized stack as components sharing one block.

    The inverse of :meth:`ComponentArrays.of`: nothing is checked or factorized again.
    """
    block = np.concatenate([arr.means[:, None], arr.covs, arr.chols], axis=1)
    block.flags.writeable = False
    comps = []
    for row, (weight, log_det) in enumerate(zip(arr.weights.tolist(), arr.log_dets.tolist())):
        c = object.__new__(GaussianComponent)
        _set_state(c, weight, log_det, block, row)
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

    The library's one factorization rule: a matrix is accepted iff its
    entries are finite and LAPACK factorizes it.  Finiteness is checked
    here because LAPACK returns NaN or inf factors for non-finite input
    without complaint.  The stack goes to LAPACK in one call; only if
    that call refuses are the finite rows retried one at a time.  A
    refused row gets a NaN factor and log determinant and a False flag
    instead of an exception, so one bad matrix does not fail its stack.
    """
    ok = np.isfinite(covs).all(axis=(1, 2))
    try:
        chols = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        chols = np.full(covs.shape, np.nan)
        for row in np.flatnonzero(ok):
            try:
                chols[row] = np.linalg.cholesky(covs[row])
            except np.linalg.LinAlgError:
                ok[row] = False
    chols[~ok] = np.nan
    log_dets = 2.0 * np.log(chols.diagonal(axis1=1, axis2=2)).sum(axis=1)
    return chols, log_dets, ok


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


def _weighted_log_pdfs(arr: ComponentArrays, points: np.ndarray) -> np.ndarray:
    """The (n, P) matrix of log w_p + log q_p(x_i) for (n, k) points.

    Whitens every point with every stacked factor in one forward
    substitution, z = L_p^-1 (x_i - m_p), and adds
    log w_p - 1/2 (k log 2 pi + log |S_p| + |z|^2).  A zero weight gives
    a column of -inf, and a point whose |z|^2 overflows an entry of -inf.
    """
    k = points.shape[1]
    # (P, k, n), contiguous along the points: every stacked pass runs over long rows.
    z = _solve_lower(arr.chols, np.ascontiguousarray(points.T)[None] - arr.means[:, :, None])
    with np.errstate(divide="ignore", over="ignore"):
        const = np.log(arr.weights) - 0.5 * (k * _LOG_2PI + arr.log_dets)
        return (const[:, None] - 0.5 * np.sum(z * z, axis=1)).T


def _log_sum_exp(log_terms: np.ndarray) -> np.ndarray:
    """Log of the row sums of exp(log_terms), as an (n, 1) column.

    Each row is shifted by its maximum, so no term overflows; a row that
    is -inf everywhere gives -inf.
    """
    top = log_terms.max(axis=1, keepdims=True)
    top[np.isneginf(top)] = 0.0
    with np.errstate(divide="ignore"):
        return top + np.log(np.sum(np.exp(log_terms - top), axis=1, keepdims=True))


def _moment_match(a: ComponentArrays, b: ComponentArrays) -> tuple[ComponentArrays, np.ndarray]:
    """Moment-matched merges of aligned pairs, and a flag per row.

    Each merge carries the pair's total weight, its weighted mean, and
    its weighted covariance plus the spread term between the means (see
    :func:`moment_match_merge`).  The spread term overflows for extreme
    separations and a zero total weight gives NaN: a row whose moments
    are not finite or whose covariance fails to factorize is flagged
    False and holds NaN factors; the other rows are unaffected.
    """
    total = a.weights + b.weights
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pa = a.weights / total
        pb = b.weights / total
        mean = pa[:, None] * a.means + pb[:, None] * b.means
        delta = a.means - b.means
        cov = (
            pa[:, None, None] * a.covs
            + pb[:, None, None] * b.covs
            + (pa * pb)[:, None, None] * (delta[:, :, None] * delta[:, None, :])
        )
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


def _pair_arrays(a: GaussianComponent, b: GaussianComponent) -> tuple[ComponentArrays, ComponentArrays]:
    """Two one-row stacks: the batch of one behind every scalar pair function."""
    _check_same_dim(a, b)
    return ComponentArrays.of((a,)), ComponentArrays.of((b,))


def log_pdf(c: GaussianComponent, x) -> float | np.ndarray:
    """Log density of ``c`` at ``x``.

    ``x`` may be a single point of shape (k,) or a batch of shape (n, k);
    the result is a scalar or an array of shape (n,) accordingly.
    """
    return -0.5 * (c.dim * _LOG_2PI + c.log_det + mahalanobis_sq(c, x))


def pdf(c: GaussianComponent, x) -> float | np.ndarray:
    """Density of ``c`` at ``x`` (see :func:`log_pdf` for shapes)."""
    return np.exp(log_pdf(c, x))


def mahalanobis_sq(c: GaussianComponent, x) -> float | np.ndarray:
    """Squared Mahalanobis distance from ``x`` to the component mean (shapes as :func:`log_pdf`)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[1] != c.dim:
        raise ValueError(f"point dimension {pts.shape[1]} does not match component dimension {c.dim}")
    z = _solve_lower(c.chol[None], np.ascontiguousarray((pts - c.mean).T)[None])[0]
    quad = np.sum(z * z, axis=0)
    return float(quad[0]) if single else quad


def kld_gauss(from_: GaussianComponent, to: GaussianComponent) -> float:
    """Kullback-Leibler divergence D(from_ || to) between two Gaussians.

    Closed form::

        1/2 [ log(|S_to| / |S_from|) - k + tr(S_to^-1 S_from)
              + (m_to - m_from)^T S_to^-1 (m_to - m_from) ]

    Always nonnegative; zero iff the densities coincide.
    """
    div, _, _ = _whiten(*_pair_arrays(from_, to))
    return float(div[0])


def product_decompose(a: GaussianComponent, b: GaussianComponent) -> ProductDecomposition:
    """Write the pointwise product of two Gaussian densities as a scaled Gaussian.

    N(x; m_a, S_a) N(x; m_b, S_b) = scale * N(x; m*, S*) with

        scale = N(m_b; m_a, S_a + S_b)
        m*    = m_a + S_a (S_a + S_b)^-1 (m_b - m_a)
        S*    = S_a - S_a (S_a + S_b)^-1 S_a
    """
    scale = float(_overlaps(*_pair_arrays(a, b))[0])
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
    normalized pair.  A batch of one over :func:`_moment_match`, the
    moment match that prices and applies every merge.
    """
    pair = _pair_arrays(a, b)
    if a.weight + b.weight <= 0.0:
        raise ValueError("cannot merge a pair with zero total weight")
    _check_weight(a.weight + b.weight)
    merged, ok = _moment_match(*pair)
    if not ok[0]:
        raise np.linalg.LinAlgError("moment-matched merge overflows or is not positive definite")
    return _components(merged)[0]
