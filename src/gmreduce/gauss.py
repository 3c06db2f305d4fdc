"""Closed-form primitives for multivariate Gaussian densities.

Everything downstream (mixture handling, reduction costs, clustering) is
built on the handful of identities implemented here: density evaluation,
the Kullback-Leibler divergence between two Gaussians, the decomposition
of the product of two Gaussians into a scale factor times a Gaussian, the
expectation of one Gaussian's log density under another, the density
maximum, and the moment-matched merge of a weighted pair.

The pair statistics also come in stacked form.  :class:`ComponentArrays`
holds many components as arrays, and the private stacked kernels here
(Cholesky factorization, forward substitution, the divergence with its
whitened frame, the overlap and the moment match) evaluate every row of
such a stack in one pass of numpy calls.  Each statistic has one kernel;
the overlap and the moment match each have one checked form that raises
where a row fails (:func:`_overlaps`, :func:`_checked_merge`).
:func:`kld_gauss`, :func:`product_decompose`, :func:`moment_match_merge`
and the density functions are batches of one over them, and
:mod:`gmreduce.costs` builds the cost kernels of the reduction engines on
them.  Components and mixtures wrap read-only stacks, which :func:`_stack`
validates whole, every weight positive (:func:`_check_weights`).  The kernels put
the pair axis last, so each numpy call is one long loop, and their sums
over the k and k^2 axes do not depend on the batch length.  One more stacked
kernel gives the (component, point) weighted log densities, one product
whitening each component's centred points; the mixture density and EM
sum them in that layout (:func:`_log_sum_exp`), flushing exps below e^-700
to zero (:func:`_exp_ftz`), off exp's slow path.

Positive definiteness is established by one factorization rule,
:func:`_cholesky`: a covariance is accepted iff its entries are finite
and LAPACK factorizes it.  Pricing a merge, applying it, building a
component and fitting EM all go through it, so a merge priced as valid
is a merge that applies.  There is no silent regularization anywhere;
the EM loop repairs a borderline covariance explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .constants import SYMMETRY_RTOL, WEIGHT_SUM_ATOL

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
_EXP_FLOOR = -700.0  # e^-700 is about 1e-304, still a normal double (see _exp_ftz)


def _check_weights(weights) -> np.ndarray:
    """The one weight rule: a new non-empty 1-D float array, each weight in (0, 1] up to WEIGHT_SUM_ATOL."""
    weights = np.array(weights, dtype=float)
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError(f"weights must be a non-empty 1-D vector, got shape {weights.shape}")
    bad = np.flatnonzero(~((weights > 0.0) & (weights <= 1.0 + WEIGHT_SUM_ATOL)))  # NaN fails both
    if bad.size:
        raise ValueError(f"component {bad[0] + 1} weight must be finite, positive and at most 1, got {weights[bad[0]]}")
    return weights


@dataclass(frozen=True, eq=False, init=False)
class GaussianComponent:
    """A weighted Gaussian density, immutable once constructed.

    Parameters
    ----------
    weight : float
        Mixture weight in (0, 1], as every weight is (:func:`_check_weights`).
    mean : array_like, shape (k,)
    cov : array_like, shape (k, k)
        Symmetric positive definite covariance.  Positive definiteness
        is established by a Cholesky factorization at construction;
        failure raises ``numpy.linalg.LinAlgError``.

    The component wraps a read-only one-row :class:`ComponentArrays`
    stack: the mean, the covariance and its cached lower Cholesky factor
    ``chol`` are views of its row, and ``weight`` and ``log_det``
    (log |cov|) are floats read off it.
    """

    _arr: ComponentArrays

    def __init__(self, weight: float, mean, cov):
        self.__post_init__(weight, mean, cov)

    # Validation and factorization stay in one method that call tracers
    # (perfbench/layers.py) wrap to count constructions.
    def __post_init__(self, weight, mean, cov):
        object.__setattr__(self, "_arr", _stack((weight,), (mean,), (cov,)))

    @classmethod
    def _of(cls, arr: ComponentArrays) -> "GaussianComponent":
        """Wrap a validated and factorized one-row stack, marked read-only, without a second check."""
        c = object.__new__(cls)
        object.__setattr__(c, "_arr", _frozen(arr))
        return c

    @property
    def weight(self) -> float:
        return float(self._arr.weights[0])

    @property
    def log_det(self) -> float:
        return float(self._arr.log_dets[0])

    @property
    def dim(self) -> int:
        return self._arr.means.shape[1]

    @property
    def mean(self) -> np.ndarray:
        return self._arr.means[0]

    @property
    def cov(self) -> np.ndarray:
        return self._arr.covs[0]

    @property
    def chol(self) -> np.ndarray:
        return self._arr.chols[0]

    def with_weight(self, weight: float) -> "GaussianComponent":
        """Same density, different weight: only the weight is checked, and the factorized rows are shared."""
        return type(self)._of(replace(self._arr, weights=_check_weights((weight,))))

    def __repr__(self) -> str:
        return f"GaussianComponent(weight={self.weight!r}, mean={self.mean!r}, cov={self.cov!r})"

    def __reduce__(self):
        return type(self), (self.weight, self.mean, self.cov)


def _stack(weights, means, covs) -> ComponentArrays:
    """The one constructor of components: a validated, factorized, read-only stack of copies of the inputs.

    ``ValueError`` for a bad weight, shape, non-finite entry or asymmetric
    covariance; ``LinAlgError`` if the stacked :func:`_cholesky` refuses a row.
    """
    weights = _check_weights(weights)
    means, covs = np.array(means, dtype=float), np.array(covs, dtype=float)
    p, k = len(weights), means.shape[1] if means.ndim == 2 else 0
    if k == 0 or means.shape[0] != p or covs.shape != (p, k, k):
        raise ValueError(f"means and covs must be ({p}, k) and ({p}, k, k), k >= 1, got {means.shape}, {covs.shape}")
    if not (np.isfinite(means).all() and np.isfinite(covs).all()):
        raise ValueError("means and covs must be finite")
    asym = np.abs(covs - covs.transpose(0, 2, 1)).max(axis=(1, 2))
    if np.any(asym > SYMMETRY_RTOL * np.maximum(1.0, np.abs(covs).max(axis=(1, 2)))):
        raise ValueError(f"cov is not symmetric (max asymmetry {asym.max():.3e})")
    chols, log_dets, ok = _cholesky(covs)
    if not ok.all():
        raise np.linalg.LinAlgError("covariance is not positive definite")
    return _frozen(ComponentArrays(weights, means, covs, chols, log_dets))


def _frozen(arr: ComponentArrays) -> ComponentArrays:
    """``arr``, with its five arrays marked read-only."""
    for f in fields(arr):
        getattr(arr, f.name).flags.writeable = False
    return arr


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
        """Concatenate the stacks of validated components, reusing their cached factors."""
        rows = [c._arr for c in components]
        return cls(*(np.concatenate([getattr(r, f.name) for r in rows]) for f in fields(cls)))

    def __len__(self) -> int:
        return self.weights.shape[0]

    def take(self, idx) -> "ComponentArrays":
        """The rows selected by a slice, as views, or by an index array or a boolean mask, as copies."""
        arrays = (self.weights, self.means, self.covs, self.chols, self.log_dets)
        if isinstance(idx, slice):
            return ComponentArrays(*(x[idx] for x in arrays))
        rows = np.arange(len(self))[idx]  # ndarray.take copies (P, k, k) rows several times faster than indexing
        return ComponentArrays(*(x.take(rows, axis=0) for x in arrays))


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
    if not ok.all():
        chols[~ok] = np.nan
    log_dets = 2.0 * np.log(chols.diagonal(axis1=1, axis2=2)).sum(axis=1)
    return chols, log_dets, ok


def _solve_lower(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """L^-1 B by forward substitution over the k rows, for a whole stack.

    ``chol`` is (P, k, k) or (1, k, k) and lower triangular, ``rhs`` is
    (P, k, c).  The rows are swept over (k, c, P) buffers, pairs last, and
    the result is the (P, k, c) view of one; ``.transpose(1, 2, 0)`` gives
    the buffer back.  Row r adds L[r, c] x_c for c < r in order into one
    buffer, subtracts that from B's row and divides by L[r, r]: one
    stacked update per row, so L^-1 L is the identity exactly, and no
    slow sum over a middle axis.  For k <= 8 this equals that sum,
    ``np.sum(L[:, r, :r, None] * x[:, :r], axis=1)``, bit for bit (up to
    the sign of a zero): numpy adds fewer than 8 terms in order.
    """
    factor = np.ascontiguousarray(chol.transpose(1, 2, 0))
    rhs = rhs.transpose(1, 2, 0)
    out = np.empty(rhs.shape)
    np.divide(rhs[0], factor[0, 0], out=out[0])
    for r in range(1, len(out)):
        acc = factor[r, 0] * out[0]
        for c in range(1, r):
            acc += factor[r, c] * out[c]
        np.subtract(rhs[r], acc, out=acc)
        np.divide(acc, factor[r, r], out=out[r])
    return out.transpose(2, 0, 1)


def _sum_leading(x: np.ndarray) -> np.ndarray:
    """Sums over the leading axis of (n, P), in order for any P: numpy would sum a lone column pairwise."""
    return np.add.reduce(x, axis=0) if x.shape[1] > 1 else np.add.accumulate(x, axis=0)[-1]


def _whitenings(to: ComponentArrays, *froms: ComponentArrays) -> list:
    """The one divergence kernel: (D, W, z) of each stack in ``froms`` against ``to``, by one substitution.

    D = D(from || to) per row, the closed form of :func:`kld_gauss`, is
    +inf for remote pairs.  W = L_to^-1 L_from, (k, k, P), and z = L_to^-1
    (m_from - m_to), (k, P), so for x = m_from + L_from y the Mahalanobis
    term of q_to is |z + W y|^2.  Each stack's [L | m - m_to] are columns.
    """
    p, k = np.broadcast_shapes(to.means.shape, *(f.means.shape for f in froms))
    rhs = np.empty((k, len(froms), k + 1, p))
    for n, f in enumerate(froms):
        rhs[:, n, :k], rhs[:, n, k] = f.chols.transpose(1, 2, 0), (f.means - to.means).T
    sol = _solve_lower(to.chols, rhs.reshape(k, -1, p).transpose(2, 0, 1)).transpose(1, 2, 0).reshape(rhs.shape)
    with np.errstate(over="ignore"):
        return [
            (0.5 * (to.log_dets - f.log_dets - k + _sum_leading((w * w).reshape(k * k, p)) + _sum_leading(z * z)), w, z)
            for f, w, z in zip(froms, sol[:, :, :k].swapaxes(0, 1), sol[:, :, k].swapaxes(0, 1))
        ]


def _overlap_solves(a: ComponentArrays, b: ComponentArrays, *cols) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Overlaps N(m_a; m_b, S_a + S_b) of aligned rows, L^-1 [cols | m_a - m_b] as (P, k, c), and a flag per row.

    One factorization S_a + S_b = L L^T per row.  A sum of two valid covariances
    fails only by overflow: its row is flagged False, with NaN results.
    """
    with np.errstate(over="ignore"):
        chol, log_det, ok = _cholesky(a.covs + b.covs)
        sol = _solve_lower(chol, np.concatenate([*cols, (a.means - b.means)[:, :, None]], axis=2))
        z = sol.transpose(1, 2, 0)[:, -1]
        return np.exp(-0.5 * (len(z) * _LOG_2PI + log_det + _sum_leading(z * z))), sol, ok


def _overlaps(a: ComponentArrays, b: ComponentArrays, *cols) -> tuple[np.ndarray, np.ndarray]:
    """The overlaps and solve of :func:`_overlap_solves`, after the one check that every covariance sum factorizes."""
    values, sol, ok = _overlap_solves(a, b, *cols)
    if not np.all(ok):
        raise np.linalg.LinAlgError("a covariance sum S_a + S_b is not positive definite")
    return values, sol


def _centered_log_pdfs(arr: ComponentArrays, centered: np.ndarray, work=None, out=None) -> np.ndarray:
    """The (P, n) matrix of log w_p + log q_p(x_i), from the (P, k, n) points x_i - m_p.

    Forms each inverse factor L_p^-1 once (forward substitution on the
    identity), whitens in one stacked product z = L_p^-1 (x_i - m_p), and
    adds log w_p - 1/2 (k log 2 pi + log |S_p| + |z|^2).  Centring first
    keeps the digits that L_p^-1 x_i - L_p^-1 m_p would cancel near a
    thin component.  ``work`` (P, k, n) and ``out`` are optional buffers.
    An overflowing |z|^2 gives an entry of -inf.
    """
    p, k, _ = centered.shape
    with np.errstate(over="ignore"):
        # A contiguous operand keeps matmul on its BLAS path.
        inv = np.ascontiguousarray(_solve_lower(arr.chols, np.broadcast_to(np.eye(k), (p, k, k))))
        z = np.matmul(inv, centered, out=work)
        out = np.sum(np.square(z, out=z), axis=1, out=out)
        out *= -0.5
        out += (np.log(arr.weights) - 0.5 * (k * _LOG_2PI + arr.log_dets))[:, None]
    return out


def _exp_ftz(x: np.ndarray, out=None) -> np.ndarray:
    """exp(x), with every entry below e^_EXP_FLOOR flushed to exactly 0.

    exp(max(x, _EXP_FLOOR)), then masked: exp never meets a subnormal or
    underflowing result, where it runs many times slower, and NaN
    propagates.  A bare clamp would turn the exact zeros of a collapsed
    EM component into e^-700.  ``out`` is an optional buffer, and may be ``x``.
    """
    tiny = x < _EXP_FLOOR
    out = np.exp(np.maximum(x, _EXP_FLOOR, out=out), out=out)
    np.putmask(out, tiny, 0.0)
    return out


def _log_sum_exp(log_terms: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Log of the sums of exp(log_terms) over the leading axis, and each term's share of its sum.

    Each column is shifted by its maximum, so no term overflows, and
    summed in order (:func:`_sum_leading`); an all -inf column gives -inf.
    The flush (:func:`_exp_ftz`) zeroes shares but no bit of the log: the
    largest term is exactly 1, and a flushed one is below 1e-304, far
    under half an ulp of 1.  ``out`` is an optional buffer for the shares.
    """
    top = log_terms.max(axis=0)
    top[np.isneginf(top)] = 0.0
    shares = _exp_ftz(np.subtract(log_terms, top, out=out), out)
    sums = _sum_leading(shares)
    with np.errstate(divide="ignore", invalid="ignore"):
        shares /= sums
        return top + np.log(sums), shares


def _moment_match(a: ComponentArrays, b: ComponentArrays) -> tuple[ComponentArrays, np.ndarray]:
    """Moment-matched merges of aligned pairs, and a flag per row.

    Each merge carries the pair's total weight, its weighted mean, and
    its weighted covariance plus the spread term between the means (see
    :func:`moment_match_merge`).  The spread term overflows for extreme
    separations: a row whose moments are not finite or whose covariance
    fails to factorize is flagged False and holds NaN factors; the other
    rows are unaffected.
    """
    total = a.weights + b.weights
    with np.errstate(over="ignore", invalid="ignore"):
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


def _checked_merge(a: ComponentArrays, b: ComponentArrays) -> ComponentArrays:
    """The moment matches of :func:`_moment_match`, after the one check that every row succeeded."""
    merged, ok = _moment_match(a, b)
    if not ok.all():
        raise np.linalg.LinAlgError("moment-matched merge overflows or is not positive definite")
    return merged


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


def _pair_arrays(a, b, cls=GaussianComponent) -> tuple[ComponentArrays, ComponentArrays]:
    """The ``._arr`` stacks of a pair, after the one check that both are ``cls`` instances of one ``.dim``."""
    if not (isinstance(a, cls) and isinstance(b, cls)):
        raise ValueError(f"expected two {cls.__name__} arguments, got {type(a).__name__} and {type(b).__name__}")
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return a._arr, b._arr


def _points(x, k: int) -> np.ndarray:
    """The one point-shape rule: a (k,) point or an (n, k) batch, as (n, k); any other shape is a ``ValueError``."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim not in (1, 2) or pts.shape[-1] != k:
        raise ValueError(f"points must be (k,) or (n, k) with k = {k}, got shape {pts.shape}")
    return pts.reshape(-1, k)


def log_pdf(c: GaussianComponent, x) -> float | np.ndarray:
    """Log density of ``c`` at ``x``.

    ``x`` is a (k,) point or an (n, k) batch, and the result a scalar or
    an (n,) array; any other shape, 0-d included, is a ``ValueError``.
    """
    return -0.5 * (c.dim * _LOG_2PI + c.log_det + mahalanobis_sq(c, x))


def pdf(c: GaussianComponent, x) -> float | np.ndarray:
    """Density of ``c`` at ``x`` (see :func:`log_pdf` for shapes)."""
    return np.exp(log_pdf(c, x))


def mahalanobis_sq(c: GaussianComponent, x) -> float | np.ndarray:
    """Squared Mahalanobis distance from ``x`` to the component mean (shapes as :func:`log_pdf`, 0-d refused)."""
    z = _solve_lower(c._arr.chols, np.ascontiguousarray((_points(x, c.dim) - c.mean).T)[None])[0]
    quad = np.sum(z * z, axis=0)
    return float(quad[0]) if np.ndim(x) == 1 else quad


def kld_gauss(from_: GaussianComponent, to: GaussianComponent) -> float:
    """Kullback-Leibler divergence D(from_ || to) between two Gaussians.

    Closed form::

        1/2 [ log(|S_to| / |S_from|) - k + tr(S_to^-1 S_from)
              + (m_to - m_from)^T S_to^-1 (m_to - m_from) ]

    Always nonnegative; zero iff the densities coincide.
    """
    [(div, _, _)] = _whitenings(*reversed(_pair_arrays(from_, to)))
    return float(div[0])


def product_decompose(a: GaussianComponent, b: GaussianComponent) -> ProductDecomposition:
    """Write the pointwise product of two Gaussian densities as a scaled Gaussian.

    N(x; m_a, S_a) N(x; m_b, S_b) = scale * N(x; m*, S*) with

        scale = N(m_b; m_a, S_a + S_b)
        m*    = m_a + S_a (S_a + S_b)^-1 (m_b - m_a)
        S*    = S_a - S_a (S_a + S_b)^-1 S_a

    With S_a + S_b = L L^T, z = L^-1 (m_a - m_b) and A = L^-1 S_a, the
    two products with S_a (S_a + S_b)^-1 are -A^T z and A^T A, and the
    scale is the overlap read off the same z: one factorization per call.
    """
    return _product(a, b)[0]


def _product(a: GaussianComponent, b: GaussianComponent, *cols) -> tuple[ProductDecomposition, np.ndarray]:
    """:func:`product_decompose`, and L^-1 [cols | m_a - m_b] for (1, k, c) stacks ``cols``, from its one factor L."""
    scale, sol = _overlaps(*_pair_arrays(a, b), a._arr.covs, *cols)
    spread, rest, z = sol[0, :, : a.dim], sol[0, :, a.dim :], sol[0, :, -1]
    cov_star = a.cov - spread.T @ spread
    return ProductDecomposition(float(scale[0]), a.mean - spread.T @ z, 0.5 * (cov_star + cov_star.T)), rest


def expected_log(under: GaussianComponent, of: GaussianComponent) -> float:
    """E_{x ~ under}[ log of(x) ] in closed form.

    Equals -1/2 log|2 pi S_of| - 1/2 tr[ S_of^-1 (S_under + d d^T) ]
    with d the difference of means.
    """
    _pair_arrays(under, of)  # checks the types and dimensions
    with np.errstate(over="ignore"):  # a remote pair gives -inf, as kld_gauss gives +inf
        return _expected_log(under.mean, under.cov, of)


def _expected_log(mean: np.ndarray, cov: np.ndarray, of: GaussianComponent) -> float:
    """E[log of(x)] for any x with the given mean and covariance.

    Only ``of`` is factorized: ``cov`` enters through
    tr(S_of^-1 cov) = sum((L^-1 cov) * L^-1), so it may be singular.
    """
    k = of.dim
    rhs = np.concatenate([np.eye(k), cov, (of.mean - mean)[:, None]], axis=1)
    sol = _solve_lower(of._arr.chols, rhs[None])[0]
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
    normalized pair.  A batch of one over :func:`_checked_merge`, which
    applies every merge; the cost kernels price merges from the same
    :func:`_moment_match`.
    """
    merged = _checked_merge(*_pair_arrays(a, b))
    _check_weights(merged.weights)
    return GaussianComponent._of(merged)
