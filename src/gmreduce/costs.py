"""Reduction costs: divergence estimates, baseline bounds, and the
reverse-divergence surrogates used by the greedy engine.

Every pair statistic behind a cost comes from one batched layer.  Its
kernels take two :class:`~gmreduce.gauss.ComponentArrays` stacks aligned
row by row -- for index lists I, J, ``arr.take(I)`` and ``arr.take(J)``
-- and evaluate all rows in stacked numpy calls: the moment matches,
the merge kernels of ``runnalls``, ``arkl-simple`` and ``arkl``
(:func:`_merge_kernels`), the divergence matrix (:func:`_kld_matrix`)
and Gaussian overlaps (:func:`_overlaps`).  The public scalar functions
are batches of one over these kernels and both reduction engines call
them, so each cost has one definition.

The merge-direction surrogates follow one pattern: a candidate action's
cost has the form

    w log w - w * log( w_i exp(-e_i) + w_j exp(-e_j) ),   w = w_i + w_j

where the exponents ``e`` are divergences.  Divergences between remote
components easily reach 10^3, so every such combination is evaluated
with log-sum-exp; no intermediate ``exp(-e)`` is ever formed outside of
it.

Costs are reported exactly as computed.  The refined prune surrogate is
an upper bound on the reverse divergence of its prune.  The merge
surrogate is not a bound: it is the plain pair bound less a closed-form
estimate of that bound's Jensen gap, so it can fall slightly below the
true divergence, and slightly below zero for near-duplicate pairs.  Such
values are meaningful (the true divergence is tiny) and are flagged by
the reduction trace rather than clamped here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import mixture as mix
from .gauss import (
    _LOG_2PI,
    ComponentArrays,
    GaussianComponent,
    _cholesky,
    _expected_log,
    _moment_match,
    _overlaps,
    _pair_arrays,
    _solve_lower,
    _whiten,
    expected_log,  # noqa: F401 -- kept importable here for call tracers
    kld_gauss,
    max_value,
    moment_match_merge,  # noqa: F401 -- kept importable here for call tracers
    product_decompose,
)
from .mixture import GaussianMixture, Hypothesis, Merge, Prune

__all__ = [
    "CostKind",
    "DivergenceEstimate",
    "DisjointSupportError",
    "gaussian_overlap",
    "ise_analytic",
    "mc_kld",
    "runnalls_bound",
    "crude_prune_bound",
    "arkl_prune_cost",
    "simple_merge_bound",
    "switched_divergence",
    "arkl_merge_cost",
    "hypothesis_cost",
]


class CostKind(enum.Enum):
    """Which cost a greedy reduction assigns to a hypothesis.

    The enum values double as the CLI method names.
    """

    RUNNALLS_B = "runnalls"
    WILLIAMS_ISE = "williams"
    ARKL_FULL = "arkl"
    ARKL_SIMPLE = "arkl-simple"

    @property
    def include_pruning(self) -> bool:
        return self is not CostKind.RUNNALLS_B


@dataclass(frozen=True)
class DivergenceEstimate:
    """A divergence value together with its sampling uncertainty.

    ``samples == 0`` marks an analytic (deterministic) result and forces
    ``std_error == 0``.  A Monte Carlo estimate carries the sample count
    and the standard error of the mean.
    """

    value: float
    std_error: float
    samples: int

    def __post_init__(self):
        if self.samples < 0:
            raise ValueError(f"samples must be nonnegative, got {self.samples}")
        if self.std_error < 0.0:
            raise ValueError(f"std_error must be nonnegative, got {self.std_error}")
        if self.samples == 0 and self.std_error != 0.0:
            raise ValueError("an analytic estimate (samples=0) must have std_error 0")


class DisjointSupportError(ArithmeticError):
    """The denominator density underflowed to exactly zero at a sample point."""

    def __init__(self, abscissa: np.ndarray):
        self.abscissa = np.asarray(abscissa, dtype=float)
        super().__init__(
            f"density underflowed to zero at sample point {self.abscissa.tolist()}; "
            "the divergence is numerically infinite"
        )


# ---------------------------------------------------------------------------
# Overlaps and the squared error
# ---------------------------------------------------------------------------


def gaussian_overlap(a: GaussianComponent, b: GaussianComponent) -> float:
    """Integral of the product of two Gaussian densities.

    Equals ``N(mean_a; mean_b, cov_a + cov_b)``; weights are ignored.
    """
    return float(_overlaps(*_pair_arrays(a, b))[0])


def _overlap_matrix(a: ComponentArrays, b: ComponentArrays) -> np.ndarray:
    """Overlaps of every row of ``a`` with every row of ``b``, as one stacked call."""
    rows, cols = np.indices((len(a), len(b))).reshape(2, -1)
    return _overlaps(a.take(rows), b.take(cols)).reshape(len(a), len(b))


def ise_analytic(p: GaussianMixture, q: GaussianMixture) -> float:
    """Integral squared error between two mixtures, in closed form.

    All three Gram terms are computed: the self term of ``p``, the self
    term of ``q``, and the cross term.  The result is a true squared
    L2 distance, zero iff the mixtures represent the same density.
    """
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    pa, qa = ComponentArrays.of(p.components), ComponentArrays.of(q.components)
    wp, wq = p.weights, q.weights
    gpp = _overlap_matrix(pa, pa)
    gqq = _overlap_matrix(qa, qa)
    gpq = _overlap_matrix(pa, qa)
    return float(wp @ gpp @ wp + wq @ gqq @ wq - 2.0 * (wp @ gpq @ wq))


def mc_kld(from_: GaussianMixture, to: GaussianMixture, n: int, seed) -> DivergenceEstimate:
    """Monte Carlo estimate of D(from_ || to) between two mixtures.

    Averages ``log from_(x) - log to(x)`` over ``n`` seeded draws from
    ``from_`` and reports the standard error of the mean.  If ``to``
    underflows to exactly zero density at any sample, the divergence is
    numerically infinite and :class:`DisjointSupportError` is raised
    with the offending abscissa.
    """
    if n < 1000:
        raise ValueError(f"n must be at least 1000 for a usable error estimate, got {n}")
    pts = mix.sample(from_, n, seed)
    lf = mix.log_pdf(from_, pts)
    lt = mix.log_pdf(to, pts)
    bad = np.isneginf(lt)
    if np.any(bad):
        raise DisjointSupportError(pts[int(np.argmax(bad))])
    diff = lf - lt
    value = float(np.mean(diff))
    std_error = float(np.std(diff, ddof=1) / math.sqrt(n))
    return DivergenceEstimate(value, std_error, n)


# ---------------------------------------------------------------------------
# Merge kernels: one definition for every engine and public function
# ---------------------------------------------------------------------------


# sigmoid(t) ~ Phi(_PROBIT * t); the scale matches the slope 1/4 at t = 0.
_PROBIT = math.sqrt(math.pi / 8.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _softplus_jensen_gap(mean: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """Closed-form estimate of E[softplus(L)] - softplus(mean) for L ~ N(mean, sd^2).

    With sigmoid(t) ~ Phi(c t), softplus(l) ~ l Phi(c l) + phi(c l) / c,
    whose expectation under N(mean, sd^2) is exact:

        mean Phi(u) + (k / c) phi(u),   k = sqrt(1 + c^2 sd^2),  u = c mean / k

    The gap is the difference between that expression at ``sd`` and at
    zero spread, so it is exactly 0 for a constant L and never negative.
    """

    def smoothed(k):
        u = _PROBIT * mean / k
        return mean * ndtr(u) + (k / _PROBIT) * _INV_SQRT_2PI * np.exp(-0.5 * u * u)

    with np.errstate(over="ignore", invalid="ignore"):
        return smoothed(np.hypot(1.0, _PROBIT * sd)) - smoothed(1.0)


def _arkl_exponents(
    a: ComponentArrays, b: ComponentArrays, merged: ComponentArrays
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge exponents of pairs: D(q_ab || q_a) and D(q_ab || q_b), each less the Jensen gap.

    With p = (w_a q_a + w_b q_b) / w and L = log(w_b q_b / (w_a q_a)),

        D(q_ab || p) = D(q_ab || q_a) - log(w_a / w) - E softplus(L)

    exactly, and the pair bound is the same expression with softplus(E L)
    in place of E softplus(L).  Lowering both exponents by an estimate
    of the gap E softplus(L) - softplus(E L) lowers the assembled pair
    cost by w times that estimate.  Under q_ab, L is Gaussian when the
    two covariances are equal; otherwise it is a quadratic form, and of
    two spreads that are exact in the equal case -- the full standard
    deviation of L and that of the pooled-covariance discriminant -- the
    smaller is used.  Spreads are formed with ``hypot`` because their
    squares overflow long before the merge itself does.  The third
    result flags pairs whose pooled covariance factorizes and whose
    exponents are finite.
    """
    d_a, w_a, z_a = _whiten(merged, a)
    d_b, w_b, z_b = _whiten(merged, b)
    # L at x = m_ab + L_ab y: const + slope^T y + y^T curv y / 2, y ~ N(0, I),
    # so Var L = |slope|^2 + |curv|_F^2 / 2.  A product overflows only where
    # a factor's square, and so a divergence, does; that row is flagged below.
    with np.errstate(over="ignore", invalid="ignore"):
        slope = np.sum(w_a * z_a[:, :, None], axis=1) - np.sum(w_b * z_b[:, :, None], axis=1)
        curv = np.sum(w_a[:, :, :, None] * w_a[:, :, None, :], axis=1) - np.sum(
            w_b[:, :, :, None] * w_b[:, :, None, :], axis=1
        )
    terms = np.concatenate([slope, curv.reshape(len(slope), -1) * math.sqrt(0.5)], axis=1)
    sd_full = np.hypot.reduce(terms, axis=1)
    pa = a.weights / merged.weights
    pb = b.weights / merged.weights
    pooled, _, pooled_ok = _cholesky(pa[:, None, None] * a.covs + pb[:, None, None] * b.covs)
    sep = np.hypot.reduce(_solve_lower(pooled, (b.means - a.means)[:, :, None])[:, :, 0], axis=1)
    # delta^T S_pool^-1 x under q_ab, whose covariance is S_pool + pa pb delta delta^T,
    # has variance t (1 + pa pb t) with t = sep^2.
    with np.errstate(over="ignore"):
        sd_pooled = sep * np.hypot(1.0, np.sqrt(pa * pb) * sep)
    mean = np.log(b.weights / a.weights) + d_a - d_b
    gap = _softplus_jensen_gap(mean, np.minimum(sd_full, sd_pooled))
    e_a, e_b = d_a - gap, d_b - gap
    # A divergence that overflows leaves the gap at inf - inf.
    return e_a, e_b, pooled_ok & np.isfinite(e_a) & np.isfinite(e_b)


def _merge_kernels(
    kind: CostKind, a: ComponentArrays, b: ComponentArrays
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weight-independent merge kernels (k_a, k_b) of aligned pairs, and a flag per pair.

    ``runnalls``: D(q_a || q_ab) and D(q_b || q_ab) to the moment match
    q_ab.  ``arkl-simple``: D(q_ab || q_a) and D(q_ab || q_b).  ``arkl``:
    those less the Jensen-gap estimate of :func:`_arkl_exponents`.  All
    depend only on the pair's relative weights, so they survive any
    uniform rescaling of the mixture weights.  The flag is False where
    the moment match (or, for ``arkl``, the pooled covariance) overflows
    or fails to factorize, or where an ``arkl`` exponent is not finite;
    such rows hold NaN or inf.
    """
    merged, ok = _moment_match(a, b)
    if kind is CostKind.RUNNALLS_B:
        return _whiten(a, merged)[0], _whiten(b, merged)[0], ok
    if kind is CostKind.ARKL_SIMPLE:
        return _whiten(merged, a)[0], _whiten(merged, b)[0], ok
    if kind is CostKind.ARKL_FULL:
        e_a, e_b, pooled_ok = _arkl_exponents(a, b, merged)
        return e_a, e_b, ok & pooled_ok
    raise ValueError(f"no pair kernel for {kind}")


def _pair_cost_from_neg_exponents(w_i, w_j, e_i, e_j):
    """Assemble w log w - w log(w_i exp(-e_i) + w_j exp(-e_j)) stably, elementwise."""
    w = w_i + w_j
    return w * np.log(w) - w * np.logaddexp(np.log(w_i) - e_i, np.log(w_j) - e_j)


def _pair_costs(kind: CostKind, w_i, w_j, k_a, k_b):
    """Merge costs from the pair weights and the cached kernels, elementwise."""
    if kind is CostKind.RUNNALLS_B:
        return w_i * k_a + w_j * k_b
    # Both reverse-divergence merge surrogates share the pair-bound shape.
    return _pair_cost_from_neg_exponents(w_i, w_j, k_a, k_b)


def _merge_cost(kind: CostKind, a: GaussianComponent, b: GaussianComponent) -> float:
    """A batch of one through :func:`_merge_kernels` and :func:`_pair_costs`."""
    if a.weight + b.weight <= 0.0:
        raise ValueError("cannot merge a pair with zero total weight")
    sa, sb = _pair_arrays(a, b)
    k_a, k_b, ok = _merge_kernels(kind, sa, sb)
    if not ok[0]:
        raise np.linalg.LinAlgError("the pair's merge kernels overflow or fail to factorize")
    return float(_pair_costs(kind, sa.weights, sb.weights, k_a, k_b)[0])


def _kld_matrix(arr: ComponentArrays) -> np.ndarray:
    """D(q_a || q_b) for every ordered pair of distinct rows; zero diagonal."""
    n = len(arr)
    rows, cols = np.nonzero(~np.eye(n, dtype=bool))
    out = np.zeros((n, n))
    out[rows, cols] = _whiten(arr.take(rows), arr.take(cols))[0]
    return out


# ---------------------------------------------------------------------------
# Forward-divergence baseline (Runnalls)
# ---------------------------------------------------------------------------


def runnalls_bound(a: GaussianComponent, b: GaussianComponent) -> float:
    """Weighted upper bound on the forward-divergence increase of merging a pair.

    B = w_a D(q_a || q_ab) + w_b D(q_b || q_ab) with q_ab the
    moment-matched merge.  Scales linearly with the absolute weights.
    """
    return _merge_cost(CostKind.RUNNALLS_B, a, b)


# ---------------------------------------------------------------------------
# Reverse-divergence surrogates
# ---------------------------------------------------------------------------


def _crude_prune(w):
    return -np.log1p(-w)


def crude_prune_bound(w: float) -> float:
    """Weight-only upper bound on the reverse divergence of pruning: -log(1 - w)."""
    if not 0.0 < w < 1.0:
        raise ValueError(f"pruned weight must lie strictly between 0 and 1, got {w}")
    return float(_crude_prune(w))


def _arkl_prune_terms(weights: np.ndarray, kld_to_pruned: np.ndarray, pruned: np.ndarray) -> np.ndarray:
    """Prune-cost candidates: entry [r, c] prunes component ``pruned[c]`` and retains r.

    ``kld_to_pruned[r, c]`` holds D(q_r || q_pruned[c]).  Retaining mass
    on r tightens the crude bound by the r-th correction term; the cost
    used by the engine is the minimum of column c.  The pruned component
    itself is no candidate: its entry is +inf.
    """
    w_i = weights[pruned]
    corr = np.logaddexp(0.0, np.log(w_i) - np.log(weights)[:, None] - kld_to_pruned)
    terms = _crude_prune(w_i) - (weights[:, None] / (1.0 - w_i)) * corr
    terms[pruned, np.arange(len(pruned))] = np.inf
    return terms


def arkl_prune_cost(m: GaussianMixture, i: int) -> float:
    """Reverse-divergence surrogate for pruning component ``i`` (1-based).

    Refines the crude ``-log(1 - w_i)`` bound with the best single
    retained component: the minimum over J != i of

        -log(1 - w_i) - (w_j / (1 - w_i)) log(1 + (w_i / w_j) exp(-D(q_j || q_i)))

    The minimum is taken over the components actually present, so it
    must be re-evaluated after every reduction step.
    """
    if not 1 <= i <= m.size:
        raise ValueError(f"index {i} out of range for mixture of size {m.size} (1-based)")
    if m.size < 2:
        raise ValueError("prune cost requires at least two components")
    i0 = i - 1
    arr = ComponentArrays.of(m.components)
    others = np.flatnonzero(np.arange(m.size) != i0)
    col = np.zeros((m.size, 1))
    col[others, 0] = _whiten(arr.take(others), arr.take([i0]))[0]
    return float(np.min(_arkl_prune_terms(m.weights, col, np.array([i0]))))


def simple_merge_bound(a: GaussianComponent, b: GaussianComponent) -> float:
    """Merge cost surrogate that plugs plain divergences into the pair bound.

    With q_ab the moment-matched merge and w = w_a + w_b, the cost is

        w log w - w log( w_a exp(-D(q_ab || q_a)) + w_b exp(-D(q_ab || q_b)) ),

    w times the Jensen bound on D(q_ab || (w_a q_a + w_b q_b) / w).
    A genuine upper bound on the reverse divergence of merging, but far
    looser than the switched version for well-separated pairs: it keeps
    growing with the separation and soon exceeds the cost of pruning
    either component outright.
    """
    return _merge_cost(CostKind.ARKL_SIMPLE, a, b)


def switched_divergence(k: GaussianComponent, i: GaussianComponent, j: GaussianComponent) -> float:
    """Divergence from q_k to q_j with the region near q_i switched off.

    Evaluates, in closed form,

        V(q_k, q_i, q_j) = Integral q_k (1 - q_i / max q_i) log(q_k / q_j)

    The switching factor vanishes at the mean of q_i and tends to 1 far
    from it, so V discounts exactly the region where q_i would cover for
    q_j.  Assembled from the product decomposition q_i q_k = scale * q*,
    the expected logs of q_k and q_j under q*, and the plain divergence
    D(q_k || q_j).  Unlike a true divergence it may be negative.

    q* enters only through its moments, so its covariance -- a
    difference of matrices that need not factorize when q_k is nearly
    singular -- is never factorized.  E*[log q_k] avoids S_k^-1
    altogether: with S = S_i + S_k and v = S^-1 (m_i - m_k), it uses
    tr(S_k^-1 S*) = tr(S^-1 S_i) and m* - m_k = S_k v.
    """
    pd = product_decompose(i, k)
    # (2 pi)^(k/2) |cov_i|^(1/2) N(mean_i; mean_k, cov_k + cov_i), in [0, 1]
    ratio = pd.scale / max_value(i)
    sol = np.linalg.solve(i.cov + k.cov, np.column_stack([i.cov, i.mean - k.mean]))
    v = sol[:, -1]
    elog_k = -0.5 * (k.dim * _LOG_2PI + k.log_det + float(np.trace(sol[:, :-1])) + float(v @ k.cov @ v))
    elog_j = _expected_log(pd.mean_star, pd.cov_star, j)
    return kld_gauss(k, j) - ratio * (elog_k - elog_j)


def arkl_merge_cost(a: GaussianComponent, b: GaussianComponent) -> float:
    """Reverse-divergence surrogate for merging a pair.

    Approximates D(w q_ab || w_a q_a + w_b q_b), the merge part of the
    reverse divergence, as the pair bound with the merge exponents of
    :func:`_arkl_exponents`:

        w log w - w log( w_a exp(-e_a) + w_b exp(-e_b) )
            = simple_merge_bound(a, b) - w * gap

    The gap estimate is positive for any pair whose components differ,
    so the cost sits below :func:`simple_merge_bound`.  It is near zero
    for near-duplicate pairs, and may be slightly negative there.  When
    the covariances are equal it tracks the exact value closely at every
    separation: on the w_a = 0.8 unit-variance family it is within 0.012
    of quadrature for separations 0 to 12.  Like the exact value it grows
    as the squared separation.  When the covariances differ it is an
    approximation with no sign guarantee.
    """
    return _merge_cost(CostKind.ARKL_FULL, a, b)


# ---------------------------------------------------------------------------
# Gram-based squared-error assembly (shared with the reduction engine)
# ---------------------------------------------------------------------------


def _gram_stats(weights: np.ndarray, gram: np.ndarray) -> tuple[np.ndarray, float]:
    s = gram @ weights
    return s, float(weights @ s)


def _prune_ise_from_gram(weights: np.ndarray, gram: np.ndarray, s: np.ndarray, t: float, j0) -> np.ndarray:
    """ISE between the mixture and its renormalized prunes of ``j0`` (index array), from cached overlaps."""
    w_j = weights[j0]
    c = 1.0 / (1.0 - w_j)
    own = t - 2.0 * w_j * s[j0] + w_j * w_j * gram[j0, j0]
    cross = t - w_j * s[j0]
    return t + c * c * own - 2.0 * c * cross


def _williams_merge_costs(
    arr: ComponentArrays, gram: np.ndarray, s: np.ndarray, t: float, i0: np.ndarray, j0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """ISE between the mixture and each of its (i0[p], j0[p]) merges, and a flag per pair.

    Each candidate's overlaps with the current components are evaluated
    in one stacked call per component, so memory stays proportional to
    the number of pairs; everything else comes from the Gram matrix of
    the unmodified mixture.  A pair whose moment match fails is flagged
    False and costs +inf.  Costs n + 1 overlaps per flagged-True pair
    for n components.
    """
    w = arr.weights
    merged, ok = _moment_match(arr.take(i0), arr.take(j0))
    cand = merged.take(ok)
    i0, j0 = i0[ok], j0[ok]
    u_i = np.empty(len(cand))
    u_j = np.empty(len(cand))
    wu = np.zeros(len(cand))
    for k in range(len(arr)):
        u = _overlaps(arr.take([k]), cand)
        wu += w[k] * u
        at_i, at_j = i0 == k, j0 == k
        u_i[at_i] = u[at_i]
        u_j[at_j] = u[at_j]
    u_mm = _overlaps(cand, cand)
    w_i, w_j = w[i0], w[j0]
    w_m = w_i + w_j
    survivors_sq = (
        t
        - 2.0 * (w_i * s[i0] + w_j * s[j0])
        + (w_i * w_i * gram[i0, i0] + 2.0 * w_i * w_j * gram[i0, j0] + w_j * w_j * gram[j0, j0])
    )
    wu_surv = wu - w_i * u_i - w_j * u_j
    q_sq = survivors_sq + 2.0 * w_m * wu_surv + w_m * w_m * u_mm
    pq = (t - w_i * s[i0] - w_j * s[j0]) + w_m * wu
    costs = np.full(len(ok), np.inf)
    costs[ok] = t + q_sq - 2.0 * pq
    return costs, ok


def _williams_ise(m: GaussianMixture, h: Hypothesis) -> float:
    arr = ComponentArrays.of(m.components)
    gram = _overlap_matrix(arr, arr)
    s, t = _gram_stats(arr.weights, gram)
    if isinstance(h, Prune):
        return float(_prune_ise_from_gram(arr.weights, gram, s, t, h.j - 1))
    costs, ok = _williams_merge_costs(arr, gram, s, t, np.array([h.i - 1]), np.array([h.j - 1]))
    if not ok[0]:
        raise np.linalg.LinAlgError("the pair's moment match overflows or fails to factorize")
    return float(costs[0])


def hypothesis_cost(m: GaussianMixture, h: Hypothesis, kind: CostKind) -> float:
    """Cost assigned to a single hypothesis under the given method.

    The statistics it needs are computed from ``m`` on the fly.  Pruning
    is not part of the Runnalls hypothesis set, so asking for a prune
    cost under it is an error.
    """
    if not isinstance(h, (Prune, Merge)):
        raise ValueError(f"unknown hypothesis type: {h!r}")
    if kind is CostKind.WILLIAMS_ISE:
        return _williams_ise(m, h)
    if isinstance(h, Prune):
        if kind is CostKind.RUNNALLS_B:
            raise ValueError("the merge-only Runnalls method assigns no cost to pruning")
        if kind is CostKind.ARKL_SIMPLE:
            return crude_prune_bound(m.components[h.j - 1].weight)
        return arkl_prune_cost(m, h.j)
    return _merge_cost(kind, m.components[h.i - 1], m.components[h.j - 1])
