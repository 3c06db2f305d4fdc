"""Gaussian mixtures and the prune/merge hypotheses that shrink them.

A mixture wraps one read-only stack of components, which the functions
here read directly.  A reduction step either removes one component and
renormalizes the survivors, or replaces a pair by its moment-matched
merge, defined once by :func:`_apply` on a stack and checked once by
:func:`_check_hypothesis`, for :func:`apply`, both engines and the scalar
costs.  Indices in :class:`Prune` and :class:`Merge` are 1-based integers
everywhere in the public API, matching the trace and CLI formats; only
the array storage is 0-based.  Each input rule is checked in one place.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Union

import numpy as np

from .constants import WEIGHT_SUM_ATOL
from .gauss import ComponentArrays, GaussianComponent, _centered_log_pdfs, _check_weights, _checked_merge, _frozen
from .gauss import _log_sum_exp, _points, _stack
from .gauss import moment_match_merge  # noqa: F401 -- kept importable here for call tracers

__all__ = [
    "GaussianMixture",
    "Prune",
    "Merge",
    "Hypothesis",
    "log_pdf",
    "pdf",
    "apply",
    "sample",
    "enumerate_hypotheses",
]


def _is_integer(value) -> bool:
    """A Python or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Prune:
    """Remove component ``j`` (1-based) and renormalize the rest."""

    j: int

    def __post_init__(self):
        if not _is_integer(self.j):
            raise ValueError(f"prune index must be an integer, got {self.j!r}")


@dataclass(frozen=True)
class Merge:
    """Replace components ``i`` and ``j`` (1-based, i < j) by their moment match."""

    i: int
    j: int

    def __post_init__(self):
        if not (_is_integer(self.i) and _is_integer(self.j)):
            raise ValueError(f"merge indices must be integers, got ({self.i!r}, {self.j!r})")
        if not self.i < self.j:
            raise ValueError(f"merge indices must satisfy i < j, got ({self.i}, {self.j})")


Hypothesis = Union[Prune, Merge]


@dataclass(frozen=True, eq=False, init=False)
class GaussianMixture:
    """An ordered, immutable collection of weighted Gaussian components.

    It wraps one validated, read-only stack: ``components`` is a new tuple
    of views of its rows on each access, and ``weights`` a copy.
    """

    _arr: ComponentArrays

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise ValueError("mixture must contain at least one component")
        for idx, c in enumerate(comps):
            if not isinstance(c, GaussianComponent):
                raise ValueError(f"component {idx + 1} is not a GaussianComponent")
            if c.dim != comps[0].dim:
                raise ValueError(f"component {idx + 1} has dimension {c.dim}, expected {comps[0].dim}")
        object.__setattr__(self, "_arr", self._of(ComponentArrays.of(comps))._arr)

    @classmethod
    def _of(cls, arr: ComponentArrays) -> "GaussianMixture":
        """Wrap a factorized stack, marked read-only, after the weight rule (:func:`~gmreduce.gauss._check_weights`)."""
        _check_weights(arr.weights)
        m = object.__new__(cls)
        object.__setattr__(m, "_arr", _frozen(arr))
        return m

    @property
    def components(self) -> tuple[GaussianComponent, ...]:
        return tuple(GaussianComponent._of(self._arr.take(slice(i, i + 1))) for i in range(self.size))

    @property
    def dim(self) -> int:
        return self._arr.means.shape[1]

    @property
    def size(self) -> int:
        return len(self._arr)

    def __len__(self) -> int:
        return len(self._arr)

    @property
    def weights(self) -> np.ndarray:
        return self._arr.weights.copy()

    @property
    def is_normalized(self) -> bool:
        return abs(float(self._arr.weights.sum()) - 1.0) <= WEIGHT_SUM_ATOL

    @classmethod
    def from_arrays(cls, weights, means, covs) -> "GaussianMixture":
        return cls._of(_stack(weights, means, covs))

    def renormalized(self) -> "GaussianMixture":
        """Rescale weights to sum to exactly 1."""
        weights = self._arr.weights
        return GaussianMixture._of(replace(self._arr, weights=weights / float(weights.sum())))

    def __reduce__(self):
        return type(self).from_arrays, (self._arr.weights, self._arr.means, self._arr.covs)


def _require_normalized(m: GaussianMixture):
    if not m.is_normalized:
        raise ValueError(f"mixture weights sum to {float(m.weights.sum()):.12g}, expected 1 within {WEIGHT_SUM_ATOL}")


def _carries_all_mass(w):
    """The prune rule, elementwise: a prune of weight ``w`` leaves no mass, 1 - w <= 0, which is w >= 1 in floats."""
    return w >= 1.0


def _check_hypothesis(arr: ComponentArrays, h) -> None:
    """The one check of a step on ``arr``: prune or merge, 1-based indices in range, and mass left after a prune."""
    if not isinstance(h, (Prune, Merge)):
        raise ValueError(f"unknown hypothesis type: {h!r}")
    for idx in vars(h).values():
        if not 1 <= idx <= len(arr):
            name = type(h).__name__.lower()
            raise ValueError(f"{name} index {idx} out of range for mixture of size {len(arr)} (indices are 1-based)")
    if isinstance(h, Prune) and len(arr) == 1:
        raise ValueError("cannot prune the only component")
    if isinstance(h, Prune) and _carries_all_mass(arr.weights[h.j - 1]):
        raise ValueError(f"cannot prune component {h.j}: it carries all of the mass")


def log_pdf(m: GaussianMixture, x) -> float | np.ndarray:
    """Log density of the mixture at ``x`` ((k,) point or (n, k) batch).

    Accumulated in log space over the component terms, so a dominant
    component never overflows the sum and remote evaluation points do
    not underflow to -inf unless every component underflows.
    """
    out = _log_sum_exp(_component_log_pdf(m._arr, x))[0]
    return float(out[0]) if np.ndim(x) == 1 else out


def _component_log_pdf(arr: ComponentArrays, x) -> np.ndarray:
    """The (P, n) log w_p + log q_p(x_i) of a stack at a (k,) point or (n, k) points (:func:`gauss._points`)."""
    pts = _points(x, arr.means.shape[1])
    return _centered_log_pdfs(arr, np.ascontiguousarray(pts.T)[None] - arr.means[:, :, None])


def pdf(m: GaussianMixture, x) -> float | np.ndarray:
    """Mixture density at ``x`` (see :func:`log_pdf` for shapes)."""
    return np.exp(log_pdf(m, x))


def apply(m: GaussianMixture, h: Hypothesis) -> GaussianMixture:
    """Apply a prune or merge hypothesis to a normalized mixture.

    Pruning drops the component and renormalizes the survivors (their
    relative proportions are preserved, which for a normalized input is
    division by one minus the pruned weight).  Merging replaces the pair
    by its moment-matched single Gaussian, placed at the smaller of the
    two positions; the result is renormalized as well so repeated
    applications cannot drift.  The step and its checks are :func:`_apply`.
    """
    _require_normalized(m)
    return GaussianMixture._of(_apply(m._arr, h))


def _apply(arr: ComponentArrays, h: Hypothesis) -> ComponentArrays:
    """The one definition of a prune or merge step, on a stack of components.

    A merge writes the moment match of rows i and j into row i; both
    kinds then drop row j and renormalize the weights by their sum.  The
    input is not modified.  ``ValueError`` for a step that
    :func:`_check_hypothesis` refuses; ``LinAlgError`` for a merge whose
    moment match fails (:func:`~gmreduce.gauss._checked_merge`), which
    every cost kernel prices +inf.
    """
    _check_hypothesis(arr, h)
    out = arr.take(np.arange(len(arr)) != h.j - 1)
    if isinstance(h, Merge):
        merged = _checked_merge(arr.take(slice(h.i - 1, h.i)), arr.take(slice(h.j - 1, h.j)))
        for f in fields(out):
            getattr(out, f.name)[h.i - 1] = getattr(merged, f.name)[0]
    return replace(out, weights=out.weights / out.weights.sum())


def sample(m: GaussianMixture, n: int, seed, return_components: bool = False):
    """Draw ``n`` i.i.d. points from a normalized mixture.

    Each draw picks a component from the categorical weight distribution
    and then transforms a standard normal vector through that
    component's Cholesky factor.  Deterministic given ``seed``.  With
    ``return_components=True`` also returns the 1-based component index
    of origin for every point.
    """
    _require_normalized(m)
    if not _is_integer(n) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    rng = np.random.default_rng(seed)
    arr = m._arr
    idx = rng.choice(m.size, size=n, p=arr.weights / arr.weights.sum())
    z = rng.standard_normal((n, m.dim))
    pts = np.empty((n, m.dim))
    for i in range(m.size):
        hit = idx == i
        if np.any(hit):
            pts[hit] = arr.means[i] + z[hit] @ arr.chols[i].T
    if return_components:
        return pts, idx + 1
    return pts


def enumerate_hypotheses(m: GaussianMixture, include_pruning: bool = True) -> list[Hypothesis]:
    """All single-step hypotheses in canonical order.

    Prunes come first in ascending index, then merges in lexicographic
    (i, j) order.  This ordering is also the documented tie-break order
    of the reduction engines.
    """
    hyps: list[Hypothesis] = []
    if include_pruning:
        hyps.extend(Prune(j) for j in range(1, m.size + 1))
    for i in range(1, m.size + 1):
        for j in range(i + 1, m.size + 1):
            hyps.append(Merge(i, j))
    return hyps
