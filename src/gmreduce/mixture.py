"""Gaussian mixtures and the prune/merge hypotheses that shrink them.

A reduction step either removes one component and renormalizes the
survivors, or replaces a pair by its moment-matched merge.  Component
indices in :class:`Prune` and :class:`Merge` are 1-based everywhere in
the public API, matching the trace and CLI formats; only the internal
array storage is 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .constants import WEIGHT_SUM_ATOL
from .gauss import ComponentArrays, GaussianComponent, _log_sum_exp, _stacked_components, _weighted_log_pdfs
from .gauss import moment_match_merge

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


@dataclass(frozen=True)
class Prune:
    """Remove component ``j`` (1-based) and renormalize the rest."""

    j: int


@dataclass(frozen=True)
class Merge:
    """Replace components ``i`` and ``j`` (1-based, i < j) by their moment match."""

    i: int
    j: int

    def __post_init__(self):
        if not self.i < self.j:
            raise ValueError(f"merge indices must satisfy i < j, got ({self.i}, {self.j})")


Hypothesis = Union[Prune, Merge]


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """An ordered, immutable collection of weighted Gaussian components."""

    components: tuple[GaussianComponent, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("mixture must contain at least one component")
        dim = comps[0].dim
        for idx, c in enumerate(comps):
            if not isinstance(c, GaussianComponent):
                raise ValueError(f"component {idx + 1} is not a GaussianComponent")
            if c.dim != dim:
                raise ValueError(f"component {idx + 1} has dimension {c.dim}, expected {dim}")
            if c.weight <= 0.0:
                raise ValueError(f"component {idx + 1} has non-positive weight {c.weight}")
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @property
    def size(self) -> int:
        return len(self.components)

    def __len__(self) -> int:
        return len(self.components)

    @property
    def weights(self) -> np.ndarray:
        return np.array([c.weight for c in self.components])

    @property
    def is_normalized(self) -> bool:
        return abs(float(self.weights.sum()) - 1.0) <= WEIGHT_SUM_ATOL

    @classmethod
    def from_arrays(cls, weights, means, covs) -> "GaussianMixture":
        weights = np.asarray(weights, dtype=float)
        means = np.asarray(means, dtype=float)
        covs = np.asarray(covs, dtype=float)
        if not (len(weights) == len(means) == len(covs)):
            raise ValueError("weights, means and covs must have equal length")
        return cls(_stacked_components(weights, means, covs))

    def renormalized(self) -> "GaussianMixture":
        """Rescale weights to sum to exactly 1."""
        total = float(self.weights.sum())
        return GaussianMixture(tuple(c.with_weight(c.weight / total) for c in self.components))


def _require_normalized(m: GaussianMixture):
    if not m.is_normalized:
        raise ValueError(f"mixture weights sum to {float(m.weights.sum()):.12g}, expected 1 within {WEIGHT_SUM_ATOL}")


def _check_index(m: GaussianMixture, idx: int, name: str):
    if not 1 <= idx <= m.size:
        raise ValueError(f"{name} index {idx} out of range for mixture of size {m.size} (indices are 1-based)")


def log_pdf(m: GaussianMixture, x) -> float | np.ndarray:
    """Log density of the mixture at ``x`` ((k,) point or (n, k) batch).

    Accumulated in log space over the component terms, so a dominant
    component never overflows the sum and remote evaluation points do
    not underflow to -inf unless every component underflows.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    out = _log_sum_exp(_component_log_pdf(m, np.atleast_2d(x)))[:, 0]
    return float(out[0]) if single else out


def _component_log_pdf(m: GaussianMixture, pts: np.ndarray) -> np.ndarray:
    """The (n, size) matrix of log w_k + log q_k(x_i) for (n, k) points."""
    if pts.shape[1] != m.dim:
        raise ValueError(f"point dimension {pts.shape[1]} does not match mixture dimension {m.dim}")
    return _weighted_log_pdfs(ComponentArrays.of(m.components), pts)


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
    applications cannot drift.
    """
    _require_normalized(m)
    if isinstance(h, Prune):
        _check_index(m, h.j, "prune")
        if m.size == 1:
            raise ValueError("cannot prune the only component")
        if 1.0 - m.components[h.j - 1].weight <= 0.0:
            raise ValueError(f"cannot prune component {h.j}: it carries all of the mass")
        rest = tuple(c for i, c in enumerate(m.components) if i != h.j - 1)
        return GaussianMixture(rest).renormalized()
    if isinstance(h, Merge):
        _check_index(m, h.i, "merge")
        _check_index(m, h.j, "merge")
        merged = moment_match_merge(m.components[h.i - 1], m.components[h.j - 1])
        comps = [c for i, c in enumerate(m.components) if i not in (h.i - 1, h.j - 1)]
        comps.insert(h.i - 1, merged)
        return GaussianMixture(tuple(comps)).renormalized()
    raise ValueError(f"unknown hypothesis type: {h!r}")


def sample(m: GaussianMixture, n: int, seed, return_components: bool = False):
    """Draw ``n`` i.i.d. points from a normalized mixture.

    Each draw picks a component from the categorical weight distribution
    and then transforms a standard normal vector through that
    component's Cholesky factor.  Deterministic given ``seed``.  With
    ``return_components=True`` also returns the 1-based component index
    of origin for every point.
    """
    _require_normalized(m)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    rng = np.random.default_rng(seed)
    weights = m.weights
    idx = rng.choice(m.size, size=n, p=weights / weights.sum())
    z = rng.standard_normal((n, m.dim))
    pts = np.empty((n, m.dim))
    for i, c in enumerate(m.components):
        hit = idx == i
        if np.any(hit):
            pts[hit] = c.mean + z[hit] @ c.chol.T
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
