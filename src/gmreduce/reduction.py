"""Greedy mixture reduction with incremental cost caching.

One reduction step evaluates every admissible hypothesis (all prunes and
all pair merges, or merges only for the merge-only method), applies the
cheapest one, and repeats until the target size is reached.  Ties are
broken by canonical hypothesis order: prunes before merges, then
ascending indices; together with the deterministic cost evaluation this
makes repeated runs bit-identical.

Every pair statistic comes from the batched kernel layer of
:mod:`gmreduce.costs`: a step hands it the index lists of all the pairs
it needs and gets every value back from one stacked evaluation, never
from a Python loop over pairs.  The engine's only state is a
:class:`CostTable`: the current components, stacked in canonical order,
and the statistics cached across steps, which are exactly the
weight-independent part of each cost:

* divergences between existing components (the full pairwise matrix used
  by the refined prune cost),
* per-pair divergences to/from the pair's moment match and the merge
  exponents of the full reverse-divergence method -- these depend only
  on the pair's relative weights, which no prune or unrelated merge can
  change,
* the Gram matrix of pairwise overlap integrals for the squared-error
  method.

A step moves the table's components through the one prune/merge
definition, :func:`gmreduce.mixture._apply`, which
:func:`gmreduce.mixture.apply` uses too, and updates the table in place:
row and column j of every cached matrix are deleted, a merge overwrites
row and column i with the new component's statistics as one batch, and
every pair is repriced from the kernels under the renormalized weights
in one elementwise expression over the whole matrix (+inf marks what is
not a live pair).  The output mixture is built once, at the end.
This keeps the divergence-based methods at O(N^2) primitive evaluations
for a full N -> 1 reduction.  The squared-error method re-evaluates
every candidate merge's overlaps with the surviving components each
step (the candidates' mixtures change with the surviving set): O(N^3)
evaluations per step instead of the O(N^4) of a from-scratch
evaluation, done as one stacked call per component so that memory stays
proportional to the number of pairs.

A merge candidate whose moment match overflows or fails to factorize, or
whose merge exponents are not finite, is assigned +inf cost, skipped,
and recorded in the trace; the other pairs of its batch are unaffected.

:func:`reference_reduce` recomputes every cost from scratch through the
public per-hypothesis cost functions, which are batches of one over the
same kernels, so the two engines share one definition of each cost,
except the squared-error one, priced as ``ise_analytic(m, apply(m, h))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mixture as mix
from .costs import (
    CostKind,
    _arkl_prune_terms,
    _crude_prune,
    _gram_stats,
    _kld_matrix,
    _merge_kernels,
    _overlaps,
    _pair_costs,
    _prune_ise_from_gram,
    _williams_merge_costs,
    arkl_prune_cost,  # noqa: F401 -- kept importable here for call tracers
    gaussian_overlap,  # noqa: F401 -- kept importable here for call tracers
    hypothesis_cost,
    ise_analytic,
    kld_gauss,  # noqa: F401 -- kept importable here for call tracers
    switched_divergence,  # noqa: F401 -- kept importable here for call tracers
)
from .gauss import (
    ComponentArrays,
    _components,
    _whiten,
    moment_match_merge,  # noqa: F401 -- kept importable here for call tracers
)
from .mixture import GaussianMixture, Hypothesis, Merge, Prune, enumerate_hypotheses

__all__ = [
    "EvalCounter",
    "CostTable",
    "TraceStep",
    "ReductionTrace",
    "build_cost_table",
    "update_cost_table",
    "reduce",
    "reference_reduce",
]


@dataclass
class EvalCounter:
    """Tally of pairwise-statistic evaluations performed by an engine.

    One unit per plain Gaussian divergence, per overlap integral, and
    per merge exponent of the full reverse-divergence method (tallied as
    ``switched``, one per side of a pair).  The units are logical: a
    stacked kernel call over P pairs bills P units per statistic.
    Reassembling cached kernels under new weights is ordinary arithmetic
    and is deliberately not counted.
    """

    kld: int = 0
    overlap: int = 0
    switched: int = 0

    @property
    def total(self) -> int:
        return self.kld + self.overlap + self.switched


def _bill(counter: EvalCounter | None, field: str, count: int) -> None:
    if counter is not None:
        setattr(counter, field, getattr(counter, field) + count)


# The counter field each method's merge kernel bills, two per pair.
_KERNEL_FIELD = {CostKind.RUNNALLS_B: "kld", CostKind.ARKL_SIMPLE: "kld", CostKind.ARKL_FULL: "switched"}


@dataclass(eq=False)
class CostTable:
    """The whole state of the greedy engine: the current components and their costs.

    ``arr`` holds the current components in canonical order.
    ``pair_cost[i0, j0]`` (0-based, upper triangle, +inf elsewhere) is
    the current cost of merging that pair and ``prune_cost[j0]`` that of
    the corresponding prune (``None`` for the merge-only method).
    ``pairwise_kld[a, b]`` holds D(component a || component b) for the
    refined prune cost; ``gram`` holds pairwise overlap integrals for
    the squared-error method.  ``kernel_a``/``kernel_b`` are the per-pair
    weight-independent merge kernels, +inf off the upper triangle and at
    the pairs marked ``degenerate``, whose kernels could not be evaluated.
    :func:`update_cost_table` advances every field in place.
    """

    kind: CostKind
    arr: ComponentArrays
    pair_cost: np.ndarray
    prune_cost: np.ndarray | None
    degenerate: np.ndarray
    pairwise_kld: np.ndarray | None = None
    gram: np.ndarray | None = None
    kernel_a: np.ndarray | None = None
    kernel_b: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.pair_cost.shape[0]


def _mark_degenerate(table: CostTable, bad_i: np.ndarray, bad_j: np.ndarray) -> list[Merge]:
    """Flag pairs (bad_i[p], bad_j[p]), already priced +inf, degenerate; return their merges (1-based)."""
    table.degenerate[bad_i, bad_j] = True
    return [Merge(int(i) + 1, int(j) + 1) for i, j in zip(bad_i, bad_j)]


def _fill_pair_kernels(table: CostTable, i0: np.ndarray, j0: np.ndarray, counter: EvalCounter | None) -> list[Merge]:
    """Evaluate the merge kernels of pairs (i0[p], j0[p]), i0 < j0, as one batch.

    Two evaluations per pair, billed only when the pair's kernels are
    valid; the others get +inf kernels, are marked degenerate and returned.
    """
    k_a, k_b, ok = _merge_kernels(table.kind, table.arr.take(i0), table.arr.take(j0))
    table.kernel_a[i0, j0] = np.where(ok, k_a, np.inf)
    table.kernel_b[i0, j0] = np.where(ok, k_b, np.inf)
    _bill(counter, _KERNEL_FIELD[table.kind], 2 * int(np.count_nonzero(ok)))
    return _mark_degenerate(table, i0[~ok], j0[~ok])


def _refresh(table: CostTable, counter: EvalCounter | None) -> list[Merge]:
    """Reassemble every prune cost and the cost of every live pair under the current weights.

    The divergence methods price the whole matrix from the cached
    kernels.  The squared-error method evaluates each candidate merge's
    overlaps with the n current components, n + 1 per live pair, and
    returns the pairs newly found degenerate.
    """
    kind, arr = table.kind, table.arr
    n, w = len(arr), arr.weights
    if kind is CostKind.WILLIAMS_ISE:
        iu, ju = np.nonzero(np.triu(~table.degenerate, k=1))
        s, t = _gram_stats(w, table.gram)
        table.prune_cost[:] = _prune_ise_from_gram(w, table.gram, s, t, np.arange(n))
        costs, ok = _williams_merge_costs(arr, table.gram, s, t, iu, ju)
        _bill(counter, "overlap", (n + 1) * int(np.count_nonzero(ok)))
        table.pair_cost[iu, ju] = costs
        return _mark_degenerate(table, iu[~ok], ju[~ok])
    table.pair_cost = _pair_costs(kind, w[:, None], w, table.kernel_a, table.kernel_b)
    if kind is CostKind.ARKL_SIMPLE:
        table.prune_cost[:] = _crude_prune(w)
    elif kind is CostKind.ARKL_FULL:
        table.prune_cost[:] = _arkl_prune_terms(w, table.pairwise_kld, np.arange(n)).min(axis=0)
    return []


def _check_arguments(m: GaussianMixture, kind: CostKind, target: int | None = None) -> None:
    """The argument checks of both engines; the target is checked only when given."""
    if not isinstance(kind, CostKind):
        raise ValueError(f"kind must be a CostKind, got {kind!r}")
    if target is not None and not 1 <= target <= m.size:
        raise ValueError(f"target must lie in [1, {m.size}], got {target}")
    if target is not None and not m.is_normalized:
        raise ValueError("reduction requires a normalized mixture")


def build_cost_table(
    m: GaussianMixture, kind: CostKind, counter: EvalCounter | None = None
) -> tuple[CostTable, list[Merge]]:
    """Evaluate all hypothesis costs for ``m`` from scratch.

    Returns the table and the merges found degenerate (1-based).
    """
    _check_arguments(m, kind)
    n = m.size
    prune_cost = None if kind is CostKind.RUNNALLS_B else np.full(n, np.inf)
    arr = ComponentArrays.of(m.components)
    table = CostTable(kind, arr, np.full((n, n), np.inf), prune_cost, np.zeros((n, n), dtype=bool))
    if kind is CostKind.WILLIAMS_ISE:
        gi, gj = np.triu_indices(n)
        table.gram = np.empty((n, n))
        table.gram[gi, gj] = table.gram[gj, gi] = _overlaps(arr.take(gi), arr.take(gj))
        _bill(counter, "overlap", gi.size)
        return table, _refresh(table, counter)
    if kind is CostKind.ARKL_FULL:
        table.pairwise_kld = _kld_matrix(arr)
        _bill(counter, "kld", n * (n - 1))
    table.kernel_a, table.kernel_b = np.full((n, n), np.inf), np.full((n, n), np.inf)
    return table, _fill_pair_kernels(table, *np.triu_indices(n, k=1), counter) + _refresh(table, counter)


def _delete_rc(table: CostTable, idx: int) -> None:
    """Delete entry ``idx`` along every axis of every cached array of ``table``."""
    keep = np.delete(np.arange(table.size), idx)
    grid = np.ix_(keep, keep)
    for name in ("pair_cost", "prune_cost", "degenerate", "pairwise_kld", "gram", "kernel_a", "kernel_b"):
        cached = getattr(table, name)
        if cached is not None:
            setattr(table, name, cached[grid if cached.ndim == 2 else keep])


def update_cost_table(table: CostTable, applied: Hypothesis, counter: EvalCounter | None = None) -> list[Merge]:
    """Advance a cost table in place across one applied hypothesis.

    The table's components move one step through :func:`mixture._apply`,
    row and column j of every cached matrix are deleted, and for a merge
    row and column i are overwritten with the merged component's
    statistics, evaluated as one batch each.  Every other kernel,
    pairwise divergence and Gram entry is carried over.  Returns the
    merges newly found degenerate (1-based).
    """
    table.arr = mix._apply(table.arr, applied)
    _delete_rc(table, applied.j - 1)
    if isinstance(applied, Prune):
        return _refresh(table, counter)
    i, arr = applied.i - 1, table.arr
    others = np.flatnonzero(np.arange(len(arr)) != i)
    merged = arr.take([i])
    table.degenerate[i, :] = table.degenerate[:, i] = False
    if table.gram is not None:
        table.gram[i, :] = table.gram[:, i] = _overlaps(arr, merged)
        _bill(counter, "overlap", len(arr))
        return _refresh(table, counter)
    if table.pairwise_kld is not None:
        table.pairwise_kld[others, i] = _whiten(arr.take(others), merged)[0]
        table.pairwise_kld[i, others] = _whiten(merged, arr.take(others))[0]
        _bill(counter, "kld", 2 * others.size)
    return _fill_pair_kernels(table, np.minimum(others, i), np.maximum(others, i), counter) + _refresh(table, counter)


@dataclass(frozen=True)
class TraceStep:
    """One applied reduction step.

    ``flags`` carries anomalies worth surfacing: ``"negative_cost"``
    marks a surrogate that came out below zero (possible for
    near-duplicate pairs; the literal value is kept).  ``all_costs``
    optionally maps every evaluated hypothesis to its cost.
    """

    chosen: Hypothesis
    cost: float
    size_after: int
    flags: tuple[str, ...] = ()
    all_costs: dict | None = None


@dataclass(frozen=True)
class ReductionTrace:
    """Full record of a greedy reduction, sufficient to replay it.

    ``skipped`` lists (step index, merge) pairs that were excluded with
    +inf cost because the candidate covariance failed to factorize.
    Step indices are 0-based positions into ``steps``.
    """

    method: CostKind
    steps: tuple[TraceStep, ...]
    eval_count: int = 0
    per_step_eval_counts: tuple[int, ...] = ()
    skipped: tuple[tuple[int, Merge], ...] = ()


def reduce(
    m: GaussianMixture, target: int, kind: CostKind, record_all_costs: bool = False
) -> tuple[GaussianMixture, ReductionTrace]:
    """Greedily reduce a normalized mixture to ``target`` components.

    Returns the reduced mixture and a trace that replays to it exactly.
    ``target == len(m)`` is a no-op with an empty trace.  Raises
    ``ValueError`` for an out-of-range target and propagates a
    factorization error if every admissible hypothesis is degenerate.
    """
    _check_arguments(m, kind, target)
    if target == m.size:
        return m, ReductionTrace(kind, ())
    counter = EvalCounter()
    steps: list[TraceStep] = []
    per_step: list[int] = []
    skipped: list[tuple[int, Merge]] = []
    table, degenerate = build_cost_table(m, kind, counter)
    while True:
        skipped.extend((len(steps), h) for h in degenerate)
        # Canonical order: ties go to prunes, then to the first pair in row-major order.
        i, j = divmod(int(np.argmin(table.pair_cost)), table.size)
        cost = float(table.pair_cost[i, j])
        if table.prune_cost is not None and table.prune_cost.min() <= cost:
            j = int(np.argmin(table.prune_cost))
            i, cost = -1, float(table.prune_cost[j])
        if not np.isfinite(cost):
            raise np.linalg.LinAlgError("every admissible hypothesis is degenerate")
        chosen = Prune(j + 1) if i < 0 else Merge(i + 1, j + 1)
        all_costs = None
        if record_all_costs:
            iu, ju = np.triu_indices(table.size, k=1)
            prunes = [] if table.prune_cost is None else table.prune_cost.tolist()
            all_costs = {Prune(k + 1): c for k, c in enumerate(prunes)}
            all_costs.update(zip(map(Merge, (iu + 1).tolist(), (ju + 1).tolist()), table.pair_cost[iu, ju].tolist()))
        flags = ("negative_cost",) if cost < 0.0 else ()
        steps.append(TraceStep(chosen, cost, table.size - 1, flags, all_costs))
        per_step.append(counter.total - sum(per_step))
        if table.size - 1 == target:
            break
        degenerate = update_cost_table(table, chosen, counter=counter)
    out = GaussianMixture(_components(mix._apply(table.arr, chosen)))
    return out, ReductionTrace(kind, tuple(steps), counter.total, tuple(per_step), tuple(skipped))


def _naive_cost(m: GaussianMixture, h: Hypothesis, kind: CostKind, counter: EvalCounter | None) -> float:
    """From-scratch cost of one hypothesis, counting every evaluation.

    Goes through the public per-hypothesis cost functions, which are
    batches of one over the kernels the cached engine uses, so values
    agree with it bit for bit wherever the inputs do; squared-error
    values only to rounding.  A degenerate merge costs +inf, unbilled.
    """
    n = m.size
    if kind is CostKind.WILLIAMS_ISE:
        try:
            q = mix.apply(m, h)
        except np.linalg.LinAlgError:
            return np.inf
        # All three Gram matrices in full: n^2 + nq^2 + n nq overlaps.
        _bill(counter, "overlap", n * n + q.size * q.size + n * q.size)
        return ise_analytic(m, q)
    try:
        cost = hypothesis_cost(m, h, kind)
    except np.linalg.LinAlgError:
        return np.inf
    if isinstance(h, Merge):
        _bill(counter, _KERNEL_FIELD[kind], 2)
    elif kind is CostKind.ARKL_FULL:
        _bill(counter, "kld", n - 1)
    return cost


def reference_reduce(
    m: GaussianMixture, target: int, kind: CostKind
) -> tuple[GaussianMixture, ReductionTrace]:
    """Cache-free reference engine: every cost recomputed from scratch.

    Same hypothesis ordering, tie-breaking and step semantics as
    :func:`reduce`; exists as the correctness baseline for the cached
    engine and as the naive-complexity yardstick.
    """
    _check_arguments(m, kind, target)
    counter = EvalCounter()
    steps: list[TraceStep] = []
    per_step: list[int] = []
    skipped: list[tuple[int, Merge]] = []
    cur = m
    while cur.size > target:
        evals_before = counter.total
        hyps = enumerate_hypotheses(cur, kind.include_pruning)
        costs_arr = np.array([_naive_cost(cur, h, kind, counter) for h in hyps])
        for pos, h in enumerate(hyps):
            if isinstance(h, Merge) and np.isinf(costs_arr[pos]):
                skipped.append((len(steps), h))
        pick = int(np.argmin(costs_arr))
        cost = float(costs_arr[pick])
        if not np.isfinite(cost):
            raise np.linalg.LinAlgError("every admissible hypothesis is degenerate")
        chosen = hyps[pick]
        cur = mix.apply(cur, chosen)
        flags = ("negative_cost",) if cost < 0.0 else ()
        steps.append(TraceStep(chosen, cost, cur.size, flags))
        per_step.append(counter.total - evals_before)
    trace = ReductionTrace(kind, tuple(steps), counter.total, tuple(per_step), tuple(skipped))
    return cur, trace
