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
from a Python loop over pairs.  The expensive statistics are cached
across steps in a :class:`CostTable`.  What survives a step is exactly
the weight-independent part of each cost:

* divergences between existing components (the full pairwise matrix used
  by the refined prune cost),
* per-pair divergences to/from the pair's moment match and the merge
  exponents of the full reverse-divergence method -- these depend only
  on the pair's relative weights, which no prune or unrelated merge can
  change,
* the Gram matrix of pairwise overlap integrals for the squared-error
  method.

After every step the weight-dependent costs are reassembled from those
kernels under the renormalized weights, as array expressions over the
upper triangle; a merge additionally evaluates the new component's row
of statistics as one batch.  This keeps the divergence-based methods at
O(N^2) primitive evaluations for a full N -> 1 reduction.  The
squared-error method re-evaluates every candidate merge's overlaps with
the surviving components each step (the candidates' mixtures change
with the surviving set): O(N^3) evaluations per step instead of the
O(N^4) of a from-scratch evaluation, done as one stacked call per
component so that memory stays proportional to the number of pairs.

A merge candidate whose moment match overflows or fails to factorize is
assigned +inf cost, skipped, and recorded in the trace; the other pairs
of its batch are unaffected.

:func:`reference_reduce` recomputes every cost from scratch through the
public per-hypothesis cost functions, which are batches of one over the
same kernels, so the two engines share one definition of each cost.
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
    "cost_eval_count",
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
    """Cached per-hypothesis costs and their weight-independent kernels.

    ``pair_cost[i0, j0]`` (0-based, upper triangle) is the current cost
    of merging that pair and ``prune_cost[j0]`` the current cost of the
    corresponding prune (``None`` for the merge-only method).
    ``pairwise_kld[a, b]`` holds D(component a || component b) for the
    refined prune cost; ``gram`` holds pairwise overlap integrals for
    the squared-error method.  ``kernel_a``/``kernel_b`` are the per-pair
    weight-independent merge kernels, and ``degenerate`` marks pairs
    whose moment match failed to factorize (their cost is pinned at
    +inf).
    """

    kind: CostKind
    pair_cost: np.ndarray
    prune_cost: np.ndarray | None
    pairwise_kld: np.ndarray | None
    gram: np.ndarray | None
    kernel_a: np.ndarray | None
    kernel_b: np.ndarray | None
    degenerate: np.ndarray
    # Pairs first marked degenerate by the build/update call that
    # produced this table (1-based), for trace bookkeeping.
    new_degenerate: list | None = None

    def __post_init__(self):
        if self.new_degenerate is None:
            self.new_degenerate = []

    @property
    def size(self) -> int:
        return self.pair_cost.shape[0]


def _fill_pair_kernels(
    table: CostTable, arr: ComponentArrays, i0: np.ndarray, j0: np.ndarray, counter: EvalCounter | None
) -> None:
    """Evaluate the merge kernels of pairs (i0[p], j0[p]), i0 < j0, as one batch.

    Two evaluations per pair, billed only when the pair's moment match
    factorizes; the other pairs are marked degenerate and recorded.
    """
    k_a, k_b, ok = _merge_kernels(table.kind, arr.take(i0), arr.take(j0))
    table.kernel_a[i0, j0] = k_a
    table.kernel_b[i0, j0] = k_b
    bad_i, bad_j = i0[~ok], j0[~ok]
    table.degenerate[bad_i, bad_j] = True
    table.new_degenerate.extend(Merge(int(i) + 1, int(j) + 1) for i, j in zip(bad_i, bad_j))
    _bill(counter, _KERNEL_FIELD[table.kind], 2 * int(np.count_nonzero(ok)))


def _refresh_weighted(table: CostTable, m: GaussianMixture) -> None:
    """Reassemble all weight-dependent entries from cached kernels."""
    n = m.size
    w = m.weights
    iu, ju = np.triu_indices(n, k=1)
    live = ~table.degenerate[iu, ju]
    iu, ju = iu[live], ju[live]
    kernels = table.kernel_a[iu, ju], table.kernel_b[iu, ju]
    table.pair_cost[iu, ju] = _pair_costs(table.kind, w[iu], w[ju], *kernels)
    if table.kind is CostKind.ARKL_SIMPLE:
        table.prune_cost[:] = _crude_prune(w)
    elif table.kind is CostKind.ARKL_FULL:
        table.prune_cost[:] = _arkl_prune_terms(w, table.pairwise_kld, np.arange(n)).min(axis=0)


def _refresh_williams(table: CostTable, arr: ComponentArrays, counter: EvalCounter | None) -> None:
    """Re-evaluate all squared-error costs from the cached Gram matrix.

    Every candidate merge needs its overlaps with the current
    components: n + 1 evaluations per live pair of n components.
    """
    n = len(arr)
    w = arr.weights
    s, t = _gram_stats(w, table.gram)
    table.prune_cost[:] = _prune_ise_from_gram(w, table.gram, s, t, np.arange(n))
    iu, ju = np.triu_indices(n, k=1)
    live = ~table.degenerate[iu, ju]
    iu, ju = iu[live], ju[live]
    costs, ok = _williams_merge_costs(arr, table.gram, s, t, iu, ju)
    _bill(counter, "overlap", (n + 1) * int(np.count_nonzero(ok)))
    table.pair_cost[iu, ju] = costs
    bad_i, bad_j = iu[~ok], ju[~ok]
    table.degenerate[bad_i, bad_j] = True
    table.new_degenerate.extend(Merge(int(i) + 1, int(j) + 1) for i, j in zip(bad_i, bad_j))


def build_cost_table(m: GaussianMixture, kind: CostKind, counter: EvalCounter | None = None) -> CostTable:
    """Evaluate all hypothesis costs for ``m`` from scratch."""
    if not isinstance(kind, CostKind):
        raise ValueError(f"kind must be a CostKind, got {kind!r}")
    n = m.size
    arr = ComponentArrays.of(m.components)
    pair_cost = np.full((n, n), np.inf)
    degenerate = np.zeros((n, n), dtype=bool)
    if kind is CostKind.WILLIAMS_ISE:
        gi, gj = np.triu_indices(n)
        gram = np.empty((n, n))
        gram[gi, gj] = gram[gj, gi] = _overlaps(arr.take(gi), arr.take(gj))
        _bill(counter, "overlap", gi.size)
        table = CostTable(kind, pair_cost, np.full(n, np.inf), None, gram, None, None, degenerate)
        _refresh_williams(table, arr, counter)
        return table
    pairwise_kld = None
    if kind is CostKind.ARKL_FULL:
        pairwise_kld = _kld_matrix(arr)
        _bill(counter, "kld", n * (n - 1))
    prune_cost = None if kind is CostKind.RUNNALLS_B else np.full(n, np.inf)
    kernel_a, kernel_b = np.full((n, n), np.nan), np.full((n, n), np.nan)
    table = CostTable(kind, pair_cost, prune_cost, pairwise_kld, None, kernel_a, kernel_b, degenerate)
    _fill_pair_kernels(table, arr, *np.triu_indices(n, k=1), counter)
    _refresh_weighted(table, m)
    return table


def _delete_rc(arr: np.ndarray, idx: tuple[int, ...]) -> np.ndarray:
    keep = np.delete(np.arange(arr.shape[0]), idx)
    return arr[np.ix_(keep, keep)]


def _insert_rc(arr: np.ndarray, pos: int, fill) -> np.ndarray:
    out = np.insert(arr, pos, fill, axis=0)
    return np.insert(out, pos, fill, axis=1)


def update_cost_table(
    table: CostTable, m_after: GaussianMixture, applied: Hypothesis, counter: EvalCounter | None = None
) -> CostTable:
    """Advance a cost table across one applied hypothesis.

    ``m_after`` is the mixture the applied hypothesis produced.  Returns
    a new table; the input is not modified.  Surviving kernels, pairwise
    divergences and Gram entries are carried over, and only statistics
    involving a newly merged component are evaluated, as one batch each.
    """
    kind = table.kind
    if isinstance(applied, Prune):
        drop: tuple[int, ...] = (applied.j - 1,)
        insert_at = None
    elif isinstance(applied, Merge):
        drop = (applied.i - 1, applied.j - 1)
        insert_at = applied.i - 1
    else:
        raise ValueError(f"unknown hypothesis type: {applied!r}")

    n_after = m_after.size
    arr = ComponentArrays.of(m_after.components)
    degenerate = _delete_rc(table.degenerate, drop)
    pairwise_kld = None if table.pairwise_kld is None else _delete_rc(table.pairwise_kld, drop)
    gram = None if table.gram is None else _delete_rc(table.gram, drop)
    kernel_a = None if table.kernel_a is None else _delete_rc(table.kernel_a, drop)
    kernel_b = None if table.kernel_b is None else _delete_rc(table.kernel_b, drop)
    if insert_at is not None:
        degenerate = _insert_rc(degenerate, insert_at, False)
        others = np.flatnonzero(np.arange(n_after) != insert_at)
        merged = arr.take([insert_at])
        if gram is not None:
            gram = _insert_rc(gram, insert_at, 0.0)
            gram[insert_at, :] = gram[:, insert_at] = _overlaps(arr, merged)
            _bill(counter, "overlap", n_after)
        if pairwise_kld is not None:
            pairwise_kld = _insert_rc(pairwise_kld, insert_at, 0.0)
            pairwise_kld[others, insert_at] = _whiten(arr.take(others), merged)[0]
            pairwise_kld[insert_at, others] = _whiten(merged, arr.take(others))[0]
            _bill(counter, "kld", 2 * others.size)
        if kernel_a is not None:
            kernel_a = _insert_rc(kernel_a, insert_at, np.nan)
            kernel_b = _insert_rc(kernel_b, insert_at, np.nan)

    pair_cost = np.full((n_after, n_after), np.inf)
    prune_cost = None if kind is CostKind.RUNNALLS_B else np.full(n_after, np.inf)
    new_table = CostTable(kind, pair_cost, prune_cost, pairwise_kld, gram, kernel_a, kernel_b, degenerate)
    if kind is CostKind.WILLIAMS_ISE:
        _refresh_williams(new_table, arr, counter)
        return new_table
    if insert_at is not None:
        lo, hi = np.minimum(others, insert_at), np.maximum(others, insert_at)
        _fill_pair_kernels(new_table, arr, lo, hi, counter)
    _refresh_weighted(new_table, m_after)
    return new_table


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


def _costs_in_canonical_order(table: CostTable) -> np.ndarray:
    n = table.size
    iu, ju = np.triu_indices(n, k=1)
    merge_costs = table.pair_cost[iu, ju]
    if table.prune_cost is None:
        return merge_costs
    return np.concatenate([table.prune_cost, merge_costs])


def _hypothesis_at(table: CostTable, pos: int) -> Hypothesis:
    """The hypothesis at ``pos`` of :func:`_costs_in_canonical_order`."""
    if table.prune_cost is not None:
        if pos < table.size:
            return Prune(pos + 1)
        pos -= table.size
    iu, ju = np.triu_indices(table.size, k=1)
    return Merge(int(iu[pos]) + 1, int(ju[pos]) + 1)


def reduce(
    m: GaussianMixture, target: int, kind: CostKind, record_all_costs: bool = False
) -> tuple[GaussianMixture, ReductionTrace]:
    """Greedily reduce a normalized mixture to ``target`` components.

    Returns the reduced mixture and a trace that replays to it exactly.
    ``target == len(m)`` is a no-op with an empty trace.  Raises
    ``ValueError`` for an out-of-range target and propagates a
    factorization error if every admissible hypothesis is degenerate.
    """
    if not isinstance(kind, CostKind):
        raise ValueError(f"kind must be a CostKind, got {kind!r}")
    if not 1 <= target <= m.size:
        raise ValueError(f"target must lie in [1, {m.size}], got {target}")
    if not m.is_normalized:
        raise ValueError("reduction requires a normalized mixture")
    counter = EvalCounter()
    steps: list[TraceStep] = []
    per_step: list[int] = []
    skipped: list[tuple[int, Merge]] = []
    cur = m
    table: CostTable | None = None
    pending: Hypothesis | None = None
    while cur.size > target:
        evals_before = counter.total
        if table is None:
            table = build_cost_table(cur, kind, counter)
        else:
            table = update_cost_table(table, cur, pending, counter)
        skipped.extend((len(steps), h) for h in table.new_degenerate)
        costs_arr = _costs_in_canonical_order(table)
        pick = int(np.argmin(costs_arr))
        cost = float(costs_arr[pick])
        if not np.isfinite(cost):
            raise np.linalg.LinAlgError("every admissible hypothesis is degenerate")
        chosen = _hypothesis_at(table, pick)
        all_costs = None
        if record_all_costs:
            all_costs = dict(zip(enumerate_hypotheses(cur, kind.include_pruning), costs_arr.tolist()))
        cur = mix.apply(cur, chosen)
        pending = chosen
        flags = ("negative_cost",) if cost < 0.0 else ()
        steps.append(TraceStep(chosen, cost, cur.size, flags, all_costs))
        per_step.append(counter.total - evals_before)
    trace = ReductionTrace(kind, tuple(steps), counter.total, tuple(per_step), tuple(skipped))
    return cur, trace


def _naive_cost(m: GaussianMixture, h: Hypothesis, kind: CostKind, counter: EvalCounter | None) -> float:
    """From-scratch cost of one hypothesis, counting every evaluation.

    Goes through the public per-hypothesis cost functions, which are
    batches of one over the kernels the cached engine uses, so values
    agree with it bit for bit wherever the inputs do.  A degenerate
    merge costs +inf and is not billed.
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
    if not isinstance(kind, CostKind):
        raise ValueError(f"kind must be a CostKind, got {kind!r}")
    if not 1 <= target <= m.size:
        raise ValueError(f"target must lie in [1, {m.size}], got {target}")
    if not m.is_normalized:
        raise ValueError("reduction requires a normalized mixture")
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


def cost_eval_count(trace: ReductionTrace) -> int:
    """Total pairwise-statistic evaluations recorded in a trace."""
    return trace.eval_count
