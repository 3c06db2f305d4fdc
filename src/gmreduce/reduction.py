"""Greedy mixture reduction with incremental cost caching.

One reduction step evaluates every admissible hypothesis (all prunes and
all pair merges, or merges only for the merge-only method), applies the
cheapest one, and repeats until the target size is reached.  Ties are
broken by canonical hypothesis order: prunes before merges, then
ascending indices; together with the deterministic cost evaluation this
makes repeated runs bit-identical.

Every pair statistic comes from the batched kernels of :mod:`gmreduce.gauss`
and :mod:`gmreduce.costs`: a step hands them the index lists of all the pairs
it needs and gets every value back from one stacked evaluation, never
from a Python loop over pairs.  The engine's only state is a
:class:`CostTable`: the current components, stacked in canonical order,
and one block of the statistics the divergence methods cache across steps,
which are exactly the weight-independent part of each cost:

* divergences between existing components (the full pairwise matrix used
  by the refined prune cost),
* per-pair divergences to/from the pair's moment match and the merge
  exponents of the full reverse-divergence method -- these depend only
  on the pair's relative weights, which no prune or unrelated merge can
  change.

The cached statistics have one fill path, :func:`_fill`: given a mask
of fresh components, it evaluates every statistic of every pair that
touches one, one batch per statistic.  A build is a fill in which every
component is fresh.  A step moves the table's components through the
one prune/merge definition, :func:`gmreduce.mixture._apply`, which
:func:`gmreduce.mixture.apply` uses too, and updates the table in place:
row and column j of the one cache block are dropped, a merge fills the
pairs of the merged component i with only i fresh, and every pair is
repriced from the kernels under the renormalized weights in one
elementwise expression over the whole matrix (+inf marks what is not a
live pair).  The output mixture is built once, at the end.
This keeps the divergence-based methods at O(N^2) primitive evaluations
for a full N -> 1 reduction.  The squared-error method evaluates the
Gram matrix of the current components and every candidate merge's
overlaps with all of them each step (a cost reads three, but any may
overflow): O(N^3) evaluations per step instead of the O(N^4) of a
from-scratch evaluation, the candidates' done one block of components
per stacked call so that memory stays proportional to the number of pairs.

A merge candidate whose moment match overflows or fails to factorize, or
whose merge exponents are not finite, gets +inf kernels and so +inf
cost; the other pairs of its batch are unaffected.  A merge is skipped
exactly where it is priced +inf, whatever the cause, so each step reads
the merges it skipped off its own prices: the reference engine's rule,
applied at every step the pair survives.

:func:`reference_reduce` prices every hypothesis from scratch through
:func:`gmreduce.costs.hypothesis_cost`: divergence costs as batches of
one over the same kernels, and the squared-error cost by the same
pair-local helpers, which it reads off full Gram matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mixture as mix
from .costs import (
    CostKind,
    _arkl_prune_terms,
    _check_kind,
    _crude_prune,
    _merge_kernels,
    _pair_costs,
    _prune_ise,
    _williams_merge_costs,
    arkl_prune_cost,  # noqa: F401 -- kept importable here for call tracers
    gaussian_overlap,  # noqa: F401 -- kept importable here for call tracers
    hypothesis_cost,
    kld_gauss,  # noqa: F401 -- kept importable here for call tracers
    switched_divergence,  # noqa: F401 -- kept importable here for call tracers
)
from .gauss import (
    ComponentArrays,
    _overlap_solves,
    _whitenings,
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


# Per method: the layers of its cache block (k_a, k_b, then D(q_a || q_b) for the
# refined prune cost) and the counter field its merge kernels bill, two per pair.
_CACHE = {
    CostKind.WILLIAMS_ISE: (0, None),
    CostKind.RUNNALLS_B: (2, "kld"),
    CostKind.ARKL_SIMPLE: (2, "kld"),
    CostKind.ARKL_FULL: (3, "switched"),
}


@dataclass(eq=False)
class CostTable:
    """The whole state of the greedy engine: the current components and their costs.

    ``arr`` holds the current components, at least two, in canonical order.
    ``cache`` holds every statistic carried across steps, one (n, n) layer
    each, +inf wherever nothing is cached: the weight-independent merge
    kernels k_a and k_b of the upper pairs (+inf also where they cannot be
    evaluated), then for ``arkl`` D(component a || component b) for the
    refined prune cost; the squared-error method's block has no layer.
    Prices, recomputed at every step and ``None`` before the first:
    ``pair_cost[i0, j0]`` (0-based, upper triangle, +inf elsewhere and where
    the merge cannot be priced) is the cost of merging that pair, and
    ``prune_cost[j0]`` that of the prune (``None`` for the merge-only method).
    :func:`update_cost_table` advances every field in place.
    """

    kind: CostKind
    arr: ComponentArrays
    cache: np.ndarray
    pair_cost: np.ndarray | None = None
    prune_cost: np.ndarray | None = None

    @property
    def size(self) -> int:
        return len(self.arr)


def _fill(table: CostTable, fresh: np.ndarray, counter: EvalCounter | None) -> None:
    """Evaluate every layer of the cache block at each pair touching a component in the mask ``fresh``.

    One batch per statistic: upper-triangle merge kernels into layers 0
    and 1, and for ``arkl`` ordered pairwise divergences into layer 2.  A
    pair whose kernels cannot be evaluated gets +inf kernels, which price
    its merge at +inf.  Bills one unit per divergence, two per pair with
    valid kernels.
    """
    layers, field = _CACHE[table.kind]
    if not layers:
        return
    arr = table.arr
    rows, cols = np.nonzero(fresh[:, None] | fresh)
    if layers == 3:
        a, b = rows[rows != cols], cols[rows != cols]
        table.cache[2, a, b] = _whitenings(arr.take(b), arr.take(a))[0][0]
        _bill(counter, "kld", a.size)
    i0, j0 = rows[rows < cols], cols[rows < cols]
    k_a, k_b, ok = _merge_kernels(table.kind, arr.take(i0), arr.take(j0))
    table.cache[:2, i0, j0] = np.where(ok, (k_a, k_b), np.inf)
    _bill(counter, field, 2 * int(np.count_nonzero(ok)))


def _refresh(table: CostTable, counter: EvalCounter | None) -> None:
    """Price every prune and every upper pair afresh under the current weights.

    The divergence methods price the whole matrix from the cache block.
    The squared-error method evaluates the n (n + 1) / 2 Gram
    entries, every price +inf if one overflows, and else each candidate
    merge's overlaps with the n components, n + 1 per pair whose moment
    match succeeds; the others cost +inf, as does a prune of all of the mass.
    """
    kind, arr = table.kind, table.arr
    n, w = len(arr), arr.weights
    if kind is CostKind.WILLIAMS_ISE:
        gi, gj = np.triu_indices(n)
        upper, _, gram_ok = _overlap_solves(arr.take(gi), arr.take(gj))
        _bill(counter, "overlap", gi.size)
        gram = np.empty((n, n))
        gram[gi, gj] = gram[gj, gi] = upper
        table.pair_cost, table.prune_cost = np.full((n, n), np.inf), np.full(n, np.inf)
        if np.all(gram_ok):  # else the reference's Gram matrices raise for every hypothesis
            s = gram @ w
            with np.errstate(divide="ignore", invalid="ignore"):  # 1 - w = 0, masked below
                table.prune_cost = _prune_ise(w, np.diagonal(gram), s, w @ s)
            iu, ju = gi[gi < gj], gj[gi < gj]
            table.pair_cost[iu, ju], ok = _williams_merge_costs(arr, gram, iu, ju)
            _bill(counter, "overlap", (n + 1) * int(np.count_nonzero(ok)))
    else:
        table.pair_cost = _pair_costs(kind, w[:, None], w, table.cache[0], table.cache[1])
        if kind is CostKind.RUNNALLS_B:
            return
        with np.errstate(divide="ignore", invalid="ignore"):  # 1 - w = 0, masked below
            if kind is CostKind.ARKL_SIMPLE:
                table.prune_cost = _crude_prune(w)
            else:
                table.prune_cost = _arkl_prune_terms(w, table.cache[2], np.arange(n)).min(axis=0)
    table.prune_cost[mix._carries_all_mass(w)] = np.inf


def _check_arguments(m: GaussianMixture, kind: CostKind, target: int | None = None) -> None:
    """The argument checks of both engines and cost tables; the target is checked only when given."""
    _check_kind(kind)
    if target is not None and not (mix._is_integer(target) and 1 <= target <= m.size):
        raise ValueError(f"target must be an integer in [1, {m.size}], got {target!r}")
    mix._require_normalized(m)


def _check_table_size(n: int) -> None:
    """The one size rule of a cost table: at least two components, so that every kernel batch holds a pair."""
    if n < 2:
        raise ValueError(f"a cost table needs at least two components, got {n}")


def build_cost_table(m: GaussianMixture, kind: CostKind, counter: EvalCounter | None = None) -> CostTable:
    """Evaluate all hypothesis costs for ``m`` (at least two components) from scratch: a fill with every one fresh."""
    _check_arguments(m, kind)
    _check_table_size(m.size)
    n = m.size
    table = CostTable(kind, m._arr, np.full((_CACHE[kind][0], n, n), np.inf))
    _fill(table, np.ones(n, dtype=bool), counter)
    _refresh(table, counter)
    return table


def update_cost_table(table: CostTable, applied: Hypothesis, counter: EvalCounter | None = None) -> None:
    """Advance a cost table in place across one applied hypothesis.

    The table's components move one step through :func:`mixture._apply`,
    row and column j are dropped in place from every layer of the cache
    block, which becomes a view of its first n - 1 rows and columns, and a
    merge refills the pairs of the merged component i (:func:`_fill` with
    only i fresh).  Every other cached statistic is carried over bit for
    bit, and every price is recomputed.  A step that leaves one component,
    or that :func:`mixture._apply` rejects, raises before the table changes.
    """
    _check_table_size(table.size - 1)
    table.arr = mix._apply(table.arr, applied)
    c, j = table.cache, applied.j - 1
    c[:, j:-1] = c[:, j + 1 :]
    c[:, :, j:-1] = c[:, :, j + 1 :]
    table.cache = c[:, :-1, :-1]
    # A prune leaves no fresh component: skip the fill's scan of an empty mask.
    if isinstance(applied, Merge):
        _fill(table, np.arange(table.size) == applied.i - 1, counter)
    _refresh(table, counter)


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

    ``skipped`` lists (step index, merge) pairs: every merge priced +inf
    at that step, listed at each step it survives.  Step
    indices are 0-based positions into ``steps``; merge indices are
    those of the mixture at that step.
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
    evals_before = 0
    table = build_cost_table(m, kind, counter)
    while True:
        bad_i, bad_j = np.nonzero(table.pair_cost == np.inf)  # the lower triangle too
        upper = bad_i < bad_j
        skipped.extend((len(steps), Merge(i + 1, j + 1)) for i, j in zip(bad_i[upper].tolist(), bad_j[upper].tolist()))
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
        per_step.append(counter.total - evals_before)
        if table.size - 1 == target:
            break
        evals_before = counter.total
        update_cost_table(table, chosen, counter=counter)
    out = GaussianMixture._of(mix._apply(table.arr, chosen))
    return out, ReductionTrace(kind, tuple(steps), counter.total, tuple(per_step), tuple(skipped))


def _naive_cost(m: GaussianMixture, h: Hypothesis, kind: CostKind, counter: EvalCounter | None) -> float:
    """From-scratch :func:`hypothesis_cost` of one hypothesis, counting every evaluation.

    Costs agree with the cached engine bit for bit wherever the inputs
    do.  A degenerate merge or a prune of all of the mass costs +inf, unbilled.
    """
    n = m.size
    if isinstance(h, Prune) and mix._carries_all_mass(m._arr.weights[h.j - 1]):
        return np.inf
    try:
        cost = hypothesis_cost(m, h, kind)
    except np.linalg.LinAlgError:
        return np.inf
    if kind is CostKind.WILLIAMS_ISE:
        # ise_analytic's three Gram matrices in full, against the n - 1 components left.
        _bill(counter, "overlap", n * n + (n - 1) ** 2 + n * (n - 1))
    elif isinstance(h, Merge):
        _bill(counter, _CACHE[kind][1], 2)
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
            if isinstance(h, Merge) and costs_arr[pos] == np.inf:
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
