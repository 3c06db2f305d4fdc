"""Greedy reduction engine: caching, traces, counters, determinism."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from conftest import random_mixture
from gmreduce import (
    CostKind,
    EvalCounter,
    GaussianComponent,
    GaussianMixture,
    Merge,
    Prune,
    apply,
    arkl_merge_cost,
    build_cost_table,
    enumerate_hypotheses,
    hypothesis_cost,
    reduce,
    reference_reduce,
    update_cost_table,
)
from gmreduce.gauss import ComponentArrays, _moment_match

ALL_KINDS = (CostKind.ARKL_FULL, CostKind.ARKL_SIMPLE, CostKind.RUNNALLS_B, CostKind.WILLIAMS_ISE)


def _mixtures_equal(a: GaussianMixture, b: GaussianMixture) -> bool:
    if a.size != b.size:
        return False
    for ca, cb in zip(a.components, b.components):
        if ca.weight != cb.weight:
            return False
        if not (np.array_equal(ca.mean, cb.mean) and np.array_equal(ca.cov, cb.cov)):
            return False
    return True


def test_incremental_matches_reference():
    """The cached engine replays the from-scratch engine step for step."""
    rng = np.random.default_rng(70)
    for dim in [1 + trial % 2 for trial in range(10)] + [4, 8, 4, 8]:
        m = random_mixture(rng, 5, dim)
        for kind in ALL_KINDS:
            fast, fast_trace = reduce(m, 1, kind)
            slow, slow_trace = reference_reduce(m, 1, kind)
            assert len(fast_trace.steps) == len(slow_trace.steps) == 4
            for fs, ss in zip(fast_trace.steps, slow_trace.steps):
                assert fs.chosen == ss.chosen
                assert fs.size_after == ss.size_after
                assert fs.flags == ss.flags
                # The squared-error cost is assembled along different
                # algebraic routes in the two engines.
                assert fs.cost == pytest.approx(ss.cost, rel=1e-9, abs=1e-12)
            assert _mixtures_equal(fast, slow)


def test_update_table_matches_fresh_build():
    rng = np.random.default_rng(71)
    for dim in (2, 1, 4, 8):
        m = random_mixture(rng, 5, dim)
        for kind in ALL_KINDS:
            for h in (Prune(2), Merge(1, 3)):
                if isinstance(h, Prune) and not kind.include_pruning:
                    continue
                updated, _ = build_cost_table(m, kind)
                update_cost_table(updated, h)
                after = apply(m, h)
                # The table's own components took the same step as apply.
                want = ComponentArrays.of(after.components)
                for f in fields(want):
                    assert np.array_equal(getattr(updated.arr, f.name), getattr(want, f.name))
                fresh, _ = build_cost_table(after, kind)
                # A fresh build recomputes kernels from the renormalized
                # weights, which moves the merged moments by an ulp, so the
                # match is near-bitwise rather than exact.
                assert np.allclose(updated.pair_cost, fresh.pair_cost, rtol=1e-10, atol=1e-14)
                if kind is CostKind.RUNNALLS_B:
                    assert updated.prune_cost is None and fresh.prune_cost is None
                else:
                    assert np.allclose(updated.prune_cost, fresh.prune_cost, rtol=1e-10, atol=1e-14)


@st.composite
def _ill_conditioned_mixtures(draw):
    """Two to eight components in d <= 8, condition numbers up to 1e12, weights in [1e-9, 1] before normalizing."""
    dim = draw(st.integers(1, 8))
    size = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights, means, covs = [], [], []
    for _ in range(size):
        cond = 10.0 ** draw(st.floats(0.0, 12.0))
        rot, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        cov = (rot * np.geomspace(1.0, 1.0 / cond, dim) * 10.0 ** rng.uniform(-2.0, 2.0)) @ rot.T
        covs.append(0.5 * (cov + cov.T))
        means.append(rng.uniform(-5.0, 5.0, dim))
        weights.append(draw(st.floats(1e-9, 1.0)))
    try:
        return GaussianMixture.from_arrays(np.array(weights) / sum(weights), means, covs)
    except np.linalg.LinAlgError:
        reject()


@settings(max_examples=300, deadline=None)
@given(_ill_conditioned_mixtures())
def test_replaying_a_trace_with_apply_reproduces_reduce(m):
    """The engine's step and ``apply`` are one definition: a replay matches bit for bit."""
    for kind in ALL_KINDS:
        try:
            out, trace = reduce(m, 1, kind)
        except np.linalg.LinAlgError:
            continue
        replayed = m
        for step in trace.steps:
            replayed = apply(replayed, step.chosen)
        assert _mixtures_equal(out, replayed)
        (got,), (want,) = out.components, replayed.components
        assert np.array_equal(got.chol, want.chol) and got.log_det == want.log_det


def test_reduce_noop_when_target_equals_size():
    rng = np.random.default_rng(72)
    m = random_mixture(rng, 4, 1)
    for kind in ALL_KINDS:
        out, trace = reduce(m, 4, kind)
        assert out is m
        assert trace.steps == ()
        assert trace.eval_count == 0
        assert trace.per_step_eval_counts == ()
        assert trace.method is kind


def test_runnalls_never_prunes():
    rng = np.random.default_rng(73)
    for _ in range(5):
        m = random_mixture(rng, 6, 2)
        _, trace = reduce(m, 1, CostKind.RUNNALLS_B)
        assert all(isinstance(s.chosen, Merge) for s in trace.steps)


def test_reduce_validation():
    rng = np.random.default_rng(74)
    m = random_mixture(rng, 3, 1)
    with pytest.raises(ValueError):
        reduce(m, 0, CostKind.ARKL_FULL)
    with pytest.raises(ValueError):
        reduce(m, 4, CostKind.ARKL_FULL)
    with pytest.raises(ValueError):
        reduce(m, 1, "arkl")
    with pytest.raises(ValueError):
        reference_reduce(m, 0, CostKind.ARKL_FULL)
    heavy = GaussianMixture(
        tuple(c.with_weight(2.0 * c.weight) for c in m.components)
    )
    with pytest.raises(ValueError):
        reduce(heavy, 1, CostKind.ARKL_FULL)


def test_negative_cost_is_flagged_not_clamped():
    m = GaussianMixture(
        (
            GaussianComponent(0.4, [0.0], [[1.0]]),
            GaussianComponent(0.4, [0.01], [[1.0]]),
            GaussianComponent(0.2, [50.0], [[1.0]]),
        )
    )
    _, trace = reduce(m, 2, CostKind.ARKL_FULL)
    step = trace.steps[0]
    assert step.chosen == Merge(1, 2)
    assert step.cost < 0.0
    assert "negative_cost" in step.flags


def test_degenerate_merge_is_skipped_and_recorded():
    m = GaussianMixture(
        (
            GaussianComponent(0.5, [0.0], [[1.0]]),
            GaussianComponent(0.5, [1e200], [[1.0]]),
        )
    )
    out, trace = reduce(m, 1, CostKind.ARKL_FULL)
    assert trace.steps[0].chosen == Prune(1)
    assert trace.skipped == ((0, Merge(1, 2)),)
    assert out.size == 1
    ref_out, ref_trace = reference_reduce(m, 1, CostKind.ARKL_FULL)
    assert ref_trace.steps[0].chosen == Prune(1)
    assert ref_trace.skipped == ((0, Merge(1, 2)),)
    assert _mixtures_equal(out, ref_out)
    # The merge-only method has nowhere to go.
    with pytest.raises(np.linalg.LinAlgError):
        reduce(m, 1, CostKind.RUNNALLS_B)
    with pytest.raises(np.linalg.LinAlgError):
        reference_reduce(m, 1, CostKind.RUNNALLS_B)
    # In a larger batch only the pairs with the remote component are degenerate.
    wide = GaussianMixture(
        (
            GaussianComponent(0.25, [0.0], [[1.0]]),
            GaussianComponent(0.25, [1e200], [[1.0]]),
            GaussianComponent(0.25, [3.0], [[2.0]]),
            GaussianComponent(0.25, [-2.0], [[0.5]]),
        )
    )
    remote = ((0, Merge(1, 2)), (0, Merge(2, 3)), (0, Merge(2, 4)))
    for kind in ALL_KINDS:
        fast, fast_trace = reduce(wide, 3, kind, record_all_costs=True)
        slow, slow_trace = reference_reduce(wide, 3, kind)
        assert fast_trace.skipped == slow_trace.skipped == remote
        assert fast_trace.steps[0].chosen == slow_trace.steps[0].chosen
        assert _mixtures_equal(fast, slow)
        for h, cost in fast_trace.steps[0].all_costs.items():
            if isinstance(h, Merge) and 2 in (h.i, h.j):
                assert cost == np.inf
            else:
                # The reference engine prices each hypothesis this way.
                assert np.isfinite(cost)
                assert cost == pytest.approx(hypothesis_cost(wide, h, kind), rel=1e-9, abs=1e-12)


def test_arkl_merge_with_overflowing_exponent_is_degenerate():
    """A narrow component far from its partner factorizes but overflows D(q_ab || q_a)."""
    a = GaussianComponent(0.5, [0.0], [[1e-20]])
    b = GaussianComponent(0.5, [1e150], [[1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        arkl_merge_cost(a, b)
    m = GaussianMixture((a.with_weight(0.4), b.with_weight(0.4), GaussianComponent(0.2, [3.0], [[1.0]])))
    out, trace = reduce(m, 2, CostKind.ARKL_FULL, record_all_costs=True)
    ref_out, ref_trace = reference_reduce(m, 2, CostKind.ARKL_FULL)
    assert trace.skipped == ref_trace.skipped == ((0, Merge(1, 2)),)
    assert trace.steps[0].chosen == ref_trace.steps[0].chosen == Prune(3)
    assert trace.steps[0].cost == ref_trace.steps[0].cost
    assert _mixtures_equal(out, ref_out)
    costs = trace.steps[0].all_costs
    assert costs[Merge(1, 2)] == np.inf
    assert all(np.isfinite(c) for h, c in costs.items() if h != Merge(1, 2))


def test_eval_counts_are_consistent():
    rng = np.random.default_rng(75)
    m = random_mixture(rng, 6, 2)
    for kind in ALL_KINDS:
        _, trace = reduce(m, 1, kind)
        assert sum(trace.per_step_eval_counts) == trace.eval_count
        assert len(trace.per_step_eval_counts) == len(trace.steps)


def test_record_all_costs():
    rng = np.random.default_rng(76)
    m = random_mixture(rng, 4, 1)
    for kind in ALL_KINDS:
        _, trace = reduce(m, 2, kind, record_all_costs=True)
        cur = m
        for step in trace.steps:
            hyps = enumerate_hypotheses(cur, kind.include_pruning)
            assert list(step.all_costs.keys()) == hyps
            assert min(step.all_costs.values()) == step.cost
            assert step.all_costs[step.chosen] == step.cost
            cur = apply(cur, step.chosen)
        _, plain = reduce(m, 2, kind)
        assert all(s.all_costs is None for s in plain.steps)


def test_frozen_evaluation_counts():
    """Pin the cached engine's primitive-evaluation totals at N=8.

    The merge-only method pays 2 C(N,2) divergences up front and then
    2 (n-1) per merge, 98 in total for a full reduction from 8.  The
    refined reverse method doubles the up-front work with the pairwise
    divergence matrix (112 on the first step), pays 4 (n-1) to update
    after a merge into n components (two merge exponents and two
    divergences per new pair) and nothing after a prune; its total
    follows from the chosen sequence, 192 here.  The squared-error first
    step costs (N+1) N / 2 Gram entries plus N+1 overlaps per candidate
    pair, and the from-scratch engine pays the full three-matrix
    assembly for every hypothesis, 6084 at N=8.
    """
    rng = np.random.default_rng(77)
    m = random_mixture(rng, 8, 2)
    _, tr = reduce(m, 1, CostKind.RUNNALLS_B)
    assert tr.eval_count == 98
    assert tr.per_step_eval_counts == (56, 12, 10, 8, 6, 4, 2)
    _, ta = reduce(m, 1, CostKind.ARKL_FULL)
    assert ta.per_step_eval_counts[0] == 112
    for step, count in zip(ta.steps, ta.per_step_eval_counts[1:]):
        merged = isinstance(step.chosen, Merge)
        assert count == (4 * (step.size_after - 1) if merged else 0)
    assert ta.eval_count == 192
    _, tw = reduce(m, 1, CostKind.WILLIAMS_ISE)
    assert tw.per_step_eval_counts[0] == 288
    _, trw = reference_reduce(m, 2, CostKind.WILLIAMS_ISE)
    assert trw.per_step_eval_counts[0] == 6084


def test_reduce_is_deterministic():
    rng = np.random.default_rng(78)
    m = random_mixture(rng, 6, 2)
    for kind in ALL_KINDS:
        out1, trace1 = reduce(m, 2, kind)
        out2, trace2 = reduce(m, 2, kind)
        assert trace1 == trace2
        assert _mixtures_equal(out1, out2)


def test_duplicate_pair_prefers_prune_on_tie():
    c = GaussianComponent(0.5, [1.0], [[2.0]])
    m = GaussianMixture((c, c))
    _, trace = reduce(m, 1, CostKind.ARKL_FULL)
    assert trace.steps[0].chosen == Prune(1)
    assert trace.steps[0].cost == 0.0


def test_counter_total():
    c = EvalCounter(kld=2, overlap=3, switched=5)
    assert c.total == 10
    assert EvalCounter().total == 0


def _near_singular_pairs(draws, seed):
    """Normalized pairs whose covariances are rank deficient up to a tiny ridge.

    Each draw shares one d x r factor A between two components (rank
    r < d); with probability 1/2 a component perturbs it by 1e-9 noise.
    Covariance B B^T 10^U(-2, 2) + 10^U(-19, -13) I, mean A z, weight
    U(0.1, 0.9).  Draws whose components fail to construct are skipped.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(draws):
        d = int(rng.integers(2, 5))
        r = int(rng.integers(1, d))
        a = rng.normal(size=(d, r))
        weights, means, covs = [], [], []
        for _ in range(2):
            b = a + 1e-9 * rng.normal(size=(d, r)) if rng.uniform() < 0.5 else a
            cov = b @ b.T * 10.0 ** rng.uniform(-2.0, 2.0) + 10.0 ** rng.uniform(-19.0, -13.0) * np.eye(d)
            covs.append(0.5 * (cov + cov.T))
            means.append(a @ rng.normal(size=r))
            weights.append(rng.uniform(0.1, 0.9))
        try:
            pairs.append(GaussianMixture.from_arrays(np.array(weights) / sum(weights), means, covs))
        except (ValueError, np.linalg.LinAlgError):
            continue
    return pairs


def _applies(m: GaussianMixture) -> bool:
    try:
        apply(m, Merge(1, 2))
    except np.linalg.LinAlgError:
        return False
    return True


def test_a_merge_priced_valid_applies_and_one_priced_degenerate_does_not():
    """Pricing and applying a merge share one factorization rule.

    On nearly singular pairs the moment match sits at the edge of
    positive definiteness, where two rules would disagree.
    """
    pairs = _near_singular_pairs(4000, 2)
    priced, applied = [], []
    for m in pairs:
        arr = ComponentArrays.of(m.components)
        priced.append(bool(_moment_match(arr.take([0]), arr.take([1]))[1][0]))
        applied.append(_applies(m))
    priced, applied = np.array(priced), np.array(applied)
    assert len(pairs) > 1500 and applied.any() and not applied.all()
    assert np.count_nonzero(priced & ~applied) == 0
    assert np.count_nonzero(~priced & applied) == 0


def test_reductions_of_nearly_singular_pairs_agree_with_apply():
    """A merge ``reduce`` prices as valid applies; one it skips is refused."""
    pairs = _near_singular_pairs(400, 2)
    assert {_applies(m) for m in pairs} == {True, False}
    for m in pairs:
        if _applies(m):
            want = apply(m, Merge(1, 2))
            for engine in (reduce, reference_reduce):
                assert _mixtures_equal(engine(m, 1, CostKind.RUNNALLS_B)[0], want)
        else:
            for engine in (reduce, reference_reduce):
                with pytest.raises(np.linalg.LinAlgError, match="every admissible hypothesis is degenerate"):
                    engine(m, 1, CostKind.RUNNALLS_B)
