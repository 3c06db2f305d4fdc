"""Greedy reduction engine: caching, traces, counters, determinism."""

import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from conftest import random_component, random_mixture
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
from gmreduce import costs
from gmreduce.costs import _merge_kernels
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


@st.composite
def _update_cases(draw):
    """A well-conditioned mixture of 3 to 8 components in d <= 8, a method, and a step it admits."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = random_mixture(rng, draw(st.integers(3, 8)), draw(st.integers(1, 8)))
    kind = draw(st.sampled_from(ALL_KINDS))
    if kind.include_pruning and draw(st.booleans()):
        return m, kind, Prune(draw(st.integers(1, m.size)))
    i = draw(st.integers(1, m.size - 1))
    return m, kind, Merge(i, draw(st.integers(i + 1, m.size)))


def _seeded_update_cases(test):
    """The fixed cases of the property below, as explicit examples."""
    rng = np.random.default_rng(71)
    for dim in (2, 1, 4, 8):
        m = random_mixture(rng, 5, dim)
        for kind in ALL_KINDS:
            for h in (Prune(2), Merge(1, 3)):
                if isinstance(h, Merge) or kind.include_pruning:
                    test = example((m, kind, h))(test)
    return test


@_seeded_update_cases
@settings(max_examples=60, deadline=None)
@given(_update_cases())
def test_update_table_matches_fresh_build(case):
    """An incremental update equals a fresh build of the stepped mixture."""
    m, kind, h = case
    updated = build_cost_table(m, kind)
    update_cost_table(updated, h)
    after = apply(m, h)
    # The table's own components took the same step as apply.
    want = ComponentArrays.of(after.components)
    for f in fields(want):
        assert np.array_equal(getattr(updated.arr, f.name), getattr(want, f.name))
    fresh = build_cost_table(after, kind)
    assert np.array_equal(updated.pair_cost == np.inf, fresh.pair_cost == np.inf)
    # A fresh build recomputes kernels from the renormalized weights,
    # which moves the merged moments by an ulp, so the match is
    # near-bitwise rather than exact.
    for name in ("pair_cost", "prune_cost", "cache"):
        got, wanted = getattr(updated, name), getattr(fresh, name)
        assert (got is None) == (wanted is None)
        if got is not None:
            assert np.allclose(got, wanted, rtol=1e-10, atol=1e-14)
    assert (updated.prune_cost is None) == (kind is CostKind.RUNNALLS_B)


def test_update_carries_every_cached_statistic_bit_for_bit():
    """A step drops row and column j from the cache block and changes no entry off the merged row and column.

    The first two steps drop the first index a method can drop and the last one, the edges of the drop.
    """
    layers = {CostKind.ARKL_FULL: 3, CostKind.ARKL_SIMPLE: 2, CostKind.RUNNALLS_B: 2, CostKind.WILLIAMS_ISE: 0}
    rng = np.random.default_rng(72)
    for dim in (1, 2, 4, 8):
        m = random_mixture(rng, 7, dim)
        for kind in ALL_KINDS:
            table = build_cost_table(m, kind)
            while table.size > 2:
                n = table.size
                assert table.cache.shape == (layers[kind], n, n)
                if n == m.size:
                    h = Prune(1) if kind.include_pruning else Merge(1, 2)
                elif n == m.size - 1:
                    h = Merge(1, n)
                elif kind.include_pruning and rng.random() < 0.5:
                    h = Prune(int(rng.integers(1, n + 1)))
                else:
                    j = int(rng.integers(2, n + 1))
                    h = Merge(int(rng.integers(1, j)), j)
                kept = np.flatnonzero(np.arange(n - 1) != (h.i - 1 if isinstance(h, Merge) else -1))
                before = table.cache.copy()
                update_cost_table(table, h)
                dropped = np.delete(np.delete(before, h.j - 1, axis=1), h.j - 1, axis=2)
                assert np.array_equal(table.cache[:, kept][:, :, kept], dropped[:, kept][:, :, kept])


def test_cost_table_of_one_component_is_refused():
    """A build of one component, or a step down to one, raises one ValueError and leaves the table as it was."""
    single = GaussianMixture((GaussianComponent(1.0, [0.0], [[1.0]]),))
    pair = GaussianMixture.from_arrays([0.4, 0.6], [[0.0], [1.0]], [[[1.0]], [[2.0]]])
    message = "a cost table needs at least two components, got 1"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in ALL_KINDS:
            with pytest.raises(ValueError, match=message):
                build_cost_table(single, kind)
            table = build_cost_table(pair, kind)
            before = {f.name: getattr(table, f.name) for f in fields(table)}
            copies = {name: v.copy() for name, v in before.items() if isinstance(v, np.ndarray)}
            for h in (Prune(1), Merge(1, 2)):
                with pytest.raises(ValueError, match=message):
                    update_cost_table(table, h)
                assert all(getattr(table, name) is v for name, v in before.items())
                assert all(np.array_equal(getattr(table, name), v) for name, v in copies.items())


def test_williams_prices_equal_hypothesis_cost_across_overlap_blocks():
    """At n = 20 a candidate's overlaps span more than one block of components; built and stepped, the table prices
    every prune and merge as :func:`hypothesis_cost` does, bit for bit."""
    kind = CostKind.WILLIAMS_ISE
    m = random_mixture(np.random.default_rng(74), 20, 2)
    assert costs._ROWS // (20 * 19 // 2) < 20
    table = build_cost_table(m, kind)
    for h in (None, Merge(4, 20)):
        if h is not None:
            update_cost_table(table, h)
            m = apply(m, h)
        want = [hypothesis_cost(m, hyp, kind) for hyp in enumerate_hypotheses(m)]
        assert table.prune_cost.tolist() + table.pair_cost[np.triu_indices(m.size, 1)].tolist() == want


def test_a_williams_gram_entry_that_overflows_prices_every_hypothesis_inf():
    """Built or stepped, the table prices every hypothesis +inf, and both engines raise the same error."""
    m = GaussianMixture.from_arrays([0.3, 0.3, 0.4], [[0.0], [1.3e154], [0.0]], [[[0.85e308]]] * 3)
    merged = apply(m, Merge(1, 2))  # weights [0.6, 0.4], variances 1.2725e308 and 0.85e308
    stepped = build_cost_table(m, CostKind.WILLIAMS_ISE)
    update_cost_table(stepped, Merge(1, 2))
    for table in (build_cost_table(merged, CostKind.WILLIAMS_ISE), stepped):
        assert np.all(table.pair_cost == np.inf) and np.all(table.prune_cost == np.inf)
    for engine in (reduce, reference_reduce):
        with pytest.raises(np.linalg.LinAlgError, match="^every admissible hypothesis is degenerate$"):
            engine(merged, 1, CostKind.WILLIAMS_ISE)


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


def _mean_and_covariance(m: GaussianMixture) -> tuple[np.ndarray, np.ndarray]:
    mean = sum(c.weight * c.mean for c in m.components)
    second = sum(c.weight * (c.cov + np.outer(c.mean, c.mean)) for c in m.components)
    return mean, second - np.outer(mean, mean)


@settings(max_examples=100, deadline=None)
@given(_ill_conditioned_mixtures())
def test_a_merge_preserves_the_mixture_mean_and_covariance(m):
    """Relative to the largest component second moment S_k + m_k m_k^T, to rounding."""
    mean, cov = _mean_and_covariance(m)
    scale = max(np.abs(c.cov + np.outer(c.mean, c.mean)).max() for c in m.components)
    for h in enumerate_hypotheses(m, include_pruning=False):
        try:
            merged = apply(m, h)
        except np.linalg.LinAlgError:
            continue
        got_mean, got_cov = _mean_and_covariance(merged)
        assert np.abs(got_mean - mean).max() <= 1e-14 * np.sqrt(scale)
        assert np.abs(got_cov - cov).max() <= 1e-14 * scale


@settings(max_examples=100, deadline=None)
@example(  # the full spread of L overflows for the pairs of the remote component
    GaussianMixture.from_arrays(
        [0.2] * 5,
        [[-4.59026476], [4.12755577], [0.43624991], [-4.972615], [2.29655446]],
        [[[0.119990498]], [[17.9093967]], [[8.27915939]], [[18.3406286]], [[0.0136251817]]],
    ),
    153.46875,
)
@given(_ill_conditioned_mixtures(), st.floats(0.0, 200.0))
def test_every_merge_the_kernels_flag_valid_applies(m, log_shift):
    """The last component is moved 10^log_shift away, so separations reach the overflow path.

    A merge the moment match refuses (the whole flag of ``runnalls`` and
    ``arkl-simple``) must not apply either.
    """
    comps = m.components
    means = [c.mean for c in comps[:-1]] + [comps[-1].mean + 10.0**log_shift]
    m = GaussianMixture.from_arrays(m.weights, means, [c.cov for c in comps])
    arr = ComponentArrays.of(m.components)
    iu, ju = np.triu_indices(m.size, k=1)
    for kind in (CostKind.RUNNALLS_B, CostKind.ARKL_SIMPLE, CostKind.ARKL_FULL):
        ok = _merge_kernels(kind, arr.take(iu), arr.take(ju))[2]
        for i, j, valid in zip(iu.tolist(), ju.tolist(), ok.tolist()):
            if valid:
                apply(m, Merge(i + 1, j + 1))
            elif kind is not CostKind.ARKL_FULL:
                with pytest.raises(np.linalg.LinAlgError):
                    apply(m, Merge(i + 1, j + 1))


@settings(max_examples=100, deadline=None)
@given(_ill_conditioned_mixtures())
def test_williams_engines_agree_bit_for_bit_on_ill_conditioned_mixtures(m):
    """Both engines price every ``williams`` step by one definition: the same choices, costs, flags and skips.

    Costs are compared with ``==``; a run that raises must raise the same message in both.
    """
    outcomes = []
    for engine in (reduce, reference_reduce):
        try:
            _, trace = engine(m, 1, CostKind.WILLIAMS_ISE)
        except np.linalg.LinAlgError as exc:
            outcomes.append(str(exc))
            continue
        outcomes.append(([(s.chosen, s.cost, s.flags) for s in trace.steps], trace.skipped))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_cached_engine_equals_reference_engine(size, dim, seed):
    """Same choices, flags and skips as the from-scratch engine, costs to rounding, outputs bit for bit."""
    m = random_mixture(np.random.default_rng(seed), size, dim)
    for kind in ALL_KINDS:
        fast, fast_trace = reduce(m, 1, kind)
        slow, slow_trace = reference_reduce(m, 1, kind)
        assert [s.chosen for s in fast_trace.steps] == [s.chosen for s in slow_trace.steps]
        assert [s.flags for s in fast_trace.steps] == [s.flags for s in slow_trace.steps]
        assert fast_trace.skipped == slow_trace.skipped
        for fs, ss in zip(fast_trace.steps, slow_trace.steps):
            assert fs.cost == pytest.approx(ss.cost, rel=1e-9, abs=1e-12)
        assert _mixtures_equal(fast, slow)
        (got,), (want,) = fast.components, slow.components
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
    # A non-integer target is refused by both engines, not compared as a number.
    for target in (2.5, True, np.float64(2.0)):
        for engine in (reduce, reference_reduce):
            with pytest.raises(ValueError, match="target"):
                engine(m, target, CostKind.ARKL_FULL)
    assert reduce(m, np.int64(2), CostKind.ARKL_FULL)[0].size == 2
    heavy = GaussianMixture(
        tuple(c.with_weight(2.0 * c.weight) for c in m.components)
    )
    # The engines reject an unnormalized mixture with the message apply and sample give.
    for engine in (reduce, reference_reduce):
        with pytest.raises(ValueError, match="mixture weights sum to 2"):
            engine(heavy, 1, CostKind.ARKL_FULL)


def test_a_cost_table_refuses_an_unnormalized_mixture():
    """build_cost_table refuses what reduce refuses, with the same message, under every method."""
    m = GaussianMixture.from_arrays([1.0, 0.5], [[0.0], [1.0]], [[[1.0]], [[1.0]]])
    for kind in ALL_KINDS:
        with pytest.raises(ValueError, match="mixture weights sum to 1.5, expected 1 within 1e-09"):
            build_cost_table(m, kind)


@pytest.mark.parametrize("weights", [[1e-200, 1.0], [1e-17, 1e-17, 1.0]])
def test_a_prune_of_all_of_the_mass_costs_inf_in_both_engines(weights):
    """Where the heavy weight rounds to 1, its prune costs +inf in both engines, with no warning and no NaN.

    hypothesis_cost and apply still refuse that prune.
    """
    n = len(weights)
    m = GaussianMixture.from_arrays(weights, [[float(i)] for i in range(n)], [[[1.0]]] * n)
    heavy = Prune(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in (CostKind.ARKL_FULL, CostKind.ARKL_SIMPLE, CostKind.WILLIAMS_ISE):
            table = build_cost_table(m, kind)
            assert table.prune_cost[-1] == np.inf and np.isfinite(table.prune_cost[:-1]).all()
            _, fast = reduce(m, 1, kind, record_all_costs=True)
            _, slow = reference_reduce(m, 1, kind)
            assert fast.steps[0].all_costs[heavy] == np.inf
            assert [s.chosen for s in fast.steps] == [s.chosen for s in slow.steps]
            with pytest.raises(ValueError, match=f"cannot prune component {n}: it carries all of the mass"):
                hypothesis_cost(m, heavy, kind)
        with pytest.raises(ValueError, match=f"cannot prune component {n}: it carries all of the mass"):
            apply(m, heavy)


def test_a_tie_with_a_prune_of_all_of_the_mass_goes_to_the_prune():
    """On [1e-200, 1], Prune(1) and Merge(1, 2) both cost 0 under williams: prunes win ties in both engines."""
    m = GaussianMixture.from_arrays([1e-200, 1.0], [[0.0], [1.0]], [[[1.0]], [[1.0]]])
    for engine in (reduce, reference_reduce):
        (step,) = engine(m, 1, CostKind.WILLIAMS_ISE)[1].steps
        assert (step.chosen, step.cost) == (Prune(1), 0.0)


@settings(max_examples=60, deadline=None)
@example(2, 1, 0, -320.0)  # the other weight normalizes to exactly 1
@given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 2**32 - 1), st.floats(-320.0, -16.0))
def test_a_tiny_weight_reduces_without_warning_or_nan_in_both_engines(size, dim, seed, log_weight):
    """One weight from 10^U(-320, -16) before normalizing: no RuntimeWarning, no NaN price, and both engines finish.

    The engines may still split on rounding-decided near-ties here, so their choices are not compared.
    """
    rng = np.random.default_rng(seed)
    comps = [random_component(rng, dim) for _ in range(size)]
    raw = rng.uniform(0.2, 1.0, size)
    raw[rng.integers(size)] = 10.0**log_weight
    m = GaussianMixture.from_arrays(raw / raw.sum(), [c.mean for c in comps], [c.cov for c in comps])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for kind in ALL_KINDS:
            table = build_cost_table(m, kind)
            assert not np.isnan(table.pair_cost).any()
            assert table.prune_cost is None or not np.isnan(table.prune_cost).any()
            for engine in (reduce, reference_reduce):
                assert engine(m, 1, kind)[0].size == 1


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
    # The only merge has no moment match, so ``williams`` prices no candidate's overlaps.
    for kind in (CostKind.ARKL_FULL, CostKind.WILLIAMS_ISE):
        out, trace = reduce(m, 1, kind)
        assert trace.steps[0].chosen == Prune(1)
        assert trace.skipped == ((0, Merge(1, 2)),)
        assert out.size == 1
        ref_out, ref_trace = reference_reduce(m, 1, kind)
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
    # A degenerate pair is listed at every step it survives, by both engines.
    for kind in ALL_KINDS:
        fast, fast_trace = reduce(wide, 2, kind)
        slow, slow_trace = reference_reduce(wide, 2, kind)
        assert [s.chosen for s in fast_trace.steps] == [s.chosen for s in slow_trace.steps]
        assert fast_trace.skipped == slow_trace.skipped
        assert _mixtures_equal(fast, slow)


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


def test_a_merge_priced_inf_by_overflowing_kernels_is_skipped_by_both_engines():
    """Both kernels of Merge(1, 2) overflow though its moment match is valid: one skip rule for both engines."""
    m = GaussianMixture.from_arrays([0.4, 0.4, 0.2], [[0.0], [1e150], [3.0]], [[[1e-20]], [[1e-20]], [[1.0]]])
    for kind in ALL_KINDS:
        fast, fast_trace = reduce(m, 1, kind)
        slow, slow_trace = reference_reduce(m, 1, kind)
        assert [s.chosen for s in fast_trace.steps] == [s.chosen for s in slow_trace.steps]
        assert fast_trace.skipped == slow_trace.skipped
        assert _mixtures_equal(fast, slow)
    _, trace = reduce(m, 1, CostKind.ARKL_SIMPLE)
    assert trace.skipped == ((0, Merge(1, 2)), (1, Merge(1, 2)))


def test_a_merge_whose_overlap_overflows_is_skipped_by_both_williams_engines():
    """Merge(1, 2) moment-matches, but its self-overlap sums two covariances past the largest double."""
    m = GaussianMixture.from_arrays(
        [0.3, 0.3, 0.4], [[0.0], [np.sqrt(0.5e308)], [0.0]], [[[0.8e308]], [[0.8e308]], [[1.0]]]
    )
    fast, fast_trace = reduce(m, 1, CostKind.WILLIAMS_ISE)
    slow, slow_trace = reference_reduce(m, 1, CostKind.WILLIAMS_ISE)
    assert [s.chosen for s in fast_trace.steps] == [s.chosen for s in slow_trace.steps] == [Prune(1), Prune(1)]
    assert fast_trace.skipped == slow_trace.skipped == ((0, Merge(1, 2)),)
    assert _mixtures_equal(fast, slow)
    # The first step bills the 6 Gram entries and n + 1 = 4 overlaps for each of the two priced merges.
    assert fast_trace.per_step_eval_counts[0] == 6 + 4 * 2


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


def test_tied_merges_go_to_the_first_pair_and_never_to_the_diagonal():
    """Identical components merge at cost 0: the lexicographically first pair wins.

    A component paired with itself would also price at 0, so the pick
    must only ever see the live upper triangle of the pair matrix.

    The squared error of pruning one of three identical components is 0
    too, so under ``williams`` the tie goes to the first prune.  Its
    pair-local costs are exactly 0, with no flag, in both engines.
    """
    x = ([1.0, -0.5], [[1.5, 0.3], [0.3, 0.8]])
    y = ([-2.0, 2.5], [[0.6, -0.1], [-0.1, 1.2]])
    for kind in ALL_KINDS:
        same = Prune(1) if kind is CostKind.WILLIAMS_ISE else Merge(1, 2)
        for parts, weights, want in (((x, y, x), (0.3, 0.4, 0.3), Merge(1, 3)), ((x, x, x), (1 / 3,) * 3, same)):
            m = GaussianMixture.from_arrays(np.array(weights), *zip(*parts))
            for engine in (reduce, reference_reduce):
                step = engine(m, 2, kind)[1].steps[0]
                assert step.chosen == want
                if kind is CostKind.WILLIAMS_ISE:
                    assert (step.cost, step.flags) == (0.0, ())


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
