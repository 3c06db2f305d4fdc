"""Mixture container, density evaluation, hypothesis application, sampling."""

import math
import pickle
import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from scipy import integrate, stats

from conftest import random_component, random_mixture
from gmreduce import (
    GaussianComponent,
    GaussianMixture,
    Merge,
    Prune,
    apply,
    enumerate_hypotheses,
    moment_match_merge,
    sample,
)
from gmreduce.mixture import log_pdf, pdf
from gmreduce.quadrature import envelope_1d


def _two_component(w1=0.5, mu=3.0):
    return GaussianMixture(
        (
            GaussianComponent(w1, [-mu], [[1.0]]),
            GaussianComponent(1.0 - w1, [mu], [[1.0]]),
        )
    )


def test_pdf_worked_value():
    # 0.5 N(0; -3, 1) + 0.5 N(0; 3, 1) = N(3; 0, 1)
    m = _two_component()
    want = math.exp(-4.5) / math.sqrt(2.0 * math.pi)
    assert abs(pdf(m, [0.0]) - want) < 1e-15


def test_density_integrates_to_one():
    rng = np.random.default_rng(31)
    for n in (1, 3, 5):
        m = random_mixture(rng, n, 1)
        lo, hi = envelope_1d(m)
        total, _ = integrate.quad(lambda x: pdf(m, [x]), lo, hi, epsabs=1e-10, epsrel=0.0, limit=300)
        assert abs(total - 1.0) < 1e-6


def test_log_pdf_matches_direct_sum():
    rng = np.random.default_rng(32)
    m = random_mixture(rng, 4, 2)
    xs = rng.uniform(-5.0, 5.0, (20, 2))
    direct = np.log(
        sum(c.weight * stats.multivariate_normal(c.mean, c.cov).pdf(xs) for c in m.components)
    )
    assert np.allclose(log_pdf(m, xs), direct, rtol=1e-12)
    assert isinstance(log_pdf(m, xs[0]), float)
    # In d = 1 a point's log density is its row of a batch, bit for bit,
    # at any mixture size: the components are summed in order either way.
    for size in (1, 7, 8, 9, 12, 16):
        for _ in range(10):
            m = random_mixture(rng, size, 1)
            xs = rng.uniform(-5.0, 5.0, (5, 1))
            assert [log_pdf(m, x) for x in xs] == log_pdf(m, xs).tolist()


def test_log_pdf_rejects_points_of_another_rank():
    m = _two_component()
    for bad in (np.zeros((3, 2, 2)), 0.5):
        with pytest.raises(ValueError, match=rf"shape {re.escape(str(np.shape(bad)))}"):
            log_pdf(m, bad)


def test_log_pdf_remote_point_stays_finite():
    m = _two_component()
    assert np.isfinite(log_pdf(m, [30.0]))


def test_mixture_validation():
    c = GaussianComponent(0.5, [0.0], [[1.0]])
    with pytest.raises(ValueError):
        GaussianMixture(())
    # Weight positivity is one check with one message, whichever constructor is used:
    # a zero-weight component is refused before any mixture can hold it.
    with pytest.raises(ValueError, match="component 1 weight must be finite, positive and at most 1, got 0.0"):
        GaussianMixture((c, GaussianComponent(0.0, [1.0], [[1.0]])))
    with pytest.raises(ValueError, match="component 2 weight must be finite, positive and at most 1, got 0.0"):
        GaussianMixture.from_arrays([0.5, 0.0], [[0.0], [1.0]], [[[1.0]], [[1.0]]])
    with pytest.raises(ValueError):
        GaussianMixture((c, GaussianComponent(0.5, [0.0, 0.0], np.eye(2))))
    for bad in ((c, "not a component"), ("not a component",)):
        with pytest.raises(ValueError, match="is not a GaussianComponent"):
            GaussianMixture(bad)


def test_every_weight_is_positive_with_one_message():
    """Each way a weight enters refuses 0, and a merged weight above 1, with the one message of the weight rule."""
    c = GaussianComponent(0.5, [0.0], [[1.0]])
    m = GaussianMixture.from_arrays([0.5, 0.5], [[0.0], [1.0]], [[[1.0]], [[1.0]]])
    message = "component {} weight must be finite, positive and at most 1, got {}"
    for build, pos in (
        (lambda: GaussianComponent(0.0, [0.0], [[1.0]]), 1),
        (lambda: c.with_weight(0.0), 1),
        (lambda: GaussianMixture.from_arrays([0.5, 0.0], [[0.0], [1.0]], [[[1.0]], [[1.0]]]), 2),
        (lambda: GaussianMixture._of(replace(m._arr, weights=np.array([0.5, 0.0]))), 2),
    ):
        with pytest.raises(ValueError, match=re.escape(message.format(pos, 0.0))):
            build()
    with pytest.raises(ValueError, match=re.escape(message.format(1, 1.4))):
        moment_match_merge(c.with_weight(0.7), c.with_weight(0.7))


def test_mixture_properties():
    m = _two_component(w1=0.8)
    assert m.size == 2
    assert len(m) == 2
    assert m.dim == 1
    assert np.allclose(m.weights, [0.8, 0.2])
    assert m.is_normalized
    half = GaussianMixture((GaussianComponent(0.25, [0.0], [[1.0]]),))
    assert not half.is_normalized
    renorm = half.renormalized()
    assert renorm.is_normalized
    assert renorm.components[0].weight == 1.0


def test_from_arrays():
    m = GaussianMixture.from_arrays([0.3, 0.7], [[0.0], [1.0]], [[[1.0]], [[2.0]]])
    assert m.size == 2
    assert m.components[1].cov[0, 0] == 2.0
    with pytest.raises(ValueError):
        GaussianMixture.from_arrays([0.5], [[0.0], [1.0]], [[[1.0]], [[1.0]]])
    with pytest.raises(ValueError, match="1-D vector"):
        GaussianMixture.from_arrays([[0.3, 0.7]], [[0.0], [1.0]], [[[1.0]], [[2.0]]])
    with pytest.raises(ValueError, match="component 1 weight must be finite, positive and at most 1, got 0.0"):
        GaussianMixture.from_arrays([0.0, 1.0], [[0.0], [1.0]], [[[1.0]], [[2.0]]])


def _stack_bits(components):
    return [(c.weight, c.mean.tobytes(), c.cov.tobytes(), c.chol.tobytes(), c.log_det) for c in components]


def test_pickling_and_immutability_of_the_stack():
    rng = np.random.default_rng(35)
    m = random_mixture(rng, 4, 3)
    arrays = GaussianMixture.from_arrays(m.weights, [c.mean for c in m.components], [c.cov for c in m.components])
    c = m.components[2]
    assert _stack_bits([pickle.loads(pickle.dumps(c))]) == _stack_bits([c])
    for mixture in (m, arrays):
        back = pickle.loads(pickle.dumps(mixture))
        assert _stack_bits(back.components) == _stack_bits(mixture.components)
        assert not any(getattr(back._arr, f.name).flags.writeable for f in fields(back._arr))
        with pytest.raises(FrozenInstanceError):
            back.components = ()
    with pytest.raises(FrozenInstanceError):
        c.weight = 0.5
    weights = m.weights
    weights[0] = 0.0
    assert m.weights[0] > 0.0
    for i, comp in enumerate(m.components):
        assert np.shares_memory(comp.chol, m._arr.chols)
        assert np.array_equal(comp.chol, m._arr.chols[i])


def test_apply_prune_renormalizes():
    rng = np.random.default_rng(33)
    m = random_mixture(rng, 4, 2)
    out = apply(m, Prune(2))
    assert out.size == 3
    w_pruned = m.components[1].weight
    kept = [c for i, c in enumerate(m.components) if i != 1]
    for before, after in zip(kept, out.components):
        assert np.array_equal(before.mean, after.mean)
        assert np.array_equal(before.cov, after.cov)
        assert abs(after.weight - before.weight / (1.0 - w_pruned)) < 1e-12
    assert out.is_normalized


def test_apply_prune_errors():
    m = _two_component()
    with pytest.raises(ValueError):
        apply(m, Prune(0))
    with pytest.raises(ValueError):
        apply(m, Prune(3))
    single = GaussianMixture((GaussianComponent(1.0, [0.0], [[1.0]]),))
    with pytest.raises(ValueError):
        apply(single, Prune(1))


def test_apply_merge_worked_example():
    m = _two_component()
    out = apply(m, Merge(1, 2))
    assert out.size == 1
    c = out.components[0]
    assert c.weight == 1.0
    assert c.mean[0] == 0.0
    assert c.cov[0, 0] == 10.0


def test_apply_merge_position_and_mixture_moments():
    rng = np.random.default_rng(34)
    m = random_mixture(rng, 4, 2)
    out = apply(m, Merge(2, 4))
    assert out.size == 3
    # Survivors keep their order; the merge lands at the smaller slot.
    assert np.array_equal(out.components[0].mean, m.components[0].mean)
    assert np.array_equal(out.components[2].mean, m.components[2].mean)

    def mixture_moments(mm):
        mean = sum(c.weight * c.mean for c in mm.components)
        second = sum(c.weight * (c.cov + np.outer(c.mean, c.mean)) for c in mm.components)
        return mean, second

    m0, s0 = mixture_moments(m)
    m1, s1 = mixture_moments(out)
    assert np.allclose(m0, m1, atol=1e-12)
    assert np.allclose(s0, s1, atol=1e-12)


def test_apply_requires_normalized():
    unnorm = GaussianMixture(
        (GaussianComponent(0.5, [0.0], [[1.0]]), GaussianComponent(0.3, [1.0], [[1.0]]))
    )
    with pytest.raises(ValueError, match="mixture weights sum to 0.8"):
        apply(unnorm, Prune(1))
    with pytest.raises(ValueError, match="mixture weights sum to 0.8"):
        sample(unnorm, 10, seed=0)


def test_apply_rejects_unknown_hypothesis():
    with pytest.raises(ValueError):
        apply(_two_component(), "prune")


def test_merge_index_validation():
    with pytest.raises(ValueError):
        Merge(2, 1)
    with pytest.raises(ValueError):
        Merge(1, 1)
    # A bool or a float index would be read as a number, or fail only when applied.
    for bad in (lambda: Prune(True), lambda: Prune(2.0), lambda: Merge(1, 2.5), lambda: Merge(True, 2)):
        with pytest.raises(ValueError, match="integer"):
            bad()
    assert Prune(np.int64(2)) == Prune(2)
    assert Merge(np.int32(1), 2) == Merge(1, 2)


def test_sample_deterministic():
    m = _two_component(w1=0.7)
    a = sample(m, 500, seed=42)
    b = sample(m, 500, seed=42)
    c = sample(m, 500, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (500, 1)


def test_sample_occupancy_and_moments():
    rng = np.random.default_rng(35)
    m = GaussianMixture.from_arrays(
        [0.5, 0.3, 0.2], [[-4.0], [0.0], [4.0]], [[[1.0]], [[0.5]], [[2.0]]]
    )
    n = 20_000
    pts, comp = sample(m, n, seed=7, return_components=True)
    assert set(np.unique(comp)) <= {1, 2, 3}
    for idx, w in enumerate([0.5, 0.3, 0.2], start=1):
        frac = np.mean(comp == idx)
        assert abs(frac - w) < 4.0 * math.sqrt(w * (1.0 - w) / n)
        own = pts[comp == idx, 0]
        c = m.components[idx - 1]
        sd = math.sqrt(float(c.cov[0, 0]))
        assert abs(np.mean(own) - c.mean[0]) < 4.0 * sd / math.sqrt(own.size)
    mix_mean = sum(c.weight * c.mean[0] for c in m.components)
    assert abs(np.mean(pts) - mix_mean) < 0.1


def test_sample_validation():
    m = _two_component()
    for bad in (-1, 2.5, 2.0, True):
        with pytest.raises(ValueError, match="integer"):
            sample(m, bad, seed=0)
    assert sample(m, 0, seed=0).shape == (0, 1)


def test_enumerate_hypotheses_order():
    m = _two_component()
    assert enumerate_hypotheses(m) == [Prune(1), Prune(2), Merge(1, 2)]
    rng = np.random.default_rng(36)
    m4 = random_mixture(rng, 4, 1)
    hyps = enumerate_hypotheses(m4)
    assert len(hyps) == 4 + 6
    assert hyps[:4] == [Prune(1), Prune(2), Prune(3), Prune(4)]
    assert hyps[4:] == [Merge(1, 2), Merge(1, 3), Merge(1, 4), Merge(2, 3), Merge(2, 4), Merge(3, 4)]
    merges_only = enumerate_hypotheses(m4, include_pruning=False)
    assert merges_only == hyps[4:]
