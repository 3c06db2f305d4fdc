"""Cost surrogates, bounds and divergence estimators against oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, stats

from conftest import random_component, random_mixture
from gmreduce import (
    CostKind,
    DisjointSupportError,
    DivergenceEstimate,
    GaussianComponent,
    GaussianMixture,
    Merge,
    Prune,
    apply,
    arkl_merge_cost,
    arkl_prune_cost,
    crude_prune_bound,
    gaussian_overlap,
    hypothesis_cost,
    ise_analytic,
    kld_gauss,
    kld_to_pair_bound,
    mc_kld,
    moment_match_merge,
    optimal_split_weight,
    product_decompose,
    runnalls_bound,
    simple_merge_bound,
    switched_divergence,
)
from gmreduce.costs import (
    _gram_stats,
    _kld_matrix,
    _merge_kernels,
    _overlap_matrix,
    _overlaps,
    _pair_cost_from_neg_exponents,
    _williams_merge_costs,
)
from gmreduce.gauss import ComponentArrays, _whiten
from gmreduce.gauss import log_pdf as g_log_pdf, max_value, pdf as g_pdf
from gmreduce.quadrature import kld_quad


def _pair(w1=0.5, mu=3.0):
    return (
        GaussianComponent(w1, [-mu], [[1.0]]),
        GaussianComponent(1.0 - w1, [mu], [[1.0]]),
    )


def test_runnalls_bound_worked_value():
    a, b = _pair()
    # Each side contributes D(N(-+3,1) || N(0,10)) = log(10)/2.
    assert abs(runnalls_bound(a, b) - 1.151292546497023) < 1e-12


def test_runnalls_bound_scales_with_weights():
    a, b = _pair()
    half = runnalls_bound(a.with_weight(0.25), b.with_weight(0.25))
    assert abs(half - 0.5 * runnalls_bound(a, b)) < 1e-12


def test_simple_merge_bound_worked_value():
    a, b = _pair()
    # Symmetric pair: the bound collapses to D(N(0,10) || N(3,1)).
    assert abs(simple_merge_bound(a, b) - 7.848707453502977) < 1e-12


def test_crude_prune_bound():
    assert abs(crude_prune_bound(0.2) - 0.22314355131420976) < 1e-15
    for w in (-0.1, 0.0, 1.0, 1.1):
        with pytest.raises(ValueError):
            crude_prune_bound(w)


def test_gaussian_overlap_matches_scipy():
    rng = np.random.default_rng(41)
    for dim in (1, 2, 3):
        a = random_component(rng, dim)
        b = random_component(rng, dim)
        want = stats.multivariate_normal(b.mean, a.cov + b.cov).pdf(a.mean)
        assert abs(gaussian_overlap(a, b) - want) < 1e-12
        assert abs(gaussian_overlap(a, b) - gaussian_overlap(b, a)) < 1e-15


def test_ise_known_single_gaussian_pair():
    # ISE(N(0,1), N(m,1)) = (1 - exp(-m^2/4)) / sqrt(pi)
    for m in (0.5, 1.0, 2.0, 5.0):
        p = GaussianMixture((GaussianComponent(1.0, [0.0], [[1.0]]),))
        q = GaussianMixture((GaussianComponent(1.0, [m], [[1.0]]),))
        want = (1.0 - math.exp(-m * m / 4.0)) / math.sqrt(math.pi)
        assert abs(ise_analytic(p, q) - want) < 1e-14
    far = GaussianMixture((GaussianComponent(1.0, [40.0], [[1.0]]),))
    near = GaussianMixture((GaussianComponent(1.0, [0.0], [[1.0]]),))
    assert abs(ise_analytic(near, far) - 1.0 / math.sqrt(math.pi)) < 1e-14


def test_ise_properties():
    rng = np.random.default_rng(42)
    for dim in (1, 2):
        p = random_mixture(rng, 3, dim)
        q = random_mixture(rng, 2, dim)
        assert ise_analytic(p, p) <= 1e-12
        assert abs(ise_analytic(p, q) - ise_analytic(q, p)) < 1e-12
        assert ise_analytic(p, q) > 0.0
    with pytest.raises(ValueError):
        ise_analytic(random_mixture(rng, 2, 1), random_mixture(rng, 2, 2))


def test_ise_matches_quadrature():
    from gmreduce.mixture import pdf as mix_pdf
    from gmreduce.quadrature import envelope_1d

    rng = np.random.default_rng(43)
    for _ in range(10):
        p = random_mixture(rng, int(rng.integers(1, 4)), 1)
        q = random_mixture(rng, int(rng.integers(1, 4)), 1)
        lo, hi = envelope_1d(p, q)
        want, _ = integrate.quad(
            lambda x: (mix_pdf(p, [x]) - mix_pdf(q, [x])) ** 2,
            lo,
            hi,
            epsabs=1e-12,
            epsrel=0.0,
            limit=300,
        )
        got = ise_analytic(p, q)
        assert abs(got - want) < 1e-6 * max(abs(want), 1e-12)


def test_mc_kld_known_value():
    p = GaussianMixture((GaussianComponent(1.0, [0.0], [[1.0]]),))
    q = GaussianMixture((GaussianComponent(1.0, [2.0], [[1.0]]),))
    est = mc_kld(p, q, 200_000, seed=5)
    assert est.samples == 200_000
    assert est.std_error < 0.02
    assert abs(est.value - 2.0) < 4.0 * est.std_error
    again = mc_kld(p, q, 200_000, seed=5)
    assert again.value == est.value


def test_mc_kld_prune_matches_quadrature():
    m = GaussianMixture(_pair(w1=0.8, mu=8.0))
    reduced = apply(m, Prune(2))
    est = mc_kld(reduced, m, 200_000, seed=9)
    exact, converged = kld_quad(reduced, m)
    assert converged
    # The integrand is nearly constant here, so the standard error can
    # collapse below float precision; keep an absolute noise floor.
    assert abs(est.value - exact) < 4.0 * est.std_error + 1e-12


def test_mc_kld_validation_and_disjoint_support():
    p = GaussianMixture((GaussianComponent(1.0, [0.0], [[1.0]]),))
    with pytest.raises(ValueError):
        mc_kld(p, p, 999, seed=0)
    far = GaussianMixture((GaussianComponent(1.0, [1e200], [[1.0]]),))
    with pytest.raises(DisjointSupportError) as info:
        mc_kld(p, far, 1000, seed=0)
    assert info.value.abscissa.shape == (1,)


def test_divergence_estimate_validation():
    DivergenceEstimate(1.0, 0.0, 0)
    DivergenceEstimate(1.0, 0.1, 100)
    with pytest.raises(ValueError):
        DivergenceEstimate(1.0, 0.1, 0)
    with pytest.raises(ValueError):
        DivergenceEstimate(1.0, -0.1, 100)
    with pytest.raises(ValueError):
        DivergenceEstimate(1.0, 0.0, -1)


def test_kld_to_pair_bound_is_upper_bound():
    """The log-sum-inequality bound dominates the true integral."""
    rng = np.random.default_rng(44)
    for _ in range(20):
        k = random_component(rng, 1)
        i = random_component(rng, 1)
        j = random_component(rng, 1)
        w_i, w_j = rng.uniform(0.1, 0.9, 2)

        def integrand(x):
            pt = np.array([x])
            qk = g_pdf(k, pt)
            if qk == 0.0:
                return 0.0
            pair = w_i * g_pdf(i, pt) + w_j * g_pdf(j, pt)
            return qk * (g_log_pdf(k, pt) - math.log(pair))

        lo = float(min(k.mean[0], i.mean[0], j.mean[0])) - 14.0
        hi = float(max(k.mean[0], i.mean[0], j.mean[0])) + 14.0
        exact, _ = integrate.quad(integrand, lo, hi, epsabs=1e-10, epsrel=0.0, limit=300)
        assert exact <= kld_to_pair_bound(k, i, j, w_i, w_j) + 1e-7
    with pytest.raises(ValueError):
        kld_to_pair_bound(k, i, j, 0.0, 0.5)


def test_arkl_prune_cost_worked_value():
    m = GaussianMixture(_pair(w1=0.5, mu=8.0))
    # The correction term is exp(-D) small at this separation.
    assert abs(arkl_prune_cost(m, 2) - math.log(2.0)) < 1e-12
    assert arkl_prune_cost(m, 1) == arkl_prune_cost(m, 2)


def test_arkl_prune_cost_tightens_crude_bound():
    rng = np.random.default_rng(45)
    for _ in range(30):
        m = random_mixture(rng, int(rng.integers(2, 6)), 1)
        for j in range(1, m.size + 1):
            refined = arkl_prune_cost(m, j)
            assert refined < crude_prune_bound(m.components[j - 1].weight)


def test_arkl_prune_cost_accepts_precomputed_matrix():
    rng = np.random.default_rng(46)
    m = random_mixture(rng, 4, 2)
    table = np.zeros((4, 4))
    for a in range(4):
        for b in range(4):
            if a != b:
                table[a, b] = kld_gauss(m.components[a], m.components[b])
    for j in range(1, 5):
        assert arkl_prune_cost(m, j, table) == arkl_prune_cost(m, j)
    with pytest.raises(ValueError):
        arkl_prune_cost(m, 1, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        arkl_prune_cost(m, 5)
    single = GaussianMixture((GaussianComponent(1.0, [0.0], [[1.0]]),))
    with pytest.raises(ValueError):
        arkl_prune_cost(single, 1)


def test_arkl_prune_upper_bounds_true_divergence():
    """Surrogate >= exact reverse divergence of the renormalized prune."""
    rng = np.random.default_rng(47)
    for _ in range(25):
        m = random_mixture(rng, int(rng.integers(2, 5)), 1)
        j = int(rng.integers(1, m.size + 1))
        exact, converged = kld_quad(apply(m, Prune(j)), m)
        assert converged
        assert exact <= arkl_prune_cost(m, j) + 1e-7


def test_switched_divergence_vanishes_on_identical_args():
    rng = np.random.default_rng(48)
    for dim in (1, 2, 3):
        q = random_component(rng, dim)
        assert abs(switched_divergence(q, q, q)) < 1e-12


def test_switched_divergence_matches_quadrature():
    rng = np.random.default_rng(49)
    for _ in range(10):
        k = random_component(rng, 1)
        i = random_component(rng, 1)
        j = random_component(rng, 1)

        def integrand(x):
            pt = np.array([x])
            qk = g_pdf(k, pt)
            if qk == 0.0:
                return 0.0
            switch = 1.0 - g_pdf(i, pt) / max_value(i)
            return qk * switch * (g_log_pdf(k, pt) - g_log_pdf(j, pt))

        lo = float(min(k.mean[0], i.mean[0], j.mean[0])) - 14.0
        hi = float(max(k.mean[0], i.mean[0], j.mean[0])) + 14.0
        want, _ = integrate.quad(integrand, lo, hi, epsabs=1e-12, epsrel=0.0, limit=400)
        got = switched_divergence(k, i, j)
        assert abs(got - want) <= 1e-6 * max(abs(want), 1e-9)


def _switched_divergence_2d_exact(k, i, j):
    """V(q_k, q_i, q_j) for 2-D inputs with every matrix step in exact rationals."""
    F = Fraction

    def mat(a):
        return [[F(float(x)) for x in row] for row in a]

    def vec(v):
        return [F(float(x)) for x in v]

    def det(a):
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]

    def inv(a):
        d = det(a)
        return [[a[1][1] / d, -a[0][1] / d], [-a[1][0] / d, a[0][0] / d]]

    def mul(a, b):
        return [[sum(a[r][t] * b[t][c] for t in range(2)) for c in range(2)] for r in range(2)]

    def apply(a, v):
        return [sum(a[r][t] * v[t] for t in range(2)) for r in range(2)]

    def quad(a, v):
        return sum(v[r] * apply(a, v)[r] for r in range(2))

    def add(a, b, sign=1):
        return [[a[r][c] + sign * b[r][c] for c in range(2)] for r in range(2)]

    log_2pi = math.log(2.0 * math.pi)
    s_k, s_i, s_j = mat(k.cov), mat(i.cov), mat(j.cov)
    m_k, m_i, m_j = vec(k.mean), vec(i.mean), vec(j.mean)
    s_inv = inv(add(s_i, s_k))
    delta = [m_k[r] - m_i[r] for r in range(2)]
    scale = math.exp(-0.5 * (2 * log_2pi + math.log(det(add(s_i, s_k))) + float(quad(s_inv, delta))))
    gain = mul(s_i, s_inv)
    mean_star = [m_i[r] + apply(gain, delta)[r] for r in range(2)]
    cov_star = add(s_i, mul(gain, s_i), -1)

    def elog(s_q, m_q):
        d = [mean_star[r] - m_q[r] for r in range(2)]
        s_q_inv = inv(s_q)
        trace = sum(mul(s_q_inv, cov_star)[r][r] for r in range(2))
        return -0.5 * (2 * log_2pi + math.log(det(s_q)) + float(trace + quad(s_q_inv, d)))

    s_j_inv = inv(s_j)
    d_kj = [m_j[r] - m_k[r] for r in range(2)]
    kld = 0.5 * (
        math.log(det(s_j)) - math.log(det(s_k)) - 2
        + float(sum(mul(s_j_inv, s_k)[r][r] for r in range(2)) + quad(s_j_inv, d_kj))
    )
    max_i = 1.0 / (2.0 * math.pi * math.sqrt(det(s_i)))
    return kld - scale / max_i * (elog(s_k, m_k) - elog(s_j, m_j))


def test_switched_divergence_near_singular_first_argument():
    """q* has the covariance S_i - S_i (S_i + S_k)^-1 S_i, formed by
    subtraction; for a nearly singular q_k it need not factorize, and
    S_k^-1 amplifies its rounding error.  The divergence must stay finite
    and accurate.  The reference does every matrix step in exact
    rationals; the tolerance reflects the condition number 1e14 of S_k."""
    rng = np.random.default_rng(0)
    unfactorizable = 0
    for _ in range(50):
        rot, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        cov_k = (rot * np.array([1e-14, 1.0])) @ rot.T
        k = GaussianComponent(0.5, rng.normal(0.0, 1.0, 2), 0.5 * (cov_k + cov_k.T))
        i = GaussianComponent(0.5, [0.0, 0.0], 100.0 * np.eye(2))
        j = GaussianComponent(0.5, [0.0, 0.0], np.eye(2))
        try:
            np.linalg.cholesky(product_decompose(i, k).cov_star)
        except np.linalg.LinAlgError:
            unfactorizable += 1
        want = _switched_divergence_2d_exact(k, i, j)
        got = switched_divergence(k, i, j)
        assert math.isfinite(got)
        assert abs(got - want) <= 1e-3 * max(1.0, abs(want))
    assert unfactorizable > 0


def test_optimal_split_weight_minimizes_bound():
    rng = np.random.default_rng(50)
    for _ in range(25):
        w_i, w_j = rng.uniform(0.05, 1.0, 2)
        v_i, v_j = rng.uniform(-0.5, 6.0, 2)
        alpha = optimal_split_weight(w_i, w_j, v_i, v_j)
        assert 0.0 < alpha < 1.0

        def bound(a):
            return (
                a * (v_i + math.log(a / w_i))
                + (1.0 - a) * (v_j + math.log((1.0 - a) / w_j))
            )

        best = bound(alpha)
        # Closed-form minimum value of the split bound.
        assert abs(best - -np.logaddexp(math.log(w_i) - v_i, math.log(w_j) - v_j)) < 1e-12
        for a in np.linspace(0.01, 0.99, 49):
            assert best <= bound(float(a)) + 1e-12
    with pytest.raises(ValueError):
        optimal_split_weight(0.0, 0.5, 1.0, 1.0)


def test_arkl_merge_cost_assembly():
    """The cost is the pair form of the kernel's exponents: each side's
    plain divergence from the merge, less one shared nonnegative gap."""
    rng = np.random.default_rng(51)
    for _ in range(10):
        a = random_component(rng, 2, rng.uniform(0.1, 0.6))
        b = random_component(rng, 2, rng.uniform(0.1, 0.4))
        merged = moment_match_merge(a, b)
        (v_a,), (v_b,), _ = _merge_kernels(
            CostKind.ARKL_FULL, ComponentArrays.of((a,)), ComponentArrays.of((b,))
        )
        assert arkl_merge_cost(a, b) == _pair_cost_from_neg_exponents(
            a.weight, b.weight, v_a, v_b
        )
        gap_a = kld_gauss(merged, a) - v_a
        gap_b = kld_gauss(merged, b) - v_b
        assert gap_a >= 0.0
        assert abs(gap_a - gap_b) <= 1e-9 * max(1.0, gap_a)


def test_arkl_merge_cost_near_duplicates_slightly_negative():
    a = GaussianComponent(0.5, [0.0], [[1.0]])
    b = GaussianComponent(0.5, [0.01], [[1.0]])
    cost = arkl_merge_cost(a, b)
    assert -1e-3 < cost < 0.0


def test_arkl_merge_cost_tightens_simple_bound():
    """The switched cost sits below the plain log-sum bound."""
    for w1, mu in ((0.5, 8.0), (0.8, 2.0), (0.8, 4.0), (0.3, 1.0)):
        a, b = _pair(w1=w1, mu=mu)
        assert arkl_merge_cost(a, b) < simple_merge_bound(a, b)


def test_arkl_merge_cost_finite_up_to_the_overflow_path():
    """Squared spreads overflow near separation 1e77; the cost must not."""
    for sep in (1e3, 1e80, 1e150):
        a = GaussianComponent(0.5, [-sep], [[1.0]])
        b = GaussianComponent(0.5, [sep], [[4.0]])
        cost = arkl_merge_cost(a, b)
        assert math.isfinite(cost)
        assert 0.0 < cost < simple_merge_bound(a, b)


def test_batched_kernels_match_batch_of_one_bit_for_bit():
    """Every kernel over all pairs equals its batch-of-one rows exactly."""
    rng = np.random.default_rng(54)
    for dim in (1, 2, 4, 8):
        m = random_mixture(rng, 7, dim)
        arr = ComponentArrays.of(m.components)
        iu, ju = np.triu_indices(m.size, k=1)
        rows, cols = np.nonzero(~np.eye(m.size, dtype=bool))
        gram = _overlap_matrix(arr, arr)
        s, t = _gram_stats(arr.weights, gram)
        batched = {
            kind: _merge_kernels(kind, arr.take(iu), arr.take(ju))
            for kind in (CostKind.RUNNALLS_B, CostKind.ARKL_SIMPLE, CostKind.ARKL_FULL)
        }
        williams = _williams_merge_costs(arr, gram, s, t, iu, ju)[0]
        overlaps = _overlaps(arr.take(iu), arr.take(ju))
        klds = _kld_matrix(arr)
        for p, (i, j) in enumerate(zip(iu, ju)):
            a, b = arr.take([i]), arr.take([j])
            for kind, (k_a, k_b, ok) in batched.items():
                one_a, one_b, one_ok = _merge_kernels(kind, a, b)
                assert (one_a[0], one_b[0], one_ok[0]) == (k_a[p], k_b[p], ok[p])
            one = _williams_merge_costs(arr, gram, s, t, np.array([i]), np.array([j]))[0]
            assert one[0] == williams[p]
            assert _overlaps(a, b)[0] == overlaps[p]
        for i, j in zip(rows, cols):
            assert _whiten(arr.take([i]), arr.take([j]))[0][0] == klds[i, j]


def test_hypothesis_cost_dispatch():
    rng = np.random.default_rng(52)
    m = random_mixture(rng, 4, 2)
    a, b = m.components[0], m.components[2]
    assert hypothesis_cost(m, Merge(1, 3), CostKind.RUNNALLS_B) == runnalls_bound(a, b)
    assert hypothesis_cost(m, Merge(1, 3), CostKind.ARKL_SIMPLE) == simple_merge_bound(a, b)
    assert hypothesis_cost(m, Merge(1, 3), CostKind.ARKL_FULL) == arkl_merge_cost(a, b)
    assert hypothesis_cost(m, Prune(2), CostKind.ARKL_SIMPLE) == crude_prune_bound(
        m.components[1].weight
    )
    assert hypothesis_cost(m, Prune(2), CostKind.ARKL_FULL) == arkl_prune_cost(m, 2)
    with pytest.raises(ValueError):
        hypothesis_cost(m, Prune(2), CostKind.RUNNALLS_B)
    with pytest.raises(ValueError):
        hypothesis_cost(m, "prune", CostKind.ARKL_FULL)


def test_williams_cost_equals_direct_ise():
    """The Gram-assembled cost is the ISE between reduced and original."""
    rng = np.random.default_rng(53)
    for _ in range(20):
        dim = int(rng.integers(1, 3))
        m = random_mixture(rng, int(rng.integers(2, 6)), dim)
        for h in (Prune(1), Prune(m.size)) + ((Merge(1, 2),) if m.size >= 2 else ()):
            want = ise_analytic(apply(m, h), m)
            got = hypothesis_cost(m, h, CostKind.WILLIAMS_ISE)
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_duplicate_pair_costs_vanish():
    c = GaussianComponent(0.5, [1.0], [[2.0]])
    m = GaussianMixture((c, c))
    assert hypothesis_cost(m, Prune(1), CostKind.ARKL_FULL) == 0.0
    assert hypothesis_cost(m, Merge(1, 2), CostKind.ARKL_FULL) == 0.0
    assert hypothesis_cost(m, Merge(1, 2), CostKind.RUNNALLS_B) == 0.0
    assert hypothesis_cost(m, Merge(1, 2), CostKind.WILLIAMS_ISE) <= 1e-12


def test_cost_kind_cli_names():
    assert CostKind("runnalls") is CostKind.RUNNALLS_B
    assert CostKind("williams") is CostKind.WILLIAMS_ISE
    assert CostKind("arkl") is CostKind.ARKL_FULL
    assert CostKind("arkl-simple") is CostKind.ARKL_SIMPLE
    assert not CostKind.RUNNALLS_B.include_pruning
    assert CostKind.ARKL_FULL.include_pruning
    assert CostKind.WILLIAMS_ISE.include_pruning
    assert CostKind.ARKL_SIMPLE.include_pruning
