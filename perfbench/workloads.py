"""Workload generators, ops and output checks.

Every workload is a fixed cycle of ops.  The inputs of cycle ``c`` are
drawn from ``SeedSequence([seed, workload key, c])``, so a seed fixes
every input however many cycles a run completes, and each run measures
whole cycles so the method and size mix never changes.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from contextlib import redirect_stdout
from dataclasses import dataclass
from io import StringIO

import numpy as np

from gmreduce import cli, mixture, reduction
from gmreduce.costs import CostKind
from gmreduce.mixture import GaussianMixture, Prune
from gmreduce.reduction import reference_reduce

# Largest |sum(weights) - 1| accepted for a reduced mixture.
WEIGHT_SUM_ATOL = 1e-9


@dataclass(frozen=True)
class OpInput:
    method: str
    n: int
    dim: int
    target: int
    mixture: GaussianMixture | None = None  # reduce ops
    seed: int | None = None  # cluster ops


@dataclass
class Outcome:
    """What one op produced, as far as the checks and the report need it."""

    problems: list
    choices: str  # every chosen hypothesis, in order
    steps: int
    prunes: int
    discarded_spurious: int = 0
    spurious: int = 0
    discarded_inliers: int = 0
    inliers: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------


def random_spd(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random rotation of eigenvalues spanning up to three decades (condition <= 1e3)."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eig = 10.0 ** rng.uniform(-1.5, 1.5, dim)
    cov = (q * eig) @ q.T
    return 0.5 * (cov + cov.T)


def random_mixture(rng: np.random.Generator, n: int, dim: int) -> GaussianMixture:
    """Weights spanning two decades, means spread over a few covariance widths."""
    w = 10.0 ** rng.uniform(-2.0, 0.0, n)
    w = w / w.sum()
    means = rng.normal(0.0, 3.0, (n, dim))
    covs = [random_spd(rng, dim) for _ in range(n)]
    return GaussianMixture.from_arrays(w, means, covs)


def _cycle_rng(seed: int, name: str, cycle: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(name.encode()), cycle]))


def hypothesis_code(h) -> str:
    return f"P{h.j}" if isinstance(h, Prune) else f"M{h.i},{h.j}"


# ---------------------------------------------------------------------------
# Reduce workloads
# ---------------------------------------------------------------------------


class ReduceWorkload:
    """Each op reduces one freshly drawn mixture with ``reduction.reduce``."""

    def __init__(self, name, plan, steps=None):
        self.name = name
        self.plan = plan  # (method, n, dim) per op of a cycle
        self.steps = steps  # reduction depth; None reduces to 1

    def cycle_inputs(self, seed: int, cycle: int) -> list[OpInput]:
        rng = _cycle_rng(seed, self.name, cycle)
        out = []
        for method, n, dim in self.plan:
            target = 1 if self.steps is None else n - self.steps
            out.append(OpInput(method, n, dim, target, mixture=random_mixture(rng, n, dim)))
        return out

    def run(self, inp: OpInput, workdir: str):
        # Looked up at call time so the tracer's wrapper is seen.
        return reduction.reduce(inp.mixture, inp.target, CostKind(inp.method))

    def check(self, inp: OpInput, result) -> Outcome:
        reduced, trace = result
        problems = []
        if reduced.size != inp.target:
            problems.append(f"result has {reduced.size} components, expected {inp.target}")
        if len(trace.steps) != inp.n - inp.target:
            problems.append(f"trace has {len(trace.steps)} steps, expected {inp.n - inp.target}")
        if not all(np.isfinite(s.cost) for s in trace.steps):
            problems.append("a step cost is not finite")
        if abs(float(reduced.weights.sum()) - 1.0) > WEIGHT_SUM_ATOL:
            problems.append("result weights are not normalized")
        replayed = inp.mixture
        for step in trace.steps:
            replayed = mixture.apply(replayed, step.chosen)
        if not mixtures_identical(replayed, reduced):
            problems.append("replaying the trace does not reproduce the result")
        chosen = [s.chosen for s in trace.steps]
        return Outcome(
            problems,
            " ".join(hypothesis_code(h) for h in chosen),
            len(chosen),
            sum(isinstance(h, Prune) for h in chosen),
        )


def mixtures_identical(a: GaussianMixture, b: GaussianMixture) -> bool:
    """Bit-for-bit equality of weights, means and covariances."""
    if a.size != b.size:
        return False
    return all(
        ca.weight == cb.weight and np.array_equal(ca.mean, cb.mean) and np.array_equal(ca.cov, cb.cov)
        for ca, cb in zip(a.components, b.components)
    )


# ---------------------------------------------------------------------------
# Cluster workload
# ---------------------------------------------------------------------------

CLUSTER_GEN = "n=1000,m=100"
CLUSTER_OVER = 15
CLUSTER_TARGET = 6
# With the CLI default of 500, EM stops by convergence (at 120-480
# iterations) on about 40 % of seeds and at the cap on the rest, so op
# times are bimodal and a run's median jumps between the modes.  At 150,
# 39 of 40 seeds stop at the cap (the other at 125), so every op does
# nearly the same EM work, and a run holds about 40 ops rather than 24.
CLUSTER_MAX_ITERS = 150


class ClusterWorkload:
    """Each op is one in-process ``gmreduce cluster`` run through ``cli.main``.

    A cycle runs ``arkl`` and then ``runnalls``, each on its own seed: EM
    dominates the op and does not depend on the method, so sharing a seed
    would halve the independent inputs a run averages over.
    """

    name = "cluster"
    plan = (("arkl", CLUSTER_OVER, 2), ("runnalls", CLUSTER_OVER, 2))

    def cycle_inputs(self, seed: int, cycle: int) -> list[OpInput]:
        seeds = _cycle_rng(seed, self.name, cycle).integers(2**31, size=len(self.plan))
        return [OpInput(m, n, d, CLUSTER_TARGET, seed=int(s)) for (m, n, d), s in zip(self.plan, seeds)]

    def run(self, inp: OpInput, workdir: str):
        prefix = os.path.join(workdir, f"{inp.method}-{inp.seed}")
        argv = [
            "cluster", "--gen", CLUSTER_GEN, "--over", str(CLUSTER_OVER),
            "--target", str(CLUSTER_TARGET), "--max-iters", str(CLUSTER_MAX_ITERS), "--method", inp.method,
            "--seed", str(inp.seed), "--out-prefix", prefix,
        ]  # fmt: skip
        with redirect_stdout(StringIO()):
            code = cli.main(argv)
        return code, prefix

    def _read(self, prefix):
        with open(f"{prefix}_summary.json") as fh:
            summary = json.load(fh)
        method, hyps, final = cli.load_trace(f"{prefix}_trace.json")
        fitted = cli.load_mixture(f"{prefix}_fitted.json")
        return summary, method, hyps, final, fitted

    def check(self, inp: OpInput, result) -> Outcome:
        code, prefix = result
        if code != 0:
            return Outcome([f"cluster exited with code {code}"], "", 0, 0)
        problems = []
        try:
            summary, method, hyps, final, fitted = self._read(prefix)
            n_points = int(summary["n_points"])
            discarded = int(summary["discarded"])
            spurious = int(summary["spurious_points"])
            recall = float(summary["spurious_discard_recall"])
            inlier_rate = float(summary["inlier_discard_rate"])
        except (OSError, KeyError, TypeError, ValueError) as exc:
            return Outcome([f"cluster outputs do not parse: {exc}"], "", 0, 0)
        if method.value != inp.method:
            problems.append(f"trace method {method.value} != {inp.method}")
        if len(hyps) != CLUSTER_OVER - CLUSTER_TARGET:
            problems.append(f"trace has {len(hyps)} steps, expected {CLUSTER_OVER - CLUSTER_TARGET}")
        if inp.method == "runnalls" and discarded != 0:
            problems.append(f"merge-only runnalls discarded {discarded} points")
        replayed = fitted
        for h in hyps:
            replayed = mixture.apply(replayed, h)
        if not mixtures_identical(replayed, final):
            problems.append("the trace file does not replay to its final mixture")
        inliers = n_points - spurious
        return Outcome(
            problems,
            " ".join(hypothesis_code(h) for h in hyps) + f" D{discarded}",
            len(hyps),
            sum(isinstance(h, Prune) for h in hyps),
            discarded_spurious=round(recall * spurious),
            spurious=spurious,
            discarded_inliers=round(inlier_rate * inliers),
            inliers=inliers,
        )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

DEEP_PLAN = tuple(
    (method, 24, dim) for dim in (1, 2, 4, 8) for method in ("arkl", "arkl-simple", "runnalls")
) + (("williams", 12, 1), ("williams", 12, 2))
WIDE_PLAN = tuple((method, 48, dim) for dim in (2, 4) for method in ("arkl", "arkl-simple", "runnalls"))

WORKLOADS = {
    "reduce-deep": ReduceWorkload("reduce-deep", DEEP_PLAN),
    "reduce-wide": ReduceWorkload("reduce-wide", WIDE_PLAN, steps=4),
    "cluster": ClusterWorkload(),
}


def cycle_digest(outcomes) -> str:
    """Short digest of every hypothesis chosen in one cycle."""
    text = "|".join(o.choices for o in outcomes)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Fast engine against the reference engine
# ---------------------------------------------------------------------------

REFERENCE_N = 6
REFERENCE_TARGET = 2


def reference_instances(seed: int) -> list[GaussianMixture]:
    """Small mixtures from the reduce generator at the smallest and largest dimension used."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(b"reference")]))
    dims = [dim for _, _, dim in DEEP_PLAN + WIDE_PLAN]
    return [random_mixture(rng, REFERENCE_N, dim) for dim in (min(dims), max(dims))]


def engines_agree(m: GaussianMixture, kind: CostKind) -> bool:
    """The equivalence rule of acceptance criterion 6."""
    fast, fast_trace = reduction.reduce(m, REFERENCE_TARGET, kind)
    slow, slow_trace = reference_reduce(m, REFERENCE_TARGET, kind)
    if len(fast_trace.steps) != len(slow_trace.steps):
        return False
    for fs, ss in zip(fast_trace.steps, slow_trace.steps):
        if fs.chosen != ss.chosen or fs.flags != ss.flags:
            return False
        if abs(fs.cost - ss.cost) > 1e-9 * max(1.0, abs(ss.cost)):
            return False
    return mixtures_identical(fast, slow)


def reference_check(seed: int) -> list[str]:
    """Compare ``reduce`` with ``reference_reduce`` for all four methods."""
    failures = []
    for m in reference_instances(seed):
        for kind in CostKind:
            if not engines_agree(m, kind):
                failures.append(f"{kind.value} d={m.dim}")
    return failures
