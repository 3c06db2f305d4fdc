"""Tests of the benchmark itself: checks, tracing, determinism.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from gmreduce import mixture, reduction  # noqa: E402
from gmreduce.costs import CostKind  # noqa: E402
from gmreduce.gauss import GaussianComponent  # noqa: E402
from gmreduce.mixture import GaussianMixture  # noqa: E402
from layers import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    ClusterWorkload,
    ReduceWorkload,
    engines_agree,
    mixtures_identical,
    random_mixture,
)

SMALL = ReduceWorkload(
    "small", (("arkl", 8, 2), ("arkl-simple", 8, 1), ("runnalls", 8, 2), ("williams", 6, 1))
)


def _perturbed(m: GaussianMixture) -> GaussianMixture:
    comps = list(m.components)
    first = comps[0]
    comps[0] = GaussianComponent(first.weight, first.mean + 1e-12, first.cov)
    return GaussianMixture(tuple(comps))


def test_inputs_repeat_for_a_seed_and_differ_across_cycles():
    for wl in WORKLOADS.values():
        a, b = wl.cycle_inputs(5, 0), wl.cycle_inputs(5, 0)
        c = wl.cycle_inputs(5, 1)
        assert len(a) == len(wl.plan)
        for x, y, z in zip(a, b, c):
            if x.mixture is None:
                assert x.seed == y.seed != z.seed
            else:
                assert mixtures_identical(x.mixture, y.mixture)
                assert not mixtures_identical(x.mixture, z.mixture)


def test_generator_properties():
    rng = np.random.default_rng(3)
    conds, spans = [], []
    for dim in (2, 4, 8):
        m = random_mixture(rng, 24, dim)
        conds.extend(np.linalg.cond(c.cov) for c in m.components)
        spans.append(m.weights.max() / m.weights.min())
    assert max(conds) <= 1e3 * (1 + 1e-9)
    assert max(conds) > 50.0
    assert min(spans) > 10.0
    steps = prunes = 0
    deep = WORKLOADS["reduce-deep"]
    for inp in deep.cycle_inputs(5, 0):
        if inp.method in ("arkl", "arkl-simple") and inp.dim <= 2:
            outcome = deep.check(inp, deep.run(inp, ""))
            steps += outcome.steps
            prunes += outcome.prunes
    assert 0 < prunes < steps


def test_reduce_checks_pass_and_catch_corruption():
    for inp in SMALL.cycle_inputs(1, 0):
        reduced, trace = SMALL.run(inp, "")
        assert SMALL.check(inp, (reduced, trace)).ok
        nan_last = replace(trace.steps[-1], cost=float("nan"))
        corrupted = [
            (_perturbed(reduced), trace),  # result no longer equals the replay
            (reduced, replace(trace, steps=trace.steps[:-1])),  # a step missing
            (reduced, replace(trace, steps=trace.steps[:-1] + (nan_last,))),  # non-finite cost
        ]
        for bad in corrupted:
            assert not SMALL.check(inp, bad).ok


def test_corrupted_results_count_as_failed_ops(monkeypatch, tmp_path):
    real_run = SMALL.run

    def corrupting_run(inp, workdir):
        reduced, trace = real_run(inp, workdir)
        return (_perturbed(reduced), trace) if inp.method == "runnalls" else (reduced, trace)

    monkeypatch.setattr(SMALL, "run", corrupting_run)
    records = run.measure(SMALL, 2, 0.0, str(tmp_path), None)
    failed = [r.inp.method for r in records if not r.outcome.ok]
    assert failed == ["runnalls"]


def test_raising_op_counts_as_failed(monkeypatch, tmp_path):
    def raising_run(inp, workdir):
        raise np.linalg.LinAlgError("boom")

    monkeypatch.setattr(SMALL, "run", raising_run)
    records = run.measure(SMALL, 2, 0.0, str(tmp_path), None)
    assert all(not r.outcome.ok for r in records)
    assert "LinAlgError" in records[0].outcome.problems[0]


def test_eval_breakdown_sums_to_trace_and_repeats(tmp_path):
    runs = []
    for _ in range(2):
        tracer = Tracer()
        records = run.measure(SMALL, 4, 0.0, str(tmp_path), tracer)
        assert all(r.outcome.ok for r in records), [r.outcome.problems for r in records]
        runs.append({op: dict(evals) for op, evals in tracer.evals.items()})
        for op, inp in enumerate(r.inp for r in records):
            _, trace = reduction.reduce(inp.mixture, inp.target, CostKind(inp.method))
            assert sum(tracer.evals[op].values()) == trace.eval_count == tracer.eval_totals[op]
    assert runs[0] == runs[1]
    kinds = {k for evals in runs[0].values() for k, v in evals.items() if v}
    assert kinds == {"kld", "overlap", "switched"}


def test_tracer_restores_the_library_and_nests_spans():
    tracer = Tracer()
    before = (reduction.reduce, mixture.apply, GaussianComponent.__dict__["__post_init__"])
    inp = SMALL.cycle_inputs(1, 0)[0]
    with tracer.traced_op(0):
        reduction.reduce(inp.mixture, inp.target, CostKind(inp.method))
    assert before == (reduction.reduce, mixture.apply, GaussianComponent.__dict__["__post_init__"])
    agg = tracer.aggregate()
    root_calls, root_s, root_self = agg["bench.op"]
    assert root_calls == 1 and 0.0 <= root_self < root_s
    assert agg["reduction.reduce"][0] == 1
    assert agg["reduction.build_cost_table"][0] == 1
    assert agg["reduction.update_cost_table"][0] == inp.n - inp.target - 1
    assert sum(row[2] for row in agg.values()) == pytest.approx(root_s, rel=1e-9)


def test_engines_agree_and_disagreement_is_seen(monkeypatch):
    m = random_mixture(np.random.default_rng(9), 6, 2)
    assert all(engines_agree(m, kind) for kind in CostKind)
    real = reduction.reduce

    def off_by_one_ulp(m, target, kind):
        reduced, trace = real(m, target, kind)
        return _perturbed(reduced), trace

    monkeypatch.setattr(reduction, "reduce", off_by_one_ulp)
    assert not engines_agree(m, CostKind.RUNNALLS_B)


def test_cluster_op_checks(tmp_path):
    wl = ClusterWorkload()
    inp = wl.cycle_inputs(1, 0)[1]  # runnalls
    code, prefix = wl.run(inp, str(tmp_path))
    outcome = wl.check(inp, (code, prefix))
    assert outcome.ok, outcome.problems
    assert outcome.steps == 9 and outcome.prunes == 0
    assert not wl.check(inp, (3, prefix)).ok
    corruptions = {
        "_trace.json": "the trace file does not replay to its final mixture",
        "_summary.json": "merge-only runnalls discarded 3 points",
    }
    for suffix, expected in corruptions.items():
        path = Path(prefix + suffix)
        original = path.read_text()
        doc = json.loads(original)
        if suffix == "_trace.json":
            doc["final_mixture"]["components"][0]["mean"][0] += 1e-9
        else:
            doc["discarded"] = 3
        path.write_text(json.dumps(doc))
        assert wl.check(inp, (code, prefix)).problems == [expected]
        path.write_text(original)


def test_reference_kernel_is_deterministic_and_independent():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import refkernel;"
        "a = refkernel.run_kernel(); b = refkernel.run_kernel();"
        "assert a == b, (a, b);"
        "assert not [m for m in sys.modules if m.startswith('gmreduce')]"
    )
    subprocess.run([sys.executable, "-c", code, str(HERE)], check=True, timeout=60)


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "reduce-deep", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
