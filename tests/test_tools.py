"""The repository's scripts under tools/."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_run(checkout, workload, seed, ops_per_ref, peak_rss_mb, failed=0):
    values = {"setup_s": 0.3, "ops_per_ref": ops_per_ref, "op_ref_p50": 1.0 / ops_per_ref, "peak_rss_mb": peak_rss_mb}
    record = {
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "-"} for name, value in values.items()},
    }
    out = checkout / ".perfbench"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"result-{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))


def test_bench_summary_pairs_runs_by_workload_and_seed(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (p, c) in enumerate([(1.0, 1.2), (1.1, 1.3), (1.2, 1.1), (1.3, 1.5)]):
        _write_run(parent, "reduce-deep", seed, p, 80.0)
        _write_run(change, "reduce-deep", seed, c, 80.0 + seed, failed=int(seed == 3))
    _write_run(parent, "reduce-deep", 9, 1.0, 80.0)  # no change run to pair with
    summary = _load("bench_summary").summarize(parent, change)
    assert summary["unpaired"] == {"parent": ["reduce-deep seed 9"], "change": []}
    deep = summary["workloads"]["reduce-deep"]
    assert deep["seeds"] == [0, 1, 2, 3]
    assert deep["ops"] == {"parent": {"attempted": 400, "failed": 0}, "change": {"attempted": 400, "failed": 1}}
    assert deep["correct"] == {"parent": True, "change": False}
    ops = deep["metrics"]["ops_per_ref"]
    assert (ops["won"], ops["lost"], ops["tied"]) == (3, 1, 0)
    assert ops["parent"]["median"] == pytest.approx(1.15) and ops["change"]["median"] == pytest.approx(1.25)
    assert ops["parent"]["q1"] == pytest.approx(1.075) and ops["parent"]["q3"] == pytest.approx(1.225)
    assert ops["gain_exceeds_parent_iqr"] is False
    # Lower is better for memory: one tie, three losses.
    rss = deep["metrics"]["peak_rss_mb"]
    assert (rss["won"], rss["lost"], rss["tied"]) == (0, 3, 1)


def test_digest_diff_summarizes_a_moved_em_fit():
    fit_change = _load("digest_diff").fit_change
    old = "seed  0 cap 500 iters 375 converged 1 jitter 189 reinit 0 ll -0x1.3aadb3b46a6e4p+12 params 60c5"
    new = "seed  0 cap 500 iters 376 converged 1 jitter 186 reinit 0 ll -0x1.3c7ae67050d16p+12 params d12d"
    ll_old, ll_new = float.fromhex("-0x1.3aadb3b46a6e4p+12"), float.fromhex("-0x1.3c7ae67050d16p+12")
    rel = f"{abs(ll_new - ll_old) / abs(ll_old):.2g}"
    assert fit_change(old, new) == f"seed  0 cap 500: ll relative change {rel}, iters 375 -> 376, jitter 189 -> 186"
    assert fit_change(old, old.replace("params 60c5", "params 8f65")) == "seed  0 cap 500: ll relative change 0"
    # Lines of other fits, error lines and the overall digest get no summary.
    assert fit_change(old, new.replace("seed  0", "seed  1")) is None
    assert fit_change(old, "seed  0 cap 500 error EMError: covariance failed to factorize") is None
    assert fit_change("all      77ad", "all      048d") is None
