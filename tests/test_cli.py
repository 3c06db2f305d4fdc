"""End-to-end command line tests: file formats, exit codes, determinism."""

import csv
import json

import numpy as np
import pytest

from conftest import random_mixture
from gmreduce import CostKind, GaussianMixture, LabeledDataset, Merge, Prune, apply
from gmreduce.cli import (
    SWEEP_COLUMNS,
    _write_points_csv,
    load_mixture,
    load_trace,
    main,
    mixture_from_doc,
    mixture_to_doc,
    save_mixture,
)


def _write_doc(path, doc):
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


def _two_component_doc(w1=0.8, mu1=-8.0, mu2=8.0):
    return {
        "dim": 1,
        "components": [
            {"weight": w1, "mean": [mu1], "cov": [[1.0]]},
            {"weight": 1.0 - w1, "mean": [mu2], "cov": [[1.0]]},
        ],
    }


def _standard_doc(mu=0.0):
    return {"dim": 1, "components": [{"weight": 1.0, "mean": [mu], "cov": [[1.0]]}]}


def test_mixture_round_trip_is_identity(tmp_path):
    rng = np.random.default_rng(90)
    m = random_mixture(rng, 4, 3)
    path = tmp_path / "m.json"
    save_mixture(m, str(path))
    back = load_mixture(str(path))
    for ca, cb in zip(m.components, back.components):
        assert ca.weight == cb.weight
        assert np.array_equal(ca.mean, cb.mean)
        assert np.array_equal(ca.cov, cb.cov)
    # And a second cycle through the document form changes nothing.
    assert mixture_to_doc(mixture_from_doc(mixture_to_doc(m))) == mixture_to_doc(m)


def test_reduce_command_prunes_light_far_component(tmp_path, capsys):
    inp = _write_doc(tmp_path / "in.json", _two_component_doc())
    out = tmp_path / "out.json"
    trace = tmp_path / "trace.json"
    code = main(
        ["reduce", "--in", inp, "--method", "arkl", "--target", "1",
         "--out", str(out), "--trace", str(trace)]
    )
    assert code == 0
    assert "reduced 2 -> 1" in capsys.readouterr().out
    reduced = load_mixture(str(out))
    assert reduced.size == 1
    assert reduced.components[0].mean[0] == -8.0
    method, hyps, final = load_trace(str(trace))
    assert method is CostKind.ARKL_FULL
    assert hyps == [Prune(2)]
    assert final.size == 1


def test_reduce_command_merge_only_method(tmp_path):
    inp = _write_doc(tmp_path / "in.json", _two_component_doc(mu1=-1.0, mu2=1.0))
    out = tmp_path / "out.json"
    trace = tmp_path / "trace.json"
    code = main(
        ["reduce", "--in", inp, "--method", "runnalls", "--target", "1",
         "--out", str(out), "--trace", str(trace)]
    )
    assert code == 0
    method, hyps, _ = load_trace(str(trace))
    assert method is CostKind.RUNNALLS_B
    assert hyps == [Merge(1, 2)]


def test_reduce_command_noop_target(tmp_path):
    inp = _write_doc(tmp_path / "in.json", _two_component_doc())
    out = tmp_path / "out.json"
    trace = tmp_path / "trace.json"
    code = main(
        ["reduce", "--in", inp, "--method", "williams", "--target", "2",
         "--out", str(out), "--trace", str(trace)]
    )
    assert code == 0
    assert load_mixture(str(out)).size == 2
    _, hyps, final = load_trace(str(trace))
    assert hyps == []
    assert mixture_to_doc(final) == mixture_to_doc(load_mixture(inp))


def test_reduce_trace_flags_a_negative_cost_step(tmp_path):
    doc = {
        "dim": 1,
        "components": [
            {"weight": 0.4, "mean": [0.0], "cov": [[1.0]]},
            {"weight": 0.4, "mean": [0.01], "cov": [[1.0]]},
            {"weight": 0.2, "mean": [50.0], "cov": [[1.0]]},
        ],
    }
    inp = _write_doc(tmp_path / "in.json", doc)
    trace = tmp_path / "trace.json"
    assert main(["reduce", "--in", inp, "--method", "arkl", "--target", "2", "--trace", str(trace)]) == 0
    (step,) = json.loads(trace.read_text())["steps"]
    assert step["action"] == "merge" and step["indices"] == [1, 2]
    assert step["cost"] < 0.0
    assert step["flags"] == ["negative_cost"]


def test_trace_replays_to_final_mixture_exactly(tmp_path):
    rng = np.random.default_rng(91)
    m = random_mixture(rng, 5, 2)
    inp = tmp_path / "in.json"
    save_mixture(m, str(inp))
    trace = tmp_path / "trace.json"
    code = main(
        ["reduce", "--in", str(inp), "--method", "arkl", "--target", "2", "--trace", str(trace)]
    )
    assert code == 0
    _, hyps, final = load_trace(str(trace))
    cur = load_mixture(str(inp))
    for h in hyps:
        cur = apply(cur, h)
    assert mixture_to_doc(cur) == mixture_to_doc(final)


def test_malformed_trace_documents_raise_value_error(tmp_path):
    final = _standard_doc()
    cases = [
        ([{"method": "arkl", "steps": [], "final_mixture": final}], "not a valid trace file"),
        ({"method": "arkl", "steps": 5, "final_mixture": final}, "not a valid trace file"),
        ({"method": "arkl", "steps": [1], "final_mixture": final}, "step 1 is malformed"),
        ({"method": "arkl", "steps": [{"action": "split", "indices": [1]}], "final_mixture": final},
         "step 1 is malformed: action must be prune or merge"),
        ({"method": "arkl", "steps": [{"action": "merge", "indices": 5}], "final_mixture": final}, "step 1 is malformed"),
        ({"method": "arkl", "steps": [{"action": "merge", "indices": [None, 2]}], "final_mixture": final}, "step 1 is malformed"),
        ({"method": "arkl", "steps": [], "final_mixture": dict(final, dim=None)}, "dim must be an integer"),
        ({"method": "arkl", "steps": [], "final_mixture": dict(final, dim=1.0)}, "dim must be an integer"),
    ]
    # Step indices are JSON integers: never truncated floats, bools or strings.
    for action, indices in [("merge", [1.7, 2.9]), ("prune", [True]), ("prune", ["2"]), ("prune", [2.0]), ("prune", [1, 2])]:
        steps = [{"action": "prune", "indices": [1]}, {"action": action, "indices": indices}]
        cases.append(({"method": "arkl", "steps": steps, "final_mixture": final}, "step 2 is malformed: indices"))
    for doc, message in cases:
        path = _write_doc(tmp_path / "trace.json", doc)
        with pytest.raises(ValueError, match=message) as info:
            load_trace(path)
        assert path in str(info.value)


def test_divergence_identity(tmp_path, capsys):
    p = _write_doc(tmp_path / "p.json", _two_component_doc(w1=0.6, mu1=-1.0, mu2=2.0))
    code = main(["divergence", "--p", p, "--q", p, "--seed", "7"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 7
    assert doc["ise"]["value"] <= 1e-12
    assert doc["ise"]["samples"] == 0
    for key in ("fkld", "rkld"):
        est = doc[key]
        assert est["samples"] == 100000
        assert abs(est["value"]) <= 4.0 * est["std_error"] + 1e-12


def test_divergence_known_value(tmp_path, capsys):
    p = _write_doc(tmp_path / "p.json", _standard_doc(0.0))
    q = _write_doc(tmp_path / "q.json", _standard_doc(2.0))
    code = main(
        ["divergence", "--p", p, "--q", q, "--measures", "fkld", "--seed", "3",
         "--mc-samples", "200000"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"seed", "fkld"}
    est = doc["fkld"]
    assert abs(est["value"] - 2.0) <= 4.0 * est["std_error"]


def test_divergence_zero_forcing_asymmetry(tmp_path, capsys):
    """Collapsing a bimodal p onto its main mode: RKLD stays small."""
    p = _write_doc(tmp_path / "p.json", _two_component_doc(w1=0.8, mu1=0.0, mu2=8.0))
    q = _write_doc(
        tmp_path / "q.json",
        {"dim": 1, "components": [{"weight": 1.0, "mean": [0.0], "cov": [[1.0]]}]},
    )
    code = main(["divergence", "--p", p, "--q", q, "--seed", "11"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rkld"]["value"] < doc["fkld"]["value"]
    assert doc["rkld"]["value"] < 0.5
    assert doc["fkld"]["value"] > 2.0


def test_divergence_ise_only_needs_no_seed(tmp_path, capsys):
    p = _write_doc(tmp_path / "p.json", _standard_doc())
    q = _write_doc(tmp_path / "q.json", _standard_doc(1.0))
    code = main(["divergence", "--p", p, "--q", q, "--measures", "ise"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert set(doc) == {"ise"}
    assert captured.err == ""


def test_divergence_generates_and_echoes_seed(tmp_path, capsys):
    p = _write_doc(tmp_path / "p.json", _standard_doc())
    code = main(["divergence", "--p", p, "--q", p, "--measures", "rkld"])
    captured = capsys.readouterr()
    assert code == 0
    assert "(generated)" in captured.err
    echoed = int(captured.err.split("seed:")[1].split("(")[0].strip())
    assert json.loads(captured.out)["seed"] == echoed


def test_divergence_rejects_unknown_measure(tmp_path, capsys):
    p = _write_doc(tmp_path / "p.json", _standard_doc())
    assert main(["divergence", "--p", p, "--q", p, "--measures", "kl2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_writes_expected_table(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--out", str(out)])
    assert code == 0
    assert "wrote 13 rows" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == SWEEP_COLUMNS
    assert len(rows) == 14
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    mu = data[:, 0]
    assert mu[0] == 0.0 and mu[-1] == 6.0
    crude = data[:, 2]
    r02 = data[:, 3]
    assert np.allclose(crude, -np.log(0.8))
    assert np.all(r02 <= crude + 1e-12)
    # The exact prune divergence never exceeds its surrogate.
    assert np.all(data[:, 1] <= r02 + 1e-9)


def test_sweep_validation_exit_codes(tmp_path):
    out = str(tmp_path / "s.csv")
    assert main(["sweep", "--out", out, "--w1", "1.2"]) == 2
    assert main(["sweep", "--out", out, "--mu-min", "3", "--mu-max", "2"]) == 2
    assert main(["sweep", "--out", out, "--steps", "1"]) == 2
    assert main(["sweep", "--out", out, "--mu-min", "-1"]) == 2


def test_cluster_generates_all_outputs(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    code = main(
        ["cluster", "--gen", "n=150,m=15", "--over", "6", "--target", "3",
         "--method", "arkl", "--seed", "42", "--out-prefix", prefix]
    )
    assert code == 0
    with open(f"{prefix}_summary.json") as fh:
        summary = json.load(fh)
    assert summary["seed"] == 42
    assert summary["method"] == "arkl"
    assert summary["over"] == 6
    assert summary["target"] == 3
    assert summary["n_points"] == 165
    assert summary["steps"] == 3
    assert summary["spurious_points"] == 15
    for key in ("spurious_discard_recall", "spurious_discard_precision", "inlier_discard_rate"):
        assert key in summary
    fitted = load_mixture(f"{prefix}_fitted.json")
    reduced = load_mixture(f"{prefix}_reduced.json")
    assert fitted.size == 6
    assert reduced.size == 3
    method, hyps, final = load_trace(f"{prefix}_trace.json")
    assert method is CostKind.ARKL_FULL
    assert len(hyps) == 3
    assert mixture_to_doc(final) == mixture_to_doc(reduced)
    with open(f"{prefix}_points.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "x2", "label", "truth"]
    assert len(rows) == 166
    labels = np.array([int(r[2]) for r in rows[1:]])
    assert summary["discarded"] == int(np.sum(labels == -1))
    assert np.all((labels == -1) | ((labels >= 1) & (labels <= 3)))


def test_cluster_is_deterministic(tmp_path):
    args = ["cluster", "--gen", "n=100,m=10", "--over", "5", "--target", "2",
            "--method", "arkl", "--seed", "9"]
    main(args + ["--out-prefix", str(tmp_path / "a")])
    main(args + ["--out-prefix", str(tmp_path / "b")])
    for suffix in ("_points.csv", "_fitted.json", "_reduced.json", "_trace.json", "_summary.json"):
        a = (tmp_path / f"a{suffix}").read_text()
        b = (tmp_path / f"b{suffix}").read_text()
        assert a == b


def test_cluster_gen_seed_overrides_data_stream(tmp_path):
    base = ["cluster", "--gen", "n=60,m=6,seed=5", "--over", "4", "--target", "2",
            "--method", "runnalls"]
    main(base + ["--seed", "1", "--out-prefix", str(tmp_path / "a")])
    main(base + ["--seed", "2", "--out-prefix", str(tmp_path / "b")])

    def coords(path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        return [(r[0], r[1]) for r in rows[1:]]

    assert coords(tmp_path / "a_points.csv") == coords(tmp_path / "b_points.csv")


def test_cluster_merge_only_discards_nothing(tmp_path):
    prefix = str(tmp_path / "run")
    code = main(
        ["cluster", "--gen", "n=120,m=12", "--over", "5", "--target", "2",
         "--method", "runnalls", "--seed", "13", "--out-prefix", prefix]
    )
    assert code == 0
    with open(f"{prefix}_summary.json") as fh:
        summary = json.load(fh)
    assert summary["discarded"] == 0
    assert summary["spurious_discard_recall"] == 0.0


def test_cluster_accepts_csv_input(tmp_path):
    data = tmp_path / "pts.csv"
    rng = np.random.default_rng(92)
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "truth"])
        for _ in range(40):
            writer.writerow([repr(rng.normal()), repr(rng.normal()), "1"])
        writer.writerow([])  # a blank line is skipped
        for _ in range(40):
            writer.writerow([repr(10.0 + rng.normal()), repr(rng.normal()), "2"])
    prefix = str(tmp_path / "csvrun")
    code = main(
        ["cluster", "--data", str(data), "--over", "3", "--target", "2",
         "--method", "arkl", "--seed", "3", "--out-prefix", prefix]
    )
    assert code == 0
    with open(f"{prefix}_summary.json") as fh:
        summary = json.load(fh)
    assert summary["n_points"] == 80
    assert "gen" not in summary
    assert summary["spurious_points"] == 0


def test_cluster_em_failure_exit_code(tmp_path, capsys):
    data = tmp_path / "few.csv"
    data.write_text("x1,x2\n0.0,0.0\n1.0,1.0\n2.0,2.0\n")
    code = main(
        ["cluster", "--data", str(data), "--over", "5", "--target", "2",
         "--method", "arkl", "--seed", "0", "--out-prefix", str(tmp_path / "x")]
    )
    assert code == 4
    assert "EM failure" in capsys.readouterr().err


def test_missing_and_malformed_files_exit_2(tmp_path, capsys):
    assert main(["reduce", "--in", str(tmp_path / "nope.json"), "--method", "arkl", "--target", "1"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["reduce", "--in", str(bad), "--method", "arkl", "--target", "1"]) == 2
    capsys.readouterr()


def test_bad_mixture_documents_exit_2(tmp_path, capsys):
    cases = [
        [_standard_doc()],
        {"components": [{"weight": 1.0, "mean": [0.0], "cov": [[1.0]]}]},
        dict(_standard_doc(), dim=0),
        {"dim": 1, "components": []},
        {"dim": 2, "components": [{"weight": 1.0, "mean": [0.0], "cov": [[1.0]]}]},
        _two_component_doc(w1=1.2),
        {
            "dim": 2,
            "components": [
                {"weight": 1.0, "mean": [0.0, 0.0], "cov": [[1.0, 0.5], [0.0, 1.0]]}
            ],
        },
        dict(_standard_doc(), dim=None),
        dict(_two_component_doc(), dim=1.0),
        dict(_two_component_doc(), dim=True),
        dict(_two_component_doc(), dim="1"),
        {"dim": 2.7, "components": [{"weight": 1.0, "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}]},
        {"dim": 1, "components": [{"weight": 0.5, "mean": [0.0], "cov": [[1.0]]},
                                  {"weight": 0.6, "mean": [1.0], "cov": [[1.0]]}]},
    ]
    # Only JSON numbers are numbers: no bool, string or null is coerced.
    for field, value in [
        ("weight", True), ("weight", "1.0"), ("weight", None),
        ("mean", [True]), ("mean", ["0.0"]), ("mean", [None]), ("mean", 0.0),
        ("cov", [["1.0"]]), ("cov", [[True]]), ("cov", [[None]]), ("cov", [1.0]), ("cov", [[1.0, 0.0]]),
    ]:
        cases.append({"dim": 1, "components": [dict(_standard_doc()["components"][0], **{field: value})]})
    for doc in cases:
        path = _write_doc(tmp_path / "m.json", doc)
        assert main(["reduce", "--in", path, "--method", "arkl", "--target", "1"]) == 2
    err = capsys.readouterr().err
    assert "mixture document must be a JSON object" in err
    assert "dim must be an integer of at least 1, got 0" in err
    assert "component 1 is malformed: weight must be a number, got True" in err
    assert "component 1 is malformed: cov must be a number, got '1.0'" in err
    assert "weights sum to 1.1; must be within" in err


def test_weight_sum_drift_renormalized_with_warning(tmp_path, capsys):
    doc = _two_component_doc()
    doc["components"][0]["weight"] = 0.8 + 5e-7
    path = _write_doc(tmp_path / "m.json", doc)
    out = tmp_path / "out.json"
    code = main(["reduce", "--in", path, "--method", "arkl", "--target", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "renormalizing" in captured.err
    assert load_mixture(str(out)).is_normalized


def test_dimension_mismatch_between_mixtures_exit_2(tmp_path, capsys):
    p = _write_doc(tmp_path / "p.json", _standard_doc())
    q = _write_doc(
        tmp_path / "q.json",
        {
            "dim": 2,
            "components": [
                {"weight": 1.0, "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
            ],
        },
    )
    assert main(["divergence", "--p", p, "--q", q, "--measures", "ise"]) == 2
    capsys.readouterr()


def test_disjoint_support_exit_3(tmp_path, capsys):
    p = _write_doc(tmp_path / "p.json", _standard_doc(0.0))
    q = _write_doc(tmp_path / "q.json", _standard_doc(1e200))
    code = main(["divergence", "--p", p, "--q", q, "--measures", "fkld", "--seed", "0"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_degenerate_reduction_exit_3(tmp_path, capsys):
    doc = {
        "dim": 1,
        "components": [
            {"weight": 0.5, "mean": [0.0], "cov": [[1.0]]},
            {"weight": 0.5, "mean": [1e200], "cov": [[1.0]]},
        ],
    }
    path = _write_doc(tmp_path / "m.json", doc)
    code = main(["reduce", "--in", path, "--method", "runnalls", "--target", "1"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_bad_gen_spec_exit_2(tmp_path, capsys):
    prefix = str(tmp_path / "x")
    base = ["cluster", "--over", "3", "--target", "2", "--method", "arkl",
            "--seed", "0", "--out-prefix", prefix]
    assert main(base + ["--gen", "n=abc"]) == 2
    assert main(base + ["--gen", "bogus=3"]) == 2
    assert main(base + ["--gen", "n"]) == 2
    # An empty entry is skipped, not refused.
    assert main(base + ["--gen", "n=50,,m=5"]) == 0
    capsys.readouterr()


def test_cluster_non_finite_side_or_tol_exit_2(tmp_path, capsys):
    base = ["cluster", "--over", "3", "--target", "2", "--method", "arkl",
            "--seed", "0", "--out-prefix", str(tmp_path / "x")]
    for extra in (["--gen", "n=50,m=5,side=nan"], ["--gen", "n=50,m=5,side=inf"],
                  ["--gen", "n=50,m=5", "--tol", "nan", "--max-iters", "30"]):
        assert main(base + extra) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_bad_points_csv_exit_2(tmp_path, capsys):
    prefix = str(tmp_path / "x")
    base = ["cluster", "--over", "2", "--target", "1", "--method", "arkl",
            "--seed", "0", "--out-prefix", prefix]
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(base + ["--data", str(empty)]) == 2
    badheader = tmp_path / "bad.csv"
    badheader.write_text("a,b\n1,2\n")
    assert main(base + ["--data", str(badheader)]) == 2
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("x1,x2\n1.0,2.0\n3.0\n")
    assert main(base + ["--data", str(ragged)]) == 2
    headeronly = tmp_path / "headeronly.csv"
    headeronly.write_text("x1,x2\n")
    assert main(base + ["--data", str(headeronly)]) == 2
    extra = tmp_path / "extra.csv"
    extra.write_text("x1,x2,colour\n1.0,2.0,red\n")
    assert main(base + ["--data", str(extra)]) == 2
    assert "unexpected columns ['colour'] after coordinates" in capsys.readouterr().err


def test_points_csv_non_numeric_or_non_finite_names_file_and_line(tmp_path, capsys):
    base = ["cluster", "--over", "2", "--target", "1", "--method", "arkl", "--seed", "0",
            "--out-prefix", str(tmp_path / "x")]
    cases = [
        ("x1,x2\n0.5,0.5\nnan,2.0\n", "non-finite coordinate"),
        ("x1,x2\n0.5,0.5\n1.0,-inf\n", "non-finite coordinate"),
        ("x1,x2\n0.5,0.5\n1.0,abc\n", "non-numeric field"),
        ("x1,x2,truth\n0.5,0.5,0\n1.0,2.0,x\n", "non-numeric field"),
    ]
    path = tmp_path / "points.csv"
    for text, message in cases:
        path.write_text(text)
        assert main(base + ["--data", str(path)]) == 2
        assert f"{path}: line 3 has a {message}" in capsys.readouterr().err


def test_reduce_bad_target_exit_2(tmp_path, capsys):
    path = _write_doc(tmp_path / "m.json", _two_component_doc())
    assert main(["reduce", "--in", path, "--method", "arkl", "--target", "0"]) == 2
    assert main(["reduce", "--in", path, "--method", "arkl", "--target", "3"]) == 2
    capsys.readouterr()


def test_unknown_method_rejected_by_parser(tmp_path):
    path = _write_doc(tmp_path / "m.json", _two_component_doc())
    with pytest.raises(SystemExit):
        main(["reduce", "--in", path, "--method", "bogus", "--target", "1"])


def _csv_writer_reference(path, dataset):
    """The row-by-row csv.writer output, kept as an oracle for the points file."""
    header = [f"x{i + 1}" for i in range(dataset.points.shape[1])]
    extra = [(name, arr) for name, arr in (("label", dataset.labels), ("truth", dataset.truth)) if arr is not None]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header + [name for name, _ in extra])
        for idx, point in enumerate(dataset.points):
            writer.writerow([repr(float(v)) for v in point] + [str(int(arr[idx])) for _, arr in extra])


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("with_truth", [True, False])
def test_points_csv_matches_csv_writer_bytes(tmp_path, dim, with_truth):
    rng = np.random.default_rng(40 + dim)
    n = 50
    points = rng.normal(0.0, 10.0, (n, dim)) * 10.0 ** rng.integers(-20, 20, (n, dim))
    points[0] = -0.0
    labels = rng.integers(-1, 7, n)
    labels[1] = -1
    truth = rng.integers(0, 7, n) if with_truth else None
    for dataset in (LabeledDataset(points, labels, truth), LabeledDataset(points, None, truth), LabeledDataset(points[:0])):
        _write_points_csv(str(tmp_path / "got.csv"), dataset)
        _csv_writer_reference(str(tmp_path / "want.csv"), dataset)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
