"""Summary of paired benchmark runs of a parent and a change checkout.

    python tools/bench_summary.py PARENT CHANGE --out BENCH_<n>.json

Reads every ``.perfbench/result-<workload>-seed<n>-trace0.json`` of the two
checkouts (``perfbench/run.py`` writes them) and pairs the runs of one
workload and seed.  For each workload and each end-to-end metric of this
repository's ``BENCHMARK.json`` it writes each side's median and quartiles,
how many pairs the change won, lost and tied (by the metric's ``better``
direction), the change median over the parent's, and whether the median
gain exceeds the parent's interquartile range.  Ops attempted and failed
are summed per side.  A run present on one side only is left out and
listed under ``unpaired``, by side.  The JSON also goes to standard output.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _runs(checkout: Path) -> dict[tuple[str, int], dict]:
    """Each untraced result of a checkout, by (workload, seed)."""
    runs = {}
    for path in (checkout / ".perfbench").glob("result-*-trace0.json"):
        workload, seed = path.name[len("result-") : -len("-trace0.json")].rsplit("-seed", 1)
        runs[workload, int(seed)] = json.loads(path.read_text())
    return runs


def _spread(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": median, "q1": q1, "q3": q3}


def summarize(parent: Path, change: Path) -> dict:
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"parent": _runs(parent), "change": _runs(change)}
    paired = sorted(runs["parent"].keys() & runs["change"].keys())
    unpaired = {side: sorted(f"{w} seed {s}" for w, s in runs[side].keys() - set(paired)) for side in SIDES}
    out = {"workloads": {}, "unpaired": unpaired}
    for workload in sorted({w for w, _ in paired}):
        seeds = [s for w, s in paired if w == workload]
        pairs = {side: [runs[side][workload, s] for s in seeds] for side in SIDES}
        entry = {
            "seeds": seeds,
            "ops": {side: {k: sum(r[k] for r in pairs[side]) for k in ("attempted", "failed")} for side in SIDES},
            "correct": {side: all(r["correct"] for r in pairs[side]) for side in SIDES},
            "metrics": {},
        }
        for metric in metrics:
            name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
            values = {side: [r["metrics"][name]["value"] for r in pairs[side]] for side in SIDES}
            gains = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
            spread = {side: _spread(values[side]) for side in SIDES}
            parent_iqr = spread["parent"]["q3"] - spread["parent"]["q1"]
            entry["metrics"][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                **spread,
                "ratio": spread["change"]["median"] / spread["parent"]["median"],
                "won": sum(g > 0 for g in gains),
                "lost": sum(g < 0 for g in gains),
                "tied": sum(g == 0 for g in gains),
                "gain_exceeds_parent_iqr": sign * (spread["change"]["median"] - spread["parent"]["median"]) > parent_iqr,
                "runs": values,
            }
        out["workloads"][workload] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent commit's checkout")
    parser.add_argument("change", type=Path, help="the change's checkout")
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    text = json.dumps(summarize(args.parent, args.change), indent=1) + "\n"
    args.out.write_text(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
