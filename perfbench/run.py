"""gmreduce benchmark: one workload per process, closed loop, one caller.

Usage (from the repository root)::

    python3 perfbench/run.py --workload reduce-deep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with the library untouched.
``--trace 1`` runs every op twice, once plain and once with the layer
wrappers of ``layers.py`` installed, and reports per-layer metrics plus
the tracing overhead.  Either way every output is checked, a report is
printed, and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# One BLAS thread: the ops are tiny-matrix calls, and a second thread
# would only add scheduling noise on a small machine.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Share of each op's time spent on the adjacent reference kernel runs.
REF_SHARE = 0.05

SETUP_SAMPLES = 3  # this process plus two set-up-only child processes

# setup_s is the raw set-up time scaled from the run's median reference
# kernel time to this nominal one.  On a shared 2-vCPU machine, two sets of
# ten runs of identical code an hour apart had raw set-up medians 14 % and
# 24 % apart on two workloads; scaled, they were 3.5 % and 2.6 % apart.
REF_NOMINAL_S = 0.010

# Per-call inclusive times at d=2 recorded in ROADMAP "State" (us), and the
# factor by which identical work drifted between processes on the same
# 2-vCPU machine (3.40 s to 5.09 s).
ROADMAP_US = {"gauss.kld_gauss": 58.0, "costs.gaussian_overlap": 114.0, "costs.switched_divergence": 437.0}
DRIFT_FACTOR = 5.09 / 3.40


@dataclass
class Record:
    cycle: int
    inp: object
    seconds: float
    ref: float
    outcome: object
    traced_seconds: float | None = None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="time one set-up and exit (internal)")
    return p.parse_args(argv)


def guarded(fn, *args):
    """Call ``fn``; an exception becomes a problem string instead of ending the run."""
    try:
        return fn(*args), None
    except Exception as exc:  # a failing op is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def run_op(wl, inp, workdir, tracer=None, op_id=None):
    """One op: (seconds, outcome).  Only the library call is timed."""
    from workloads import Outcome

    t0 = time.perf_counter()
    if tracer is None:
        result, err = guarded(wl.run, inp, workdir)
    else:
        with tracer.traced_op(op_id):
            result, err = guarded(wl.run, inp, workdir)
    seconds = time.perf_counter() - t0
    if err is None:
        outcome, err = guarded(wl.check, inp, result)
    if err is not None:
        outcome = Outcome([err], "", 0, 0)
    return seconds, outcome


def measure(wl, seed, seconds, workdir, tracer):
    """Run whole cycles until the next one would end after ``seconds``."""
    from refkernel import timed_kernel

    def ref_block(op_seconds):
        # Enough kernel runs to cover REF_SHARE of the op, at least one.
        first = timed_kernel()
        runs = [first] + [timed_kernel() for _ in range(round(REF_SHARE * op_seconds / first) - 1)]
        return statistics.mean(runs)

    records: list[Record] = []
    ref_prev = ref_block(0.0)
    begin = time.perf_counter()
    cycle_seconds = []
    cycle = 0
    while True:
        c0 = time.perf_counter()
        for inp in wl.cycle_inputs(seed, cycle):
            op_id = len(records)
            if tracer is None:
                t, outcome = run_op(wl, inp, workdir)
                traced_t = None
            else:
                # Alternate which run goes first so warm caches favour neither.
                first_traced = op_id % 2 == 1
                if first_traced:
                    traced_t, traced_out = run_op(wl, inp, workdir, tracer, op_id)
                t, outcome = run_op(wl, inp, workdir)
                if not first_traced:
                    traced_t, traced_out = run_op(wl, inp, workdir, tracer, op_id)
                outcome.problems.extend(trace_problems(tracer, op_id, outcome, traced_out))
            ref_next = ref_block(t)
            records.append(Record(cycle, inp, t, 0.5 * (ref_prev + ref_next), outcome, traced_t))
            ref_prev = ref_next
        cycle_seconds.append(time.perf_counter() - c0)
        cycle += 1
        if time.perf_counter() - begin + statistics.mean(cycle_seconds) > seconds:
            return records


def trace_problems(tracer, op_id, plain, traced):
    problems = [f"traced run: {p}" for p in traced.problems]
    if traced != plain and not problems:
        problems.append("traced and untraced runs chose differently")
    evals = sum(tracer.evals[op_id].values())
    if evals != tracer.eval_totals[op_id]:
        problems.append(f"per-kind evaluations sum to {evals}, trace.eval_count is {tracer.eval_totals[op_id]}")
    return problems


def setup_probe(args) -> float:
    """Set-up time measured in a fresh child process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def environment():
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_pin": {k: os.environ.get(k) for k in BLAS_PIN},
        "machine": platform.machine(),
    }


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def op_stats(records):
    """Raw and drift-corrected op statistics over a run's completed ops."""
    times = [r.seconds for r in records]
    ratios = [r.seconds / r.ref for r in records]
    done = sum(r.outcome.ok for r in records)
    return {
        "ops_per_s": done / sum(times),
        "op_s_p50": statistics.median(times),
        "ops_per_ref": done / sum(ratios),
        "op_ref_p50": statistics.median(ratios),
    }


def end_to_end(records, setup_raw_s):
    """Bounded metrics.  Raw seconds drift too much between processes on a
    shared machine to be bounded, so they are reported but not listed."""
    stats = op_stats(records)
    ref = statistics.median(r.ref for r in records)
    return {
        "setup_s": metric(setup_raw_s * REF_NOMINAL_S / ref, "s"),
        "ops_per_ref": metric(stats["ops_per_ref"], "1/ref"),
        "op_ref_p50": metric(stats["op_ref_p50"], "ref"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


# (metric suffix, unit, aggregate column) -- see per_layer().
CALLS, INCL_S, SELF_S, INCL_US, SELF_US = "calls", "s", "self_s", "us", "self_us"
LAYER_METRICS = (
    ("reduction.update_cost_table", (CALLS, INCL_S, SELF_S)),
    ("reduction.build_cost_table", (CALLS, INCL_S, SELF_S)),
    ("reduction.reduce", (SELF_S,)),
    ("gauss.kld_gauss", (CALLS, INCL_US)),
    ("costs.switched_divergence", (CALLS, SELF_US)),
    ("gauss.GaussianComponent", (CALLS, SELF_US)),
    ("gauss.moment_match_merge", (CALLS, SELF_US)),
    ("mixture.apply", (CALLS, SELF_US)),
    ("costs.gaussian_overlap", (CALLS, SELF_US)),
    ("gauss.product_decompose", (CALLS, INCL_US)),
    ("gauss.expected_log", (CALLS, INCL_US)),
    ("costs.arkl_prune_cost", (CALLS, INCL_US)),
    ("gauss.log_pdf", (CALLS, INCL_US)),
    ("cluster.reduce_and_reassign", (SELF_S,)),
    ("cli.cluster", (SELF_S,)),
)
UNITS = {CALLS: "calls/op", INCL_S: "s/op", SELF_S: "s/op", INCL_US: "us/call", SELF_US: "us/call"}


def per_layer(records, tracer):
    """Per-op layer metrics from the traced runs; zero where a layer is not used."""
    n_ops = len(records)
    agg = tracer.aggregate()
    out = {}
    for name, columns in LAYER_METRICS:
        calls, incl, self_ = agg.get(name, (0, 0.0, 0.0))
        values = {
            CALLS: calls / n_ops,
            INCL_S: incl / n_ops,
            SELF_S: self_ / n_ops,
            INCL_US: 1e6 * incl / calls if calls else 0.0,
            SELF_US: 1e6 * self_ / calls if calls else 0.0,
        }
        for col in columns:
            out[f"{name}.{col}"] = metric(values[col], UNITS[col])
    # Exact counts come from the first cycle only: a fixed op set, so they
    # repeat exactly for a seed however many cycles the run completes.
    first = [i for i, r in enumerate(records) if r.cycle == 0]
    for kind in ("kld", "overlap", "switched"):
        total = sum(tracer.evals[i][kind] for i in first)
        out[f"reduction.evals.{kind}"] = metric(total / len(first), "evals/op")
    out["reduction.prune_share"] = metric(prune_share(records[i] for i in first), "share")
    _, em_s, _ = agg.get("cluster.em", (0, 0.0, 0.0))
    iterations = sum(tracer.em_iterations.values())
    out["cluster.em.s"] = metric(em_s / n_ops, "s/op")
    out["cluster.em.iterations"] = metric(iterations / n_ops, "iter/op")
    out["cluster.em.s_per_iter"] = metric(em_s / iterations if iterations else 0.0, "s/iter")
    recall, inlier_rate = clutter_quality(records)
    out["cluster.clutter_recall"] = metric(recall, "share")
    out["cluster.inlier_discard_rate"] = metric(inlier_rate, "share")
    out["bench.ref_s"] = metric(statistics.median(r.ref for r in records), "s")
    traced = sum(r.traced_seconds for r in records)
    out["bench.trace_overhead"] = metric(traced / sum(r.seconds for r in records) - 1.0, "ratio")
    return out


def prune_share(records) -> float:
    steps = prunes = 0
    for r in records:
        steps += r.outcome.steps
        prunes += r.outcome.prunes
    return prunes / steps if steps else 0.0


def clutter_quality(records):
    """Clutter recall and inlier discard rate, pooled over the ``arkl`` cluster ops."""
    arkl = [r.outcome for r in records if r.inp.method == "arkl" and r.outcome.spurious]
    spurious = sum(o.spurious for o in arkl)
    inliers = sum(o.inliers for o in arkl)
    recall = sum(o.discarded_spurious for o in arkl) / spurious if spurious else 0.0
    inlier_rate = sum(o.discarded_inliers for o in arkl) / inliers if inliers else 0.0
    return recall, inlier_rate


def report(wl, records, env, ref_failures, tracer):
    """Human-readable lines printed before the result."""
    from workloads import cycle_digest

    lines = [f"environment: {json.dumps(env, sort_keys=True)}"]
    mix = sorted({(r.inp.method, r.inp.n, r.inp.dim) for r in records})
    lines.append(f"workload {wl.name}: ops per cycle {len(wl.plan)}, (method, N, d): {mix}")
    cycles = max(r.cycle for r in records) + 1
    digests = [cycle_digest([r.outcome for r in records if r.cycle == c]) for c in range(cycles)]
    lines.append(f"cycles {cycles}, ops {len(records)}; choice digest per cycle: {' '.join(digests)}")
    lines.append(f"prune share of steps: {prune_share(records):.4f}")
    stats = op_stats(records)
    lines.append(
        f"raw: ops_per_s {stats['ops_per_s']:.4f} 1/s, op_s_p50 {stats['op_s_p50']:.5f} s; "
        f"reference kernel median {statistics.median(r.ref for r in records):.5f} s"
    )
    failed = [r for r in records if not r.outcome.ok]
    lines.append(f"fail_rate: {len(failed) / len(records):.4f} ({len(failed)} of {len(records)})")
    for r in failed[:5]:
        lines.append(f"  failed {r.inp.method} N={r.inp.n} d={r.inp.dim}: {'; '.join(r.outcome.problems)}")
    if len(records) >= 100:  # at least ten ops beyond the 90th percentile
        p90 = statistics.quantiles([r.seconds for r in records], n=10)[-1]
        p90_ref = statistics.quantiles([r.seconds / r.ref for r in records], n=10)[-1]
        lines.append(f"op_s_p90 {p90:.6f} s, op_ref_p90 {p90_ref:.4f} ref, over {len(records)} ops")
    if wl.name == "cluster":
        recall, inlier_rate = clutter_quality(records)
        lines.append(f"arkl clutter_recall {recall:.4f}, inlier_discard_rate {inlier_rate:.4f}")
    status = "pass" if not ref_failures else f"FAIL ({', '.join(ref_failures)})"
    lines.append(f"reduce vs reference_reduce (N=6, four methods): {status}")
    if tracer is not None:
        lines.extend(baseline_lines(records, tracer))
    return lines


def baseline_lines(records, tracer):
    """d=2 per-call times against ROADMAP "State", with the cross-process drift band."""
    ops = {i for i, r in enumerate(records) if r.inp.dim == 2}
    agg = tracer.aggregate(ops)
    lines = []
    for name, expected in ROADMAP_US.items():
        calls, incl, _ = agg.get(name, (0, 0.0, 0.0))
        if not calls:
            continue
        us = 1e6 * incl / calls
        ratio = us / expected
        inside = 1.0 / DRIFT_FACTOR <= ratio <= DRIFT_FACTOR
        lines.append(
            f"baseline {name} d=2: {us:.1f} us traced vs {expected:.0f} us in ROADMAP "
            f"(x{ratio:.2f}, {'within' if inside else 'outside'} the x{DRIFT_FACTOR:.2f} drift band)"
        )
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_PIN)
    if not (SRC / "gmreduce" / "__init__.py").is_file():
        print(f"error: no gmreduce sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import gmreduce

    if Path(gmreduce.__file__).resolve().parent != (SRC / "gmreduce").resolve():
        print(f"error: imported gmreduce from {gmreduce.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, reference_check

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        _, warm = run_op(wl, wl.cycle_inputs(args.seed, 0)[0], str(workdir))
        setup_s = time.perf_counter() - START
        if not warm.ok:
            print(f"error: warm-up op failed: {warm.problems}", file=sys.stderr)
            return 1
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        ref_failures = reference_check(args.seed)
        tracer = None
        if args.trace:
            from layers import Tracer

            tracer = Tracer()
        records = measure(wl, args.seed, args.seconds, str(workdir), tracer)
        env = environment()
        if tracer is None:
            setups = [setup_s] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
            metrics = end_to_end(records, statistics.median(setups))
        else:
            metrics = per_layer(records, tracer)
            tracer.write_spans(OUT / f"spans-{wl.name}-seed{args.seed}.csv.gz")
        lines = report(wl, records, env, ref_failures, tracer)
        if tracer is None:
            lines.append(
                f"set-up: raw median {statistics.median(setups):.4f} s over {len(setups)} processes; "
                f"setup_s scales it to a {1e3 * REF_NOMINAL_S:.0f} ms reference kernel"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(not r.outcome.ok for r in records)
    result = {
        "correct": failed == 0 and not ref_failures,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    record_path = OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({"environment": env, "report": lines, **result}, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
