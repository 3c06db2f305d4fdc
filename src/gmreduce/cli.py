"""Command line interface: reduce, divergence, sweep, cluster.

File formats
------------
Mixture files are JSON::

    {"dim": k, "components": [{"weight": w, "mean": [...], "cov": [[...], ...]}, ...]}

``dim`` and step indices are JSON integers; weights, means and
covariances are JSON numbers.  Covariances may be asymmetric up to 1e-9
absolutely (symmetrized on load); weight sums within 1e-6 of 1 are
renormalized with a warning.  Floats round-trip exactly.

Trace files are JSON with 1-based component indices::

    {"method": "arkl", "steps": [{"action": "merge", "indices": [1, 2],
     "cost": c, "size_after": s}, ...], "final_mixture": {...}}

Replaying the steps of a trace file against its input mixture
reproduces the embedded final mixture exactly.

Point sets are CSV with header ``x1,...,xk[,label][,truth]`` and finite
coordinates.

Exit codes: 0 success, 2 validation error (missing or malformed file,
bad arguments), 3 numerical failure, 4 EM failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

import numpy as np

from . import mixture as mix
from .cluster import (
    DISCARDED,
    SPURIOUS,
    EMConfig,
    EMError,
    em_fit,
    generate_corrupted_data,
    LabeledDataset,
    reduce_and_reassign,
)
from .constants import CLI_SYMMETRY_ATOL, CLI_WEIGHT_SUM_ATOL, WEIGHT_SUM_ATOL
from .costs import (
    CostKind,
    DisjointSupportError,
    DivergenceEstimate,
    arkl_merge_cost,
    arkl_prune_cost,
    crude_prune_bound,
    ise_analytic,
    mc_kld,
    simple_merge_bound,
)
from .gauss import GaussianComponent
from .mixture import GaussianMixture, Hypothesis, Merge, Prune
from .quadrature import kld_quad
from .reduction import ReductionTrace, reduce

__all__ = [
    "main",
    "load_mixture",
    "save_mixture",
    "load_trace",
    "save_trace",
    "mixture_to_doc",
    "mixture_from_doc",
]

SWEEP_COLUMNS = (
    "mu",
    "exact_prune_rkld",
    "crude_bound",
    "R02",
    "exact_merge_rkld",
    "simple_merge_bound",
    "R12",
)


# ---------------------------------------------------------------------------
# Mixture and trace files
# ---------------------------------------------------------------------------


def _json_numbers(value, shape: tuple[int, ...], name: str, integer: bool = False):
    """``value`` if it nests JSON numbers (integers if ``integer``; never bools) in lists of ``shape``."""
    if shape:
        if not isinstance(value, list) or len(value) != shape[0]:
            raise ValueError(f"{name} must be a list of length {shape[0]}, got {value!r}")
        for v in value:
            _json_numbers(v, shape[1:], name, integer)
    elif not isinstance(value, int if integer else (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    return value


def mixture_from_doc(doc) -> GaussianMixture:
    if not isinstance(doc, dict):
        raise ValueError("mixture document must be a JSON object")
    try:
        dim = _json_numbers(doc["dim"], (), "dim", integer=True)
        entries = doc["components"]
    except KeyError as exc:
        raise ValueError(f"mixture document is missing the {exc} field") from None
    if dim < 1:
        raise ValueError(f"dim must be an integer of at least 1, got {dim}")
    if not isinstance(entries, list) or not entries:
        raise ValueError("components must be a non-empty list")
    weights, means, covs = [], [], []
    for pos, entry in enumerate(entries, start=1):
        try:
            weights.append(_json_numbers(entry["weight"], (), "weight"))
            means.append(_json_numbers(entry["mean"], (dim,), "mean"))
            cov = np.asarray(_json_numbers(entry["cov"], (dim, dim), "cov"), dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"component {pos} is malformed: {exc}") from None
        asym = float(np.max(np.abs(cov - cov.T)))
        if asym > CLI_SYMMETRY_ATOL:
            raise ValueError(f"component {pos}: cov asymmetry {asym:.3e} exceeds {CLI_SYMMETRY_ATOL}")
        covs.append(0.5 * (cov + cov.T))
    total = float(np.sum(weights))
    if abs(total - 1.0) > CLI_WEIGHT_SUM_ATOL:
        raise ValueError(f"weights sum to {total:.9g}; must be within {CLI_WEIGHT_SUM_ATOL} of 1")
    if abs(total - 1.0) > WEIGHT_SUM_ATOL:
        print(f"warning: weights sum to {total:.9g}; renormalizing", file=sys.stderr)
        weights = [w / total for w in weights]
    return GaussianMixture.from_arrays(weights, means, covs)


def mixture_to_doc(m: GaussianMixture) -> dict:
    arr = m._arr
    rows = zip(arr.weights.tolist(), arr.means.tolist(), arr.covs.tolist())
    return {"dim": m.dim, "components": [{"weight": w, "mean": mean, "cov": cov} for w, mean, cov in rows]}


def _read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from None


def _write_json(doc, path: str):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_mixture(path: str) -> GaussianMixture:
    return mixture_from_doc(_read_json(path))


def save_mixture(m: GaussianMixture, path: str):
    _write_json(mixture_to_doc(m), path)


def _step_to_doc(step) -> dict:
    h = step.chosen
    if isinstance(h, Prune):
        action, indices = "prune", [h.j]
    else:
        action, indices = "merge", [h.i, h.j]
    doc = {"action": action, "indices": indices, "cost": step.cost, "size_after": step.size_after}
    if step.flags:
        doc["flags"] = list(step.flags)
    return doc


def save_trace(trace: ReductionTrace, final_mixture: GaussianMixture, path: str):
    doc = {
        "method": trace.method.value,
        "steps": [_step_to_doc(s) for s in trace.steps],
        "final_mixture": mixture_to_doc(final_mixture),
    }
    _write_json(doc, path)


def load_trace(path: str) -> tuple[CostKind, list[Hypothesis], GaussianMixture]:
    """Read back a trace file: (method, hypotheses in order, final mixture)."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path} is not a valid trace file: the top level is not an object")
    try:
        method = CostKind(doc["method"])
        raw_steps = doc["steps"]
        final = mixture_from_doc(doc["final_mixture"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path} is not a valid trace file: {exc}") from None
    if not isinstance(raw_steps, list):
        raise ValueError(f"{path} is not a valid trace file: steps is not a list")
    hyps: list[Hypothesis] = []
    for pos, step in enumerate(raw_steps, start=1):
        try:
            action = step.get("action")
            if action not in ("prune", "merge"):
                raise ValueError(f"action must be prune or merge, got {action!r}")
            indices = _json_numbers(step.get("indices"), (1 if action == "prune" else 2,), "indices", integer=True)
            hyps.append(Prune(*indices) if action == "prune" else Merge(*indices))
        except (AttributeError, ValueError) as exc:
            raise ValueError(f"{path}: step {pos} is malformed: {exc}") from None
    return method, hyps, final


# ---------------------------------------------------------------------------
# Point-set CSV
# ---------------------------------------------------------------------------


def _read_points_csv(path: str) -> tuple[np.ndarray, np.ndarray | None]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty") from None
        dim = 0
        while dim < len(header) and header[dim] == f"x{dim + 1}":
            dim += 1
        if dim == 0:
            raise ValueError(f"{path}: header must start with x1,x2,...")
        extras = header[dim:]
        if extras not in ([], ["truth"], ["label"], ["label", "truth"]):
            raise ValueError(f"{path}: unexpected columns {extras} after coordinates")
        truth_at = header.index("truth") if "truth" in extras else None
        rows = []
        truth = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: line {lineno} has {len(row)} fields, expected {len(header)}")
            try:
                rows.append([float(v) for v in row[:dim]])
                if truth_at is not None:
                    truth.append(int(row[truth_at]))
            except ValueError:
                raise ValueError(f"{path}: line {lineno} has a non-numeric field") from None
            if not np.all(np.isfinite(rows[-1])):
                raise ValueError(f"{path}: line {lineno} has a non-finite coordinate")
    if not rows:
        raise ValueError(f"{path} contains no points")
    pts = np.asarray(rows, dtype=float)
    return pts, (np.asarray(truth, dtype=int) if truth_at is not None else None)


def _write_points_csv(path: str, dataset: LabeledDataset):
    dim = dataset.points.shape[1]
    header = [f"x{i + 1}" for i in range(dim)]
    if dataset.labels is not None:
        header.append("label")
    if dataset.truth is not None:
        header.append("truth")
    # Each column is formatted once; the rows are what csv.writer writes
    # (no field needs quoting), "\r\n"-terminated, in one write.
    columns = [[repr(v) for v in col] for col in dataset.points.T.tolist()]
    columns += [[str(v) for v in ints.tolist()] for ints in (dataset.labels, dataset.truth) if ints is not None]
    lines = [",".join(header)] + [",".join(row) for row in zip(*columns)]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


# ---------------------------------------------------------------------------
# Seeds
# ---------------------------------------------------------------------------


def _resolve_seed(seed: int | None) -> int:
    """``seed``, or a fresh one, announced on stderr, when it is None."""
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % (2**32))
        print(f"seed: {seed} (generated)", file=sys.stderr)
    return seed


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_reduce(args) -> int:
    m = load_mixture(args.input)
    kind = CostKind(args.method)
    reduced, trace = reduce(m, args.target, kind)
    if args.out:
        save_mixture(reduced, args.out)
    if args.trace:
        save_trace(trace, reduced, args.trace)
    print(f"reduced {m.size} -> {reduced.size} components in {len(trace.steps)} steps ({kind.value})")
    return 0


def _cmd_divergence(args) -> int:
    p = load_mixture(args.p)
    q = load_mixture(args.q)
    measures = [s.strip() for s in args.measures.split(",") if s.strip()]
    known = {"ise", "fkld", "rkld"}
    bad = [s for s in measures if s not in known]
    if bad or not measures:
        raise ValueError(f"measures must be a comma-separated subset of {sorted(known)}, got {args.measures!r}")
    needs_mc = any(s in ("fkld", "rkld") for s in measures)
    result: dict = {}
    if needs_mc:
        seed = _resolve_seed(args.seed)
        result["seed"] = seed
        streams = np.random.SeedSequence(seed).spawn(2)
    for measure in measures:
        if measure == "ise":
            est = DivergenceEstimate(ise_analytic(p, q), 0.0, 0)
        elif measure == "fkld":
            est = mc_kld(p, q, args.mc_samples, streams[0])
        else:
            est = mc_kld(q, p, args.mc_samples, streams[1])
        result[measure] = dataclasses.asdict(est)
    json.dump(result, sys.stdout, indent=2)
    print()
    return 0


def _cmd_sweep(args) -> int:
    if not 0.0 < args.w1 < 1.0:
        raise ValueError(f"w1 must lie strictly between 0 and 1, got {args.w1}")
    if args.steps < 2:
        raise ValueError(f"steps must be at least 2, got {args.steps}")
    if not args.mu_max > args.mu_min:
        raise ValueError("mu-max must exceed mu-min")
    if args.mu_min < 0.0:
        raise ValueError("mu-min must be nonnegative")
    w2 = 1.0 - args.w1
    flagged = 0
    rows = []
    for mu in np.linspace(args.mu_min, args.mu_max, args.steps):
        c1 = GaussianComponent(args.w1, [-mu], [[1.0]])
        c2 = GaussianComponent(w2, [mu], [[1.0]])
        m = GaussianMixture((c1, c2))
        exact_prune, ok_p = kld_quad(mix.apply(m, Prune(2)), m)
        exact_merge, ok_m = kld_quad(mix.apply(m, Merge(1, 2)), m)
        if not (ok_p and ok_m):
            flagged += 1
        rows.append(
            (
                float(mu),
                exact_prune if ok_p else float("nan"),
                crude_prune_bound(w2),
                arkl_prune_cost(m, 2),
                exact_merge if ok_m else float("nan"),
                simple_merge_bound(c1, c2),
                arkl_merge_cost(c1, c2),
            )
        )
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([repr(v) for v in row])
    if flagged:
        print(f"warning: {flagged} of {len(rows)} rows flagged (quadrature non-convergence)", file=sys.stderr)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _parse_gen_spec(spec: str) -> dict:
    out = {"n": 1000, "m": 100, "side": 20.0, "seed": None}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"--gen entries must look like key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in out:
            raise ValueError(f"unknown --gen key {key!r} (expected n, m, side, seed)")
        out[key] = float(value) if key == "side" else int(value)
    return out


def _share(hits: np.ndarray, of: np.ndarray) -> float | None:
    """The fraction of the points in mask ``of`` that are in mask ``hits``; None if ``of`` is empty."""
    return float(np.sum(hits) / np.sum(of)) if np.any(of) else None


def _cmd_cluster(args) -> int:
    seed = _resolve_seed(args.seed)
    data_stream, em_stream = np.random.SeedSequence(seed).spawn(2)
    gen_spec = None
    if args.gen is not None:
        gen_spec = _parse_gen_spec(args.gen)
        data_seed = gen_spec["seed"] if gen_spec["seed"] is not None else data_stream
        dataset = generate_corrupted_data(gen_spec["n"], gen_spec["m"], gen_spec["side"], data_seed)
    else:
        pts, truth = _read_points_csv(args.data)
        dataset = LabeledDataset(pts, labels=None, truth=truth)
    kind = CostKind(args.method)
    cfg = EMConfig(n_clusters=args.over, max_iters=args.max_iters, tol=args.tol, seed=em_stream)
    fitted, resp = em_fit(dataset.points, cfg)
    reduced, assigned, trace = reduce_and_reassign(fitted, resp, dataset.points, args.target, kind)
    labels = assigned.labels
    labeled = LabeledDataset(dataset.points, labels=labels, truth=dataset.truth)

    prefix = args.out_prefix
    _write_points_csv(f"{prefix}_points.csv", labeled)
    save_mixture(fitted, f"{prefix}_fitted.json")
    save_mixture(reduced, f"{prefix}_reduced.json")
    save_trace(trace, reduced, f"{prefix}_trace.json")

    discarded = labels == DISCARDED
    summary = {
        "seed": seed,
        "method": kind.value,
        "over": args.over,
        "target": args.target,
        "n_points": int(dataset.points.shape[0]),
        "discarded": int(np.sum(discarded)),
        "steps": len(trace.steps),
    }
    if gen_spec is not None:
        summary["gen"] = {k: v for k, v in gen_spec.items() if v is not None}
    if dataset.truth is not None:
        spurious = dataset.truth == SPURIOUS
        summary["spurious_points"] = int(np.sum(spurious))
        summary["spurious_discard_recall"] = _share(discarded & spurious, spurious)
        summary["spurious_discard_precision"] = _share(discarded & spurious, discarded)
        summary["inlier_discard_rate"] = _share(discarded & ~spurious, ~spurious)
    _write_json(summary, f"{prefix}_summary.json")
    print(
        f"clustered {summary['n_points']} points: {args.over} -> {reduced.size} components, "
        f"{summary['discarded']} points discarded ({kind.value})"
    )
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmreduce",
        description="Greedy Gaussian mixture reduction and robust mixture clustering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    methods = [k.value for k in CostKind]

    p_red = sub.add_parser("reduce", help="reduce a mixture file to a target size")
    p_red.add_argument("--in", dest="input", required=True, help="input mixture JSON")
    p_red.add_argument("--method", choices=methods, required=True)
    p_red.add_argument("--target", type=int, required=True, help="number of components to keep")
    p_red.add_argument("--out", help="write the reduced mixture JSON here")
    p_red.add_argument("--trace", help="write the reduction trace JSON here")
    p_red.set_defaults(func=_cmd_reduce)

    p_div = sub.add_parser("divergence", help="estimate divergences between two mixture files")
    p_div.add_argument("--p", required=True, help="first mixture (FKLD is D(p||q), RKLD is D(q||p))")
    p_div.add_argument("--q", required=True, help="second mixture")
    p_div.add_argument("--measures", default="ise,fkld,rkld", help="comma-separated: ise, fkld, rkld")
    p_div.add_argument("--mc-samples", type=int, default=100000, help="Monte Carlo sample count")
    p_div.add_argument("--seed", type=int, help="RNG seed (generated and printed when omitted)")
    p_div.set_defaults(func=_cmd_divergence)

    p_swp = sub.add_parser("sweep", help="bound-vs-exact table for a two-component test family")
    p_swp.add_argument("--w1", type=float, default=0.8, help="weight of the component at -mu")
    p_swp.add_argument("--mu-min", type=float, default=0.0)
    p_swp.add_argument("--mu-max", type=float, default=6.0)
    p_swp.add_argument("--steps", type=int, default=13, help="grid size (inclusive endpoints)")
    p_swp.add_argument("--out", required=True, help="output CSV path")
    p_swp.set_defaults(func=_cmd_sweep)

    p_clu = sub.add_parser("cluster", help="EM fit, reduce, and reassign points")
    src = p_clu.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="points CSV (header x1,...,xk[,truth])")
    src.add_argument("--gen", help="generate benchmark data: n=1000,m=100,side=20[,seed=7]")
    p_clu.add_argument("--over", type=int, required=True, help="EM mixture size before reduction")
    p_clu.add_argument("--target", type=int, required=True, help="mixture size after reduction")
    p_clu.add_argument("--method", choices=methods, required=True)
    p_clu.add_argument("--out-prefix", required=True, help="prefix for the output files")
    p_clu.add_argument("--seed", type=int, help="base seed (generated and printed when omitted)")
    p_clu.add_argument("--max-iters", type=int, default=500)
    p_clu.add_argument("--tol", type=float, default=1e-6)
    p_clu.set_defaults(func=_cmd_cluster)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EMError as exc:
        print(f"EM failure: {exc}", file=sys.stderr)
        return 4
    except (np.linalg.LinAlgError, DisjointSupportError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
