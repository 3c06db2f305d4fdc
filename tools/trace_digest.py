"""Bit-identity digest of greedy reductions over a fixed set of mixtures.

    python tools/trace_digest.py <checkout>

Imports ``gmreduce`` from ``<checkout>/src`` and reduces every mixture of
three self-contained, seeded families, ``PER_FAMILY`` mixtures each, under
all four methods, once to 1 component and once by 4 steps, with
``record_all_costs=True`` and every ``RuntimeWarning`` raised as an error:

* ``bench``: benchmark-like mixtures, condition numbers up to 1e3;
* ``ill``: condition numbers up to 1e12, raw weights down to 1e-9, d <= 8;
* ``degenerate``: well-conditioned mixtures with one component moved to
  +-1e200, so that its merges cannot be moment-matched.

It prints four SHA-256 digests.  The core digest covers each
reduction's chosen hypotheses, costs (as hex), flags, ``all_costs``,
evaluation counts, and the output weights, means, covariances, Cholesky
factors and log determinants; a reduction that raises contributes its
error instead.  The ``decisions`` digest covers the same record without
the step costs and ``all_costs``, plus ``ReductionTrace.skipped``; the
``skipped`` digest covers ``skipped`` alone.  The ``reference`` digest
covers the ``reference_reduce`` runs of the degenerate family (below):
their chosen hypotheses, costs, flags, evaluation counts, ``skipped``
and outputs, or the error a run raises.  Two checkouts whose core
digests are equal made the same choices, at the same cost, to the same
outputs, bit for bit.  Two whose decisions digests are equal made the
same choices, flags and skips to the same outputs, whatever the last
digits of their costs.  The script also reports on how many reductions
of the degenerate family ``skipped`` equals that of
``reference_reduce``.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import warnings
from pathlib import Path

import numpy as np

FAMILIES = ("bench", "ill", "degenerate")
PER_FAMILY = 100


def _spd(rng, dim: int, log_cond: float) -> np.ndarray:
    rot, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    cov = (rot * np.geomspace(1.0, 10.0**-log_cond, dim) * 10.0 ** rng.uniform(-2.0, 2.0)) @ rot.T
    return 0.5 * (cov + cov.T)


def _arrays(family: str, index: int):
    """(weights, means, covs) of one mixture, before normalization."""
    rng = np.random.default_rng([FAMILIES.index(family), index])
    size, dim = int(rng.integers(3, 11)), int(rng.integers(1, 9))
    if family == "bench":
        weights = 10.0 ** rng.uniform(-2.0, 0.0, size)
        means = rng.normal(0.0, 3.0, (size, dim))
        covs = [_spd(rng, dim, rng.uniform(0.0, 3.0)) for _ in range(size)]
    elif family == "ill":
        weights = 10.0 ** rng.uniform(-9.0, 0.0, size)
        means = rng.uniform(-5.0, 5.0, (size, dim))
        covs = [_spd(rng, dim, rng.uniform(0.0, 12.0)) for _ in range(size)]
    else:
        weights = rng.uniform(0.2, 1.0, size)
        means = rng.uniform(-4.0, 4.0, (size, dim))
        means[rng.integers(size)] = rng.choice([-1e200, 1e200])
        covs = [_spd(rng, dim, rng.uniform(0.0, 2.0)) for _ in range(size)]
    return weights / weights.sum(), means, covs


def _hyp(h) -> tuple:
    return (type(h).__name__, getattr(h, "i", 0), h.j)


def _core_record(trace, out) -> tuple:
    steps = [
        (
            _hyp(s.chosen),
            float(s.cost).hex(),
            s.size_after,
            s.flags,
            [(_hyp(h), float(c).hex()) for h, c in (s.all_costs or {}).items()],
        )
        for s in trace.steps
    ]
    comps = [
        (c.weight.hex(), c.mean.tobytes().hex(), c.cov.tobytes().hex(), c.chol.tobytes().hex(), c.log_det.hex())
        for c in out.components
    ]
    return (steps, trace.eval_count, trace.per_step_eval_counts, comps)


def _decisions_record(trace, out) -> tuple:
    steps, eval_count, per_step, comps = _core_record(trace, out)
    return ([(chosen, size, flags) for chosen, _, size, flags, _ in steps], eval_count, per_step, comps)


def _skipped_record(trace) -> tuple:
    return tuple((step, _hyp(h)) for step, h in trace.skipped)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="a gmreduce checkout; its src/ is imported")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    from gmreduce import CostKind, GaussianMixture, reduce, reference_reduce

    warnings.simplefilter("error", RuntimeWarning)
    core, decisions, skipped, reference = (hashlib.sha256() for _ in range(4))
    tally = dict.fromkeys(("mixtures", "steps", "flagged", "errors", "skipped", "agree", "compared"), 0)
    for family in FAMILIES:
        for index in range(PER_FAMILY):
            try:
                m = GaussianMixture.from_arrays(*_arrays(family, index))
            except (ValueError, np.linalg.LinAlgError) as exc:
                for digest in (core, decisions):
                    digest.update(repr((family, index, type(exc).__name__)).encode())
                continue
            tally["mixtures"] += 1
            for kind in CostKind:
                for target in sorted({1, max(1, m.size - 4)}):
                    key = (family, index, kind.value, target)
                    try:
                        out, trace = reduce(m, target, kind, record_all_costs=True)
                    except np.linalg.LinAlgError as exc:
                        tally["errors"] += 1
                        for digest in (core, decisions):
                            digest.update(repr((key, "LinAlgError", str(exc))).encode())
                        continue
                    tally["steps"] += len(trace.steps)
                    tally["flagged"] += sum(1 for s in trace.steps if s.flags)
                    tally["skipped"] += len(trace.skipped)
                    core.update(repr((key, _core_record(trace, out))).encode())
                    decisions.update(repr((key, _decisions_record(trace, out), _skipped_record(trace))).encode())
                    skipped.update(repr((key, _skipped_record(trace))).encode())
                    if family == "degenerate":
                        tally["compared"] += 1
                        try:
                            ref_out, ref_trace = reference_reduce(m, target, kind)
                        except np.linalg.LinAlgError as exc:
                            reference.update(repr((key, type(exc).__name__, str(exc))).encode())
                            continue
                        tally["agree"] += ref_trace.skipped == trace.skipped
                        reference.update(repr((key, _core_record(ref_trace, ref_out), _skipped_record(ref_trace))).encode())
    print(f"core       {core.hexdigest()}")
    print(f"decisions  {decisions.hexdigest()}")
    print(f"skipped    {skipped.hexdigest()}")
    print(f"reference  {reference.hexdigest()}")
    print(
        f"{tally['mixtures']} mixtures, {tally['steps']} steps, {tally['flagged']} flagged, "
        f"{tally['errors']} all-degenerate errors, {tally['skipped']} skipped entries; "
        f"skipped equals the reference engine's on {tally['agree']} of {tally['compared']} degenerate-family reductions"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
