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

It prints eleven SHA-256 digests.  The core digest covers each
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

The ``api`` digest covers the public functions around the engines on the
first ``API_PER_FAMILY`` mixtures of the ``bench`` and ``ill`` families:
the stack that ``GaussianMixture.from_arrays`` builds, ``apply`` of every
hypothesis, the mixture ``log_pdf`` at seeded points, ``sample`` at a
seed, ``hypothesis_cost`` of every hypothesis under all four methods, and
``kld_gauss``, ``gaussian_overlap``, ``moment_match_merge`` and
``expected_log`` of the first two components.  The ``switched`` digest
covers ``product_decompose`` of the first two components and
``switched_divergence`` of the first three.  A call that raises
contributes its error type instead.

The ``narrow`` digest covers a seventh family, kept apart so that the
six digests above do not depend on it: ``PER_FAMILY`` mixtures of 3 to 8
components in d <= 3 whose components 1 and 2 have their covariances
scaled by 1e-20 and whose component 2 is moved 1e150 away, so that the
kernels of their merges overflow while the moment matches hold.  Each is
reduced to 1 under all four methods by both engines; the digest covers
each run's chosen hypotheses, costs, ``skipped`` and output, or its
error type and message.  The script reports, per method, on how many of
them the engines agree: the same choices and ``skipped``, or the same
error type.  It reports the same agreement count, outside every digest,
for the reductions to 1 of the ``bench`` and ``ill`` mixtures.

The ``uncounted`` digest covers the ``decisions`` records and the
``narrow`` records without their ``eval_count`` and
``per_step_eval_counts``.  A change that moves ``decisions`` or
``narrow`` but not ``uncounted`` changed only what the engines bill,
not what they chose.

The ``tiny`` digest, printed last, covers one more family kept apart in
the same way: ``PER_FAMILY`` mixtures of 2 to 8 well-conditioned
components in d <= 3, one of whose weights is drawn from 10^U(-320, -16)
before normalizing, so that it may be subnormal and another weight may
round to 1.  Each is reduced to 1 under all four methods by both engines,
recorded as ``narrow`` records its runs, a ``RuntimeWarning`` included,
with a per-method engine-agreement count.

The ``narrow-decisions`` and ``tiny-decisions`` digests, printed after
it, cover the same runs of those two families with neither costs nor
evaluation counts: each run's chosen hypotheses, flags, ``skipped`` and
output, or its error type and message.  A change that moves ``narrow`` or
``tiny`` but not these moved only the last digits of step costs.
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
API_PER_FAMILY = 20


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


def _narrow_arrays(index: int):
    """(weights, means, covs) of one ``narrow`` mixture, before normalization."""
    rng = np.random.default_rng([2 * len(FAMILIES), index])
    size, dim = int(rng.integers(3, 9)), int(rng.integers(1, 4))
    weights = rng.uniform(0.2, 1.0, size)
    means = rng.uniform(-4.0, 4.0, (size, dim))
    covs = np.array([_spd(rng, dim, rng.uniform(0.0, 2.0)) for _ in range(size)])
    covs[:2] *= 1e-20
    direction = rng.normal(size=dim)
    means[1] += 1e150 * direction / np.linalg.norm(direction)
    return weights / weights.sum(), means, covs


def _tiny_arrays(index: int):
    """(weights, means, covs) of one ``tiny`` mixture, before normalization."""
    rng = np.random.default_rng([2 * len(FAMILIES) + 1, index])
    size, dim = int(rng.integers(2, 9)), int(rng.integers(1, 4))
    weights = rng.uniform(0.2, 1.0, size)
    weights[rng.integers(size)] = 10.0 ** rng.uniform(-320.0, -16.0)
    means = rng.uniform(-4.0, 4.0, (size, dim))
    covs = [_spd(rng, dim, rng.uniform(0.0, 2.0)) for _ in range(size)]
    return weights / weights.sum(), means, covs


def _engine_outcome(engine, m, kind):
    """(agreement key, digest record, record without counts, record without costs and counts) of one
    reduction to 1, or of its error."""
    try:
        out, trace = engine(m, 1, kind)
    except Exception as exc:
        error = (type(exc).__name__, str(exc))
        return error[0], error, error, error
    skipped, core = _skipped_record(trace), _core_record(trace, out)
    decided = _uncounted(_decisions_record(trace, out))
    return ([_hyp(s.chosen) for s in trace.steps], skipped), (core, skipped), (_uncounted(core), skipped), (decided, skipped)


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
    return (steps, trace.eval_count, trace.per_step_eval_counts, _stack_record(out))


def _stack_record(m) -> list:
    return [_component_record(c) for c in m.components]


def _component_record(c) -> tuple:
    return (c.weight.hex(), c.mean.tobytes().hex(), c.cov.tobytes().hex(), c.chol.tobytes().hex(), c.log_det.hex())


def _outcome(fn, *args, record=lambda value: float(value).hex()):
    """``record`` of what ``fn(*args)`` returns, or the type of the error it raises."""
    try:
        return record(fn(*args))
    except Exception as exc:
        return type(exc).__name__


def _api_records(family: str, index: int):
    """(api record, switched record) of one mixture, or its construction error twice."""
    import gmreduce as gm
    from gmreduce import mixture

    arrays = _arrays(family, index)
    try:
        m = gm.GaussianMixture.from_arrays(*arrays)
    except Exception as exc:
        return (type(exc).__name__,) * 2
    rng = np.random.default_rng([len(FAMILIES) + FAMILIES.index(family), index])
    points = rng.normal(0.0, 3.0, (16, m.dim))
    a, b, c = m.components[:3]
    api = (
        _stack_record(m),
        [_outcome(gm.apply, m, h, record=_stack_record) for h in gm.enumerate_hypotheses(m)],
        _outcome(mixture.log_pdf, m, points, record=lambda v: v.tobytes().hex()),
        _outcome(gm.sample, m, 16, index, record=lambda v: v.tobytes().hex()),
        [
            [_outcome(gm.hypothesis_cost, m, h, kind) for h in gm.enumerate_hypotheses(m, kind.include_pruning)]
            for kind in gm.CostKind
        ],
        [_outcome(fn, a, b) for fn in (gm.kld_gauss, gm.gaussian_overlap, gm.expected_log)],
        _outcome(gm.moment_match_merge, a, b, record=_component_record),
    )
    product = _outcome(gm.product_decompose, a, b, record=_decomposition_record)
    return api, (product, _outcome(gm.switched_divergence, a, b, c))


def _decomposition_record(d) -> tuple:
    return (d.scale.hex(), d.mean_star.tobytes().hex(), d.cov_star.tobytes().hex())


def _decisions_record(trace, out) -> tuple:
    steps, eval_count, per_step, comps = _core_record(trace, out)
    return ([(chosen, size, flags) for chosen, _, size, flags, _ in steps], eval_count, per_step, comps)


def _uncounted(record) -> tuple:
    """A core or decisions record without its evaluation counts."""
    steps, _, _, comps = record
    return steps, comps


def _skipped_record(trace) -> tuple:
    return tuple((step, _hyp(h)) for step, h in trace.skipped)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="a gmreduce checkout; its src/ is imported")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    from gmreduce import CostKind, GaussianMixture, reduce, reference_reduce

    warnings.simplefilter("error", RuntimeWarning)
    core, decisions, skipped, reference, api, switched, uncounted = (hashlib.sha256() for _ in range(7))
    for family in FAMILIES[:2]:
        for index in range(API_PER_FAMILY):
            api_record, switched_record = _api_records(family, index)
            api.update(repr((family, index, api_record)).encode())
            switched.update(repr((family, index, switched_record)).encode())
    tally = dict.fromkeys(("mixtures", "steps", "flagged", "errors", "skipped", "agree", "compared"), 0)
    agreement = {family: dict.fromkeys(CostKind, 0) for family in ("narrow", *FAMILIES[:2], "tiny")}
    compared = {"narrow": PER_FAMILY, "tiny": PER_FAMILY, **dict.fromkeys(FAMILIES, 0)}
    for family in FAMILIES:
        for index in range(PER_FAMILY):
            try:
                m = GaussianMixture.from_arrays(*_arrays(family, index))
            except (ValueError, np.linalg.LinAlgError) as exc:
                for digest in (core, decisions, uncounted):
                    digest.update(repr((family, index, type(exc).__name__)).encode())
                continue
            tally["mixtures"] += 1
            compared[family] += 1
            for kind in CostKind:
                if family in agreement:
                    fast, ref = (_engine_outcome(e, m, kind)[0] for e in (reduce, reference_reduce))
                    agreement[family][kind] += fast == ref
                for target in sorted({1, max(1, m.size - 4)}):
                    key = (family, index, kind.value, target)
                    try:
                        out, trace = reduce(m, target, kind, record_all_costs=True)
                    except np.linalg.LinAlgError as exc:
                        tally["errors"] += 1
                        for digest in (core, decisions, uncounted):
                            digest.update(repr((key, "LinAlgError", str(exc))).encode())
                        continue
                    tally["steps"] += len(trace.steps)
                    tally["flagged"] += sum(1 for s in trace.steps if s.flags)
                    tally["skipped"] += len(trace.skipped)
                    core.update(repr((key, _core_record(trace, out))).encode())
                    decided = _decisions_record(trace, out)
                    decisions.update(repr((key, decided, _skipped_record(trace))).encode())
                    uncounted.update(repr((key, _uncounted(decided), _skipped_record(trace))).encode())
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
    narrow, tiny, narrow_decisions, tiny_decisions = (hashlib.sha256() for _ in range(4))
    for family, arrays, digest, decided in (
        ("narrow", _narrow_arrays, narrow, narrow_decisions),
        ("tiny", _tiny_arrays, tiny, tiny_decisions),
    ):
        for index in range(PER_FAMILY):
            m = GaussianMixture.from_arrays(*arrays(index))
            for kind in CostKind:
                (fast_key, fast, fast_uncounted, fast_decided), (ref_key, ref, ref_uncounted, ref_decided) = (
                    _engine_outcome(e, m, kind) for e in (reduce, reference_reduce)
                )
                agreement[family][kind] += fast_key == ref_key
                digest.update(repr((index, kind.value, fast, ref)).encode())
                decided.update(repr((index, kind.value, fast_decided, ref_decided)).encode())
                if family == "narrow":
                    uncounted.update(repr((index, kind.value, fast_uncounted, ref_uncounted)).encode())
    print(f"core       {core.hexdigest()}")
    print(f"decisions  {decisions.hexdigest()}")
    print(f"skipped    {skipped.hexdigest()}")
    print(f"reference  {reference.hexdigest()}")
    print(f"api        {api.hexdigest()}")
    print(f"switched   {switched.hexdigest()}")
    print(f"narrow     {narrow.hexdigest()}")
    print(f"uncounted  {uncounted.hexdigest()}")
    print(
        f"{tally['mixtures']} mixtures, {tally['steps']} steps, {tally['flagged']} flagged, "
        f"{tally['errors']} all-degenerate errors, {tally['skipped']} skipped entries; "
        f"skipped equals the reference engine's on {tally['agree']} of {tally['compared']} degenerate-family reductions"
    )
    for family, counts in agreement.items():
        agree = ", ".join(f"{kind.value} {count}" for kind, count in counts.items())
        print(f"{family}-family reductions to 1 on which the engines agree, of {compared[family]}: {agree}")
    print(f"tiny       {tiny.hexdigest()}")
    print(f"narrow-decisions  {narrow_decisions.hexdigest()}")
    print(f"tiny-decisions    {tiny_decisions.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
