"""Bit-identity digest of the EM fits behind acceptance criterion 8.

    python tools/em_digest.py <checkout>

Imports ``gmreduce`` from ``<checkout>/src`` and runs the 40 fixed EM fits
of criterion 8's data: for each seed 0-19, 1000 mixture points and 100
clutter points from ``generate_corrupted_data``, 15 components, at
``max_iters`` 150 (the benchmark's cap) and 500 (the criterion's), with
every ``RuntimeWarning`` raised as an error.

Each fit prints one line: seed, cap, iterations, converged, jitter and
re-seed events, the final log-likelihood as hex, and a SHA-256 of the
fitted weights, means and covariances and of the responsibilities.  A fit
that raises prints its error instead.  The last line is one SHA-256 over
all fit lines.  Run it on two checkouts and diff the outputs: every line
that differs names a fit that moved.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import warnings
from pathlib import Path

import numpy as np

SEEDS = range(20)
CAPS = (150, 500)


def _fit_line(gm, seed: int, cap: int) -> str:
    data_stream, em_stream = np.random.SeedSequence(seed).spawn(2)
    ds = gm.generate_corrupted_data(1000, 100, 20.0, data_stream)
    head = f"seed {seed:2d} cap {cap}"
    try:
        fit = gm.em_fit_details(ds.points, gm.EMConfig(n_clusters=15, max_iters=cap, seed=em_stream))
    except (gm.EMError, RuntimeWarning) as exc:
        return f"{head} error {type(exc).__name__}: {exc}"
    params = hashlib.sha256()
    for c in fit.mixture.components:
        params.update(np.float64(c.weight).tobytes() + c.mean.tobytes() + c.cov.tobytes())
    params.update(np.ascontiguousarray(fit.responsibilities).tobytes())
    return (
        f"{head} iters {len(fit.log_likelihoods):3d} converged {int(fit.converged)} "
        f"jitter {fit.jitter_events:3d} reinit {fit.reinit_events} "
        f"ll {fit.log_likelihoods[-1].hex()} params {params.hexdigest()}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="a gmreduce checkout; its src/ is imported")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    import gmreduce as gm

    warnings.simplefilter("error", RuntimeWarning)
    overall = hashlib.sha256()
    for seed in SEEDS:
        for cap in CAPS:
            line = _fit_line(gm, seed, cap)
            overall.update(line.encode() + b"\n")
            print(line)
    print(f"all      {overall.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
