"""Adaptive-quadrature divergences between one-dimensional mixtures.

These back the "exact" columns of the sweep command.  Integration runs
over a finite envelope covering every component of both mixtures out to
a fixed number of standard deviations; outside it the integrand of a
mixture-to-mixture divergence is far below the absolute tolerance.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import mixture as mix
from .constants import QUAD_EPSABS, QUAD_SIGMA_ENVELOPE
from .mixture import GaussianMixture

__all__ = ["envelope_1d", "kld_quad"]


def envelope_1d(*mixtures: GaussianMixture) -> tuple[float, float]:
    """Interval covering all components of the given 1-D mixtures (at least one)."""
    if not mixtures:
        raise ValueError("envelope needs at least one mixture")
    if any(m.dim != 1 for m in mixtures):
        raise ValueError("envelope is defined for 1-D mixtures only")
    means = np.concatenate([m._arr.means[:, 0] for m in mixtures])
    reach = QUAD_SIGMA_ENVELOPE * np.sqrt(np.concatenate([m._arr.covs[:, 0, 0] for m in mixtures]))
    return float(np.min(means - reach)), float(np.max(means + reach))


def kld_quad(p: GaussianMixture, q: GaussianMixture) -> tuple[float, bool]:
    """D(p || q) between 1-D mixtures by adaptive quadrature.

    Returns the integral and a convergence flag; the flag is False when
    the integrator either warned or reported an error estimate well
    above the requested absolute tolerance.  A False flag does not raise
    -- the caller decides how to surface it.
    """
    lo, hi = envelope_1d(p, q)

    def integrand(x: float) -> float:
        pt = np.array([x])
        lp = mix.log_pdf(p, pt)
        dens = math.exp(lp)
        if dens == 0.0:
            return 0.0
        return dens * (lp - mix.log_pdf(q, pt))

    # Imported on first use: scipy.integrate about doubles the resident
    # size of importing the package, and only this oracle needs it.
    from scipy import integrate

    breaks = np.sort(np.concatenate([p._arr.means[:, 0], q._arr.means[:, 0]]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", integrate.IntegrationWarning)
        value, abserr = integrate.quad(
            integrand, lo, hi, epsabs=QUAD_EPSABS, epsrel=0.0, limit=400, points=breaks
        )
    warned = any(issubclass(w.category, integrate.IntegrationWarning) for w in caught)
    converged = (not warned) and abserr <= 100.0 * QUAD_EPSABS
    return float(value), converged
