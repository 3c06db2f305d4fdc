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
    """Interval covering all components of the given 1-D mixtures."""
    lo = math.inf
    hi = -math.inf
    for m in mixtures:
        if m.dim != 1:
            raise ValueError("envelope is defined for 1-D mixtures only")
        for c in m.components:
            sd = math.sqrt(float(c.cov[0, 0]))
            lo = min(lo, float(c.mean[0]) - QUAD_SIGMA_ENVELOPE * sd)
            hi = max(hi, float(c.mean[0]) + QUAD_SIGMA_ENVELOPE * sd)
    return lo, hi


def kld_quad(p: GaussianMixture, q: GaussianMixture, epsabs: float = QUAD_EPSABS) -> tuple[float, bool]:
    """D(p || q) between 1-D mixtures by adaptive quadrature.

    Returns the integral and a convergence flag; the flag is False when
    the integrator either warned or reported an error estimate well
    above the requested absolute tolerance.  A False flag does not raise
    -- the caller decides how to surface it.
    """
    if p.dim != 1 or q.dim != 1:
        raise ValueError("quadrature divergences are implemented for 1-D mixtures only")
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

    breaks = sorted(float(c.mean[0]) for c in p.components + q.components)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", integrate.IntegrationWarning)
        value, abserr = integrate.quad(
            integrand, lo, hi, epsabs=epsabs, epsrel=0.0, limit=400, points=breaks
        )
    warned = any(issubclass(w.category, integrate.IntegrationWarning) for w in caught)
    converged = (not warned) and abserr <= 100.0 * epsabs
    return float(value), converged
