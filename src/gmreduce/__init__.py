"""Greedy Gaussian mixture reduction and robust mixture clustering.

The package reduces a Gaussian mixture one component at a time, either
pruning a component or merging a pair, choosing the step with the
smallest cost under one of four methods: a reverse-divergence surrogate
(with a crude weight-only variant), a forward-divergence bound, and the
integral squared error.  On top of the reduction sits a robust
clustering workflow: over-fit a mixture with EM, reduce it, and carry
the point assignments along so pruned clutter is discarded.  The
package exports what its modules export.
"""

from . import cluster, costs, gauss, mixture, quadrature, reduction
from .mixture import *  # noqa: F403
from .gauss import *  # noqa: F403 -- after mixture: log_pdf and pdf are the component densities
from .costs import *  # noqa: F403
from .reduction import *  # noqa: F403
from .quadrature import *  # noqa: F403
from .cluster import *  # noqa: F403

__version__ = "0.1.0"

__all__ = list(dict.fromkeys(n for m in (gauss, mixture, costs, reduction, quadrature, cluster) for n in m.__all__))
