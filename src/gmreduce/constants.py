"""Library-wide numerical tolerances.

Every magic tolerance used by the package lives here so the choices are
auditable in one place.  Positive definiteness is never tested against a
threshold anywhere in the library: a matrix is accepted iff LAPACK
factorizes it, given finite entries (``gauss._cholesky``).
"""

# Relative symmetry tolerance for covariance matrices accepted by the
# value types: max|S - S.T| <= SYMMETRY_RTOL * max(1, max|S|).
SYMMETRY_RTOL = 1e-12

# Mixture weights must sum to 1 within this absolute tolerance to count
# as normalized, and a single weight may exceed 1 by at most this much.
WEIGHT_SUM_ATOL = 1e-9

# The CLI is more forgiving than the library: weight sums within this
# tolerance of 1 are renormalized with a warning instead of rejected,
# and covariance asymmetry up to this absolute size is symmetrized away.
CLI_WEIGHT_SUM_ATOL = 1e-6
CLI_SYMMETRY_ATOL = 1e-9

# One-dimensional adaptive quadrature: absolute error target and the
# half-width of the integration envelope in component standard deviations.
QUAD_EPSABS = 1e-8
QUAD_SIGMA_ENVELOPE = 12.0
