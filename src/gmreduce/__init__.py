"""Greedy Gaussian mixture reduction and robust mixture clustering.

The package reduces a Gaussian mixture one component at a time, either
pruning a component or merging a pair, choosing the step with the
smallest cost under one of four methods: a reverse-divergence surrogate
(with a crude weight-only variant), a forward-divergence bound, and the
integral squared error.  On top of the reduction sits a robust
clustering workflow: over-fit a mixture with EM, reduce it, and carry
the point assignments along so pruned clutter is discarded.
"""

from .cluster import (
    DISCARDED,
    SPURIOUS,
    EMConfig,
    EMError,
    EMFit,
    LabeledDataset,
    em_fit,
    em_fit_details,
    generate_corrupted_data,
    reduce_and_reassign,
    six_cluster_mixture,
)
from .costs import (
    CostKind,
    DisjointSupportError,
    DivergenceEstimate,
    arkl_merge_cost,
    arkl_prune_cost,
    crude_prune_bound,
    gaussian_overlap,
    hypothesis_cost,
    ise_analytic,
    mc_kld,
    runnalls_bound,
    simple_merge_bound,
    switched_divergence,
)
from .gauss import (
    GaussianComponent,
    ProductDecomposition,
    expected_log,
    kld_gauss,
    log_pdf,
    mahalanobis_sq,
    max_value,
    moment_match_merge,
    pdf,
    product_decompose,
)
from .mixture import (
    GaussianMixture,
    Hypothesis,
    Merge,
    Prune,
    apply,
    enumerate_hypotheses,
    sample,
)
from .quadrature import envelope_1d, kld_quad
from .reduction import (
    CostTable,
    EvalCounter,
    ReductionTrace,
    TraceStep,
    build_cost_table,
    reduce,
    reference_reduce,
    update_cost_table,
)

__version__ = "0.1.0"

__all__ = [
    "GaussianComponent",
    "ProductDecomposition",
    "log_pdf",
    "pdf",
    "kld_gauss",
    "product_decompose",
    "expected_log",
    "max_value",
    "moment_match_merge",
    "mahalanobis_sq",
    "GaussianMixture",
    "Prune",
    "Merge",
    "Hypothesis",
    "apply",
    "sample",
    "enumerate_hypotheses",
    "CostKind",
    "DivergenceEstimate",
    "DisjointSupportError",
    "gaussian_overlap",
    "ise_analytic",
    "mc_kld",
    "runnalls_bound",
    "crude_prune_bound",
    "arkl_prune_cost",
    "simple_merge_bound",
    "switched_divergence",
    "arkl_merge_cost",
    "hypothesis_cost",
    "CostTable",
    "EvalCounter",
    "TraceStep",
    "ReductionTrace",
    "build_cost_table",
    "update_cost_table",
    "reduce",
    "reference_reduce",
    "envelope_1d",
    "kld_quad",
    "DISCARDED",
    "SPURIOUS",
    "LabeledDataset",
    "EMConfig",
    "EMFit",
    "EMError",
    "six_cluster_mixture",
    "generate_corrupted_data",
    "em_fit",
    "em_fit_details",
    "reduce_and_reassign",
]
