"""Exact upper bounds and exact counts for the linear regions of ReLU networks.

The package has two halves. The bound half works in exact integer
arithmetic on dimension histograms: per-layer worst-case collections,
a transition map pushing histograms through layers, equivalent bound
matrices with closed-form powers, and growth-rate reports. The ground
truth half enumerates the attained activation patterns of small rational
networks with an exact LP, so every bound can be checked against a real
count.
"""

from .bound_matrices import (
    BoundMatrix,
    ConnectorMatrix,
    build_bound_matrix,
    build_connector,
    evaluate_bound,
    montufar_bound,
    montufar_lower_bound,
    naive_bound,
    narrow_layer_somewhere,
    serra_sum,
    stirling_weakened,
    width_increases_somewhere,
)
from .decomposition import (
    AsymptoticReport,
    JordanLikeDecomposition,
    asymptotic_report,
    build_decomposition,
    closed_form_norm,
    power_B,
    power_J,
    verify_B_equals_C,
)
from .empirical import (
    DEFAULT_BOX_RADIUS,
    EnumerationResult,
    RegionRecord,
    ReluLayer,
    ReluNetwork,
    VerificationReport,
    check_against_network,
    enumerate_regions,
    load_network,
    random_network,
    sample_count,
    save_network,
    signature_at,
    verify_network,
)
from .fixtures import TRIANGLE_REGION_COUNT, triangle_network
from .gamma import (
    BINOMIAL,
    BUILTIN,
    NAIVE,
    ZASLAVSKY,
    GammaCollection,
    activation_histogram,
    check_monotonicity,
    gamma_value,
)
from .histogram import (
    Histogram,
    add,
    clip,
    l1_norm,
    leq,
    max_of,
    scale,
    tail_sum,
    unit,
    zero,
)
from .transition import (
    Architecture,
    compose_bound_histogram,
    dimension_histogram,
    phi,
)

__all__ = [
    "Architecture",
    "AsymptoticReport",
    "BINOMIAL",
    "BUILTIN",
    "BoundMatrix",
    "ConnectorMatrix",
    "DEFAULT_BOX_RADIUS",
    "EnumerationResult",
    "GammaCollection",
    "Histogram",
    "JordanLikeDecomposition",
    "NAIVE",
    "RegionRecord",
    "ReluLayer",
    "ReluNetwork",
    "TRIANGLE_REGION_COUNT",
    "VerificationReport",
    "ZASLAVSKY",
    "activation_histogram",
    "add",
    "asymptotic_report",
    "build_bound_matrix",
    "build_connector",
    "build_decomposition",
    "check_against_network",
    "check_monotonicity",
    "clip",
    "closed_form_norm",
    "compose_bound_histogram",
    "dimension_histogram",
    "enumerate_regions",
    "evaluate_bound",
    "gamma_value",
    "l1_norm",
    "leq",
    "load_network",
    "max_of",
    "montufar_bound",
    "montufar_lower_bound",
    "naive_bound",
    "narrow_layer_somewhere",
    "phi",
    "power_B",
    "power_J",
    "random_network",
    "sample_count",
    "save_network",
    "scale",
    "serra_sum",
    "signature_at",
    "stirling_weakened",
    "tail_sum",
    "triangle_network",
    "unit",
    "verify_B_equals_C",
    "verify_network",
    "width_increases_somewhere",
    "zero",
]

__version__ = "0.1.0"
