"""Classical versus quantum composite states, decided constructively.

Classical states are finite-support probability densities; quantum states
are positive unit-trace operators.  The package builds both, takes their
tensor products, marginals, and partial traces, detects elementary
tensors through Schmidt analysis, certifies separability where a
certificate exists, and machine-checks every one of its own structural
claims through seeded randomized suites (see ``entanglekit.verify`` and
the ``entanglekit verify`` CLI subcommand).
"""

__version__ = "0.1.0"

from .bipartite import (
    BipartiteDims,
    BipartiteVector,
    SchmidtDecomposition,
    coefficient_matrix,
    kron_op,
    kron_vec,
    partial_trace,
    schmidt,
)
from .classical import (
    ClassicalSeparableCert,
    ClassicalState,
    CompositeClassicalState,
    PhaseSpace,
    classical_pure,
    classical_tensor,
    classify_classical,
    is_product_composite,
    marginal,
)
from .errors import SchemaError, ZeroVectorError
from .linalg import (
    DEFAULT_EPS,
    Tolerance,
    is_hermitian,
    is_positive,
    rank,
)
from .quantum import (
    DensityOperator,
    MixedEnsemble,
    PureState,
    is_density,
    mix,
    projector,
)
from .separability import (
    Classification,
    EntangledCertificate,
    ProductCertificate,
    RangeReport,
    SeparableCertificate,
    SeparableDecomposition,
    Verdict,
    check_range_criterion,
    classify,
    product_pure,
    range_basis,
    separable_density,
)

__all__ = [
    "__version__",
    "BipartiteDims",
    "BipartiteVector",
    "Classification",
    "ClassicalSeparableCert",
    "ClassicalState",
    "CompositeClassicalState",
    "DEFAULT_EPS",
    "DensityOperator",
    "EntangledCertificate",
    "MixedEnsemble",
    "PhaseSpace",
    "ProductCertificate",
    "PureState",
    "RangeReport",
    "SchemaError",
    "SchmidtDecomposition",
    "SeparableCertificate",
    "SeparableDecomposition",
    "Tolerance",
    "Verdict",
    "ZeroVectorError",
    "check_range_criterion",
    "classical_pure",
    "classical_tensor",
    "classify",
    "classify_classical",
    "coefficient_matrix",
    "is_density",
    "is_hermitian",
    "is_positive",
    "is_product_composite",
    "kron_op",
    "kron_vec",
    "marginal",
    "mix",
    "partial_trace",
    "product_pure",
    "projector",
    "range_basis",
    "rank",
    "schmidt",
    "separable_density",
]
