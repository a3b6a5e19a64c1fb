"""edgelab: construction and classification of bi-qutrit PPT entangled edge states.

The package builds the parameterized state families, classifies them by the
pair (rank, rank of the partial transpose), checks the rank bounds admissible
for edge states, and verifies the edge property both analytically (for the
phase-parameterized family) and by a multistart product-vector search.
"""

from .classify import (
    Admissibility,
    CertificateTrace,
    Classification,
    EdgeCertificate,
    classify,
    classify_many,
    rank_bounds,
    verify_edge_analytic,
)
from .errors import (
    ConditionViolatedError,
    DimensionMismatchError,
    EdgeLabError,
    GramNotPSDError,
    InvalidParamError,
    NotHermitianError,
    OffdiagTooLargeError,
)
from .linalg import BipartiteOperator
from .search import EdgeSearchResult, SearchVerdict, product_vector_search, product_vector_search_many
from .states import (
    GramSpec,
    choi_matrix,
    corner_state,
    edge_condition_holds,
    edge_state,
    face_state,
    generalized_edge_state,
    min_psd_diagonal,
    offdiag_gram,
    phase_circulant,
    singular_gram_offdiags,
)

__version__ = "0.1.0"

__all__ = [
    "Admissibility",
    "BipartiteOperator",
    "CertificateTrace",
    "Classification",
    "ConditionViolatedError",
    "DimensionMismatchError",
    "EdgeCertificate",
    "EdgeLabError",
    "EdgeSearchResult",
    "GramNotPSDError",
    "GramSpec",
    "InvalidParamError",
    "NotHermitianError",
    "OffdiagTooLargeError",
    "SearchVerdict",
    "choi_matrix",
    "classify",
    "classify_many",
    "corner_state",
    "edge_condition_holds",
    "edge_state",
    "face_state",
    "generalized_edge_state",
    "min_psd_diagonal",
    "offdiag_gram",
    "phase_circulant",
    "product_vector_search",
    "product_vector_search_many",
    "rank_bounds",
    "singular_gram_offdiags",
    "verify_edge_analytic",
]
