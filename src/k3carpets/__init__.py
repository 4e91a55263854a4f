"""Exact sheaf-cohomology and K3-carpet dimension reports on P^2 and F_e."""

from .carpets import (
    CarpetReport,
    DoubleCoverReport,
    EmbeddingData,
    HilbertReport,
    InvalidGeometryError,
    PolarizationData,
    SurfaceContext,
    abstract_carpet_dim,
    carpet_report,
    double_cover_k3_check,
    embedded_carpet_h0,
    hilbert_report,
)
from .cech_oracle import TruncationError, coh_oracle
from .exact_seq import CohInterval, InconsistencyError, LesInstance, chain, propagate
from .line_cohomology import CohVector, coh
from .surfaces import (
    DivisorClass,
    SurfaceMismatchError,
    SurfaceModel,
    canonical_class,
    hirzebruch,
    intersect,
    is_base_point_free,
    is_very_ample,
    projective_plane,
    riemann_roch_chi,
)

__version__ = "0.1.0"

__all__ = [
    "CarpetReport", "CohInterval", "CohVector", "DivisorClass",
    "DoubleCoverReport", "EmbeddingData", "HilbertReport", "InconsistencyError",
    "InvalidGeometryError", "LesInstance", "PolarizationData", "SurfaceContext",
    "SurfaceMismatchError", "SurfaceModel", "TruncationError",
    "abstract_carpet_dim", "canonical_class", "carpet_report", "chain", "coh",
    "coh_oracle", "double_cover_k3_check", "embedded_carpet_h0",
    "hirzebruch", "hilbert_report", "intersect", "is_base_point_free",
    "is_very_ample", "projective_plane", "propagate",
    "riemann_roch_chi",
]
