"""Holomorphic-building calculus: orbit spectra, index formulas, surgery, and
degeneration checks for curves in 4-dimensional symplectizations."""

from .errors import (
    BuildingError,
    CatalogError,
    DegenerateThresholdError,
    HbcalcError,
    IncompleteInputError,
    InconsistentDataError,
    InputError,
    InternalCheckError,
    NoCoreError,
    SpectralResolutionError,
)
from .spectral import (
    FlowLoop,
    SpectralEntry,
    SpectralTable,
    build_operator,
    cz_crossing,
    fourier_diff_matrix,
    spectrum_from_loop,
    winding,
)

__all__ = [
    "BuildingError",
    "CatalogError",
    "DegenerateThresholdError",
    "FlowLoop",
    "HbcalcError",
    "IncompleteInputError",
    "InconsistentDataError",
    "InputError",
    "InternalCheckError",
    "NoCoreError",
    "SpectralEntry",
    "SpectralResolutionError",
    "SpectralTable",
    "build_operator",
    "cz_crossing",
    "fourier_diff_matrix",
    "spectrum_from_loop",
    "winding",
]
