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

#: names re-exported from `spectral`, which loads numpy: bound on first access
#: (PEP 562), so commands that never touch a spectrum start without numpy
_SPECTRAL = (
    "FlowLoop",
    "SpectralEntry",
    "SpectralTable",
    "cz_crossing",
    "spectrum_from_loop",
)


def __getattr__(name):
    if name not in _SPECTRAL:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import spectral

    value = globals()[name] = getattr(spectral, name)
    return value


__all__ = [
    "BuildingError",
    "CatalogError",
    "DegenerateThresholdError",
    "HbcalcError",
    "IncompleteInputError",
    "InconsistentDataError",
    "InputError",
    "InternalCheckError",
    "NoCoreError",
    "SpectralResolutionError",
    *_SPECTRAL,
]
