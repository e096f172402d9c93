"""Exception hierarchy shared by all hbcalc modules.

Errors fall into two families: bad input (schemas, catalogs, preconditions),
and numerical/combinatorial trouble detected while computing.  The CLI maps
any HbcalcError to exit code 2; theorem-checker *verdicts* are not errors.
"""


class HbcalcError(Exception):
    """Base class for all errors raised by hbcalc."""


class InputError(HbcalcError):
    """Malformed file or argument; message cites the offending JSON path."""


class OutputBudgetError(InputError):
    """An answer, or the table that counts it, would exceed its budget;
    raised before any item of the answer is built."""


class CatalogError(HbcalcError):
    """Inconsistent or incomplete orbit catalog data."""


class UnknownOrbitError(CatalogError):
    """An orbit id that the catalog does not list."""

    def __init__(self, orbit_id: str):
        super().__init__(f"unknown orbit id {orbit_id!r}")
        self.orbit_id = orbit_id


class BuildingError(HbcalcError):
    """A building violates a structural invariant."""


class NoCoreError(BuildingError):
    """Trivial cylinders cannot be collapsed away from this building."""


class SpectralResolutionError(HbcalcError):
    """The grid or eigenvalue window is too coarse for the request."""


class DegenerateThresholdError(HbcalcError):
    """A spectral cut hit an eigenvalue (degenerate constraint or orbit)."""


class IncompleteInputError(HbcalcError):
    """A check needs optional data that was not supplied; `sites` are the
    (component id, puncture index) sites that lack it, in puncture order."""

    def __init__(self, message, sites=()):
        super().__init__(message)
        self.sites = tuple(sites)


class InconsistentDataError(HbcalcError):
    """User-supplied integers contradict each other (e.g. negative wind_pi)."""


class InternalCheckError(HbcalcError):
    """A cross-check that is a theorem failed; indicates a bug, never data."""
