"""Orbit catalog and the integer invariants of (covers of) periodic orbits.

Orbits are user-declared models: either a flow loop (the coefficient loop of
the asymptotic operator, from which spectra are computed on demand) or
explicit spectral tables listed per cover.  The catalog is immutable after
construction and caches computed tables, so all queries are cheap and safe
for concurrent readers: per flow cover it keeps the widest table solved on
the default grid, and `table` clips narrower windows from it, while
`spectrum_of` solves at the window it is asked, so what it returns does not
depend on what was solved before.  `cz_index` reads one table per cut (the
flow table at window |t| + k * strength + 8, or the stored table) and refuses
a cut that it does not strictly bracket.  The catalog also keeps its last
solve, whatever the cover and grid (the Bloch eigenpairs of one gamma^k,
k >= 1, on the base grid of the requested or default grid, with the windings
read so far): a later window whose grid keeps the base grid only audits that
solve again, so each cover is solved once per base grid.
Each flow loop keeps its own crossing record (the one-period part of
cz_crossing: the monodromy P, its trace and what the swept angles give), so
the crossing-form indices of all covers gamma^k of an orbit and its dynamical
type (is_hyperbolic, from the same P) take one integration of its flow.  The
index layer keeps its analysis of the last building it was asked about here
too (``index_calculus.Analysis``).

For a cover gamma^k with a signed spectral cut t (nondegenerate), the
extremal winding numbers are

    alpha_minus(t) = max { wind(lambda) : lambda < t },
    alpha_plus(t)  = min { wind(lambda) : lambda > t },

the parity is their difference (0 or 1 for a nondegenerate cut), and the
Conley-Zehnder index is 2*alpha_minus + parity.  All four come from one
query, `cz_index`, whose `SpectralSummary` (an immutable NamedTuple) is
memoized per (orbit, cover, cut); nothing else reads the windings at a cut.
Positive-puncture constraints c >= 0 enter through the cut -c, negative ones
through +c; the building layer supplies the sign.  Constrained indices are double-checked
against the eigenvalue-counting forms

    mu(gamma; c)  = mu(gamma) - #(spectrum in (-c, 0)),
    mu(gamma; -c) = mu(gamma) + #(spectrum in (0, c)),

counted with multiplicity; a mismatch is an internal error.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .buildings import OrbitRef
from .errors import CatalogError, InternalCheckError, SpectralResolutionError, UnknownOrbitError
from .spectral import (
    FlowLoop,
    SpectralTable,
    cz_crossing,
    monodromy,
    spectrum_from_loop,
)


class SpectralSummary(NamedTuple):
    """Extremal windings, parity and Conley-Zehnder index at one spectral cut
    (the cut is the key of the catalog's memo, not a field)."""

    alpha_minus: int
    alpha_plus: int
    parity: int
    mu_cz: int


class SimpleOrbit:
    """A simply covered orbit with a spectral model.

    `model` is either a FlowLoop or a dict {cover k: SpectralTable}.  In
    table mode the dynamical type cannot be recovered from eigenvalues, so
    `hyperbolic` must be stored whenever bad-orbit queries are wanted; in
    flow mode it is derived from the monodromy.
    """

    __slots__ = ("id", "period", "model", "hyperbolic")

    def __init__(self, id: str, period: float, model, hyperbolic: bool | None = None):
        if not id:
            raise CatalogError("orbit id must be nonempty")
        if not period > 0:
            raise CatalogError(f"orbit {id}: period must be positive")
        if not isinstance(model, FlowLoop):
            if not isinstance(model, dict) or not model:
                raise CatalogError(f"orbit {id}: model must be a FlowLoop or a cover->table map")
            for k, tab in model.items():
                if not isinstance(k, int) or k < 1 or not isinstance(tab, SpectralTable):
                    raise CatalogError(f"orbit {id}: bad table model entry for cover {k!r}")
                tab.validate()
        self.id = id
        self.period = float(period)
        self.model = model
        self.hyperbolic = hyperbolic

    @property
    def is_flow(self) -> bool:
        return isinstance(self.model, FlowLoop)


class Catalog:
    """Immutable collection of simple orbits with cached spectral queries."""

    def __init__(self, orbits):
        seen = {}
        for orbit in orbits:
            if orbit.id in seen:
                raise CatalogError(f"duplicate orbit id {orbit.id!r}")
            seen[orbit.id] = orbit
        self._orbits = seen
        self._tables: dict[tuple[str, int], SpectralTable] = {}
        self._summaries: dict[tuple[str, int, float], SpectralSummary] = {}
        self._held: list = [None]  # the last solve (spectrum_from_loop's `held`)
        self._analysis: list = [None]  # the last building analysed (index_calculus.Analysis)
        self._audit()

    def orbit(self, orbit_id: str) -> SimpleOrbit:
        try:
            return self._orbits[orbit_id]
        except KeyError:
            raise UnknownOrbitError(orbit_id) from None

    def ids(self) -> list[str]:
        return sorted(self._orbits)

    # --- spectra -------------------------------------------------------

    def _compute_flow_table(self, orbit: SimpleOrbit, k: int, window: float,
                            grid: int | None) -> SpectralTable:
        table = spectrum_from_loop(orbit.model, window, grid, cover=k, held=self._held)
        if table.min_abs_eigenvalue() <= table.cluster_tol():
            raise CatalogError(
                f"orbit {orbit.id!r} cover {k} is degenerate (0 is an eigenvalue)"
            )
        return table

    @staticmethod
    def _stored_table(orbit: SimpleOrbit, ref: OrbitRef) -> SpectralTable:
        stored = orbit.model.get(ref.k)
        if stored is None:
            raise CatalogError(
                f"orbit {ref.simple!r} lists no table for cover {ref.k}; "
                "table-mode orbits must list every cover they are used with"
            )
        return stored

    def table(self, ref: OrbitRef, window: float) -> SpectralTable:
        """Spectral table of gamma^k trusted on [-window, window].

        Flow models are solved on the default grid and cached (the cache keeps
        the widest table per cover); table models are clipped to the request
        and cannot grow.
        """
        orbit = self.orbit(ref.simple)
        if not orbit.is_flow:
            stored = self._stored_table(orbit, ref)
            if window > stored.window:
                raise SpectralResolutionError(
                    f"orbit {ref.simple!r} cover {ref.k}: stored table window "
                    f"{stored.window} < requested {window}"
                )
            return stored.clip(window)
        key = (ref.simple, ref.k)
        cached = self._tables.get(key)
        if cached is None or cached.window < window:
            cached = self._compute_flow_table(orbit, ref.k, window, None)
            self._tables[key] = cached
        return cached if cached.window == window else cached.clip(window)

    def spectrum_of(self, ref: OrbitRef, window: float, grid: int | None = None) -> SpectralTable:
        """Public spectral query (CLI `spectrum` maps straight onto this).

        A flow table is solved at this window, never clipped from a wider
        cached one, so it does not depend on what the catalog solved before;
        it is cached when it is the widest of its cover on the default grid.
        An explicit grid is a solve that is not cached; table-mode orbits
        take none.
        """
        if not (math.isfinite(window) and window > 0):
            raise CatalogError(f"window must be finite and positive, got {window}")
        orbit = self.orbit(ref.simple)
        if grid is not None:
            if not orbit.is_flow:
                raise CatalogError(f"orbit {ref.simple!r} is table-mode: its tables are "
                                   f"stored, not solved on a grid")
            return self._compute_flow_table(orbit, ref.k, window, grid)
        cached = self._tables.get((ref.simple, ref.k))
        if cached is not None and cached.window > window:
            return self._compute_flow_table(orbit, ref.k, window, None)
        return self.table(ref, window)

    def _table_past(self, ref: OrbitRef, threshold: float) -> SpectralTable:
        """The one table read at a cut: the stored table of a table-mode
        orbit, or the flow table at window |t| + k * strength + 8.  Its kept
        range must strictly bracket the cut."""
        if not math.isfinite(threshold):
            raise CatalogError(f"spectral threshold must be finite, got {threshold}")
        orbit = self.orbit(ref.simple)
        if orbit.is_flow:
            try:
                window = abs(threshold) + orbit.model.strength() * ref.k + 8.0
            except OverflowError:  # a cover past the float range; default_grid rejects it
                window = math.inf
            table, unresolved = self.table(ref, window), "spectrum not resolved"
        else:
            table, unresolved = self._stored_table(orbit, ref), "stored table does not reach"
        lo, hi = table.kept_range()
        if not lo < threshold < hi:
            raise SpectralResolutionError(
                f"orbit {ref.simple!r} cover {ref.k}: {unresolved} past threshold {threshold}"
            )
        return table

    # --- integer invariants ---------------------------------------------

    def cz_index(self, ref: OrbitRef, threshold: float = 0.0) -> SpectralSummary:
        """Spectral summary at a signed cut, verified against eigenvalue counting.

        The one spectral query at a cut: its extremal windings, parity and
        index, memoized per (orbit, cover, cut).
        """
        key = (ref.simple, ref.k, float(threshold))
        cached = self._summaries.get(key)
        if cached is not None:
            return cached
        table = self._table_past(ref, threshold)
        am = table.alpha_minus(threshold)
        ap = table.alpha_plus(threshold)
        parity = ap - am
        if parity not in (0, 1):
            raise InternalCheckError(
                f"orbit {ref.simple!r} cover {ref.k}: parity {parity} at threshold "
                f"{threshold} is outside {{0, 1}}"
            )
        mu = 2 * am + parity
        if threshold != 0.0:
            base = self.cz_index(ref, 0.0)
            if threshold < 0.0:
                counted = base.mu_cz - table.count_open(threshold, 0.0)
            else:
                counted = base.mu_cz + table.count_open(0.0, threshold)
            if counted != mu:
                raise InternalCheckError(
                    f"orbit {ref.simple!r} cover {ref.k}: winding route gives mu={mu} "
                    f"but eigenvalue counting gives {counted} at threshold {threshold}"
                )
        summary = SpectralSummary(alpha_minus=am, alpha_plus=ap, parity=parity, mu_cz=mu)
        self._summaries[key] = summary
        return summary

    def parity(self, ref: OrbitRef) -> int:
        return self.cz_index(ref, 0.0).parity

    def is_hyperbolic(self, orbit_id: str) -> bool:
        orbit = self.orbit(orbit_id)
        if not orbit.is_flow:
            if orbit.hyperbolic is None:
                raise CatalogError(
                    f"orbit {orbit_id!r} is table-mode without a 'hyperbolic' flag"
                )
            return orbit.hyperbolic
        tr = abs(float(np.trace(monodromy(orbit.model))))
        if abs(tr - 2.0) <= 1e-9:
            raise CatalogError(f"orbit {orbit_id!r} has borderline monodromy trace {tr}")
        return tr > 2.0

    def is_bad(self, ref: OrbitRef) -> bool:
        """Even double cover of an odd hyperbolic orbit."""
        if ref.k % 2 == 1:
            return False
        half = OrbitRef(ref.simple, ref.k // 2)
        return (
            self.parity(half) == 1
            and self.is_hyperbolic(ref.simple)
            and self.parity(ref) == 0
        )

    def cz_via_crossing(self, ref: OrbitRef) -> int:
        """Crossing-form route to the Conley-Zehnder index (flow models only).

        Every cover of an orbit is served from one integration of its flow
        (the loop's crossing record).
        """
        orbit = self.orbit(ref.simple)
        if not orbit.is_flow:
            raise CatalogError(f"orbit {ref.simple!r} has no flow model")
        return cz_crossing(orbit.model, ref.k)

    # --- audits ----------------------------------------------------------

    def _audit(self) -> None:
        # even simple orbits must be hyperbolic; elliptic orbits are odd
        for orbit_id in self.ids():
            if self.parity(OrbitRef(orbit_id, 1)) == 0 and not self.is_hyperbolic(orbit_id):
                raise CatalogError(
                    f"orbit {orbit_id!r} is even but not hyperbolic; "
                    "even orbits are always hyperbolic"
                )


def is_simply_covered_eigenfunction(k: int, w: int) -> bool:
    """Whether an eigenfunction of a k-fold cover with winding w is simply covered.

    Covers of eigenfunctions are exactly those with winding in k*Z, so an
    eigenfunction is simply covered iff gcd(k, w) = 1; gcd(k, 0) = k makes
    winding zero simply covered only on simple orbits.
    """
    if k < 1:
        raise ValueError(f"cover must be >= 1, got {k}")
    return math.gcd(k, w) == 1
