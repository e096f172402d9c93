"""Orbit catalog and the integer invariants of (covers of) periodic orbits.

Orbits are user-declared models: either a flow loop (the coefficient loop of
the asymptotic operator, from which spectra are computed on demand) or
explicit spectral tables listed per cover.  The catalog is immutable after
construction and caches computed tables, so all queries are cheap and safe
for concurrent readers.

For a cover gamma^k with a signed spectral cut t (nondegenerate), the
extremal winding numbers are

    alpha_minus(t) = max { wind(lambda) : lambda < t },
    alpha_plus(t)  = min { wind(lambda) : lambda > t },

the parity is their difference (0 or 1 for a nondegenerate cut), and the
Conley-Zehnder index is 2*alpha_minus + parity.  Positive-puncture
constraints c >= 0 enter through the cut -c, negative ones through +c; the
building layer supplies the sign.  Constrained indices are double-checked
against the eigenvalue-counting forms

    mu(gamma; c)  = mu(gamma) - #(spectrum in (-c, 0)),
    mu(gamma; -c) = mu(gamma) + #(spectrum in (0, c)),

counted with multiplicity; a mismatch is an internal error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CatalogError, InternalCheckError, SpectralResolutionError
from .spectral import (
    FlowLoop,
    SpectralTable,
    cz_crossing,
    default_grid,
    monodromy,
    spectrum_from_loop,
)

#: Window growth is capped here; needing more means the request is off-scale.
MAX_WINDOW = 500.0
#: Bound on the window growths of one _table_past call.  Growth starts at a
#: window >= 8 and 8 * 1.7**8 > MAX_WINDOW, so finite requests stop sooner.
MAX_GROWTHS = 16


@dataclass(frozen=True, order=True)
class OrbitRef:
    """A possibly multiply covered orbit: (simple orbit id, covering number)."""

    simple: str
    k: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise CatalogError(f"covering number must be >= 1, got {self.k}")


@dataclass(frozen=True)
class SpectralSummary:
    """Extremal windings, parity and Conley-Zehnder index at one spectral cut."""

    alpha_minus: int
    alpha_plus: int
    parity: int
    mu_cz: int
    threshold: float


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
        self._monodromy: dict[tuple[str, int], np.ndarray] = {}
        self._summaries: dict[tuple[str, int, float], SpectralSummary] = {}
        self._audit()

    def __contains__(self, orbit_id: str) -> bool:
        return orbit_id in self._orbits

    def __iter__(self):
        return iter(sorted(self._orbits))

    def orbit(self, orbit_id: str) -> SimpleOrbit:
        try:
            return self._orbits[orbit_id]
        except KeyError:
            raise CatalogError(f"unknown orbit id {orbit_id!r}") from None

    def ids(self) -> list[str]:
        return sorted(self._orbits)

    # --- spectra -------------------------------------------------------

    def _strength(self, orbit: SimpleOrbit) -> float:
        return orbit.model.strength() if orbit.is_flow else 0.0

    def _compute_flow_table(self, orbit: SimpleOrbit, k: int, window: float,
                            grid: int | None) -> SpectralTable:
        loop = orbit.model
        n = grid if grid is not None else default_grid(loop.n, k, window, loop.strength())
        table = spectrum_from_loop(loop.cover(k, grid=n), window, grid=n)
        if table.min_abs_eigenvalue() <= table.cluster_tol():
            raise CatalogError(
                f"orbit {orbit.id!r} cover {k} is degenerate (0 is an eigenvalue)"
            )
        return table

    def table(self, ref: OrbitRef, window: float, grid: int | None = None) -> SpectralTable:
        """Spectral table of gamma^k trusted on [-window, window].

        Flow models are solved and cached (the cache keeps the widest table
        per cover); table models are clipped to the request and cannot grow.
        """
        orbit = self.orbit(ref.simple)
        if not orbit.is_flow:
            stored = orbit.model.get(ref.k)
            if stored is None:
                raise CatalogError(
                    f"orbit {ref.simple!r} lists no table for cover {ref.k}; "
                    "table-mode orbits must list every cover they are used with"
                )
            if window > stored.window:
                raise SpectralResolutionError(
                    f"orbit {ref.simple!r} cover {ref.k}: stored table window "
                    f"{stored.window} < requested {window}"
                )
            return stored.clip(window)
        if grid is not None:
            return self._compute_flow_table(orbit, ref.k, window, grid)
        key = (ref.simple, ref.k)
        cached = self._tables.get(key)
        if cached is None or cached.window < window:
            cached = self._compute_flow_table(orbit, ref.k, window, None)
            self._tables[key] = cached
        return cached if cached.window == window else cached.clip(window)

    def spectrum_of(self, ref: OrbitRef, window: float, grid: int | None = None) -> SpectralTable:
        """Public spectral query (CLI `spectrum` maps straight onto this)."""
        if not (math.isfinite(window) and window > 0):
            raise CatalogError(f"window must be finite and positive, got {window}")
        return self.table(ref, window, grid)

    def _table_past(self, ref: OrbitRef, threshold: float) -> SpectralTable:
        """A table whose kept range strictly brackets the threshold."""
        if not math.isfinite(threshold):
            raise CatalogError(f"spectral threshold must be finite, got {threshold}")
        orbit = self.orbit(ref.simple)
        if not orbit.is_flow:
            stored = orbit.model.get(ref.k)
            if stored is None:
                raise CatalogError(
                    f"orbit {ref.simple!r} lists no table for cover {ref.k}; "
                    "table-mode orbits must list every cover they are used with"
                )
            lo, hi = stored.kept_range()
            if not lo < threshold < hi:
                raise SpectralResolutionError(
                    f"orbit {ref.simple!r} cover {ref.k}: stored table does not "
                    f"reach past threshold {threshold}"
                )
            return stored
        need = abs(threshold) + self._strength(orbit) * ref.k + 8.0
        for _ in range(MAX_GROWTHS):
            table = self.table(ref, need)
            lo, hi = table.kept_range()
            if lo < threshold < hi:
                return table
            if need > MAX_WINDOW:
                break
            need *= 1.7
        raise SpectralResolutionError(
            f"orbit {ref.simple!r} cover {ref.k}: spectrum not resolved "
            f"past threshold {threshold}"
        )

    # --- integer invariants ---------------------------------------------

    def alpha(self, ref: OrbitRef, threshold: float, side: str) -> int:
        """Extremal winding below ("minus") or above ("plus") a spectral cut."""
        table = self._table_past(ref, threshold)
        if side == "minus":
            return table.alpha_minus(threshold)
        if side == "plus":
            return table.alpha_plus(threshold)
        raise ValueError(f"side must be 'minus' or 'plus', got {side!r}")

    def cz_index(self, ref: OrbitRef, threshold: float = 0.0) -> SpectralSummary:
        """Spectral summary at a signed cut, verified against eigenvalue counting."""
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
                counted = base.mu_cz - self._table_past(ref, threshold).count_open(threshold, 0.0)
            else:
                counted = base.mu_cz + self._table_past(ref, threshold).count_open(0.0, threshold)
            if counted != mu:
                raise InternalCheckError(
                    f"orbit {ref.simple!r} cover {ref.k}: winding route gives mu={mu} "
                    f"but eigenvalue counting gives {counted} at threshold {threshold}"
                )
        summary = SpectralSummary(alpha_minus=am, alpha_plus=ap, parity=parity,
                                  mu_cz=mu, threshold=float(threshold))
        self._summaries[key] = summary
        return summary

    def parity(self, ref: OrbitRef, threshold: float = 0.0) -> int:
        return self.cz_index(ref, threshold).parity

    def is_hyperbolic(self, orbit_id: str) -> bool:
        orbit = self.orbit(orbit_id)
        if not orbit.is_flow:
            if orbit.hyperbolic is None:
                raise CatalogError(
                    f"orbit {orbit_id!r} is table-mode without a 'hyperbolic' flag"
                )
            return orbit.hyperbolic
        key = (orbit_id, 1)
        p = self._monodromy.get(key)
        if p is None:
            p = monodromy(orbit.model)
            self._monodromy[key] = p
        tr = abs(float(np.trace(p)))
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
        """Crossing-form route to the Conley-Zehnder index (flow models only)."""
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
