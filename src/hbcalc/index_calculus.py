"""Index and Chern-number formulas for buildings, with additivity audits.

For a building with glued Euler characteristic chi, total relative Chern
number c1 and external punctures z with constraints c_z,

    total CZ index   mu(b; c) = sum_{z pos} mu(gamma_z; -c_z cut)
                              - sum_{z neg} mu(gamma_z; +c_z cut)
    Fredholm index   ind(b; c) = -chi + 2 c1 + mu(b; c)
    normal Chern     c_N(b; c) = c1 - chi + sum_{z pos} alpha_minus(gamma_z; -c_z)
                               - sum_{z neg} alpha_plus(gamma_z; +c_z)

and for connected buildings the three are tied together by

    2 c_N = ind - 2 + 2 genus + #(even constrained punctures),

which is asserted (never merely reported).  Additivity over connected
components holds with one breaking-parity term per breaking pair and one
unit per nodal *point* (two per stored nodal pair):

    ind(b; c) = sum_i ind(b_i; c_i) + 2 #nodal_pairs
    c_N(b; c) = sum_i c_N(b_i; c_i) + sum_pairs parity(gamma) + 2 #nodal_pairs

Disconnected buildings are accepted by ind/c_N (chi sums over pieces);
arithmetic genus, and hence the displayed identity, needs connectedness.

Every formula is a sum over the rows of `ends`, one per external end with its
signed cut, CZ index, parity and extremal winding; a report builds the rows
once for the building and once per detached component.  Each end is read
under the constraint stored on its puncture: to evaluate a building under
other constraints, override them with `buildings.set_constraints` first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .buildings import (
    Building,
    Puncture,
    Site,
    arithmetic_genus,
    detach_component,
    euler_char,
    is_connected,
)
from .errors import IncompleteInputError, InconsistentDataError, InternalCheckError
from .orbits import Catalog, SpectralSummary

class End:
    """One end under its constraint c, read through its signed spectral cut.

    This is the one place the cut convention lives: a positive end is cut at
    -c and its extremal winding is alpha_minus there, a negative end is cut at
    +c and read with alpha_plus.  `mu`, `parity` and `extremal` are the
    orbit's own (unsigned) values at the cut.  Each is asked of the catalog on
    first use and then kept, so a caller that needs no extremal winding makes
    no alpha query and no end is queried twice.
    """

    __slots__ = ("site", "sign", "orbit", "constraint", "cut", "_catalog", "_summary",
                 "_extremal")

    def __init__(self, catalog: Catalog, site, puncture: Puncture):
        self.site = site
        self.sign = puncture.sign
        self.orbit = puncture.orbit
        self.constraint = puncture.constraint
        self.cut = -self.constraint if puncture.sign == 1 else self.constraint
        self._catalog = catalog
        self._summary = None
        self._extremal = None

    def summary(self) -> SpectralSummary:
        if self._summary is None:
            self._summary = self._catalog.cz_index(self.orbit, self.cut)
        return self._summary

    @property
    def mu(self) -> int:
        return self.summary().mu_cz

    @property
    def parity(self) -> int:
        return self.summary().parity

    @property
    def extremal(self) -> int:
        if self._extremal is None:
            side = "minus" if self.sign == 1 else "plus"
            self._extremal = self._catalog.alpha(self.orbit, self.cut, side)
        return self._extremal


def ends(catalog: Catalog, building: Building) -> list[End]:
    """The external ends of a building, sorted by site, each under its inline
    constraint; every index and Chern-number formula is a sum over these."""
    return [End(catalog, site, building.puncture(site)) for site in building.external_sites()]


def _c1(building: Building) -> int:
    return sum(c.rel_c1 for c in building.components)


def _mu(rows: list[End]) -> int:
    return sum(e.sign * e.mu for e in rows)


def _index(building: Building, rows: list[End]) -> int:
    return -euler_char(building) + 2 * _c1(building) + _mu(rows)


def _parities(rows: list[End]) -> tuple[tuple[Site, ...], tuple[Site, ...]]:
    gamma0 = tuple(e.site for e in rows if e.parity == 0)
    return gamma0, tuple(e.site for e in rows if e.parity != 0)


def _chern(building: Building, rows: list[End]) -> int:
    """c_N from the ends, asserting 2c_N = ind - 2 + 2g + #even when connected."""
    chi = euler_char(building)
    cn = _c1(building) - chi + sum(e.sign * e.extremal for e in rows)
    if is_connected(building):
        ind = _index(building, rows)
        genus = (2 - len(rows) - chi) // 2  # arithmetic genus; 2 - n_ext - chi is even
        n_even = sum(1 for e in rows if e.parity == 0)
        if 2 * cn != ind - 2 + 2 * genus + n_even:
            raise InternalCheckError(
                f"normal Chern number {cn} violates 2c_N = ind - 2 + 2g + #even "
                f"(ind={ind}, g={genus}, #even={n_even})"
            )
    return cn


def cz_total(catalog: Catalog, building: Building) -> int:
    return _mu(ends(catalog, building))


def fredholm_index(catalog: Catalog, building: Building) -> int:
    return _index(building, ends(catalog, building))


def puncture_parities(catalog: Catalog, building: Building
                      ) -> tuple[tuple[Site, ...], tuple[Site, ...]]:
    """External punctures partitioned by constrained parity (even, odd)."""
    return _parities(ends(catalog, building))


def normal_chern(catalog: Catalog, building: Building) -> int:
    return _chern(building, ends(catalog, building))


@dataclass(frozen=True)
class DefectReport:
    """Asymptotic defects of a nontrivial component under its constraints."""

    per_puncture: tuple[tuple[Site, int], ...]
    total: int
    wind_pi: int  # supplied or implied by c_N - total defect


def defect(catalog: Catalog, building: Building, comp_id: str) -> DefectReport | None:
    """Per-puncture |extremal winding - controlling winding| for one component.

    The component is taken with its induced constraints (breaking punctures
    at zero).  Trivial and constant components have no defect; returns None.
    When the component declares wind_pi, wind_pi + total defect must equal its
    normal Chern number; otherwise the implied wind_pi must be nonnegative.
    """
    comp = building.component(comp_id)
    if comp.kind != "nontrivial":
        return None
    piece, _ = detach_component(building, comp_id)
    windings = _controlling_windings(comp)
    return _defect(piece, ends(catalog, piece), windings)


def _controlling_windings(comp) -> list[int]:
    missing = [(comp.id, i) for i, p in enumerate(comp.punctures) if p.controlling_winding is None]
    if missing:
        raise IncompleteInputError(
            f"component {comp.id!r} lacks controlling windings at {missing}",
            fields=[f"{site[0]}.punctures[{site[1]}].controlling_winding" for site in missing],
        )
    return [p.controlling_winding for p in comp.punctures]


def _defect(piece: Building, rows: list[End], windings: list[int]) -> DefectReport:
    """The defect report of a detached nontrivial component from its ends."""
    comp = piece.components[0]
    per = tuple((e.site, abs(e.extremal - w)) for e, w in zip(rows, windings))
    total = sum(d for _, d in per)
    cn = _chern(piece, rows)
    if comp.wind_pi is not None:
        if comp.wind_pi + total != cn:
            raise InconsistentDataError(
                f"component {comp.id!r}: wind_pi {comp.wind_pi} + defect {total} "
                f"!= c_N {cn}"
            )
        wind_pi = comp.wind_pi
    else:
        wind_pi = cn - total
        if wind_pi < 0:
            raise InconsistentDataError(
                f"component {comp.id!r}: defect {total} exceeds c_N {cn}, "
                "forcing wind_pi < 0"
            )
    return DefectReport(per_puncture=per, total=total, wind_pi=wind_pi)


@dataclass(frozen=True)
class ComponentReport:
    component: str
    induced_constraints: tuple[tuple[Site, float], ...]
    index: int
    c_n: int
    defect_total: int | None
    wind_pi_consistent: bool


@dataclass(frozen=True)
class AdditivityReport:
    index_total: int
    index_component_sum: int
    c_n_total: int
    c_n_component_sum: int
    breaking_parity_sum: int
    nodal_points: int

    @property
    def index_ok(self) -> bool:
        return self.index_total == self.index_component_sum + self.nodal_points

    @property
    def c_n_ok(self) -> bool:
        return self.c_n_total == (
            self.c_n_component_sum + self.breaking_parity_sum + self.nodal_points
        )


def component_reports(catalog: Catalog, building: Building) -> list[ComponentReport]:
    """Per-component index, c_N and defect, each from one pass over the ends
    of the detached component (breaking ends at zero, external ends at their
    inline constraints)."""
    out = []
    for comp in sorted(building.components, key=lambda c: c.id):
        piece, _ = detach_component(building, comp.id)
        piece_rows = ends(catalog, piece)
        ind = _index(piece, piece_rows)
        cn = _chern(piece, piece_rows)
        defect_total = None
        consistent = True
        if comp.kind == "nontrivial":
            try:
                windings = _controlling_windings(comp)
                defect_total = _defect(piece, piece_rows, windings).total
            except IncompleteInputError:
                pass
            except InconsistentDataError:
                consistent = False
        out.append(
            ComponentReport(
                component=comp.id,
                induced_constraints=tuple((e.site, e.constraint) for e in piece_rows),
                index=ind,
                c_n=cn,
                defect_total=defect_total,
                wind_pi_consistent=consistent,
            )
        )
    return out


def verify_additivity(catalog: Catalog, building: Building) -> AdditivityReport:
    """Check index and c_N additivity over components exactly; mismatches are
    internal errors (these are theorems, not data checks)."""
    reports = component_reports(catalog, building)
    parity_sum = 0
    for pos_site, _ in building.breaking_pairs:
        parity_sum += catalog.parity(building.puncture(pos_site).orbit)
    report = AdditivityReport(
        index_total=fredholm_index(catalog, building),
        index_component_sum=sum(r.index for r in reports),
        c_n_total=normal_chern(catalog, building),
        c_n_component_sum=sum(r.c_n for r in reports),
        breaking_parity_sum=parity_sum,
        nodal_points=2 * len(building.nodal_pairs),
    )
    if not report.index_ok:
        raise InternalCheckError(
            f"index additivity failed: {report.index_total} != "
            f"{report.index_component_sum} + {report.nodal_points}"
        )
    if not report.c_n_ok:
        raise InternalCheckError(
            f"c_N additivity failed: {report.c_n_total} != "
            f"{report.c_n_component_sum} + {report.breaking_parity_sum} "
            f"+ {report.nodal_points}"
        )
    return report


@dataclass(frozen=True)
class IndexReport:
    """Everything the `index` CLI subcommand prints."""

    chi: int
    genus: int | None
    c1_total: int
    mu_total: int
    index: int
    c_n: int
    gamma0: tuple[Site, ...]
    gamma1: tuple[Site, ...]
    per_component: tuple[ComponentReport, ...]


def index_report(catalog: Catalog, building: Building) -> IndexReport:
    rows = ends(catalog, building)
    gamma0, gamma1 = _parities(rows)
    return IndexReport(
        chi=euler_char(building),
        genus=arithmetic_genus(building) if is_connected(building) else None,
        c1_total=_c1(building),
        mu_total=_mu(rows),
        index=_index(building, rows),
        c_n=_chern(building, rows),
        gamma0=gamma0,
        gamma1=gamma1,
        per_component=tuple(component_reports(catalog, building)),
    )
