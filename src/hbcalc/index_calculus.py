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

Every formula is a sum over rows of `ends`, one per puncture with its signed
cut, CZ index, parity and extremal winding.  What the entry points compute of
one building is one `Analysis`: its rows, chi, c1, genus, index and c_N, per
component a `Part` (built with the analysis: the component and the rows of
its punctures) with that component's induced index, c_N and defect, and the
building's sorted nice-building violations once a check has asked for them
(`hbcalc.degeneration`).  The building's sums read the rows of its external
punctures, and a part reads the rows of its component's punctures, the same
objects; so each end is read once, whichever entry points run.  The catalog
keeps the analysis of the last building it was asked about, keyed by
identity; a building made inside a check (the core) is analysed outside that
slot.  Each end is read
under the constraint stored on its puncture (zero at a breaking puncture): to
evaluate a building under other constraints, override them with
`buildings.set_constraints` first.  The reports (`DefectReport`,
`ComponentReport`, `AdditivityReport`, `IndexReport`) are immutable
NamedTuples of their values.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .buildings import (
    Building,
    Component,
    Puncture,
    Site,
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
    orbit's own (unsigned) values at the cut, all read from one spectral
    summary, asked of the catalog on first use and then kept, so no end is
    queried twice.
    """

    __slots__ = ("site", "sign", "orbit", "constraint", "cut", "_catalog", "_summary")

    def __init__(self, catalog: Catalog, site, puncture: Puncture):
        self.site = site
        self.sign = puncture.sign
        self.orbit = puncture.orbit
        self.constraint = puncture.constraint
        self.cut = -self.constraint if puncture.sign == 1 else self.constraint
        self._catalog = catalog
        self._summary = None

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
        summary = self.summary()
        return summary.alpha_minus if self.sign == 1 else summary.alpha_plus


def ends(catalog: Catalog, building: Building) -> dict[Site, End]:
    """One row per puncture of a building, keyed by site, each under its inline
    constraint; every index and Chern-number formula is a sum over these."""
    return {(comp.id, i): End(catalog, (comp.id, i), p)
            for comp in building.components for i, p in enumerate(comp.punctures)}


def _mu(rows: list[End]) -> int:
    return sum(e.sign * e.mu for e in rows)


class DefectReport(NamedTuple):
    """Asymptotic defects of a nontrivial component under its constraints."""

    per_puncture: tuple[tuple[Site, int], ...]
    total: int
    wind_pi: int  # supplied or implied by c_N - total defect


class _Sums:
    """Index and c_N of a surface from its rows, chi, c1 and genus (None when
    the surface is disconnected), each value on first use.

    A value is kept only once it has been computed without raising
    (cached_property keeps nothing when its function raises), so a failed call
    fails again, at the same point, when it is asked again; whatever order the
    entry points come in, each computes what it reads in its own order.
    """

    @cached_property
    def index(self) -> int:
        return -self.chi + 2 * self.c1 + _mu(self.rows)

    @cached_property
    def c_n(self) -> int:
        """c_N from the ends, asserting 2c_N = ind - 2 + 2g + #even when connected."""
        cn = self.c1 - self.chi + sum(e.sign * e.extremal for e in self.rows)
        if self.genus is not None:
            ind = self.index
            n_even = sum(1 for e in self.rows if e.parity == 0)
            if 2 * cn != ind - 2 + 2 * self.genus + n_even:
                raise InternalCheckError(
                    f"normal Chern number {cn} violates 2c_N = ind - 2 + 2g + #even "
                    f"(ind={ind}, g={self.genus}, #even={n_even})"
                )
        return cn


class Part(_Sums):
    """One component of an analysed building taken on its own: breaking pairs
    severed, nodes dropped.  `rows` are the building's rows of its punctures,
    in puncture order (a breaking end is read at its zero constraint)."""

    def __init__(self, comp: Component, rows: list[End]):
        self.comp = comp
        self.rows = rows
        self.chi = 2 - 2 * comp.genus - len(rows)
        self.c1 = comp.rel_c1
        self.genus = comp.genus

    @cached_property
    def defect(self) -> DefectReport:
        """The defect report of a nontrivial component."""
        comp = self.comp
        missing = [(comp.id, i) for i, p in enumerate(comp.punctures)
                   if p.controlling_winding is None]
        if missing:
            raise IncompleteInputError(
                f"component {comp.id!r} lacks controlling windings at {missing}",
                sites=missing,
            )
        per = tuple((e.site, abs(e.extremal - p.controlling_winding))
                    for e, p in zip(self.rows, comp.punctures))
        total = sum(d for _, d in per)
        cn = self.c_n
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


class Analysis(_Sums):
    """What the index layer computes of one building.

    `table` holds one row per puncture, keyed by site, `chi` and `c1` are the
    building's, and `part(cid)` is the `Part` of one component, read through
    the table's rows of its punctures; these are made with the analysis, and
    the rest on first use: `rows` are the external ends, sorted by site,
    `genus` the arithmetic genus, `index` and `c_n` the building's Fredholm
    index and normal Chern number, and `reports` the per-component reports.
    `nice` holds the sorted nice-building violations once a check has run
    them without raising, and is None until then.
    """

    def __init__(self, catalog: Catalog, building: Building):
        self.building = building
        self.table = ends(catalog, building)
        self.chi = euler_char(building)
        self.c1 = sum(c.rel_c1 for c in building.components)
        self._parts = {comp.id: Part(comp, [self.table[(comp.id, i)]
                                            for i in range(len(comp.punctures))])
                       for comp in building.components}
        self.nice = None

    @cached_property
    def rows(self) -> list[End]:
        return [self.table[site] for site in self.building.external_sites()]

    @cached_property
    def genus(self) -> int | None:
        """Arithmetic genus of the glued surface; None when it is disconnected."""
        return (2 - len(self.rows) - self.chi) // 2 if is_connected(self.building) else None

    def part(self, cid: str) -> Part:
        """Component `cid` on its own, read through the building's rows."""
        return self._parts[cid]

    @cached_property
    def reports(self) -> tuple[ComponentReport, ...]:
        """Per-component index, c_N and defect, by component id."""
        return tuple(self._report(comp)
                     for comp in sorted(self.building.components, key=lambda c: c.id))

    def _report(self, comp: Component) -> ComponentReport:
        part = self.part(comp.id)
        ind, cn = part.index, part.c_n
        defect_total = None
        consistent = True
        if comp.kind == "nontrivial":
            try:
                defect_total = part.defect.total
            except IncompleteInputError:
                pass
            except InconsistentDataError:
                consistent = False
        return ComponentReport(
            component=comp.id,
            induced_constraints=tuple((e.site, e.constraint) for e in part.rows),
            index=ind,
            c_n=cn,
            defect_total=defect_total,
            wind_pi_consistent=consistent,
        )


def _analysis(catalog: Catalog, building: Building) -> Analysis:
    """The catalog's analysis of this very building (not of an equal one); an
    analysis of another building in the slot is replaced."""
    record = catalog._analysis[0]  # read once: another reader may replace it meanwhile
    if record is None or record.building is not building:
        record = catalog._analysis[0] = Analysis(catalog, building)
    return record


def fredholm_index(catalog: Catalog, building: Building) -> int:
    return _analysis(catalog, building).index


def normal_chern(catalog: Catalog, building: Building) -> int:
    return _analysis(catalog, building).c_n


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
    return _analysis(catalog, building).part(comp_id).defect


class ComponentReport(NamedTuple):
    component: str
    induced_constraints: tuple[tuple[Site, float], ...]
    index: int
    c_n: int
    defect_total: int | None
    wind_pi_consistent: bool


class AdditivityReport(NamedTuple):
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
    """Per-component index, c_N and defect, each from the rows of the
    component's punctures (breaking ends at zero, external ends at their
    inline constraints)."""
    return list(_analysis(catalog, building).reports)


def verify_additivity(catalog: Catalog, building: Building) -> AdditivityReport:
    """Check index and c_N additivity over components exactly; mismatches are
    internal errors (these are theorems, not data checks)."""
    reports = component_reports(catalog, building)
    record = _analysis(catalog, building)
    # a breaking orbit's parity is that of the row of its positive breaking end
    # (cut 0), which the reports have read
    parity_sum = sum(record.table[pos].parity for pos, _ in building.breaking_pairs)
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


class IndexReport(NamedTuple):
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
    record = _analysis(catalog, building)
    rows = record.rows
    return IndexReport(
        chi=record.chi,
        genus=record.genus,
        c1_total=record.c1,
        mu_total=_mu(rows),
        index=record.index,
        c_n=record.c_n,
        gamma0=tuple(e.site for e in rows if e.parity == 0),
        gamma1=tuple(e.site for e in rows if e.parity != 0),
        per_component=tuple(component_reports(catalog, building)),
    )
