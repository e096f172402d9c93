import sys
import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from hbcalc import index_calculus as ic
from hbcalc.buildings import (
    Building,
    Component,
    Puncture,
    add_node,
    augment,
    core,
    disjoint_union,
    is_connected,
    set_constraints,
)
from hbcalc.cli import load_asymptotics, load_building, load_catalog
from hbcalc.degeneration import (
    Asymptotics,
    classify_stable_limit,
    enumerate_limits,
    validate_nice,
)
from hbcalc.errors import BuildingError, HbcalcError, InconsistentDataError, IncompleteInputError
from hbcalc.orbits import Catalog, OrbitRef

import support
from support import FIXTURES, arithmetic_genus, random_building, safe_constraint

RP = OrbitRef("rot_p")
RM = OrbitRef("rot_m")
R3 = OrbitRef("rot3")
HE = OrbitRef("hyp_even")
H2 = OrbitRef("hyp2")


def tcyl(cid, orbit):
    return Component(cid, 0, (Puncture(1, orbit), Puncture(-1, orbit)), kind="trivial")


@pytest.fixture(scope="module")
def cat(fixture_catalog):
    return fixture_catalog


class TestCzTotal:
    def test_trivial_cylinder_cancels(self, cat):
        b = Building(components=(tcyl("t", HE),))
        assert ic.index_report(cat, b).mu_total == 0

    def test_plane_at_rotation_orbit(self, cat):
        b = Building(components=(Component("p", 0, (Puncture(1, RP),)),))
        assert ic.index_report(cat, b).mu_total == 1

    def test_constrained_plane(self, cat):
        b = Building(components=(Component("p", 0, (Puncture(1, RP),)),))
        assert ic.index_report(cat, set_constraints(b, {("p", 0): 2.0})).mu_total == -1


class TestFredholmIndex:
    def test_trivial_cylinder(self, cat):
        assert ic.fredholm_index(cat, Building(components=(tcyl("t", HE),))) == 0

    def test_plane_at_mu2_orbit(self, cat):
        b = Building(components=(Component("p", 0, (Puncture(1, H2),)),))
        assert ic.fredholm_index(cat, b) == 1

    def test_cylinder_mu3_over_mu1(self, cat):
        b = Building(
            components=(Component("c", 0, (Puncture(1, R3), Puncture(-1, RP))),)
        )
        assert ic.fredholm_index(cat, b) == 2


class TestNormalChern:
    def test_trivial_cylinder_even_orbit(self, cat):
        assert ic.normal_chern(cat, Building(components=(tcyl("t", HE),))) == 0

    def test_index_one_plane(self, cat):
        b = Building(components=(Component("p", 0, (Puncture(1, H2),)),))
        assert ic.normal_chern(cat, b) == 0

    def test_index_two_cylinder(self, cat):
        b = Building(
            components=(Component("c", 0, (Puncture(1, R3), Puncture(-1, RP))),)
        )
        assert ic.normal_chern(cat, b) == 0


class TestParities:
    def test_plane_at_even_orbit(self, cat):
        b = Building(components=(Component("p", 0, (Puncture(1, H2),)),))
        report = ic.index_report(cat, b)
        assert report.gamma0 == (("p", 0),)
        assert report.gamma1 == ()

    def test_rotation_puncture_is_odd(self, cat):
        b = Building(components=(Component("p", 0, (Puncture(1, RP),)),))
        assert ic.index_report(cat, b).gamma1 == (("p", 0),)

    def test_constraint_keeps_rotation_odd(self, cat):
        # mu(gamma; 2) = -1: crossing a double eigenvalue preserves parity
        b = Building(components=(Component("p", 0, (Puncture(1, RP),)),))
        report = ic.index_report(cat, set_constraints(b, {("p", 0): 2.0}))
        assert report.gamma1 == (("p", 0),)


class TestDefect:
    def test_extremal_controlling_winding(self, cat):
        comp = Component("v", 0, (Puncture(1, H2, controlling_winding=1),), wind_pi=0)
        report = ic.defect(cat, Building(components=(comp,)), "v")
        assert report.total == 0
        assert report.per_puncture == ((("v", 0), 0),)

    def test_positive_defect(self, cat):
        # alpha_minus(rot3) = 1; controlling winding 0 gives defect 1, and
        # c_N = alpha_minus(rot3) - alpha_plus(rot_m) = 1 absorbs it
        comp = Component(
            "v",
            0,
            (Puncture(1, R3, controlling_winding=0), Puncture(-1, RM, controlling_winding=0)),
        )
        report = ic.defect(cat, Building(components=(comp,)), "v")
        assert dict(report.per_puncture) == {("v", 0): 1, ("v", 1): 0}
        assert report.total == 1
        assert report.wind_pi == 0

    def test_defect_exceeding_c_n_rejected(self, cat):
        comp = Component("v", 0, (Puncture(1, H2, controlling_winding=0),))
        with pytest.raises(InconsistentDataError, match="wind_pi"):
            ic.defect(cat, Building(components=(comp,)), "v")

    def test_missing_controlling_winding(self, cat):
        comp = Component("v", 0, (Puncture(1, H2),))
        with pytest.raises(IncompleteInputError) as err:
            ic.defect(cat, Building(components=(comp,)), "v")
        assert err.value.sites == (("v", 0),)

    def test_trivial_component_not_applicable(self, cat):
        b = Building(components=(tcyl("t", HE),))
        assert ic.defect(cat, b, "t") is None


class TestAdditivity:
    def test_two_component_chain_by_hand(self, cat):
        top = Component("top", 0, (Puncture(1, RP), Puncture(-1, HE)))
        bottom = Component("bot", 0, (Puncture(1, HE),))
        b = Building(
            components=(top, bottom), breaking_pairs=((("bot", 0), ("top", 1)),)
        )
        report = ic.verify_additivity(cat, b)
        assert report.index_total == 0
        assert report.index_component_sum == 1 + (-1)
        assert report.c_n_total == -1
        assert report.c_n_component_sum == 0 + (-1)
        assert report.breaking_parity_sum == 0
        assert report.nodal_points == 0

    def test_augment_leaves_report_invariant(self, cat):
        top = Component("top", 0, (Puncture(1, RP), Puncture(-1, HE)))
        bottom = Component("bot", 0, (Puncture(1, HE),))
        b = Building(
            components=(top, bottom), breaking_pairs=((("bot", 0), ("top", 1)),)
        )
        out = augment(b, ("top", 0))
        assert ic.fredholm_index(cat, out) == ic.fredholm_index(cat, b)
        assert ic.normal_chern(cat, out) == ic.normal_chern(cat, b)

    def test_add_node_shifts(self, cat):
        top = Component("top", 0, (Puncture(1, RP), Puncture(-1, HE)))
        bottom = Component("bot", 0, (Puncture(1, HE),))
        b = Building(
            components=(top, bottom), breaking_pairs=((("bot", 0), ("top", 1)),)
        )
        noded = add_node(b, "top", "bot")
        assert ic.fredholm_index(cat, noded) == ic.fredholm_index(cat, b) + 2
        assert ic.normal_chern(cat, noded) == ic.normal_chern(cat, b) + 2
        ic.verify_additivity(cat, noded)


class TestIndexReport:
    def test_cnindex_identity_in_report(self, cat):
        b = Building(
            components=(Component("c", 0, (Puncture(1, R3), Puncture(-1, RP))),)
        )
        report = ic.index_report(cat, b)
        assert 2 * report.c_n == report.index - 2 + 2 * report.genus + len(report.gamma0)

    def test_disconnected_building_has_no_genus(self, cat):
        b = Building(components=(tcyl("a", HE), tcyl("b", HE)))
        report = ic.index_report(cat, b)
        assert report.genus is None
        assert report.index == 0


class TestRandomCorpus:
    def test_identities_on_random_buildings(self, cat):
        rng = np.random.default_rng(42)
        for _ in range(120):
            b = random_building(rng, cat)
            report = ic.verify_additivity(cat, b)
            assert report.index_ok and report.c_n_ok
            ind = ic.fredholm_index(cat, b)
            gamma0 = ic.index_report(cat, b).gamma0
            genus = arithmetic_genus(b)
            assert 2 * ic.normal_chern(cat, b) == ind - 2 + 2 * genus + len(gamma0)
            # per-component index parity: ind + #even is even
            for comp_report in ic.component_reports(cat, b):
                piece_gamma0 = sum(
                    1
                    for (site, c) in comp_report.induced_constraints
                    if cat.cz_index(
                        b.puncture(site).orbit,
                        -c if b.puncture(site).sign == 1 else c,
                    ).parity
                    == 0
                )
                assert (comp_report.index + piece_gamma0) % 2 == 0


class TestAnalysisGenus:
    """`Analysis.genus` reads the chi and external rows the analysis holds:
    `arithmetic_genus` on a connected building, None on a disconnected one."""

    def test_equals_arithmetic_genus_on_the_corpora(self, cat):
        cases = list(fixture_cases())
        cases += [(cat, b) for b, _ in random_cases(cat, 30, 29)]
        rng = np.random.default_rng(31)
        for _chi, _genus2, _n_ext, (combo, edges) in support.iter_trivial_buildings(3, 3, 1):
            if rng.random() < 0.05:
                cases.append((cat, support.build_trivial_building(combo, edges, RP)))
        checked = 0
        for catalog, b in cases:
            try:
                analysis = ic.Analysis(catalog, b)
            except HbcalcError:  # an orbit the catalog lacks: no analysis to read
                continue
            assert analysis.genus == arithmetic_genus(b), b
            checked += 1
        assert checked > 200

    def test_none_on_a_disconnected_building(self, cat):
        rng = np.random.default_rng(37)
        pieces = [Building(components=(tcyl("t", RP),))]
        pieces += [random_building(rng, cat) for _ in range(6)]
        for a, b in zip(pieces, pieces[1:]):
            union = disjoint_union(a, b)
            assert not is_connected(union)
            with pytest.raises(BuildingError, match="connected buildings only"):
                arithmetic_genus(union)
            assert ic.Analysis(cat, union).genus is None


# --- the single ends pass against the per-function formulas --------------------


def outcome(fn, *args):
    """A call's value, or the class of the exception it raised."""
    try:
        return ("value", fn(*args))
    except HbcalcError as exc:
        return ("raised", type(exc))


def constraint_map(rng, catalog, building):
    """Safe constraints on a random half of the external sites (None if none)."""
    sites = [s for s in building.external_sites() if rng.random() < 0.5]
    return {s: safe_constraint(catalog, building.puncture(s).orbit, rng) for s in sites} or None


def with_windings(rng, building):
    """The building with random controlling windings and wind_pi on its
    nontrivial components, so that defects come out as values or as
    inconsistencies."""
    comps = []
    for comp in building.components:
        if comp.kind == "nontrivial":
            punctures = tuple(replace(p, controlling_winding=int(rng.integers(-2, 3)))
                              for p in comp.punctures)
            wind_pi = [None, 0, 1][int(rng.integers(3))]
            comp = replace(comp, punctures=punctures, wind_pi=wind_pi)
        comps.append(comp)
    return replace(building, components=tuple(comps))


def variants(rng, building):
    """The building with and without controlling windings, augmented at a
    breaking pair and at an external site, and noded."""
    building = with_windings(rng, building) if rng.random() < 0.5 else building
    out = [building]
    if building.breaking_pairs:
        out.append(augment(building, int(rng.integers(len(building.breaking_pairs)))))
    external = building.external_sites()
    if external:
        out.append(augment(building, external[int(rng.integers(len(external)))]))
    ids = [c.id for c in building.components]
    out.append(add_node(building, str(rng.choice(ids)), str(rng.choice(ids))))
    return out


def fixture_cases():
    for cat_name in ("catalog_demo.json", "catalog_fixture.json", "catalog_table.json"):
        catalog = load_catalog(str(FIXTURES / cat_name))
        for b_name in ("building_cylinder.json", "building_figure3.json",
                       "building_fig3_oddbreak.json"):
            yield catalog, load_building(str(FIXTURES / b_name))


def random_cases(catalog, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        for b in variants(rng, random_building(rng, catalog)):
            yield b, None
            yield b, constraint_map(rng, catalog, b)


PAIRS = [
    (ic.fredholm_index, support.reference_fredholm_index),
    (ic.normal_chern, support.reference_normal_chern),
    (ic.component_reports, support.reference_component_reports),
    (ic.verify_additivity, support.reference_verify_additivity),
    (ic.index_report, support.reference_index_report),
]


def assert_same_as_reference(catalog, building, constraints):
    """The single pass on the building with the map set inline agrees with the
    per-function formulas given the map."""
    inline = set_constraints(building, constraints)
    for new, old in PAIRS:
        assert outcome(new, catalog, inline) == outcome(
            old, catalog, building, constraints), (new.__name__, building, constraints)
    for comp in building.components:
        assert outcome(ic.defect, catalog, inline, comp.id) == outcome(
            support.reference_defect, catalog, building, comp.id, constraints), comp.id


class TestEndsOracle:
    def test_fixtures(self):
        for catalog, building in fixture_cases():
            assert_same_as_reference(catalog, building, None)

    def test_random_buildings_and_variants(self, cat):
        for building, constraints in random_cases(cat, 150, 4):
            assert_same_as_reference(cat, building, constraints)

    def test_rejected_constraint_maps(self, cat):
        # set_constraints rejects each map with the class the per-function
        # formulas raised for it; the old defect ignored such keys, a behaviour
        # of the override map alone, so it is not compared here
        b = Building(components=(Component("p", 0, (Puncture(1, RP),)),))
        for bad in ({("p", 1): 1.0}, {("p", 0): -1.0}):
            with pytest.raises(BuildingError):
                set_constraints(b, bad)
            for _, old in PAIRS:
                assert outcome(old, cat, b, bad) == ("raised", BuildingError), old.__name__

    def test_signed_cut_rule(self, cat):
        pos, neg = Puncture(1, RP, 2.0), Puncture(-1, RP, 2.0)
        a = ic.End(cat, ("p", 0), pos)
        b = ic.End(cat, ("n", 0), neg)
        assert (a.cut, b.cut) == (-2.0, 2.0)
        assert a.extremal == cat.cz_index(RP, -2.0).alpha_minus
        assert b.extremal == cat.cz_index(RP, 2.0).alpha_plus
        assert (a.mu, a.parity) == (cat.cz_index(RP, -2.0).mu_cz, cat.cz_index(RP, -2.0).parity)


#: The catalog's spectral queries: the summary at a cut and the table under it.
SPECTRAL_QUERIES = ("cz_index", "table")


def queried(catalog, fn, *args):
    """Whether fn raised (and what), and the spectral memo keys it created,
    from an empty analysis slot."""
    catalog._summaries.clear()
    catalog._analysis[0] = None
    kind, value = outcome(fn, catalog, *args)
    return (value if kind == "raised" else None), set(catalog._summaries)


class TestEndsQueries:
    """The single pass asks the catalog nothing the per-function formulas did
    not (so it adds no error path), and drops nothing they asked."""

    def cases(self, cat):
        yield from fixture_cases()
        # a constrained end moved onto a trivial cylinder: the core moves the
        # constraint back, so a broken-pair side reads a cut that no component
        # of the building itself reads
        for catalog, building in fixture_cases():
            for site in building.external_sites():
                yield catalog, augment(set_constraints(building, {site: 0.1}), site)
        for building, _ in random_cases(cat, 25, 11):
            yield cat, building

    def test_building_entry_points(self, cat):
        for catalog, building in self.cases(cat):
            assert queried(catalog, ic.index_report, building) == queried(
                catalog, support.reference_index_report, building)
            assert queried(catalog, validate_nice, building) == queried(
                catalog, support.reference_nice_queries, building)
            if is_connected(building):
                assert queried(catalog, classify_stable_limit, building) == queried(
                    catalog, support.reference_classify_queries, building)

    def test_enumerate(self, cat):
        asymptotics = load_asymptotics(str(FIXTURES / "asymptotics_demo.json"))
        rng = np.random.default_rng(5)
        corpus = [asymptotics]
        for _ in range(20):
            comp = random_building(rng, cat, max_components=1).components[0]
            corpus.append(Asymptotics(punctures=comp.punctures))
        for catalog, _ in list(fixture_cases())[::3]:
            for curve in corpus:
                assert queried(catalog, enumerate_limits, curve) == queried(
                    catalog, support.reference_enumerate_limits, curve)

    def test_index_report_asks_once_per_end(self, cat, monkeypatch):
        building = random_building(np.random.default_rng(8), cat, max_components=6)
        ic.index_report(cat, building)  # warm
        calls = Counter()
        for name in SPECTRAL_QUERIES:
            real = getattr(Catalog, name)
            monkeypatch.setattr(Catalog, name, lambda self, *a, _real=real, _name=name: (
                calls.update([_name]) or _real(self, *a)))
        real_ends = ic.ends
        monkeypatch.setattr(ic, "ends", lambda *a: calls.update(["ends"]) or real_ends(*a))
        cat._analysis[0] = None  # the warm call's analysis would answer without asking
        ic.index_report(cat, building)
        # one row per puncture, shared by the building's sums and its components'
        punctures = sum(len(c.punctures) for c in building.components)
        assert calls == Counter(cz_index=punctures, ends=1)


# --- the per-building analysis ------------------------------------------------


def entry_points(building):
    """The eight entry points that read the catalog's analysis of a building,
    as (name, call taking the catalog and the building); defect once per
    component."""
    calls = [("index_report", ic.index_report), ("component_reports", ic.component_reports),
             ("verify_additivity", ic.verify_additivity), ("fredholm_index", ic.fredholm_index),
             ("normal_chern", ic.normal_chern), ("validate_nice", validate_nice),
             ("classify_stable_limit", classify_stable_limit)]
    calls += [(f"defect:{c.id}", lambda catalog, b, cid=c.id: ic.defect(catalog, b, cid))
              for c in building.components]
    return calls


def full_outcome(call, catalog, building):
    """A call's value, or the class and message of the exception it raised."""
    try:
        return ("value", call(catalog, building))
    except HbcalcError as exc:
        return ("raised", type(exc), str(exc))


def cold_outcomes(catalog, building) -> dict:
    """Each entry point's outcome from an empty analysis slot."""
    out = {}
    for name, call in entry_points(building):
        catalog._analysis[0] = None
        out[name] = full_outcome(call, catalog, building)
    return out


def mutants(catalog):
    """Figure 3 with a missing controlling winding, an inconsistent wind_pi,
    split into two pieces, noded to a plane over an unknown orbit, and with
    an external constraint whose cut is an eigenvalue."""
    b = load_building(str(FIXTURES / "building_figure3.json"))
    comps = {c.id: c for c in b.components}

    def with_component(comp):
        return replace(b, components=tuple(comp if c.id == comp.id else c
                                           for c in b.components))

    top = comps["main_top"]
    yield with_component(replace(top, punctures=(
        replace(top.punctures[0], controlling_winding=None),) + top.punctures[1:]))
    yield with_component(replace(comps["main_bot"], wind_pi=1))
    yield replace(b, breaking_pairs=b.breaking_pairs[:1] + b.breaking_pairs[2:])
    lost = Component("lost", 0, (Puncture(1, OrbitRef("nowhere"), controlling_winding=0),),
                     wind_pi=0)
    yield replace(b, components=b.components + (lost,), nodal_pairs=(("lost", "main_top"),))
    eigenvalue = min(e.eigenvalue for e in catalog.table(RP, 6.0).entries if e.eigenvalue < 0)
    yield set_constraints(b, {("cyl_top", 0): -eigenvalue})  # the cut -c is the eigenvalue


class TestAnalysisRecord:
    """The catalog keeps its analysis of the last building it was asked about
    (by identity); every entry point reads it and still returns or raises
    what it does from an empty slot."""

    def corpus(self, cat):
        for catalog, building in fixture_cases():
            yield catalog, building
        for building in mutants(cat):
            yield cat, building
        for building, constraints in random_cases(cat, 40, 21):
            yield cat, set_constraints(building, constraints)

    def test_mutants_fail_where_expected(self, cat):
        raised = [{name: o[1].__name__ for name, o in cold_outcomes(cat, b).items()
                   if o[0] == "raised"} for b in mutants(cat)]
        nice = ("validate_nice", "classify_stable_limit")
        index = ("index_report", "component_reports", "verify_additivity", "fredholm_index",
                 "normal_chern")
        assert raised[0] == dict.fromkeys(nice + ("defect:main_top",), "IncompleteInputError")
        assert raised[1] == dict.fromkeys(nice + ("defect:main_bot",), "InconsistentDataError")
        assert raised[2] == {"classify_stable_limit": "BuildingError"}
        assert raised[3] == dict.fromkeys(index + nice + ("defect:lost",), "UnknownOrbitError")
        assert raised[4] == dict.fromkeys(index + nice[1:], "DegenerateThresholdError")

    def test_any_order_matches_a_cold_call(self, cat):
        rng = np.random.default_rng(7)
        for catalog, building in self.corpus(cat):
            cold = cold_outcomes(catalog, building)
            names = list(cold)
            orders = [names, names[::-1]] + [list(rng.permutation(names)) for _ in range(2)]
            calls = dict(entry_points(building))
            for order in orders:
                catalog._analysis[0] = None
                for name in order:
                    assert full_outcome(calls[name], catalog, building) == cold[name], (
                        name, order, building)
                    # repeated, a call is answered by what the analysis kept
                    assert full_outcome(calls[name], catalog, building) == cold[name], name

    def test_index_report_answers_the_other_entry_points(self, cat, monkeypatch):
        # after index_report every end of the building and of its components is
        # read: the index entry points ask the catalog nothing, and the nice and
        # stable-limit checks ask only what lies outside the analysis, the parity
        # and bad-double tests of breaking orbits (cut 0) and the ends of the
        # sides of a two-component core
        log = []
        for name in SPECTRAL_QUERIES:
            real = getattr(Catalog, name)
            monkeypatch.setattr(Catalog, name, lambda self, *a, _real=real, _name=name: (
                log.append((_name, *a)) or _real(self, *a)))
        real_ends = ic.ends
        monkeypatch.setattr(ic, "ends", lambda catalog, b: log.append(("ends", b)) or
                            real_ends(catalog, b))
        seen = 0
        for catalog, building in self.corpus(cat):
            catalog._analysis[0] = None
            log.clear()
            if full_outcome(ic.index_report, catalog, building)[0] == "raised":
                continue
            analysed = {id(b) for kind, b, *_ in log if kind == "ends"}
            assert analysed == {id(building)}
            halves = {ref for _, neg in building.breaking_pairs
                      for ref in (building.puncture(neg).orbit,
                                  OrbitRef(building.puncture(neg).orbit.simple, 1))}
            for name, call in entry_points(building)[1:]:
                log.clear()
                full_outcome(call, catalog, building)
                if name not in ("validate_nice", "classify_stable_limit"):
                    assert log == [], name
                    continue
                ends_on = [b for kind, b, *_ in log if kind == "ends"]
                assert not any(id(b) in analysed for b in ends_on), name
                if name == "validate_nice":
                    # Catalog.parity and is_bad: cz_index(ref, 0.0) of a breaking
                    # orbit or of its simple orbit, and the table of a new one
                    assert ends_on == [], name
                    assert all(a[1] in halves and (a[0] == "table" or a[2:] == (0.0,))
                               for a in log), log
                else:
                    # one analysis of a two-component core, for both sides
                    assert len(ends_on) in (0, 1) and all(len(b.components) == 2
                                                          for b in ends_on)
            seen += 1
        assert seen > 20

    def test_one_row_per_puncture(self, cat, monkeypatch):
        # a component's part reads the building's rows, the very objects of its
        # external ends, and the four checks build no Building but the core
        built = []
        real_post_init = Building.__post_init__
        monkeypatch.setattr(Building, "__post_init__",
                            lambda b: built.append(b) or real_post_init(b))
        checks = (ic.index_report, ic.verify_additivity, validate_nice, classify_stable_limit)
        cores = 0
        for catalog, building in self.corpus(cat):
            catalog._analysis[0] = None
            built.clear()
            for check in checks:
                full_outcome(check, catalog, building)
            record = catalog._analysis[0]
            assert record.building is building
            assert [id(e) for e in record.rows] == [
                id(record.part(cid).rows[i]) for cid, i in building.external_sites()]
            for comp in building.components:
                part = record.part(comp.id)
                assert part.comp is comp
                assert [e.site for e in part.rows] == [(comp.id, i)
                                                       for i in range(len(comp.punctures))]
                assert all(e is record.table[e.site] for e in part.rows)
            if built:
                cores += 1
                assert len(built) == 1 and built[0] == core(building)
        assert cores > 0

    def test_the_slot_is_keyed_by_identity(self, cat):
        building = load_building(str(FIXTURES / "building_figure3.json"))
        ic.index_report(cat, building)
        record = cat._analysis[0]
        assert record.building is building
        classify_stable_limit(cat, building)  # the core and its sides leave the slot alone
        validate_nice(cat, building)
        assert cat._analysis[0] is record
        equal = replace(building)
        assert equal == building and equal is not building
        assert ic.fredholm_index(cat, equal) == record.index
        assert cat._analysis[0] is not record and cat._analysis[0].building is equal
        other = Catalog([cat.orbit(i) for i in cat.ids()])
        assert ic.normal_chern(other, building) == record.c_n
        assert other._analysis[0].building is building
        assert cat._analysis[0].building is equal

    def test_concurrent_readers_agree(self):
        # four threads call every entry point on two buildings of one catalog in
        # turn, so they keep replacing each other's analysis in its slot
        rounds = 20
        catalog = load_catalog(str(FIXTURES / "catalog_fixture.json"))
        buildings = [load_building(str(FIXTURES / name))
                     for name in ("building_figure3.json", "building_fig3_oddbreak.json")]
        want = [cold_outcomes(catalog, b) for b in buildings]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(2):
                catalog._analysis[0] = None
                got = []

                def read(offset):
                    for j in range(rounds):
                        i = (j + offset) % 2
                        for name, call in entry_points(buildings[i]):
                            got.append((i, name, full_outcome(call, catalog, buildings[i])))

                threads = [threading.Thread(target=read, args=(offset,))
                           for offset in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert len(got) == 4 * rounds // 2 * (len(want[0]) + len(want[1]))
                assert all(outcome == want[i][name] for i, name, outcome in got)
        finally:
            sys.setswitchinterval(interval)
