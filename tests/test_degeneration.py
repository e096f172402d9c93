import itertools
import json
import math
import time

import numpy as np
import pytest

from hbcalc.buildings import (
    Building,
    Component,
    Puncture,
    add_node,
    euler_char,
    maximal_trivial_subbuildings,
    subbuilding,
)
from hbcalc import degeneration as dg
from hbcalc import index_calculus as ic
from hbcalc.cli import load_asymptotics, load_building, load_catalog, main
from hbcalc.errors import HbcalcError, IncompleteInputError, InputError, OutputBudgetError
from hbcalc.orbits import OrbitRef

import support
from support import FIXTURES

RP = OrbitRef("rot_p")
RM = OrbitRef("rot_m")
R3 = OrbitRef("rot3")
HE = OrbitRef("hyp_even")
HO2 = OrbitRef("hyp_odd", 2)
H2 = OrbitRef("hyp2")


@pytest.fixture(scope="module")
def cat(fixture_catalog):
    return fixture_catalog


@pytest.fixture(scope="module")
def figure3():
    return load_building(str(FIXTURES / "building_figure3.json"))


def codes(verdict):
    return sorted({v.code for v in verdict.violations})


def two_sided(cat, top_ext, mid, bot_ext, *, top_windpi=0, bot_windpi=0,
              image=("west", "east")):
    """Two nontrivial components joined along `mid`, extremal windings."""
    am, ap = cat.cz_index(mid).alpha_minus, cat.cz_index(mid).alpha_plus
    a_top = cat.cz_index(top_ext).alpha_minus
    a_bot = cat.cz_index(bot_ext).alpha_plus
    return Building(
        components=(
            Component(
                "main_top", 0,
                (Puncture(1, top_ext, controlling_winding=a_top),
                 Puncture(-1, mid, controlling_winding=ap)),
                kind="nontrivial", wind_pi=top_windpi, image_class=image[0],
            ),
            Component(
                "main_bot", 0,
                (Puncture(1, mid, controlling_winding=am),
                 Puncture(-1, bot_ext, controlling_winding=a_bot)),
                kind="nontrivial", wind_pi=bot_windpi, image_class=image[1],
            ),
        ),
        breaking_pairs=((("main_bot", 0), ("main_top", 1)),),
    )


class TestValidateNice:
    def test_figure3_is_nice(self, cat, figure3):
        verdict = dg.validate_nice(cat, figure3)
        assert verdict.ok
        assert verdict.violations == ()

    def test_odd_breaking_orbit(self, cat):
        mutant = two_sided(cat, H2, RP, HE)
        verdict = dg.validate_nice(cat, mutant)
        assert not verdict.ok
        assert codes(verdict) == ["BREAKING_ORBIT_ODD"]

    def test_non_bad_double_cover(self, cat):
        mutant = two_sided(cat, RP, OrbitRef("hyp_even", 2), RM)
        verdict = dg.validate_nice(cat, mutant)
        assert "NOT_BAD_DOUBLE" in codes(verdict)

    def test_bad_double_is_accepted(self, cat):
        verdict = dg.validate_nice(cat, two_sided(cat, R3, HO2, RP))
        assert verdict.ok

    def test_high_multiplicity_breaking(self, cat):
        b = two_sided(cat, RP, OrbitRef("hyp_even", 3), RM)
        assert "BREAKING_ORBIT_MULTIPLICITY" in codes(dg.validate_nice(cat, b))

    def test_nodes_forbidden(self, cat, figure3):
        verdict = dg.validate_nice(cat, add_node(figure3, "main_top", "main_bot"))
        assert "HAS_NODE" in codes(verdict)

    def test_nonzero_wind_pi(self, cat):
        # rot3 external forces c_N = 1, absorbed by declaring wind_pi = 1,
        # which is exactly what niceness forbids
        mutant = two_sided(cat, R3, HE, RM, top_windpi=1)
        assert "BAD_COMPONENT_KIND" in codes(dg.validate_nice(cat, mutant))

    def test_positive_defect(self, cat):
        # controlling winding 0 at the rot3 end sits one below the extremal 1
        b = two_sided(cat, R3, HE, RM, top_windpi=1)
        comps = list(b.components)
        top = comps[0]
        puncts = list(top.punctures)
        puncts[0] = Puncture(1, R3, controlling_winding=0)
        comps[0] = Component("main_top", 0, tuple(puncts), kind="nontrivial",
                             wind_pi=0, image_class="west")
        mutant = Building(components=tuple(comps), breaking_pairs=b.breaking_pairs)
        verdict = dg.validate_nice(cat, mutant)
        assert "DEFECT_POSITIVE" in codes(verdict)

    def test_non_simple_extremal(self, cat):
        verdict = dg.validate_nice(cat, two_sided(cat, RP, OrbitRef("hyp_even", 2), RM))
        assert "NON_SIMPLE_EXTREMAL" in codes(verdict)

    def test_mixed_multiplicity(self, cat):
        # distinct embedded components with positive ends over rot_p at
        # different covers; covered extremal windings co-fire the gcd check
        b = Building(
            components=(
                Component("a", 0,
                          (Puncture(1, RP, controlling_winding=0),
                           Puncture(-1, RM, controlling_winding=0)),
                          kind="nontrivial", wind_pi=0, image_class="one"),
                Component("b", 0,
                          (Puncture(1, OrbitRef("rot_p", 2), controlling_winding=0),
                           Puncture(-1, OrbitRef("rot_m", 2), controlling_winding=0)),
                          kind="nontrivial", wind_pi=0, image_class="two"),
            ),
        )
        assert "MIXED_MULTIPLICITY" in codes(dg.validate_nice(cat, b))

    def test_image_clash(self, cat):
        b = Building(
            components=(
                Component("a", 0,
                          (Puncture(1, RP, controlling_winding=0),
                           Puncture(-1, RM, controlling_winding=0)),
                          kind="nontrivial", wind_pi=0, image_class="same"),
                Component("b", 0,
                          (Puncture(1, RP, controlling_winding=0),
                           Puncture(-1, OrbitRef("rot_m", 2), controlling_winding=0)),
                          kind="nontrivial", wind_pi=0, image_class="same"),
            ),
        )
        assert "IMAGE_CLASH" in codes(dg.validate_nice(cat, b))

    def test_branched_cover_component(self, cat):
        b = Building(
            components=(
                Component(
                    "t", 0,
                    (Puncture(1, OrbitRef("rot_p", 2)), Puncture(-1, RP), Puncture(-1, RP)),
                    kind="trivial",
                ),
            ),
        )
        assert "BAD_COMPONENT_KIND" in codes(dg.validate_nice(cat, b))

    def test_missing_controlling_winding(self, cat):
        b = Building(
            components=(
                Component("v", 0, (Puncture(1, RP),), kind="nontrivial", wind_pi=0),
            ),
        )
        with pytest.raises(IncompleteInputError):
            dg.validate_nice(cat, b)


class TestClassifyStableLimit:
    def test_smooth_index_one(self, cat):
        b = Building(
            components=(
                Component("v", 0, (Puncture(1, H2, controlling_winding=1),),
                          kind="nontrivial", wind_pi=0, image_class="leaf"),
            ),
        )
        verdict = dg.classify_stable_limit(cat, b)
        assert verdict.ok and verdict.kind == "SMOOTH"
        assert verdict.index == 1

    def test_figure3_broken_pair(self, cat, figure3):
        verdict = dg.classify_stable_limit(cat, figure3)
        assert verdict.ok and verdict.kind == "BROKEN_PAIR"
        assert verdict.index == 2
        assert verdict.breaking_orbit == HE
        assert verdict.top_component == "main_top"
        assert verdict.bottom_component == "main_bot"

    def test_interior_index_zero_component(self, cat):
        mid = Component("mid", 0,
                        (Puncture(1, HE, controlling_winding=0),
                         Puncture(-1, HE, controlling_winding=0)),
                        kind="nontrivial", wind_pi=0, image_class="center")
        b = Building(
            components=(
                Component("main_top", 0,
                          (Puncture(1, RP, controlling_winding=0),
                           Puncture(-1, HE, controlling_winding=0)),
                          kind="nontrivial", wind_pi=0, image_class="west"),
                mid,
                Component("main_bot", 0,
                          (Puncture(1, HE, controlling_winding=0),
                           Puncture(-1, RM, controlling_winding=0)),
                          kind="nontrivial", wind_pi=0, image_class="east"),
            ),
            breaking_pairs=(
                (("mid", 0), ("main_top", 1)),
                (("main_bot", 0), ("mid", 1)),
            ),
        )
        verdict = dg.classify_stable_limit(cat, b)
        assert not verdict.ok
        assert "NON_GENERIC" in codes(verdict)

    def test_two_even_punctures_on_one_side(self, cat):
        # the lower side carries its breaking puncture plus an even external,
        # which forces its index to 0; all incompatibilities are reported
        b = Building(
            components=(
                Component("main_top", 0,
                          (Puncture(1, RP, controlling_winding=0),
                           Puncture(-1, HE, controlling_winding=0)),
                          kind="nontrivial", wind_pi=0, image_class="west"),
                Component("main_bot", 0,
                          (Puncture(1, HE, controlling_winding=0),
                           Puncture(-1, HE, controlling_winding=0)),
                          kind="nontrivial", wind_pi=0, image_class="east"),
            ),
            breaking_pairs=((("main_bot", 0), ("main_top", 1)),),
        )
        verdict = dg.classify_stable_limit(cat, b)
        assert not verdict.ok
        assert "EVEN_PUNCTURE_COUNT" in codes(verdict)
        assert "NON_GENERIC" in codes(verdict)

    def test_out_of_range_index(self, cat):
        # an index-4 pair of pants; the theorem caps stable limits at 2
        b = Building(
            components=(
                Component("c", 0,
                          (Puncture(1, R3, controlling_winding=1),
                           Puncture(1, RP, controlling_winding=0),
                           Puncture(-1, RP, controlling_winding=1)),
                          kind="nontrivial", wind_pi=1),
            ),
        )
        verdict = dg.classify_stable_limit(cat, b)
        assert "INDEX_OUT_OF_RANGE" in codes(verdict)
        assert verdict.index == 4

    def test_shared_image_class_rejected(self, cat):
        b = two_sided(cat, RP, HE, RM, image=("same", "same"))
        verdict = dg.classify_stable_limit(cat, b)
        assert "IMAGE_NOT_DISTINCT" in codes(verdict)

    def test_two_breaking_pairs_in_the_core(self, cat):
        # the sides glue along hyp_even and along rot_m: a genus-1 building of
        # index 2 whose two-component core has one breaking pair too many
        def end(sign, ref):
            summary = cat.cz_index(ref)
            winding = summary.alpha_minus if sign > 0 else summary.alpha_plus
            return Puncture(sign, ref, controlling_winding=winding)

        b = Building(
            components=(
                Component("main_top", 0, (end(-1, HE), end(-1, RM)),
                          kind="nontrivial", wind_pi=0, image_class="west"),
                Component("main_bot", 0, (end(1, HE), end(1, RM), end(-1, RM)),
                          kind="nontrivial", wind_pi=0, image_class="east"),
            ),
            breaking_pairs=((("main_bot", 0), ("main_top", 0)),
                            (("main_bot", 1), ("main_top", 1))),
        )
        verdict = dg.classify_stable_limit(cat, b)
        assert not verdict.ok and verdict.kind is None
        assert verdict.index == 2
        assert codes(verdict) == ["BREAKING_ORBIT_ODD", "MULTIPLE_BREAKING"]
        [multiple] = [v for v in verdict.violations if v.code == "MULTIPLE_BREAKING"]
        assert multiple.location == "building"
        assert multiple.message.startswith("core has 2 breaking pairs")

    def test_irreducible_cylinder_reported_not_raised(self, cat):
        # a self-glued cylinder attached by a node sails past the index gate
        # (node points add 2) but has no core; that is a verdict, not a crash
        b = Building(
            components=(
                Component("v", 0,
                          (Puncture(1, H2, controlling_winding=1),
                           Puncture(-1, H2, controlling_winding=1)),
                          kind="nontrivial", wind_pi=0),
                Component("c", 0, (Puncture(1, RP), Puncture(-1, RP)), kind="trivial"),
            ),
            breaking_pairs=((("c", 0), ("c", 1)),),
            nodal_pairs=(("v", "c"),),
        )
        verdict = dg.classify_stable_limit(cat, b)
        assert not verdict.ok
        assert verdict.index == 2
        assert "CORE_COMPONENTS" in codes(verdict)
        assert "HAS_NODE" in codes(verdict)
        assert "NON_GENERIC" in codes(verdict)


class TestBuiltOnce:
    """Each component's `Part` is built once per analysis, with the analysis
    (the core's analysis included), and the nice-building checks run once
    when `validate_nice` and `classify_stable_limit` read one building."""

    @pytest.mark.parametrize("name", ["building_cylinder.json", "building_figure3.json",
                                      "building_fig3_oddbreak.json"])
    def test_each_part_once_per_analysis(self, cat, monkeypatch, name):
        built = []  # per analysis: its building and the components of the parts made
        real_init, real_part = ic.Analysis.__init__, ic.Part

        def init(self, catalog, building):
            built.append((building, []))
            real_init(self, catalog, building)

        def part(comp, rows):
            built[-1][1].append(comp.id)
            return real_part(comp, rows)

        monkeypatch.setattr(ic.Analysis, "__init__", init)
        monkeypatch.setattr(ic, "Part", part)
        building = load_building(str(FIXTURES / name))
        dg.classify_stable_limit(cat, building)
        dg.validate_nice(cat, building)
        ic.index_report(cat, building)
        ic.verify_additivity(cat, building)
        assert built[0][0] is building
        for analysed, ids in built:
            assert sorted(ids) == sorted(c.id for c in analysed.components)
        if name == "building_figure3.json":  # the core drops both cylinders
            assert [sorted(ids) for _, ids in built] == [
                ["cyl_bot", "cyl_top", "main_bot", "main_top"], ["main_bot", "main_top"]]

    @pytest.fixture
    def nice_runs(self, monkeypatch):
        """The analysis of each run of the nice-building checks, in order."""
        records = []
        real = dg._nice_checks

        def nice_checks(catalog, record):
            records.append(record)
            return real(catalog, record)

        monkeypatch.setattr(dg, "_nice_checks", nice_checks)
        return records

    @pytest.mark.parametrize("classify_first", [False, True])
    def test_nice_checks_once_per_building(self, cat, nice_runs, classify_first):
        building = load_building(str(FIXTURES / "building_fig3_oddbreak.json"))
        if classify_first:
            stable = dg.classify_stable_limit(cat, building)
            nice = dg.validate_nice(cat, building)
        else:
            nice = dg.validate_nice(cat, building)
            stable = dg.classify_stable_limit(cat, building)
        assert len(nice_runs) == 1 and nice_runs[0].building is building
        assert nice.violations and set(nice.violations) <= set(stable.violations)

    def test_nothing_held_when_the_checks_raise(self, cat, nice_runs):
        # no controlling winding at the one end
        building = Building(components=(Component("v", 0, (Puncture(1, H2),), wind_pi=0),))
        with pytest.raises(IncompleteInputError):
            dg.validate_nice(cat, building)
        assert nice_runs[0].nice is None
        with pytest.raises(IncompleteInputError):
            dg.classify_stable_limit(cat, building)
        assert len(nice_runs) == 2 and nice_runs[1] is nice_runs[0]


class TestTrivialSubbuildingCheck:
    def test_bad_double_boundary_data(self):
        data = dg.TrivialBoundaryData(
            p=1, q=2, r=1, s=0, m_c=2, w_c=1, m_e=2, w_e=1,
            chi=-2, alpha_minus_cover=1, cover_parity=0,
            simple_even=False, simple_hyperbolic=True,
        )
        verdict = dg.trivial_subbuilding_check(data)
        assert verdict.ok
        assert verdict.branch == "coprime"
        assert (verdict.multiplicity, verdict.winding) == (2, 1)
        assert verdict.identity_sum == 2  # equals -chi
        assert not verdict.cylindrical

    def test_multiplicity_relation_fails(self):
        data = dg.TrivialBoundaryData(
            p=2, q=1, r=0, s=1, m_c=1, w_c=1, m_e=3, w_e=1,
            chi=-2, alpha_minus_cover=1, cover_parity=0,
        )
        verdict = dg.trivial_subbuilding_check(data)
        assert not verdict.ok
        assert any(v.code == "MULTIPLICITY_RELATION" for v in verdict.violations)

    def test_cylindrical_even_simple(self):
        data = dg.TrivialBoundaryData(
            p=1, q=1, r=0, s=0, m_c=1, w_c=0, chi=0,
            alpha_minus_cover=0, cover_parity=0,
            simple_even=True, simple_hyperbolic=True,
        )
        verdict = dg.trivial_subbuilding_check(data)
        assert verdict.ok
        assert verdict.branch == "opposite_signs"
        assert verdict.identity_sum == 0
        assert verdict.cylindrical

    def test_dichotomy_rejects_triple_cover(self):
        data = dg.TrivialBoundaryData(
            p=1, q=1, r=0, s=0, m_c=3, w_c=0, chi=0,
            alpha_minus_cover=0, cover_parity=0,
            simple_even=True, simple_hyperbolic=True,
        )
        verdict = dg.trivial_subbuilding_check(data)
        assert any(v.code == "DICHOTOMY" for v in verdict.violations)

    def test_identity_mismatch_for_wrong_side_winding(self):
        # q > 0 forces w <= alpha; w = alpha + 1 is on the wrong side
        data = dg.TrivialBoundaryData(
            p=0, q=1, r=1, s=0, m_c=1, w_c=1, m_e=1, w_e=1,
            chi=0, alpha_minus_cover=0, cover_parity=0,
        )
        verdict = dg.trivial_subbuilding_check(data)
        assert any(v.code == "IDENTITY_MISMATCH" for v in verdict.violations)

    @pytest.mark.parametrize("changes, message", [
        ({"p": -1}, "p must be >= 0"),
        ({"s": -2}, "s must be >= 0"),
        ({"p": 0, "q": 0, "r": 1, "s": 1},
         "need p + r > 0, q + s > 0 and p + q > 0 (punctures of both signs, at least one "
         "severed)"),
        ({"q": 0}, "need p + r > 0, q + s > 0 and p + q > 0 (punctures of both signs, at "
                   "least one severed)"),
        ({"m_c": 0}, "multiplicities must be >= 1"),
        ({"m_e": 0}, "multiplicities must be >= 1"),
        ({"cover_parity": 2}, "cover_parity must be 0 or 1"),
    ])
    def test_boundary_data_guards(self, changes, message):
        fields = dict(p=1, q=1, r=0, s=0, m_c=1, w_c=0) | changes
        with pytest.raises(InputError) as err:
            dg.TrivialBoundaryData(**fields)
        assert str(err.value) == message

    def test_winding_relation_fails(self):
        data = dg.TrivialBoundaryData(p=2, q=1, r=0, s=1, m_c=1, w_c=1, m_e=1, w_e=0)
        verdict = dg.trivial_subbuilding_check(data)
        assert dg.Violation("WINDING_RELATION", "boundary",
                            "p*w_c + r*w_e = 2 != 1 = q*w_c + s*w_e") in verdict.violations
        assert "MULTIPLICITY_RELATION" not in {v.code for v in verdict.violations}

    # each way out of the opposite-signs dichotomy, from the cylindrical data of
    # test_cylindrical_even_simple
    @pytest.mark.parametrize("changes", [
        {"r": 1, "s": 1, "w_e": 1},  # an external end off the severed ones
        {"simple_even": False},  # m = 1 needs an even simple orbit
        {"m_c": 2, "m_e": 2},  # m = 2 needs an odd hyperbolic simple orbit
        {"m_c": 2, "m_e": 2, "simple_even": False, "simple_hyperbolic": False},
        {"cover_parity": 1},  # the breaking cover must be even
        {"w_c": 1},  # with the extremal winding
    ])
    def test_dichotomy_branches(self, changes):
        fields = dict(p=1, q=1, r=0, s=0, m_c=1, w_c=0, chi=0, alpha_minus_cover=0,
                      cover_parity=0, simple_even=True, simple_hyperbolic=True) | changes
        data = dg.TrivialBoundaryData(**fields)
        verdict = dg.trivial_subbuilding_check(data)
        assert not verdict.ok and verdict.branch == "opposite_signs"
        (dichotomy,) = [v for v in verdict.violations if v.code == "DICHOTOMY"]
        assert dichotomy.message == (
            "punctures pair off by sign, so the breaking cover must be a simply covered even "
            "orbit or a bad double with extremal windings "
            f"(got m_c={data.m_c}, m_e={data.m_e}, w_c={data.w_c}, w_e={data.w_e}, "
            f"alpha={data.alpha_minus_cover}, parity={data.cover_parity}, "
            f"even={data.simple_even}, hyperbolic={data.simple_hyperbolic})")

    def test_not_coprime(self):
        data = dg.TrivialBoundaryData(p=1, q=0, r=0, s=1, m_c=2, w_c=2, m_e=2, w_e=2)
        verdict = dg.trivial_subbuilding_check(data)
        assert verdict.branch == "coprime"
        assert dg.Violation("NOT_COPRIME", "boundary",
                            "controlling eigenfunctions must be simply covered: "
                            "gcd(m_c=2, w_c=2), gcd(m_e=2, w_e=2)") in verdict.violations
        # the external ends are read only when there are some
        data = dg.TrivialBoundaryData(p=2, q=1, r=0, s=0, m_c=2, w_c=4)
        assert dg.Violation("NOT_COPRIME", "boundary",
                            "controlling eigenfunctions must be simply covered: "
                            "gcd(m_c=2, w_c=4)") in dg.trivial_subbuilding_check(data).violations

    def test_accepts_data_from_actual_subbuildings(self, cat, figure3):
        for ids in maximal_trivial_subbuildings(figure3):
            sub, induced = subbuilding(figure3, ids)
            ref = sub.components[0].punctures[0].orbit
            summary = cat.cz_index(ref, 0.0)
            severed_pos = severed_neg = ext_pos = ext_neg = 0
            externals = set(figure3.external_sites())
            for site in sub.external_sites():
                p = sub.puncture(site)
                if site in externals:
                    ext_pos += p.sign == 1
                    ext_neg += p.sign == -1
                else:
                    severed_pos += p.sign == 1
                    severed_neg += p.sign == -1
            # severed negative punctures face positive neighbor ends (winding
            # alpha_minus) and vice versa; same extremal logic for externals
            w_c = summary.alpha_minus if severed_neg > 0 else summary.alpha_plus
            w_e = summary.alpha_minus if ext_pos > 0 else summary.alpha_plus
            data = dg.TrivialBoundaryData(
                p=severed_pos, q=severed_neg, r=ext_pos, s=ext_neg,
                m_c=ref.k, w_c=w_c,
                m_e=ref.k, w_e=w_e,
                chi=euler_char(sub),
                alpha_minus_cover=summary.alpha_minus,
                cover_parity=summary.parity,
                simple_even=cat.parity(OrbitRef(ref.simple, 1)) == 0,
                simple_hyperbolic=cat.is_hyperbolic(ref.simple),
            )
            verdict = dg.trivial_subbuilding_check(data)
            # flanking cylinders of the broken-pair picture are cylindrical
            assert verdict.ok
            assert verdict.cylindrical == (euler_char(sub) == 0)


class TestConstantSubbuildingBound:
    def test_sphere_with_three_nodes(self):
        verdict = dg.constant_subbuilding_bound(2, 3, [-1, -1, -1])
        assert verdict.ok
        assert verdict.value == 4

    def test_sphere_with_one_node_unstable(self):
        verdict = dg.constant_subbuilding_bound(2, 1, [1])
        assert not verdict.ok
        assert any(v.code == "STABILITY" for v in verdict.violations)

    def test_torus_with_one_node(self):
        verdict = dg.constant_subbuilding_bound(0, 1, [-1])
        assert verdict.ok
        assert verdict.value == 2

    def test_needs_an_attaching_node(self):
        with pytest.raises(InputError) as err:
            dg.constant_subbuilding_bound(2, 0, [-1])
        assert str(err.value) == "a maximal constant subbuilding has at least one attaching node"


def oracle_limits(cat, asymptotics):
    """Exhaustive re-evaluation of the side indices from the raw formula."""
    out = []
    punctures = asymptotics.punctures
    candidates = []
    for oid in cat.ids():
        if cat.parity(OrbitRef(oid, 1)) == 0:
            candidates.append(OrbitRef(oid, 1))
        elif cat.is_hyperbolic(oid) and cat.parity(OrbitRef(oid, 1)) == 1 \
                and cat.parity(OrbitRef(oid, 2)) == 0:
            candidates.append(OrbitRef(oid, 2))
    for delta in candidates:
        mu_delta = cat.cz_index(delta, 0.0).mu_cz
        for size in range(len(punctures) + 1):
            for top in itertools.combinations(range(len(punctures)), size):
                bottom = tuple(i for i in range(len(punctures)) if i not in top)

                def mu_sum(indices):
                    total = 0
                    for i in indices:
                        p = punctures[i]
                        cut = -p.constraint if p.sign == 1 else p.constraint
                        mu = cat.cz_index(p.orbit, cut).mu_cz
                        total += mu if p.sign == 1 else -mu
                    return total

                ind_top = -(2 - (len(top) + 1) - 0) + mu_sum(top) - mu_delta
                ind_bottom = -(2 - (len(bottom) + 1)) + mu_sum(bottom) + mu_delta
                if ind_top == 1 and ind_bottom == 1:
                    out.append((top, bottom, delta))
    return sorted(out, key=lambda t: (t[0], t[2].simple, t[2].k))


class TestEnumerateLimits:
    def test_demo_input_gives_two_limits(self, demo_catalog):
        asym = dg.Asymptotics(punctures=(Puncture(1, RP), Puncture(1, RP)))
        limits = dg.enumerate_limits(demo_catalog, asym)
        assert [(lt.top, lt.bottom, lt.breaking) for lt in limits] == [
            ((0,), (1,), HE),
            ((1,), (0,), HE),
        ]

    def test_agrees_with_oracle(self, cat):
        asym = dg.Asymptotics(
            punctures=(Puncture(1, RP), Puncture(1, RP), Puncture(1, RM))
        )
        got = [(lt.top, lt.bottom, lt.breaking) for lt in dg.enumerate_limits(cat, asym)]
        assert got == oracle_limits(cat, asym)

    def test_cold_and_warm_catalog_agree(self):
        asym = dg.Asymptotics(
            punctures=(
                Puncture(1, RP, constraint=0.7), Puncture(1, RP), Puncture(1, RM),
                Puncture(1, RM), Puncture(-1, RP), Puncture(1, RM),
            )
        )
        cold = load_catalog(str(FIXTURES / "catalog_fixture.json"))
        first = dg.enumerate_limits(cold, asym)
        built = [dg.limit_to_building(cold, asym, lt) for lt in first]
        assert len(first) > 4
        assert dg.enumerate_limits(cold, asym) == first
        assert [dg.limit_to_building(cold, asym, lt) for lt in first] == built
        assert [(lt.top, lt.bottom, lt.breaking) for lt in first] == oracle_limits(cold, asym)

    def test_higher_mu_catalog(self, cat):
        # with only the mu=2 even orbit, the single balanced split parks both
        # punctures on top over a bare plane
        from hbcalc.orbits import Catalog, SimpleOrbit
        from support import rotating_axis_loop, rotation_loop
        import math

        small = Catalog([
            SimpleOrbit("rot_p", 1.0, rotation_loop(math.pi / 2)),
            SimpleOrbit("hyp2", 1.0, rotating_axis_loop(2)),
        ])
        asym = dg.Asymptotics(punctures=(Puncture(1, RP), Puncture(1, RP)))
        limits = dg.enumerate_limits(small, asym)
        assert [(lt.top, lt.bottom, lt.breaking) for lt in limits] == [
            ((0, 1), (), OrbitRef("hyp2", 1)),
        ]
        assert [(lt.top, lt.bottom, lt.breaking) for lt in limits] == oracle_limits(
            small, asym
        )

    def test_no_candidates_empty(self):
        from hbcalc.orbits import Catalog, SimpleOrbit
        from support import rotation_loop
        import math

        odd_only = Catalog([SimpleOrbit("rot_p", 1.0, rotation_loop(math.pi / 2))])
        asym = dg.Asymptotics(punctures=(Puncture(1, RP), Puncture(1, RP)))
        assert dg.enumerate_limits(odd_only, asym) == []

    def test_materialized_limits_pass_checks(self, demo_catalog):
        asym = dg.Asymptotics(punctures=(Puncture(1, RP), Puncture(1, RP)))
        for limit in dg.enumerate_limits(demo_catalog, asym):
            b = dg.limit_to_building(demo_catalog, asym, limit)
            assert dg.validate_nice(demo_catalog, b).ok
            verdict = dg.classify_stable_limit(demo_catalog, b)
            assert verdict.kind == "BROKEN_PAIR"
            assert ic.fredholm_index(demo_catalog, b) == 2

    def test_materialized_ends_read_their_signed_cuts(self, demo_catalog):
        # constraint 2 cuts the first end below the eigenvalue -pi/2 of rot_p,
        # so its mu drops to -1 and its extremal winding alpha_minus(-2) to -1
        asym = dg.Asymptotics(
            punctures=(Puncture(1, RP, constraint=2.0), Puncture(1, RP), Puncture(1, RP))
        )
        limits = dg.enumerate_limits(demo_catalog, asym)
        assert limits
        for limit in limits:
            b = dg.limit_to_building(demo_catalog, asym, limit)
            windings = {(p.constraint, p.orbit): p.controlling_winding
                        for comp in b.components for p in comp.punctures if p.sign == 1}
            assert windings[(2.0, RP)] == demo_catalog.cz_index(RP, -2.0).alpha_minus == -1
            assert windings[(0.0, RP)] == demo_catalog.cz_index(RP, 0.0).alpha_minus == 0

    def test_even_puncture_input_rejected(self, cat):
        asym = dg.Asymptotics(punctures=(Puncture(1, HE), Puncture(1, H2)))
        with pytest.raises(InputError, match="even"):
            dg.enumerate_limits(cat, asym)

    def test_wrong_index_input_rejected(self, cat):
        asym = dg.Asymptotics(punctures=(Puncture(1, RP),))
        with pytest.raises(InputError, match="index"):
            dg.enumerate_limits(cat, asym)


def enumerate_outcome(fn, catalog, asymptotics):
    """The limits `fn` lists, or the class and message of its error."""
    try:
        return fn(catalog, asymptotics)
    except HbcalcError as exc:
        return type(exc), str(exc)


class TestEnumerateOracle:
    """The subset-sum pass against the 2^n mask walk it replaced
    (``support.reference_enumerate_limits``), on seeded random index-2 curves
    of widths 1-12 over the three fixture catalogs."""

    @pytest.fixture(scope="class")
    def corpora(self, demo_catalog, fixture_catalog, table_catalog):
        rng = np.random.default_rng(909)
        out = []
        for catalog in (demo_catalog, fixture_catalog, table_catalog):
            options = support.stable_end_options(catalog, rng)
            curves = [support.random_stable_asymptotics(rng, options, n) for n in range(1, 13)]
            out.append((catalog, options, [c for c in curves if c is not None]))
        return out

    def test_corpus_is_varied(self, corpora):
        widths = {len(c.punctures) for _, _, curves in corpora for c in curves}
        assert widths == set(range(1, 13))
        assert all(len(curves) >= 11 for _, _, curves in corpora)
        constrained = [p for _, _, curves in corpora for c in curves for p in c.punctures
                       if p.constraint > 0]
        assert len(constrained) > 20

    def test_same_limits_and_count(self, corpora, monkeypatch):
        listed = 0
        for catalog, _, curves in corpora:
            for curve in curves:
                want = support.reference_enumerate_limits(catalog, curve)
                listed += len(want)
                # the up-front count is the output's length: a budget of exactly
                # that many passes, one fewer refuses and names the count
                monkeypatch.setattr(dg, "MAX_LIMITS", len(want))
                assert dg.enumerate_limits(catalog, curve) == want
                monkeypatch.setattr(dg, "MAX_LIMITS", len(want) - 1)
                with pytest.raises(OutputBudgetError, match=f" {len(want)} admissible limit"):
                    dg.enumerate_limits(catalog, curve)
        assert listed > 1000

    def test_same_errors_on_invalid_curves(self, corpora):
        rng = np.random.default_rng(910)
        for catalog, options, curves in corpora:
            evens = [p for p, _, parity in options if parity == 0]
            bad = [dg.Asymptotics(punctures=()), curves[-1]._replace(rel_c1=1)]
            for curve in curves:
                # twice the ends of an index-2 curve have index 6
                bad.append(dg.Asymptotics(punctures=curve.punctures * 2))
                if evens:
                    ends = list(curve.punctures)
                    ends[int(rng.integers(len(ends)))] = evens[int(rng.integers(len(evens)))]
                    bad.append(dg.Asymptotics(punctures=tuple(ends)))
            for curve in bad:
                got = enumerate_outcome(dg.enumerate_limits, catalog, curve)
                assert isinstance(got, tuple), curve
                assert got == enumerate_outcome(support.reference_enumerate_limits, catalog, curve)

    def test_wide_curve_with_few_limits(self, tmp_path):
        # 63 ends of signed index 1 and one negative end over a table orbit of
        # index 123: the only tops of weight 2 are one small end, or the big end
        # with all small ends but one.  The mask walk would take 2^64 steps.
        demo = json.loads((FIXTURES / "catalog_demo.json").read_text())
        rows = support.analytic_rotation_table(math.pi / 2 + 2 * math.pi * 61, 8.0)
        demo["orbits"].append({"id": "big", "period": 1.0, "hyperbolic": False, "model": {
            "type": "table", "covers": {"1": [list(r) for r in rows]}}})
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(demo))
        catalog = load_catalog(str(path))
        big = Puncture(-1, OrbitRef("big"))
        curve = dg.Asymptotics(punctures=(Puncture(1, RP),) * 63 + (big,))
        small = range(63)
        want = sorted(
            [((i,), tuple(j for j in range(64) if j != i)) for i in small]
            + [(tuple(j for j in range(64) if j != i), (i,)) for i in small]
        )
        start = time.perf_counter()
        got = dg.enumerate_limits(catalog, curve)
        assert time.perf_counter() - start < 2.0
        assert [(lt.top, lt.bottom) for lt in got] == want
        assert {lt.breaking for lt in got} == {HE}


class TestEnumerateSideConstants:
    """`enumerate` writes index 1 and c_N 0 for both sides of every limit
    without computing them; each materialized side must have exactly those,
    on the demo input and on seeded random index-2 curves over the two flow
    catalogs."""

    def sides(self, catalog, curve):
        out = []
        for limit in dg.enumerate_limits(catalog, curve):
            building = dg.limit_to_building(catalog, curve, limit)
            out.append({r.component: (r.index, r.c_n)
                        for r in ic.component_reports(catalog, building)})
        return out

    @pytest.mark.parametrize("catalog_file", ["catalog_demo.json", "catalog_fixture.json"])
    def test_demo_limits(self, capsys, catalog_file):
        asymptotics = str(FIXTURES / "asymptotics_demo.json")
        catalog = str(FIXTURES / catalog_file)
        assert main(["enumerate", "--catalog", catalog, "--asymptotics", asymptotics,
                     "--json"]) == 0
        written = [{"top": (lt["index_top"], lt["c_N_top"]),
                    "bottom": (lt["index_bottom"], lt["c_N_bottom"])}
                   for lt in json.loads(capsys.readouterr().out)["limits"]]
        assert written
        assert self.sides(load_catalog(catalog), load_asymptotics(asymptotics)) == written

    def test_random_curves(self, demo_catalog, fixture_catalog):
        rng = np.random.default_rng(911)
        listed = 0
        for catalog in (demo_catalog, fixture_catalog):
            options = support.stable_end_options(catalog, rng)
            for n in range(1, 11):
                curve = support.random_stable_asymptotics(rng, options, n)
                if curve is None:
                    continue
                sides = self.sides(catalog, curve)
                listed += len(sides)
                assert all(s == {"top": (1, 0), "bottom": (1, 0)} for s in sides), curve
        assert listed > 2000
