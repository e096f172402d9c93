"""Acceptance suite: one test per shipped criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

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
    augment,
    core,
    euler_char,
    glue_punctures,
    is_connected,
)
from hbcalc.cli import (
    building_from_data,
    building_to_data,
    catalog_from_data,
    main,
)
from hbcalc import degeneration as dg
from hbcalc.errors import NoCoreError
from hbcalc import index_calculus as ic
from hbcalc.orbits import OrbitRef, is_simply_covered_eigenfunction
from hbcalc.spectral import cz_crossing, spectrum_from_loop

from support import (
    CORPUS_ORBITS,
    FIXTURES,
    arithmetic_genus,
    catalog_to_data,
    dense_cover,
    iter_trivial_buildings,
    random_building,
    rotation_loop,
)

RP = OrbitRef("rot_p")
RM = OrbitRef("rot_m")
HE = OrbitRef("hyp_even")


def report(criterion, message):
    print(f"ACCEPTANCE {criterion}: PASS ({message})")


@pytest.fixture(scope="module")
def corpus(fixture_catalog):
    rng = np.random.default_rng(987654321)
    return [
        random_building(rng, fixture_catalog, orbit_ids=CORPUS_ORBITS)
        for _ in range(1000)
    ]


def test_criterion_01_rotation_spectrum():
    start = time.perf_counter()
    table = spectrum_from_loop(rotation_loop(math.pi / 2, n=201), window=20.0, grid=201)
    for entry in table.entries:
        n = entry.winding
        exact = 2 * math.pi * n - math.pi / 2
        assert abs(entry.eigenvalue - exact) <= 1e-8 * abs(exact)
        assert entry.multiplicity == 2
    windings = [e.winding for e in table.entries]
    assert windings == sorted(set(windings))
    # |2 pi n - pi/2| <= 20 holds exactly for n in -2..3
    assert set(windings) == set(range(-2, 4))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(1, f"{len(table.entries)} classes, rel err <= 1e-8, {elapsed:.2f}s")


def test_criterion_02_winding_monotonicity_suite(trig_loops):
    start = time.perf_counter()
    for loop in trig_loops:
        table = spectrum_from_loop(loop, window=15.0, grid=201)
        windings = [e.winding for e in table.entries]
        assert windings == sorted(windings)
        per = {}
        for e in table.entries:
            per[e.winding] = per.get(e.winding, 0) + e.multiplicity
        assert set(per.values()) == {2}
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(2, f"20 loops, two-per-winding and monotone, {elapsed:.1f}s")


def test_criterion_03_crossing_form_oracle(trig_loops):
    checked = 0
    for loop in trig_loops:
        for k in (1, 2):
            table = spectrum_from_loop(dense_cover(loop, k), window=15.0 * k)
            alpha_minus = table.alpha_minus(0.0)
            parity = table.alpha_plus(0.0) - alpha_minus
            assert cz_crossing(loop, k) == 2 * alpha_minus + parity
            checked += 1
    report(3, f"{checked} crossing-form indices match 2*alpha_minus + parity")


def test_criterion_04_covering_and_coprimality(trig_loops):
    pairs_checked = 0
    for loop in trig_loops:
        base = spectrum_from_loop(loop, window=15.0, grid=201)
        cover = spectrum_from_loop(dense_cover(loop, 2), window=36.0)
        cover_pairs = [(e.eigenvalue, e.winding) for e in cover.entries]
        for e in base.entries:
            hits = [w for lam, w in cover_pairs if abs(lam - 2 * e.eigenvalue) <= 1e-6]
            assert 2 * e.winding in hits
            pairs_checked += 1
        # gcd test against explicit cover construction for every windowed
        # eigenfunction of the double cover
        lo, hi = base.kept_range()
        base_pairs = [(e.eigenvalue, e.winding) for e in base.entries]
        for e in cover.entries:
            half = e.eigenvalue / 2
            if not (lo + 0.1) < half < (hi - 0.1):
                continue
            explicit_cover = any(
                abs(lam - half) <= 1e-6 and 2 * w == e.winding
                for lam, w in base_pairs
            )
            assert explicit_cover == (not is_simply_covered_eigenfunction(2, e.winding))
    report(4, f"{pairs_checked} eigenvalue/winding pairs doubled within 1e-6")


def test_criterion_05_index_identities_on_corpus(fixture_catalog, corpus):
    for building in corpus:
        report_obj = ic.verify_additivity(fixture_catalog, building)
        assert report_obj.index_ok
        assert report_obj.c_n_ok
        assert is_connected(building)
        ind = ic.fredholm_index(fixture_catalog, building)
        gamma0 = ic.index_report(fixture_catalog, building).gamma0
        genus = arithmetic_genus(building)
        c_n = ic.normal_chern(fixture_catalog, building)
        assert 2 * c_n == ind - 2 + 2 * genus + len(gamma0)
    report(5, f"{len(corpus)} buildings satisfy the three index identities exactly")


def test_criterion_06_surgery_laws(fixture_catalog, corpus):
    cat = fixture_catalog
    rng = np.random.default_rng(13)
    augmented = cored = noded = glued = 0
    for building in corpus[:400]:
        ind = ic.fredholm_index(cat, building)
        c_n = ic.normal_chern(cat, building)
        chi = euler_char(building)
        genus = arithmetic_genus(building)

        sites = building.external_sites()
        if rng.random() < 0.5 and sites:
            site = sites[int(rng.integers(0, len(sites)))]
            out = augment(building, site)
        elif building.breaking_pairs:
            out = augment(building, int(rng.integers(0, len(building.breaking_pairs))))
        else:
            out = None
        if out is not None:
            assert ic.fredholm_index(cat, out) == ind
            assert ic.normal_chern(cat, out) == c_n
            assert euler_char(out) == chi
            assert arithmetic_genus(out) == genus
            augmented += 1
            try:
                assert core(out).same_as(core(building))
                cored += 1
            except NoCoreError:
                pass  # a connected all-cylinder piece has no core

        out = add_node(building, building.components[0].id, building.components[-1].id)
        assert euler_char(out) == chi - 2
        assert ic.normal_chern(cat, out) == c_n + 2
        noded += 1

        internal = building.breaking_sites()
        pos = [
            s for s in sites
            if building.puncture(s).sign == 1 and building.puncture(s).constraint == 0.0
        ]
        neg = [
            s for s in sites
            if building.puncture(s).sign == -1 and building.puncture(s).constraint == 0.0
        ]
        done = False
        for pos_site in pos:
            if done:
                break
            for neg_site in neg:
                if building.puncture(pos_site).orbit == building.puncture(neg_site).orbit:
                    out = glue_punctures(building, pos_site, neg_site)
                    parity = cat.parity(building.puncture(pos_site).orbit)
                    assert ic.normal_chern(cat, out) == c_n + parity
                    glued += 1
                    done = True
                    break
    assert augmented > 100 and cored > 50 and glued > 50
    report(6, f"augment={augmented} core={cored} node={noded} glue={glued}, all laws exact")


def test_criterion_07_trivial_building_dichotomy():
    start = time.perf_counter()
    count = 0
    boundary = 0
    for chi, genus2, n_ext, _structure in iter_trivial_buildings(4, 3, 2):
        assert chi <= 0
        equality = chi == 0
        assert equality == (genus2 == 0 and n_ext == 2)
        count += 1
        boundary += equality
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(7, f"{count} trivial buildings, {boundary} cylindrical, {elapsed:.1f}s")


def random_boundary_data(rng):
    if rng.random() < 0.4:
        even = rng.random() < 0.5
        m = 1 if even else 2
        a = int(rng.integers(-3, 4))
        p = q = int(rng.integers(1, 4))
        r = s = int(rng.integers(0, 3))
        w = a
        par = 0
        simple_even, simple_hyp = even, True
    else:
        while True:
            m = int(rng.integers(1, 4))
            w = int(rng.integers(-4, 5))
            if math.gcd(m, w) == 1:
                break
        q = int(rng.integers(0, 3))
        r = int(rng.integers(0, 3))
        s = int(rng.integers(0, 3))
        p = q + s - r
        if p < 0 or p + q == 0 or p + r == 0 or q + s == 0 or (p == q and r == s):
            return None
        if p > 0 and q > 0:
            par, a = 0, w
        elif q == 0:
            par = int(rng.integers(0, 2))
            a = w - par - int(rng.integers(0, 3))
        else:
            par = int(rng.integers(0, 2))
            a = w + int(rng.integers(0, 3))
        simple_even, simple_hyp = (m == 1 and par == 0), True
    n_tot = p + q + r + s
    comps = int(rng.integers(1, 4))
    genus = int(rng.integers(0, 3))
    internal = comps - 1 + int(rng.integers(0, 2))
    chi = 2 * comps - 2 * genus - n_tot - 2 * internal
    return dg.TrivialBoundaryData(
        p=p, q=q, r=r, s=s, m_c=m, w_c=w, m_e=m, w_e=w, chi=chi,
        alpha_minus_cover=a, cover_parity=par,
        simple_even=simple_even, simple_hyperbolic=simple_hyp,
    )


def test_criterion_08_subbuilding_identity_two_routes():
    rng = np.random.default_rng(31415)
    accepted = 0
    while accepted < 200:
        data = random_boundary_data(rng)
        if data is None:
            continue
        verdict = dg.trivial_subbuilding_check(data)
        assert verdict.ok, verdict.violations
        # independent route: the windowed-winding definition of c_N plus the
        # neighbor parities and defects, with explicit absolute values
        a, par, w = data.alpha_minus_cover, data.cover_parity, data.w_c
        c_n = (
            -data.chi
            + data.p * a
            + data.r * data.w_e
            - data.q * (a + par)
            - data.s * data.w_e
        )
        direct = (
            c_n
            + (data.p + data.q) * par
            + data.p * abs(a + par - w)
            + data.q * abs(a - w)
        )
        assert direct == -data.chi
        assert verdict.identity_sum == direct
        assert verdict.c_n == c_n
        assert verdict.cylindrical == (direct == 0)
        accepted += 1
    report(8, "200 boundary data sets: both evaluation routes agree exactly")


def test_criterion_09_enumerator_vs_oracle(demo_catalog):
    start = time.perf_counter()
    asym = dg.Asymptotics(punctures=(Puncture(1, RP), Puncture(1, RP)))
    limits = dg.enumerate_limits(demo_catalog, asym)
    assert [(lt.top, lt.bottom, lt.breaking) for lt in limits] == [
        ((0,), (1,), HE),
        ((1,), (0,), HE),
    ]

    # independent exhaustive re-evaluation from the raw index formula
    oracle = []
    candidates = [
        OrbitRef(oid, 1)
        for oid in demo_catalog.ids()
        if demo_catalog.parity(OrbitRef(oid, 1)) == 0
    ]
    punctures = asym.punctures
    for top_size in range(len(punctures) + 1):
        for top in itertools.combinations(range(len(punctures)), top_size):
            bottom = tuple(i for i in range(len(punctures)) if i not in top)
            for delta in candidates:
                mu_delta = demo_catalog.cz_index(delta, 0.0).mu_cz
                mu_top = sum(
                    demo_catalog.cz_index(punctures[i].orbit, 0.0).mu_cz for i in top
                )
                mu_bottom = sum(
                    demo_catalog.cz_index(punctures[i].orbit, 0.0).mu_cz for i in bottom
                )
                ind_top = -(2 - (len(top) + 1)) + mu_top - mu_delta
                ind_bottom = -(2 - (len(bottom) + 1)) + mu_bottom + mu_delta
                if ind_top == 1 and ind_bottom == 1:
                    oracle.append((top, bottom, delta))
    oracle.sort(key=lambda t: (t[0], t[2].simple, t[2].k))
    assert [(lt.top, lt.bottom, lt.breaking) for lt in limits] == oracle

    for limit in limits:
        b = dg.limit_to_building(demo_catalog, asym, limit)
        assert dg.validate_nice(demo_catalog, b).ok
        verdict = dg.classify_stable_limit(demo_catalog, b)
        assert verdict.kind == "BROKEN_PAIR"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(9, f"2 limit types, oracle agreement, materializations pass, {elapsed:.1f}s")


def test_criterion_10_theorem_checker_fixtures(demo_catalog, fixture_catalog):
    figure3 = building_from_data(
        json.loads((FIXTURES / "building_figure3.json").read_text())
    )
    verdict = dg.classify_stable_limit(demo_catalog, figure3)
    assert verdict.ok and verdict.kind == "BROKEN_PAIR"
    assert verdict.violations == ()

    cat = fixture_catalog

    def two_sided(top_ext, mid, bot_ext, bot_extra=()):
        am, ap = cat.cz_index(mid).alpha_minus, cat.cz_index(mid).alpha_plus
        top = Component(
            "main_top", 0,
            (Puncture(1, top_ext, controlling_winding=cat.cz_index(top_ext).alpha_minus),
             Puncture(-1, mid, controlling_winding=ap)),
            kind="nontrivial", wind_pi=0, image_class="west",
        )
        bot_punctures = (Puncture(1, mid, controlling_winding=am),) + tuple(bot_extra)
        bottom = Component("main_bot", 0, bot_punctures,
                           kind="nontrivial", wind_pi=0, image_class="east")
        return Building(
            components=(top, bottom),
            breaking_pairs=((("main_bot", 0), ("main_top", 1)),),
        )

    # odd nontrivial breaking orbit
    mutant = two_sided(
        OrbitRef("hyp2"), RP,
        None,
        bot_extra=(Puncture(-1, HE, controlling_winding=0),),
    )
    v = dg.classify_stable_limit(cat, mutant)
    assert not v.ok and "BREAKING_ORBIT_ODD" in {x.code for x in v.violations}

    # non-bad double cover as breaking orbit
    mutant = two_sided(
        RP, OrbitRef("hyp_even", 2), None,
        bot_extra=(Puncture(-1, RM, controlling_winding=0),),
    )
    v = dg.classify_stable_limit(cat, mutant)
    assert not v.ok and "NOT_BAD_DOUBLE" in {x.code for x in v.violations}

    # a side with two even constrained punctures
    mutant = two_sided(
        RP, HE, None,
        bot_extra=(Puncture(-1, HE, controlling_winding=0),),
    )
    v = dg.classify_stable_limit(cat, mutant)
    assert not v.ok and "EVEN_PUNCTURE_COUNT" in {x.code for x in v.violations}

    # interior nontrivial index-0 component (non-generic configurations)
    mid = Component("mid", 0,
                    (Puncture(1, HE, controlling_winding=0),
                     Puncture(-1, HE, controlling_winding=0)),
                    kind="nontrivial", wind_pi=0, image_class="center")
    fig4 = Building(
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
    v = dg.classify_stable_limit(cat, fig4)
    assert not v.ok and "NON_GENERIC" in {x.code for x in v.violations}
    report(10, "figure fixture accepted; all four mutants rejected with their codes")


def test_criterion_11_cli_round_trip_and_determinism(capsys, tmp_path):
    for name in sorted(p.name for p in FIXTURES.glob("catalog*.json")):
        raw = json.loads((FIXTURES / name).read_text())
        emitted = catalog_to_data(catalog_from_data(raw, path=name))
        assert emitted == raw, f"{name} is not a canonical emission"
    for name in sorted(p.name for p in FIXTURES.glob("building*.json")):
        raw = json.loads((FIXTURES / name).read_text())
        building = building_from_data(raw, path=name)
        assert building_to_data(building) == raw
        assert building_from_data(building_to_data(building)).same_as(building)

    commands = [
        ("index", "--catalog", str(FIXTURES / "catalog_demo.json"),
         "--building", str(FIXTURES / "building_figure3.json"), "--json"),
        ("check", "--catalog", str(FIXTURES / "catalog_demo.json"),
         "--building", str(FIXTURES / "building_figure3.json"),
         "--theorem", "stable", "--json"),
        ("enumerate", "--catalog", str(FIXTURES / "catalog_demo.json"),
         "--asymptotics", str(FIXTURES / "asymptotics_demo.json"), "--json"),
        ("spectrum", "--catalog", str(FIXTURES / "catalog_fixture.json"),
         "--orbit", "hyp_odd", "--cover", "2", "--window", "9", "--json"),
        ("surgery", "--building", str(FIXTURES / "building_figure3.json"),
         "--op", "core"),
    ]
    for argv in commands:
        main(list(argv))
        first = capsys.readouterr().out
        main(list(argv))
        second = capsys.readouterr().out
        assert first == second, f"nondeterministic output for {argv[0]}"
        json.loads(first)  # every command above emits valid JSON
    report(11, "fixtures byte-canonical; CLI outputs byte-stable")
