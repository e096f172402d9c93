import math
import re
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest

from hbcalc.errors import (
    CatalogError,
    DegenerateThresholdError,
    SpectralResolutionError,
)
from hbcalc.orbits import (
    Catalog,
    OrbitRef,
    SimpleOrbit,
    is_simply_covered_eigenfunction,
)
from hbcalc.cli import load_catalog, main
from hbcalc import spectral
from hbcalc.spectral import FlowLoop, spectrum_from_loop

from support import (
    FIXTURES,
    DenseCoverCatalog,
    collocation_solve,
    collocation_table,
    constant_loop,
    cover_outcomes,
    crossing_outcome,
    dense_cover,
    eigh_dims,
    hyperbolic_loop,
    nondegenerate_trig_loop,
    outcome_differences,
    random_trig_loop,
    reference_build_operator,
    reference_cluster_means,
    reference_galerkin_block,
    reference_cz_crossing,
    rotating_axis_loop,
    rotation_loop,
)

COVERS = range(1, 17)


class TestAlpha:
    """The extremal windings, read from the summary of cz_index."""

    def test_rotation_threshold_zero(self, fixture_catalog):
        assert fixture_catalog.cz_index(OrbitRef("rot_p"), 0.0).alpha_minus == 0

    def test_rotation_threshold_minus_two(self, fixture_catalog):
        # eigenvalues -5*pi/2 (winding -1) and -pi/2 (winding 0) straddle -2
        s = fixture_catalog.cz_index(OrbitRef("rot_p"), -2.0)
        assert (s.alpha_minus, s.alpha_plus) == (-1, 0)

    def test_hyperbolic_threshold_zero(self, fixture_catalog):
        s = fixture_catalog.cz_index(OrbitRef("hyp_even"), 0.0)
        assert (s.alpha_minus, s.alpha_plus) == (0, 0)

    def test_threshold_on_eigenvalue_rejected(self, fixture_catalog):
        with pytest.raises(DegenerateThresholdError):
            fixture_catalog.cz_index(OrbitRef("hyp_even"), 1.0)

    def test_memo_matches_cold_catalog(self):
        warm = load_catalog(str(FIXTURES / "catalog_fixture.json"))
        queries = []
        for orbit_id in warm.ids():
            for k in (1, 2):
                ref = OrbitRef(orbit_id, k)
                eigenvalues = [e.eigenvalue for e in warm.table(ref, 6.0).entries]
                for t in (-3.1, -2.0, -0.7, 0.0, 0.7, 2.0, 3.1):
                    if min(abs(x - t) for x in eigenvalues) > 0.05:
                        queries.append((ref, t))
        summaries = [warm.cz_index(*q) for q in queries]
        assert all(warm.cz_index(*q) is s for q, s in zip(queries, summaries))  # memo hits
        first = [(s.alpha_minus, s.alpha_plus) for s in summaries]
        cold = load_catalog(str(FIXTURES / "catalog_fixture.json"))
        reverse = [cold.cz_index(*q) for q in reversed(queries)]
        assert [(s.alpha_minus, s.alpha_plus) for s in reverse] == first[::-1]
        direct = [(warm.table(ref, 12.0).alpha_minus(t), warm.table(ref, 12.0).alpha_plus(t))
                  for ref, t in queries]
        assert first == direct


class TestCzIndex:
    def test_rotation_unconstrained(self, fixture_catalog):
        s = fixture_catalog.cz_index(OrbitRef("rot_p"), 0.0)
        assert (s.alpha_minus, s.alpha_plus, s.parity, s.mu_cz) == (0, 1, 1, 1)

    def test_rotation_constrained(self, fixture_catalog):
        # counting form: mu - #(spectrum in (-2, 0)) = 1 - 2 (eigenvalue -pi/2 is double)
        s = fixture_catalog.cz_index(OrbitRef("rot_p"), -2.0)
        assert (s.alpha_minus, s.alpha_plus, s.parity, s.mu_cz) == (-1, 0, 1, -1)

    def test_hyperbolic(self, fixture_catalog):
        s = fixture_catalog.cz_index(OrbitRef("hyp_even"), 0.0)
        assert (s.alpha_minus, s.alpha_plus, s.parity, s.mu_cz) == (0, 0, 0, 0)

    def test_counting_form_on_random_thresholds(self, fixture_catalog):
        rng = np.random.default_rng(5)
        for orbit_id in fixture_catalog.ids():
            for k in (1, 2):
                ref = OrbitRef(orbit_id, k)
                table = fixture_catalog.table(ref, 6.0)
                eigenvalues = [e.eigenvalue for e in table.entries]
                base = fixture_catalog.cz_index(ref, 0.0)
                checked = 0
                while checked < 50:
                    t = float(rng.uniform(-5.0, 5.0))
                    if min(abs(x - t) for x in eigenvalues) < 0.05:
                        continue
                    s = fixture_catalog.cz_index(ref, t)
                    if t < 0:
                        counted = base.mu_cz - table.count_open(t, 0.0)
                    else:
                        counted = base.mu_cz + table.count_open(0.0, t)
                    assert s.mu_cz == counted
                    assert s.parity in (0, 1)
                    assert s.mu_cz == 2 * s.alpha_minus + s.parity
                    assert s.mu_cz == 2 * s.alpha_plus - s.parity
                    checked += 1


class TestCutHistory:
    """What cz_index answers at a cut does not depend on the queries asked
    before it on the same catalog."""

    @pytest.mark.parametrize("name", ["catalog_demo.json", "catalog_fixture.json"])
    def test_answers_match_a_fresh_catalog_in_any_order(self, name):
        loaded = load_catalog(str(FIXTURES / name))
        orbits = [loaded.orbit(oid) for oid in loaded.ids()]
        rng = np.random.default_rng(2026)
        cuts = [0.0, *rng.uniform(-25.0, 25.0, size=4)]
        queries = [(OrbitRef(orbit.id, k), cut)
                   for orbit in orbits for k in range(1, 7) for cut in cuts]
        fresh = {q: crossing_outcome(lambda: Catalog(orbits).cz_index(*q)) for q in queries}
        for _ in range(3):
            catalog = Catalog(orbits)
            for i in rng.permutation(len(queries)):
                query = queries[i]
                assert crossing_outcome(lambda: catalog.cz_index(*query)) == fresh[query], query


class TestBadOrbits:
    def test_elliptic_simple_cover_not_bad(self, fixture_catalog):
        assert not fixture_catalog.is_bad(OrbitRef("rot_p", 1))

    def test_odd_hyperbolic_double_is_bad(self, fixture_catalog):
        assert fixture_catalog.is_bad(OrbitRef("hyp_odd", 2))

    def test_even_hyperbolic_double_not_bad(self, fixture_catalog):
        assert not fixture_catalog.is_bad(OrbitRef("hyp_even", 2))

    def test_table_mode_needs_hyperbolic_flag(self):
        loop = rotating_axis_loop(1)
        tables = {
            1: spectrum_from_loop(loop, window=9.0),
            2: spectrum_from_loop(dense_cover(loop, 2), window=9.0),
        }
        catalog = Catalog([SimpleOrbit("tab_odd", 1.0, tables, hyperbolic=None)])
        with pytest.raises(CatalogError, match="hyperbolic"):
            catalog.is_bad(OrbitRef("tab_odd", 2))
        catalog = Catalog([SimpleOrbit("tab_odd", 1.0, tables, hyperbolic=True)])
        assert catalog.is_bad(OrbitRef("tab_odd", 2))


class TestSimplyCovered:
    def test_coprime(self):
        assert is_simply_covered_eigenfunction(2, 3)

    def test_both_even(self):
        assert not is_simply_covered_eigenfunction(2, 4)

    def test_simple_orbit_winding_zero(self):
        assert is_simply_covered_eigenfunction(1, 0)
        assert not is_simply_covered_eigenfunction(3, 0)


class TestCoveringLemma:
    @pytest.mark.parametrize("k,n", [(2, 33), (3, 35)])
    def test_cover_eigenfunctions_by_explicit_construction(self, k, n):
        # with gcd(k, n) = 1 the covered eigenvector is an index permutation,
        # so its eigen-residual can be checked exactly
        loop = rotating_axis_loop(1, n=n)
        base = reference_build_operator(loop)
        vals, vecs = np.linalg.eigh(base)
        cover_loop = dense_cover(loop, k, grid=n)
        cover_op = reference_build_operator(cover_loop)
        perm = (k * np.arange(n)) % n
        keep = np.abs(vals) <= 6.0
        for lam, vec in zip(vals[keep], vecs[:, keep].T):
            covered = vec.reshape(n, 2)[perm].reshape(2 * n)
            residual = cover_op @ covered - k * lam * covered
            assert np.max(np.abs(residual)) < 1e-9

    def test_windowed_eigenfunctions_cover_iff_winding_multiple(self, fixture_catalog):
        k = 2
        for orbit_id in fixture_catalog.ids():
            base = fixture_catalog.table(OrbitRef(orbit_id, 1), 4.0)
            cover = fixture_catalog.table(OrbitRef(orbit_id, 2), 9.0)
            base_pairs = [(e.eigenvalue, e.winding) for e in base.entries]
            for e in cover.entries:
                if abs(e.eigenvalue) > 2 * 4.0:
                    continue
                found = any(
                    abs(k * lam - e.eigenvalue) < 1e-6 and k * w == e.winding
                    for lam, w in base_pairs
                )
                assert found == (e.winding % k == 0)
                assert is_simply_covered_eigenfunction(k, e.winding) == (not found)


class TestCatalogAudit:
    def test_non_finite_flow_samples_rejected(self):
        rows = [[1.0, 0.0, 1.0], [math.nan, 0.0, 1.0], [1.0, 0.0, 1.0]]
        with pytest.raises(ValueError, match="finite"):
            Catalog([SimpleOrbit("bad", 1.0, FlowLoop.from_triples(rows))])
        with pytest.raises(ValueError, match="finite"):
            SimpleOrbit("bad", 1.0, constant_loop([[math.inf, 0.0], [0.0, 1.0]]))

    def test_dense_budget_checked_before_solving(self, demo_catalog):
        # a strength of 1e6 makes the audit ask for a grid near 3e6
        with pytest.raises(SpectralResolutionError, match="budget"):
            Catalog([SimpleOrbit("big", 1.0, rotation_loop(1e6))])
        with pytest.raises(SpectralResolutionError, match="grid 159179"):
            demo_catalog.spectrum_of(OrbitRef("rot_p"), 1e5)
        with pytest.raises(SpectralResolutionError, match="budget"):
            demo_catalog.spectrum_of(OrbitRef("rot_p", 1000), 10.0)
        with pytest.raises(SpectralResolutionError, match="grid 2049 needs .* dimension 4098"):
            demo_catalog.spectrum_of(OrbitRef("rot_p"), 10.0, grid=2049)

    def test_even_orbit_without_hyperbolic_flag_rejected(self):
        table = spectrum_from_loop(hyperbolic_loop(), window=8.0)
        with pytest.raises(CatalogError, match="even"):
            Catalog([SimpleOrbit("tab_even", 1.0, {1: table}, hyperbolic=False)])

    def test_degenerate_flow_orbit_rejected(self):
        # rotation by a full turn has 0 in the spectrum; the load audit sees it
        with pytest.raises((CatalogError, DegenerateThresholdError)):
            Catalog([SimpleOrbit("deg", 1.0, rotation_loop(2 * math.pi))])

    def test_missing_cover_in_table_mode(self):
        table = spectrum_from_loop(rotation_loop(math.pi / 2), window=8.0)
        catalog = Catalog([SimpleOrbit("tab", 1.0, {1: table}, hyperbolic=False)])
        with pytest.raises(CatalogError, match="cover"):
            catalog.cz_index(OrbitRef("tab", 2), 0.0)

    def test_table_window_cannot_grow(self, table_catalog):
        with pytest.raises(SpectralResolutionError):
            table_catalog.spectrum_of(OrbitRef("rot_tab"), window=50.0)

    def test_crossing_form_agrees_across_catalog(self, fixture_catalog):
        for orbit_id in fixture_catalog.ids():
            for k in (1, 2):
                ref = OrbitRef(orbit_id, k)
                assert (
                    fixture_catalog.cz_via_crossing(ref)
                    == fixture_catalog.cz_index(ref, 0.0).mu_cz
                )


class TestGuards:
    """The refusals of orbit and catalog arguments, each with its exact message."""

    @staticmethod
    def message(cls, call) -> str:
        with pytest.raises(cls) as err:
            call()
        assert type(err.value) is cls
        return str(err.value)

    def test_simple_orbit_arguments(self):
        loop = rotation_loop(math.pi / 2)
        table = spectral.SpectralTable(entries=(), window=1.0, grid=0)
        assert self.message(CatalogError, lambda: SimpleOrbit("o", 0.0, loop)) == (
            "orbit o: period must be positive")
        assert self.message(CatalogError, lambda: SimpleOrbit("o", -1.0, loop)) == (
            "orbit o: period must be positive")
        for model in ({}, [table], None):
            assert self.message(CatalogError, lambda: SimpleOrbit("o", 1.0, model)) == (
                "orbit o: model must be a FlowLoop or a cover->table map")
        for key in (0, "1", 1.0):
            assert self.message(CatalogError, lambda: SimpleOrbit("o", 1.0, {key: table})) == (
                f"orbit o: bad table model entry for cover {key!r}")
        assert self.message(CatalogError, lambda: SimpleOrbit("o", 1.0, {1: [1.0, 0, 2]})) == (
            "orbit o: bad table model entry for cover 1")
        unsorted = table._replace(entries=(spectral.SpectralEntry(1.0, 0, 1),
                                           spectral.SpectralEntry(-1.0, 0, 1)))
        assert self.message(SpectralResolutionError,
                            lambda: SimpleOrbit("o", 1.0, {1: unsorted})) == (
            "entries not sorted by eigenvalue")

    def test_spectrum_window(self, demo_catalog, table_catalog):
        for catalog, orbit in ((demo_catalog, "rot_p"), (table_catalog, "rot_tab")):
            for window in (0.0, -1.0, math.nan, math.inf):
                assert self.message(
                    CatalogError, lambda: catalog.spectrum_of(OrbitRef(orbit), window)) == (
                    f"window must be finite and positive, got {window}")

    def test_crossing_route_of_a_table_orbit(self, table_catalog):
        assert self.message(
            CatalogError, lambda: table_catalog.cz_via_crossing(OrbitRef("rot_tab"))) == (
            "orbit 'rot_tab' has no flow model")

    def test_simply_covered_needs_a_cover(self):
        assert self.message(ValueError, lambda: is_simply_covered_eigenfunction(0, 1)) == (
            "cover must be >= 1, got 0")


class ShortCatalog(Catalog):
    """A catalog whose tables below window `reach` keep no eigenvalue, as if
    its solver resolved nothing short of that window; `windows` records the
    window of every table asked for."""

    reach = 0.0

    def __init__(self, orbits):
        self.windows = []
        super().__init__(orbits)

    def table(self, ref, window):
        self.windows.append(window)
        full = super().table(ref, window)
        return full if window >= self.reach else full.clip(0.0)


class TestUnresolvedCut:
    """A spectral query at a cut reads one table, at window |t| + k * strength
    + 8, and refuses the cut when that table does not bracket it."""

    def test_one_table_per_cut_then_refused(self, demo_catalog, monkeypatch, capsys):
        catalog = ShortCatalog([demo_catalog.orbit(oid) for oid in demo_catalog.ids()])
        catalog.reach = math.inf
        for ref, cut in ((OrbitRef("rot_p"), -2.0), (OrbitRef("rot_m", 3), 5.0)):
            catalog.windows.clear()
            message = f"orbit '{ref.simple}' cover {ref.k}: spectrum not resolved past threshold {cut}"
            with pytest.raises(SpectralResolutionError, match=re.escape(message)):
                catalog.cz_index(ref, cut)
            start = abs(cut) + catalog.orbit(ref.simple).model.strength() * ref.k + 8.0
            assert catalog.windows == [start]

        made = []

        class Unresolved(ShortCatalog):
            reach = math.inf

            def __init__(self, orbits):
                made.append(self)
                super().__init__(orbits)

        monkeypatch.setattr("hbcalc.orbits.Catalog", Unresolved)
        path = str(FIXTURES / "catalog_demo.json")
        argv = ["spectrum", "--catalog", path, "--orbit", "rot_p", "--window", "5"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: orbit 'hyp_even' cover 1: spectrum not resolved past threshold 0.0\n"
        )
        # the load audit asks the first orbit's parity, at the cut 0: one table
        assert made[0].windows == [catalog.orbit("hyp_even").model.strength() + 8.0]

    def test_a_stored_table_short_of_the_cut_is_refused(self, table_catalog):
        message = "orbit 'rot_tab' cover 1: stored table does not reach past threshold 20.0"
        with pytest.raises(SpectralResolutionError, match=re.escape(message)):
            table_catalog.cz_index(OrbitRef("rot_tab"), 20.0)


class TestRoughLoopCut:
    """Full-degree 33-sample loops (white noise) with cuts between the
    eigenvalue of the cut table of cz_index and a fine solve's.

    CUT (seed 7) and CORPUS, as (seed, cut, crossing index), are cuts that
    the collocation solve on grid 41 or 43 put on the wrong side, 3.4e-6 to
    5.2e-6 from both eigenvalues.  The Galerkin cut table, capped at F = 20 or
    21 modes on those grids, is within 1.0e-8 to 9.5e-8 of the fine solve and
    answers them.  CAPPED holds such cuts at the new accuracy, as (cover, seed,
    cut, crossing index) of loops at scale 3: at covers 2 and 3 the base grid
    of the cut table is 33 to 43 points, so its blocks are capped at F = 16 to
    21 modes, about the loop's degree 16, and their eigenvalue next to the cut
    is 6.5 to 37.7 cluster tolerances from the fine solve's, on the other side
    of the cut, so cz_index answers the other index with no error."""

    CUT = -0.012821648
    CORPUS = [(0, -0.202973487, -1), (4, -0.3572944, 0), (4, 0.146205391, 1),
              (5, -0.037675357, 0), (9, 0.089604814, 0)]
    CAPPED = [(2, 18, 0.371292, 0), (2, 31, -0.904217005, -1), (3, 20, 0.088212723, -1),
              (3, 33, 0.254173261, 1), (3, 35, 0.323364417, 1)]

    @staticmethod
    def loop(shift: float = 0.0, seed: int = 7, scale: float = 1.0) -> FlowLoop:
        a = scale * np.random.default_rng(seed).standard_normal((33, 2, 2))
        return FlowLoop((a + a.transpose(0, 2, 1)) / 2 + shift * np.eye(2))

    def test_oracles_put_the_eigenvalue_above_the_cut(self):
        assert spectral.cz_crossing(self.loop(self.CUT), 1) == -1
        for grid in (81, 161, 321):
            table = spectrum_from_loop(self.loop(), 1.0, grid)
            near = [e for e in table.entries if abs(e.eigenvalue - self.CUT) < 1e-3]
            assert [(e.winding, e.multiplicity) for e in near] == [(0, 1)], grid
            assert near[0].eigenvalue == pytest.approx(-0.0128201605, abs=1e-10), grid
            assert near[0].eigenvalue > self.CUT

    def test_cz_index_answers_the_crossing_index_or_refuses(self):
        catalog = Catalog([SimpleOrbit("g", 1.0, self.loop())])
        try:
            summary = catalog.cz_index(OrbitRef("g", 1), self.CUT)
        except SpectralResolutionError:
            return
        assert summary.mu_cz == -1

    @pytest.mark.parametrize("seed, cut, mu", CORPUS)
    def test_the_fine_grid_and_the_crossing_route_agree(self, seed, cut, mu):
        assert spectral.cz_crossing(self.loop(cut, seed), 1) == mu
        table = spectrum_from_loop(self.loop(seed=seed), 10.0, 321)
        assert table.alpha_minus(cut) + table.alpha_plus(cut) == mu  # 2 alpha_minus + parity

    @pytest.mark.parametrize("seed", range(12))
    def test_even_covers_answer_the_crossing_index(self, seed):
        # block k/2 of an even cover is solved real in its cos/sin basis; on
        # these loops, which have Fourier content up to the sampling limit,
        # cz_index at covers 2, 4 and 6 answers the crossing index of the loop
        # shifted by the cut
        catalog = Catalog([SimpleOrbit("g", 1.0, self.loop(seed=seed))])
        for k in (2, 4, 6):
            for cut in (0.0, 0.5, -0.5):
                mu = spectral.cz_crossing(self.loop(cut / k, seed), k)
                assert catalog.cz_index(OrbitRef("g", k), cut).mu_cz == mu, (k, cut)

    @pytest.mark.parametrize("seed, cut, mu", CORPUS)
    def test_cz_index_answers_the_crossing_index_or_refuses_on_the_corpus(self, seed, cut, mu):
        catalog = Catalog([SimpleOrbit("g", 1.0, self.loop(seed=seed))])
        try:
            summary = catalog.cz_index(OrbitRef("g", 1), cut)
        except SpectralResolutionError:
            return
        assert summary.mu_cz == mu


    @pytest.mark.parametrize("k, seed, cut, mu", CAPPED)
    def test_the_fine_solve_and_the_crossing_route_agree_on_the_capped_corpus(self, k, seed,
                                                                              cut, mu):
        loop = self.loop(seed=seed, scale=3.0)
        assert spectral.cz_crossing(self.loop(cut / k, seed, 3.0), k) == mu
        window = abs(cut) + k * loop.strength() + 8.0  # the window of the cut table
        fine = spectrum_from_loop(loop, window, 161 * k + 1 - k % 2, cover=k)
        assert fine.alpha_minus(cut) + fine.alpha_plus(cut) == mu
        table = Catalog([SimpleOrbit("g", 1.0, loop)]).table(OrbitRef("g", k), window)
        near, far = (min((e.eigenvalue for e in t.entries), key=lambda x: abs(x - cut))
                     for t in (table, fine))
        assert (near - cut) * (far - cut) < 0
        assert min(abs(near - cut), abs(far - cut)) > table.cluster_tol()

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the capped cut table is trusted uncertified and gives the "
                              "other index")
    @pytest.mark.parametrize("k, seed, cut, mu", CAPPED)
    def test_cz_index_answers_the_crossing_index_or_refuses_on_the_capped_corpus(self, k, seed,
                                                                                cut, mu):
        catalog = Catalog([SimpleOrbit("g", 1.0, self.loop(seed=seed, scale=3.0))])
        try:
            summary = catalog.cz_index(OrbitRef("g", k), cut)
        except SpectralResolutionError:
            return
        assert summary.mu_cz == mu


class TestWindowEdge:
    """A winding class within CLUSTER_TOL * max(1, window) of the window's edge
    is inside it.  hyp_even is S = diag(1, -1), so cover k has its winding-0
    class at exactly -k and +k, on the edge of the window k."""

    @pytest.mark.parametrize("route", [Catalog, DenseCoverCatalog])
    def test_the_class_on_the_edge_is_kept(self, route, fixture_catalog):
        catalog = route([fixture_catalog.orbit(i) for i in fixture_catalog.ids()])
        for k in range(1, 11):
            ref = OrbitRef("hyp_even", k)
            solved = catalog.spectrum_of(ref, float(k))
            catalog.table(ref, 2.0 * k)
            clipped = catalog.table(ref, float(k))  # the clip of the window-2k table
            for table in (solved, clipped):
                assert [(e.winding, e.multiplicity) for e in table.entries] == [(0, 1)] * 2, k
                assert [e.eigenvalue for e in table.entries] == pytest.approx([-k, k], abs=1e-9)


class TestSpectrumOf:
    """spectrum_of solves the window it is asked: its table does not depend on
    what the catalog solved before, and the widest table of a cover stays
    cached for the clips cz_index reads."""

    def test_a_narrower_window_is_solved_not_clipped(self):
        catalog = load_catalog(str(FIXTURES / "catalog_demo.json"))
        ref, key = OrbitRef("rot_m"), ("rot_m", 1)
        audit = catalog._tables[key]  # the load audit's parity table
        assert audit.window > 5.0
        table = catalog.spectrum_of(ref, 5.0)
        assert (table.window, table.grid) == (5.0, 33)
        assert table == spectrum_from_loop(catalog.orbit("rot_m").model, 5.0)
        assert catalog._tables[key] is audit
        wide = catalog.spectrum_of(ref, 2 * audit.window)
        assert catalog._tables[key] is wide
        assert catalog.spectrum_of(ref, wide.window) is wide
        assert catalog.table(ref, 5.0) == wide.clip(5.0)


class TestBlochRoute:
    """The Catalog solves every cover by Bloch blocks; the dense solve of
    dense_cover(loop, k, n) on the same grid n is the oracle."""

    @staticmethod
    def assert_routes_agree(orbits, covers, windows, invariants=True):
        bloch, dense = Catalog(orbits), DenseCoverCatalog(orbits)
        checked = 0
        for orbit in orbits:
            for k in covers:
                ref = OrbitRef(orbit.id, k)
                got = cover_outcomes(bloch, ref, windows, invariants)
                want = cover_outcomes(dense, ref, windows, invariants)
                assert outcome_differences(got, want) == [], (orbit.id, k)
                checked += len(got)
        return checked

    def test_fixture_orbits(self):
        catalog = load_catalog(str(FIXTURES / "catalog_fixture.json"))
        orbits = [catalog.orbit(i) for i in catalog.ids()]
        assert len(orbits) == 6
        self.assert_routes_agree(orbits, (2, 3, 5, 8), (10.0, 40.0, 100.0))
        self.assert_routes_agree(orbits, (16,), (10.0,), invariants=False)

    def test_trig_loops(self):
        rng = np.random.default_rng(20261018)
        orbits = [SimpleOrbit(f"trig{i}", 1.0, nondegenerate_trig_loop(rng, n=25, scale=1.0))
                  for i in range(5)]
        self.assert_routes_agree(orbits, (2, 3, 5, 8), (10.0,))

    def test_degenerate_cover_raises_like_the_dense_route(self):
        # rotation by 2 pi / 3: the third cover has 0 in its spectrum
        orbits = [SimpleOrbit("r", 1.0, rotation_loop(2 * math.pi / 3))]
        bloch, dense = Catalog(orbits), DenseCoverCatalog(orbits)
        for catalog in (bloch, dense):
            with pytest.raises(CatalogError, match="degenerate"):
                catalog.table(OrbitRef("r", 3), 10.0)
        assert (outcome_differences(cover_outcomes(bloch, OrbitRef("r", 6), (10.0,)),
                                    cover_outcomes(dense, OrbitRef("r", 6), (10.0,))) == [])

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 8])
    def test_each_block_is_solved_as_documented(self, k, monkeypatch):
        # block 0 real of dimension 2 (2F + 1), blocks 0 < j < k/2 one stacked
        # complex eigh of that dimension, block k/2 real of dimension 4F; each
        # has the eigenvalues of its Hermitian Galerkin matrix on the modes
        # f + j/k built from the loop's DFT (support oracle), and the
        # eigenfunctions of block k/2 change sign from one period to the next
        loop = rotating_axis_loop(1)
        m, size = 41, 9
        real, solved = np.linalg.eigh, []

        def eigh(a, *args, **kwargs):
            solved.append((np.array(a), real(a, *args, **kwargs)))
            return solved[-1][1]

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        vals, blocks, points, _ = spectral._bloch_eigenpairs(loop, k, m, size)
        assert len(solved) == 1 + (k >= 3) + (k % 2 == 0)
        stacked = [a for a, _ in solved if a.ndim == 3]
        assert [a.shape for a in stacked] == [((k - 1) // 2, 38, 38)] * (k >= 3)
        real_blocks = [a for a, _ in solved if a.ndim == 2]
        assert [a.shape for a in real_blocks] == [(38, 38)] + [(36, 36)] * (k % 2 == 0)
        assert all(a.dtype == float for a in real_blocks)
        matrices = real_blocks[:1] + [a for stack in stacked for a in stack] + real_blocks[1:]
        for j, a in enumerate(matrices):
            if 2 * j == k:
                modes = np.arange(-size, size) + 0.5
            else:
                modes = np.arange(-size, size + 1) + j / k
            want = np.linalg.eigvalsh(reference_galerkin_block(loop, modes))
            got = np.linalg.eigvalsh(a)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (k, j)
            mine = np.sort(vals[blocks == j])[:: 1 + (0 < 2 * j < k)] / k  # pairs j, k - j once
            assert np.max(np.abs(mine - want)) <= 1e-12 * np.max(np.abs(want)), (k, j)
        if k % 2 == 0:
            u = points(np.flatnonzero(blocks == k // 2))
            assert np.array_equal(u[:, m:], -u[:, :-m])

    def test_block_index_pins_the_winding(self, monkeypatch):
        loop = rotating_axis_loop(1)
        real = spectral._bloch_eigenpairs
        spectrum_from_loop(loop, 10.0, cover=3)  # correctly labelled: passes the audit

        def mislabelled(*args):
            vals, blocks, points, residuals = real(*args)
            return vals, (blocks + 1) % 3, points, residuals

        monkeypatch.setattr(spectral, "_bloch_eigenpairs", mislabelled)
        with pytest.raises(SpectralResolutionError, match="Bloch block"):
            spectrum_from_loop(loop, 10.0, cover=3)

    def test_eigenfunctions_do_not_depend_on_eigenvector_phases(self, monkeypatch):
        # eigh fixes each complex eigenvector only up to a unit factor: turn them
        # by a spread of phases.  Every rebuilt eigenfunction must keep the norm
        # of a real (j = 0), real or imaginary (0 < j < k/2) or real
        # antiperiodic (j = k/2) part, and for odd k be an eigenvector of the
        # dense collocation operator on the k*m-point grid, which
        # differentiates its modes exactly.
        loop = rotating_axis_loop(1)
        tables = {k: spectrum_from_loop(loop, 10.0, cover=k) for k in (2, 3, 4)}
        real = np.linalg.eigh

        def turned(a):
            vals, vecs = real(a)
            if np.iscomplexobj(vecs):
                vecs = vecs * np.exp(0.37j * np.arange(vecs.shape[1]))
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", turned)
        for k, table in tables.items():
            assert spectrum_from_loop(loop, 10.0, cover=k) == table
            n = spectral.default_grid(loop.n, k, 10.0, loop.strength())
            m = spectral.next_odd(math.ceil(n / k))
            vals, blocks, points, _ = spectral._bloch_eigenpairs(loop, k, m, 6)
            dense = reference_build_operator(dense_cover(loop, k, grid=k * m)) if k % 2 else None
            inside = np.flatnonzero(np.abs(vals) <= 10.0)
            basis = points(inside).reshape(len(inside), -1)
            assert basis.dtype == float
            for i, e in zip(inside, basis):
                full = 2 * blocks[i] not in (0, k)
                assert np.linalg.norm(e) >= math.sqrt(k / 2 if full else k) * (1 - 1e-9)
                if dense is not None:
                    assert np.linalg.norm(dense @ e - vals[i] * e) <= 1e-8 * np.linalg.norm(e)
            # simple cover eigenvalues: the real and imaginary parts of one block
            # eigenvector are two orthogonal eigenfunctions, not one read twice
            basis /= np.linalg.norm(basis, axis=1)[:, None]
            assert np.allclose(basis @ basis.T, np.eye(len(inside)), atol=1e-8)

    def test_each_cover_is_solved_once_per_base_grid_and_modes(self, monkeypatch):
        # windows 10, 40 and 100 and cz_index's window keep hyp2^16 on base grid
        # 35; F0 is 5 for the first three and 6 for window 100: two solves of
        # three eigh calls each (block 0, the stacked blocks 1..7, block 8),
        # and the same tables as fresh solves
        fixture = load_catalog(str(FIXTURES / "catalog_fixture.json"))
        orbits = [fixture.orbit(i) for i in fixture.ids()]
        ref, windows = OrbitRef("hyp2", 16), (10.0, 40.0, 100.0)
        fresh = [Catalog(orbits).table(ref, w) for w in windows]
        fresh_cz = Catalog(orbits).cz_index(ref)
        catalog = Catalog(orbits)
        solves, real = [], spectral._bloch_eigenpairs
        monkeypatch.setattr(spectral, "_bloch_eigenpairs",
                            lambda loop, k, m, size: solves.append((k, m, size))
                            or real(loop, k, m, size))
        with eigh_dims() as dims:
            tables = [catalog.spectrum_of(ref, w) for w in windows]
            assert catalog.cz_index(ref) == fresh_cz
        assert {t.grid for t in tables} == {529}
        assert solves == [(16, 35, 5), (16, 35, 6)]
        assert dims == [22, 22, 20, 26, 26, 24]
        assert tables == fresh

    def test_the_kept_solve_is_released_before_the_next(self, monkeypatch):
        # the kept solve holds every eigenvector of every Bloch block (through
        # its eigenfunction reader): none of it may live on while the next
        # cover is solved
        catalog = load_catalog(str(FIXTURES / "catalog_fixture.json"))
        catalog.table(OrbitRef("hyp2", 3), 10.0)
        kept = weakref.ref(catalog._held[0][4][0])  # the solve's eigenvalues
        alive = []
        real = spectral._bloch_eigenpairs

        def pairs(loop, k, m, size):
            alive.append(kept() is not None)
            return real(loop, k, m, size)

        monkeypatch.setattr(spectral, "_bloch_eigenpairs", pairs)
        catalog.table(OrbitRef("rot_p", 5), 10.0)
        assert alive == [False]

    def test_one_cover_solve_is_kept(self, monkeypatch, table_catalog):
        catalog = load_catalog(str(FIXTURES / "catalog_fixture.json"))
        solves = []
        real = spectral._bloch_eigenpairs

        def pairs(loop, k, m, size):
            assert catalog._held == [None]  # the kept solve is freed first
            solves.append((k, m, size))
            return real(loop, k, m, size)

        monkeypatch.setattr(spectral, "_bloch_eigenpairs", pairs)
        a, b = OrbitRef("hyp2", 3), OrbitRef("rot_p", 5)
        for window in (10.0, 11.0):  # the same grid and modes at both windows
            catalog.table(a, window)
            catalog.table(b, window)
        assert solves == [(3, 33, 6), (5, 33, 3)] * 2
        assert catalog._held != [None]
        # explicit grids and simple covers are solves like any other: kept
        catalog.spectrum_of(a, 10.0, grid=151)
        assert solves[-1] == (3, 51, 6) and catalog._held[0][1:4] == (3, 51, 6)
        catalog.table(OrbitRef("rot_p", 2), 10.0)
        assert catalog._held[0][1] == 2
        catalog.cz_index(OrbitRef("rot_m", 1), -2.0)  # grows the simple orbit's table
        assert solves[-1][0] == 1
        assert catalog._held[0][:2] == (catalog.orbit("rot_m").model, 1)
        # table-mode orbits solve nothing and take no grid
        table_catalog.cz_index(OrbitRef("rot_tab", 2))
        table_catalog.spectrum_of(OrbitRef("rot_tab", 2), 10.0)
        assert table_catalog._held == [None]
        with pytest.raises(CatalogError, match="table-mode"):
            table_catalog.spectrum_of(OrbitRef("rot_tab"), 10.0, grid=101)

    def test_grids_on_one_base_grid_share_the_kept_solve(self, monkeypatch):
        # a wider window can move the default grid by less than the cover, and
        # the Galerkin blocks depend on the grid only through the base grid and
        # their modes: hyp2^2 at windows 15 and 16 (grids 67 and 69, base grid
        # 35, F = 7) and rot3^2 at 18 and 20 (grids 75 and 77, base grid 39,
        # F = 7) each solve once, and every table is the one a fresh catalog
        # returns for its window alone
        fixture = load_catalog(str(FIXTURES / "catalog_fixture.json"))
        orbits = [fixture.orbit(i) for i in fixture.ids()]
        cases = [(OrbitRef("hyp2", 2), (15.0, 16.0), [67, 69], 35),
                 (OrbitRef("rot3", 2), (18.0, 20.0), [75, 77], 39)]
        solves = []
        real = spectral._bloch_eigenpairs
        monkeypatch.setattr(spectral, "_bloch_eigenpairs",
                            lambda loop, k, m, size: solves.append((k, m, size))
                            or real(loop, k, m, size))
        for ref, windows, grids, m in cases:
            fresh = [Catalog(orbits).table(ref, w) for w in windows]
            catalog = Catalog(orbits)
            solves.clear()
            tables = [catalog.table(ref, w) for w in windows]
            assert [t.grid for t in tables] == grids
            assert solves == [(ref.k, m, 7)]
            assert tables == fresh

    def test_concurrent_readers_share_the_kept_solve(self):
        # four threads grow the windows of four covers on one catalog, so they
        # keep replacing each other's kept solve; each table must still be the
        # one a fresh catalog solves for that window alone
        fixture = load_catalog(str(FIXTURES / "catalog_fixture.json"))
        orbits = [fixture.orbit(i) for i in fixture.ids()]
        refs = [OrbitRef("hyp2", 16), OrbitRef("rot_p", 5), OrbitRef("hyp_even", 8),
                OrbitRef("rot_m", 3)]
        windows = (10.0, 20.0, 30.0, 40.0)
        want = {(ref, w): Catalog(orbits).table(ref, w) for ref in refs for w in windows}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(2):
                catalog, got = Catalog(orbits), {}

                def grow(ref):
                    for w in windows:
                        got[ref, w] = catalog.table(ref, w)

                threads = [threading.Thread(target=grow, args=(ref,)) for ref in refs]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert got == want
        finally:
            sys.setswitchinterval(interval)

    def test_a_grid_with_a_cover_matches_the_dense_collocation(self):
        # the dense oracle is dense_cover(loop, k, n) solved by collocation on
        # its n points; both are exact on this loop up to rounding
        loop = rotating_axis_loop(1)
        for k in (1, 3):
            got = spectrum_from_loop(loop, 10.0, grid=151, cover=k)
            want = collocation_table(dense_cover(loop, k, grid=151), 10.0, grid=151)
            assert (got.grid, got.window) == (want.grid, want.window) == (151, 10.0)
            assert ([(e.winding, e.multiplicity) for e in got.entries]
                    == [(e.winding, e.multiplicity) for e in want.entries])
            assert np.allclose([e.eigenvalue for e in got.entries],
                               [e.eigenvalue for e in want.entries], rtol=1e-12, atol=1e-12)
        with pytest.raises(ValueError, match="cover"):
            spectrum_from_loop(loop, 10.0, cover=0)

    def test_simple_and_explicit_grid_solves_are_kept(self):
        loop = rotating_axis_loop(1)
        held = [None]
        for grid, cover in ((None, 3), (151, 3), (None, 1), (101, 1)):
            table = spectrum_from_loop(loop, 10.0, grid=grid, cover=cover, held=held)
            solve, m = held[0], spectral.next_odd(math.ceil(table.grid / cover))
            assert solve[:3] == (loop, cover, m), (grid, cover)
            # the same request audits the kept solve again
            assert spectrum_from_loop(loop, 10.0, grid=grid, cover=cover, held=held) == table
            assert held[0] is solve

    def test_explicit_grid_and_simple_orbits_solve_bloch_blocks(self):
        # an explicit grid n, or a simple orbit, solves blocks 0..k//2 on F0
        # modes (here 6 for covers 2 and 3 and 8 for the simple orbit at window
        # 10): dimension 2 (2F + 1), and 4F for block k/2 of an even cover; the
        # table reports n, and its eigenfunctions are read on the base grid
        # m = next_odd(ceil(n / k))
        catalog = load_catalog(str(FIXTURES / "catalog_fixture.json"))
        strength = catalog.orbit("hyp2").model.strength()
        n = spectral.default_grid(33, 3, 10.0, strength)
        for k, grid, dims_want, grid_want in ((3, 151, [26, 26], 151),
                                              (3, None, [26, 26], n),
                                              (1, 101, [34], 101),
                                              (2, 101, [26, 24], 101)):
            with eigh_dims() as dims:
                table = catalog.spectrum_of(OrbitRef("hyp2", k), 10.0, grid=grid)
            assert (dims, table.grid) == (dims_want, grid_want), (k, grid)

    def test_a_grid_below_three_points_a_period_is_refused(self, monkeypatch):
        loop = rotating_axis_loop(1)
        monkeypatch.setattr(spectral, "_bloch_eigenpairs", None)  # refused before sampling
        for grid, cover in ((101, 200), (101, 101), (3, 5)):
            with pytest.raises(SpectralResolutionError,
                               match=f"grid {grid} gives cover {cover} fewer than 3 points"):
                spectrum_from_loop(loop, 10.0, grid=grid, cover=cover)


class TestGalerkinRoute:
    """Each Bloch block is solved on the Fourier modes its scan needs: rows
    equal to dense Fourier collocation of the cover (support oracle), pinned
    dimensions, residuals under the tolerance and a kept solve reused only for
    its own loop, cover, base grid and modes."""

    @staticmethod
    def loops() -> dict:
        fixture = load_catalog(str(FIXTURES / "catalog_fixture.json"))
        loops = {i: fixture.orbit(i).model for i in fixture.ids()}
        rng = np.random.default_rng(20261022)
        loops.update((f"trig{i}", random_trig_loop(rng, n=25, scale=1.0)) for i in range(2))
        # perfbench's cover_spectra models: a constant rotation and a rotating
        # axis with two half-turns
        loops["rot"], loops["axis"] = rotation_loop(1.685692), rotating_axis_loop(2, a=0.6)
        return loops

    def test_rows_equal_the_dense_collocation(self):
        # the oracle solves each cover once, on the grid of window 100, and
        # audits that solve at each window (its clusters and classes depend on
        # the window).  Every pair a table scans has its
        # residual under the tolerance, short of the cap: the fixture and
        # perfbench loops never reach it, the random degree-3 loops (strength
        # about 3.5) do at some covers, where the scan's edge needs more modes
        compared, capped = 0, set()
        for name, loop in self.loops().items():
            for k in (1, 2, 3, 4, 6, 8, 12, 16):
                n = spectral.default_grid(loop.n, k, 100.0, loop.strength())
                try:
                    oracle = collocation_solve(dense_cover(loop, k, n), n)
                except SpectralResolutionError as exc:
                    oracle = type(exc)
                for window in (10.0, 40.0, 100.0):
                    held = [None]
                    try:
                        table = spectrum_from_loop(loop, window, cover=k, held=held)
                    except SpectralResolutionError as exc:
                        assert oracle is type(exc), (name, k, window)
                        continue
                    want = oracle(window)
                    assert ([(e.winding, e.multiplicity) for e in table.entries]
                            == [(e.winding, e.multiplicity) for e in want.entries]), (name, k)
                    for got, exact in zip(table.entries, want.entries):
                        assert abs(got.eigenvalue - exact.eigenvalue) <= \
                            1e-10 * max(1.0, abs(exact.eigenvalue)), (name, k, window)
                    _, _, m, size, (vals, _, _, residuals), _ = held[0]
                    if size == (m - 1) // 2:
                        capped.add(name)
                        continue
                    scan = window + 2.0 * k * loop.strength() + 8.0
                    assert np.max(residuals[np.abs(vals) <= scan]) <= \
                        spectral.RESIDUAL_TOL * max(1.0, window), (name, k, window)
                    compared += len(table.entries)
        assert capped <= {"trig0", "trig1"} and compared > 3000

    def test_solve_dimensions_are_pinned(self):
        # hyp2 at cover 1 and window 100 solves at dimension 90, where dense
        # collocation on its grid 191 took 382; at cover 16 its blocks have
        # dimension 26 (24 for block 8) where the base grid 35 gave 70; rot3
        # at cover 3 has blocks of 46 where the base grid 73 gave 146
        fixture = load_catalog(str(FIXTURES / "catalog_fixture.json"))
        for orbit, k, want, grid in (("hyp2", 1, [90], 191), ("hyp2", 16, [26, 26, 24], 529),
                                     ("rot3", 3, [46, 46], 217)):
            with eigh_dims() as dims:
                table = spectrum_from_loop(fixture.orbit(orbit).model, 100.0, cover=k)
            assert (dims, table.grid) == (want, grid), (orbit, k)
        assert want[0] <= 120

    def test_the_held_solve_is_reused_only_for_identical_modes(self):
        # hyp2^2: windows 15 and 16 (grids 67 and 69) share base grid 35 and
        # F = 7, one solve; window 12 has grid 67 and base grid 35 but starts at
        # F = 6, another solve; a new loop over the same samples is another
        fixture = load_catalog(str(FIXTURES / "catalog_fixture.json"))
        loop, held = fixture.orbit("hyp2").model, [None]
        first = spectrum_from_loop(loop, 15.0, cover=2, held=held)
        solve = held[0]
        assert solve[1:4] == (2, 35, 7)
        assert spectrum_from_loop(loop, 16.0, cover=2, held=held) == \
            spectrum_from_loop(loop, 16.0, cover=2)
        assert held[0] is solve
        narrow = spectrum_from_loop(loop, 12.0, cover=2, held=held)
        assert held[0] is not solve and held[0][1:4] == (2, 35, 6)
        assert narrow == spectrum_from_loop(loop, 12.0, cover=2)
        copy = FlowLoop(loop.samples)
        assert spectrum_from_loop(copy, 12.0, cover=2, held=held) == narrow
        assert held[0][0] is copy
        assert spectrum_from_loop(loop, 15.0, cover=2, held=held) == first

    def test_a_rough_loop_doubles_its_modes_up_to_the_cap(self, monkeypatch):
        # the seed-7 white-noise loop at window 1 (grid 33): F0 = 4 leaves
        # residuals above the tolerance, so the blocks grow to 8 and then to
        # the cap 16, where the solve is accepted; a second request walks the
        # same sizes again (the held cap solve is not its F0), so its table
        # does not depend on the one before
        loop = TestRoughLoopCut.loop()
        sizes, real = [], spectral._bloch_eigenpairs
        monkeypatch.setattr(spectral, "_bloch_eigenpairs",
                            lambda lp, k, m, size: sizes.append((m, size)) or real(lp, k, m, size))
        held = [None]
        table = spectrum_from_loop(loop, 1.0, held=held)
        assert sizes == [(33, 4), (33, 8), (33, 16)]
        assert np.max(held[0][4][3]) > spectral.RESIDUAL_TOL
        assert spectrum_from_loop(loop, 1.0, held=held) == table
        assert sizes[3:] == sizes[:3]


class TestCrossingRecord:
    """Every FlowLoop keeps cz_crossing's one-period record, so monodromy,
    cz_crossing at every cover and the catalog's is_hyperbolic and
    cz_via_crossing take one integration of its flow; each (loop, k) keeps the
    integer, or the exception class and message, of a fresh integration."""

    @staticmethod
    def count_integrations(monkeypatch) -> list:
        calls = []
        real = spectral._integrate_frames

        def integrate(loop, n_steps):
            calls.append(id(loop))
            return real(loop, n_steps)

        monkeypatch.setattr(spectral, "_integrate_frames", integrate)
        return calls

    def test_each_flow_orbit_is_integrated_once(self, monkeypatch):
        catalog = load_catalog(str(FIXTURES / "catalog_fixture.json"))
        calls = self.count_integrations(monkeypatch)
        got = {(i, k): crossing_outcome(lambda: catalog.cz_via_crossing(OrbitRef(i, k)))
               for i in catalog.ids() for k in COVERS}
        # the load audit made the records of the two even orbits (is_hyperbolic
        # reads P from them), so only the four odd orbits are integrated here
        assert sorted(calls) == sorted(id(catalog.orbit(i).model) for i in catalog.ids()
                                       if catalog.parity(OrbitRef(i)) == 1)
        assert len(calls) == 4
        calls.clear()
        for (i, k), outcome in got.items():
            assert outcome == crossing_outcome(
                lambda: spectral.cz_crossing(catalog.orbit(i).model, k)), (i, k)
        assert calls == []  # the orbit's own loop keeps its record
        # a new loop on the same samples integrates anew, once, and agrees bit for bit
        fresh = {i: FlowLoop(catalog.orbit(i).model.samples) for i in catalog.ids()}
        for (i, k), outcome in got.items():
            assert outcome == crossing_outcome(lambda: spectral.cz_crossing(fresh[i], k)), (i, k)
        assert sorted(calls) == sorted(id(loop) for loop in fresh.values())
        for i, loop in fresh.items():
            assert (spectral.monodromy(loop).tobytes()
                    == spectral.monodromy(catalog.orbit(i).model).tobytes()), i

    def test_type_and_every_cover_take_one_integration(self, monkeypatch):
        # is_hyperbolic reads P from the crossing record, so the type of an
        # orbit, its monodromies and the crossing indices of all its covers,
        # from the catalog or from its loop, share one integration
        calls = self.count_integrations(monkeypatch)
        catalog = load_catalog(str(FIXTURES / "catalog_fixture.json"))
        types = {i: catalog.is_hyperbolic(i) for i in catalog.ids()}
        for i in catalog.ids():
            loop = catalog.orbit(i).model
            for k in COVERS:
                crossing_outcome(lambda: catalog.cz_via_crossing(OrbitRef(i, k)))
                crossing_outcome(lambda: spectral.cz_crossing(loop, k))
                crossing_outcome(lambda: spectral.monodromy(loop, k))
        assert sorted(calls) == sorted(id(catalog.orbit(i).model) for i in catalog.ids())
        assert types == {i: abs(np.trace(spectral.monodromy(catalog.orbit(i).model))) > 2
                         for i in catalog.ids()}
        assert sum(types.values()) == 3  # hyp2, hyp_even and hyp_odd

    def test_a_failed_sweep_still_answers_is_hyperbolic(self):
        # at the default step count the steep rotating axis sweeps more than
        # pi/2 a step: its crossing indices fail, its type is read from P
        catalog = Catalog([SimpleOrbit("steep", 1.0, rotating_axis_loop(2, a=20.0))])
        assert catalog.parity(OrbitRef("steep")) == 0  # even, so the audit asked the type
        assert catalog.is_hyperbolic("steep")
        for k in (1, 2, 7):
            with pytest.raises(SpectralResolutionError, match="sweeps more than pi/2"):
                catalog.cz_via_crossing(OrbitRef("steep", k))

    def test_corpus_matches_a_fresh_integration(self, fixture_catalog, trig_loops, monkeypatch):
        # the one-period path does not depend on the cover: each call checks its
        # own RK4 budget, then the fresh calls and the reference share one path
        # per sample array and classify it anew
        paths = {}
        integrate = spectral._integrate_frames

        def shared(loop, n_steps):
            key = (loop.samples.tobytes(), n_steps)
            if key not in paths:
                paths[key] = integrate(loop, n_steps)
            return paths[key]

        monkeypatch.setattr(spectral, "_integrate_frames", shared)
        loops = {name: fixture_catalog.orbit(name).model for name in fixture_catalog.ids()}
        loops.update((f"c02_{i}", loop) for i, loop in enumerate(trig_loops))
        loops["zero"] = FlowLoop(np.zeros((3, 2, 2)))
        # e^750 overflows within one period: P itself is not finite
        loops["overflow"] = constant_loop(np.diag([750.0, -750.0]))
        outcomes = {}
        for name, loop in loops.items():
            held = FlowLoop(loop.samples)  # keeps the record of its first cover
            for k in [*COVERS, 513]:  # 513 x 2048 steps is past the RK4 budget
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # the overflowing integration warns
                    got = crossing_outcome(lambda: spectral.cz_crossing(held, k))
                    fresh = crossing_outcome(
                        lambda: spectral.cz_crossing(FlowLoop(loop.samples), k))
                    want = crossing_outcome(lambda: reference_cz_crossing(loop, k))
                if name == "overflow" and want[0] is DegenerateThresholdError:
                    # the reference reads the overflowed P as degenerate (trace inf)
                    want = (SpectralResolutionError, got[1])
                assert got == fresh == want, (name, k)
                outcomes[name, k] = got
        assert outcomes["rot3", 4][0] is DegenerateThresholdError
        assert all(outcomes["overflow", k][0] is SpectralResolutionError and
                   "overflows within one period" in outcomes["overflow", k][1]
                   for k in range(1, 6))
        assert all(outcomes["zero", k][0] is DegenerateThresholdError for k in COVERS)
        assert all(outcomes[name, 513][0] is SpectralResolutionError and
                   "cover 513 needs 513 x" in outcomes[name, 513][1] for name in loops)

    def test_a_failed_sweep_is_raised_by_every_cover(self, monkeypatch):
        # the steep rotating axis sweeps more than pi/2 a step at its own step
        # count; at 4 steps a period (the step count patched) so do the elliptic
        # rot3 and the positive hyperbolic rotating axis.  Each fails the sweep
        # check of one period, and every cover raises it after its own
        # degeneracy test, from one integration
        cases = [(rotating_axis_loop(2, a=20.0), None), (rotation_loop(5 * math.pi / 2), 4),
                 (rotating_axis_loop(2, a=1.0), 4)]
        calls = self.count_integrations(monkeypatch)
        real_count = spectral._step_count
        for loop, steps in cases:
            want = {k: crossing_outcome(lambda: reference_cz_crossing(loop, k, steps))
                    for k in COVERS}
            monkeypatch.setattr(spectral, "_step_count",
                                (lambda loop, cover: steps) if steps else real_count)
            calls.clear()
            for k in COVERS:
                got = crossing_outcome(lambda: spectral.cz_crossing(loop, k))
                assert got == want[k], (k, steps)
                assert got[0] is SpectralResolutionError
            assert calls == [id(loop)]

    def test_concurrent_crossing_readers_agree(self):
        # four threads ask every cover of every orbit of one catalog, in four
        # orders, while the crossing records are being made
        fixture = load_catalog(str(FIXTURES / "catalog_fixture.json"))
        keys = [(i, k) for i in fixture.ids() for k in COVERS]
        want = {(i, k): crossing_outcome(lambda: spectral.cz_crossing(fixture.orbit(i).model, k))
                for i, k in keys}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(2):
                # new loops, whose records the catalog's load audit and the
                # threads make
                orbits = [SimpleOrbit(o.id, o.period, FlowLoop(o.model.samples))
                          for o in map(fixture.orbit, fixture.ids())]
                catalog, got = Catalog(orbits), []

                def read(offset):
                    for j in range(len(keys)):
                        i, k = keys[(j + offset) % len(keys)]
                        got.append(((i, k), crossing_outcome(
                            lambda: catalog.cz_via_crossing(OrbitRef(i, k)))))

                threads = [threading.Thread(target=read, args=(offset,))
                           for offset in (0, 24, 48, 72)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert len(got) == 4 * len(keys)
                assert all(outcome == want[key] for key, outcome in got)
        finally:
            sys.setswitchinterval(interval)


class TestLeanSolve:
    """Every matrix a catalog hands to eigh is exactly Hermitian, and every
    cluster mean it takes is the per-cluster np.mean (support oracle), on the
    fixture orbits at covers 1..16 and windows 10, 40, 100."""

    def test_fixture_tables(self, monkeypatch):
        real_eigh, real_means = np.linalg.eigh, spectral._cluster_means
        seen = {"blocks": 0, "clusters": 0}

        def eigh(a, *args, **kwargs):
            assert np.array_equal(a, np.conj(np.swapaxes(a, -1, -2)))
            seen["blocks"] += 1
            return real_eigh(a, *args, **kwargs)

        def means(vals, starts, ends):
            got = real_means(vals, starts, ends)
            assert got == reference_cluster_means(vals, starts, ends)
            seen["clusters"] += len(got)
            return got

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        monkeypatch.setattr(spectral, "_cluster_means", means)
        catalog = load_catalog(str(FIXTURES / "catalog_fixture.json"))
        for i in catalog.ids():
            for k in COVERS:
                for window in (10.0, 40.0, 100.0):
                    crossing_outcome(lambda: catalog.table(OrbitRef(i, k), window))
        assert seen["blocks"] >= 6 * 16 and seen["clusters"] > 10_000
