import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from hbcalc import spectral
from hbcalc.errors import DegenerateThresholdError, HbcalcError, SpectralResolutionError
from hbcalc.orbits import Catalog, SimpleOrbit
from hbcalc.spectral import (
    J0,
    FlowLoop,
    build_operator,
    cz_crossing,
    fourier_diff_matrix,
    monodromy,
    spectrum_from_loop,
)

from support import (
    REPO,
    analytic_rotation_table,
    constant_loop,
    cover_path,
    dense_cover,
    dense_value_at,
    hyperbolic_loop,
    jacobi_eigh,
    nondegenerate_trig_loop,
    random_trig_loop,
    reference_build_operator,
    reference_cluster_means,
    reference_cz_crossing,
    reference_cz_from_path,
    reference_fourier_diff_matrix,
    reference_integrate_frames,
    reference_winding,
    rotating_axis_loop,
    rotation_loop,
)


def table_as_tuples(table, ndigits=9):
    return [(round(e.eigenvalue, ndigits), e.winding, e.multiplicity) for e in table.entries]


class TestFlowLoop:
    def test_rejects_a_wrong_shape(self):
        with pytest.raises(ValueError) as err:
            FlowLoop(np.zeros((3, 2)))
        assert str(err.value) == "expected samples of shape (n, 2, 2), got (3, 2)"
        with pytest.raises(ValueError) as err:
            FlowLoop.from_triples([[1.0, 0.0]] * 3)
        assert str(err.value) == "expected rows [s11, s12, s22], got shape (3, 2)"

    def test_rejects_even_sample_count(self):
        with pytest.raises(ValueError, match="odd"):
            FlowLoop(np.zeros((4, 2, 2)))

    def test_rejects_asymmetric_sample(self):
        samples = np.zeros((3, 2, 2))
        samples[0] = [[0.0, 1.0], [0.0, 0.0]]
        with pytest.raises(ValueError, match="symmetric"):
            FlowLoop(samples)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", [(0, 0, 0), (1, 1, 1), (2, 0, 1)])
    def test_rejects_non_finite_sample(self, value, entry):
        i, a, b = entry
        samples = np.zeros((3, 2, 2))
        samples[i, a, b] = samples[i, b, a] = value  # symmetric, so only finiteness fails
        with pytest.raises(ValueError, match="finite"):
            FlowLoop(samples)

    def test_library_routes_to_non_finite_samples(self):
        with pytest.raises(ValueError, match="finite"):
            constant_loop(np.full((2, 2), math.nan))
        with pytest.raises(ValueError, match="finite"):
            FlowLoop.from_triples([[0.0, math.inf, 0.0]] * 3)
        huge = constant_loop(8e307 * np.eye(2), n=3)
        assert np.all(np.isfinite(huge.samples)) and huge.strength() == 8e307
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            dense_cover(huge, 3)  # k * S overflows

    @pytest.mark.parametrize("triple", [[1e308, 0.0, 1e308], [1e200, 0.0, 0.0],
                                        [0.0, 1e160, 0.0], [1e308, 1e308, -1e308]])
    def test_rejects_overflowing_strength(self, triple):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(ValueError, match="finite spectral norm"):
                FlowLoop.from_triples([triple] * 3)

    def test_sample_layout_does_not_change_a_table(self, fixture_catalog):
        # samples are stored in C order, so Fortran-order and strided arrays of
        # the same values give the same tables, bit for bit
        for orbit_id in fixture_catalog.ids():
            samples = fixture_catalog.orbit(orbit_id).model.samples
            strided = np.zeros(samples.shape + (2,))
            strided[..., 1] = samples
            for k in (1, 2, 3):
                want = spectrum_from_loop(FlowLoop(samples), 10.0, cover=k)
                for layout in (np.asfortranarray(samples), strided[..., 1]):
                    assert spectrum_from_loop(FlowLoop(layout), 10.0, cover=k) == want

    def test_trig_interpolation_is_exact_for_resolved_loops(self):
        loop = rotating_axis_loop(1, n=11)
        fine = loop.resample(33)
        ts = np.arange(33) / 33
        expected = rotating_axis_loop(1, n=33).samples
        assert np.max(np.abs(fine.samples - expected)) < 1e-12
        assert np.max(np.abs(dense_value_at(loop, ts) - expected)) < 1e-12

    def test_cover_scales_and_wraps(self):
        loop = rotating_axis_loop(1, n=11)
        double = dense_cover(loop, 2)
        ts = np.arange(double.n) / double.n
        expected = 2 * dense_value_at(loop, (2 * ts) % 1.0)
        assert np.max(np.abs(double.samples - expected)) < 1e-12


class TestOperator:
    def test_zero_potential_matrix(self):
        loop = FlowLoop(np.zeros((3, 2, 2)))
        a = build_operator(loop)
        d = fourier_diff_matrix(3)
        assert np.array_equal(a, -np.kron(d, J0))
        assert np.all(np.diag(a) == 0.0)

    def test_exact_symmetry(self):
        loop = rotation_loop(math.pi / 2, n=201)
        a = build_operator(loop)
        assert np.max(np.abs(a - a.T)) <= 1e-12

    def test_diff_matrix_matches_the_dense_formula(self):
        for n in [*range(3, 300, 2), 367, 1025]:
            got = fourier_diff_matrix(n)
            assert got.flags.c_contiguous
            assert got.tobytes() == reference_fourier_diff_matrix(n).tobytes(), n
        with pytest.raises(ValueError, match="odd"):
            fourier_diff_matrix(4)

    def test_diff_matrix_differentiates_modes_exactly(self):
        n = 9
        d = fourier_diff_matrix(n)
        ts = np.arange(n) / n
        for m in range(-(n // 2), n // 2 + 1):
            f = np.exp(2j * math.pi * m * ts)
            assert np.max(np.abs(d @ f - 2j * math.pi * m * f)) < 1e-9


def reference_outcome(pts):
    """(winding, fault) of one loop by the per-loop reference: fault 1 where
    the reference refuses the loop."""
    try:
        return reference_winding(pts), 0
    except (ValueError, SpectralResolutionError):
        return None, 1


def batched_outcomes(batch):
    turns, faults = spectral._windings(np.asarray(batch, dtype=float))
    return [(None if f else round(t), f) for t, f in zip(turns.tolist(), faults.tolist())]


def circle(turns, n):
    ts = np.arange(n) / n
    return np.stack([np.cos(2 * math.pi * turns * ts), np.sin(2 * math.pi * turns * ts)], axis=1)


class TestWinding:
    """spectral._windings on one loop, a batch of one, against the reference."""

    def test_constant_loop(self):
        pts = np.array([[1.0, 0.0]] * 7)
        assert batched_outcomes([pts]) == [reference_outcome(pts)] == [(0, 0)]

    def test_one_counterclockwise_turn(self):
        pts = circle(1, 9)
        assert batched_outcomes([pts]) == [reference_outcome(pts)] == [(1, 0)]

    def test_two_clockwise_turns(self):
        pts = circle(-2, 17)
        assert batched_outcomes([pts]) == [reference_outcome(pts)] == [(-2, 0)]

    def test_zero_vector_is_a_fault(self):
        pts = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        assert batched_outcomes([pts]) == [reference_outcome(pts)] == [(None, 1)]
        with pytest.raises(ValueError, match="zero"):
            reference_winding(pts)

    def test_under_resolved_loop_is_a_fault(self):
        # three turns over ten points: 0.6*pi per step, beyond the guard
        pts = circle(3, 10)
        assert batched_outcomes([pts]) == [reference_outcome(pts)] == [(None, 1)]
        with pytest.raises(SpectralResolutionError, match="step angle"):
            reference_winding(pts)


class TestBatchedWindings:
    """spectral._windings reads the same integer and the same fault as the
    per-loop reference, loop for loop."""

    def test_random_loops_and_every_fault(self):
        rng = np.random.default_rng(5)
        t = np.arange(48) / 48
        loops = []
        for _ in range(60):  # resolved: winding -4..4, wobbling angle and radius
            angle = (2 * math.pi * int(rng.integers(-4, 5)) * t
                     + rng.uniform(0, 0.5) * np.sin(2 * math.pi * (t + rng.uniform())))
            radius = (1 + 0.9 * rng.uniform() * np.cos(2 * math.pi * (t + rng.uniform())))
            scale = 10.0 ** rng.uniform(-3, 3)
            loops.append(scale * radius[:, None] * np.stack([np.cos(angle), np.sin(angle)], 1))
        zero = loops[0].copy()
        zero[7] = 0.0
        tiny = loops[1].copy()
        tiny[3] *= 1e-14  # zero relative to the largest vector
        coarse = np.stack([np.cos(26 * math.pi * t), np.sin(26 * math.pi * t)], 1)  # 13 turns
        coarse_and_zero = coarse.copy()
        coarse_and_zero[0] = 0.0
        batch = loops + [zero, tiny, coarse, coarse_and_zero]
        want = [reference_outcome(pts) for pts in batch]
        assert batched_outcomes(batch) == want
        assert [f for _, f in want] == [0] * 60 + [1] * 4

    def test_off_integer_total(self):
        # A closed loop sums to whole turns unless a step is misread: products past
        # the float range make arctan2 read the first quarter turn as an eighth.
        big, small = 1e160, 1e148
        pts = np.array([(big, small), (small, big), (-big, big), (-big, small),
                        (-big, -big), (small, -big), (big, -big)])
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_outcome(pts)
            assert batched_outcomes([pts]) == [want] == [(None, 1)]
            assert f"{spectral._windings(pts[None])[0][0]:.4f}" == "0.8750"
            with pytest.raises(SpectralResolutionError, match="not within"):
                reference_winding(pts)

    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_cover_eigenfunctions(self, k):
        # every eigenfunction of the solve, the under-resolved top of the spectrum too
        loop = rotating_axis_loop(1)
        n = spectral.default_grid(loop.n, k, 40.0, loop.strength())
        vals, _, points = spectral._bloch_eigenpairs(loop, k, n)
        batch = points(np.arange(len(vals)))
        want = [reference_outcome(pts) for pts in batch]
        assert batched_outcomes(batch) == want
        assert {f for _, f in want} == {0, 1}

    @pytest.mark.parametrize("k, held_window", [(1, None), (3, None), (5, 10.0)],
                             ids=["1", "3", "5-held-10"])
    def test_batches_of_a_bounded_size_read_the_same_table(self, k, held_window, monkeypatch):
        # with held_window, the window-40 table reuses a held solve on the same
        # grid and reads only the loops that its wider scan adds
        loop = rotating_axis_loop(1)
        sizes, loops = [], []
        real_windings = spectral._windings

        def windings(pts):
            sizes.append(pts.shape[0] * pts.shape[1])
            loops.extend(p.tobytes() for p in pts)
            return real_windings(pts)

        monkeypatch.setattr(spectral, "_windings", windings)
        held = [None]
        if held_window is not None:
            spectrum_from_loop(loop, held_window, cover=k, held=held)
        solve, read_before = held[0], loops[:]
        loops.clear()
        whole = spectrum_from_loop(loop, 40.0, cover=k)
        read_fresh = loops[:]
        loops.clear()
        sizes.clear()
        monkeypatch.setattr(spectral, "WINDING_BATCH_POINTS", 500)
        assert spectrum_from_loop(loop, 40.0, cover=k, held=held) == whole
        assert len(sizes) > 1 and max(sizes) <= 500
        assert held[0] is not None and (solve is None or held[0] is solve)  # every solve is kept
        assert set(loops).isdisjoint(read_before)
        assert sorted(read_before + loops) == sorted(read_fresh)


class TestRotationSpectrum:
    def test_matches_analytic_solve(self):
        table = spectrum_from_loop(rotation_loop(math.pi / 2), window=10.0)
        expected = analytic_rotation_table(math.pi / 2, 10.0)
        assert len(table.entries) == len(expected)
        for entry, (lam, w, mult) in zip(table.entries, expected):
            assert entry.eigenvalue == pytest.approx(lam, rel=1e-8)
            assert entry.winding == w
            assert entry.multiplicity == mult

    @pytest.mark.parametrize("window", [0.0, -1.0, math.nan])
    def test_rejects_a_window_that_is_not_positive(self, window):
        with pytest.raises(ValueError, match="window must be positive"):
            spectrum_from_loop(rotation_loop(math.pi / 2), window)

    def test_grid_convergence(self):
        coarse = spectrum_from_loop(rotation_loop(math.pi / 2), window=10.0, grid=101)
        fine = spectrum_from_loop(rotation_loop(math.pi / 2), window=10.0, grid=203)
        for a, b in zip(coarse.entries, fine.entries):
            assert a.eigenvalue == pytest.approx(b.eigenvalue, rel=1e-6)
            assert a.winding == b.winding


class TestHyperbolicSpectrum:
    def test_constant_eigenvectors(self):
        # (1, 0) and (0, 1) solve A v = -v and A v = +v for S = diag(1, -1)
        loop = hyperbolic_loop()
        a = build_operator(loop.resample(33))
        for value, column in ((-1.0, 0), (1.0, 1)):
            vec = np.zeros(66)
            vec[column::2] = 1.0
            assert np.max(np.abs(a @ vec - value * vec)) < 1e-12
        table = spectrum_from_loop(loop, window=1.5)
        assert table_as_tuples(table, 8) == [(-1.0, 0, 1), (1.0, 0, 1)]


class TestCovering:
    @pytest.mark.parametrize("k", [2, 3])
    def test_cover_contains_scaled_table(self, k):
        for loop in (rotation_loop(math.pi / 2), hyperbolic_loop(), rotating_axis_loop(1)):
            base = spectrum_from_loop(loop, window=2.5)
            covered = spectrum_from_loop(dense_cover(loop, k), window=k * 2.5 + 4.0)
            got = [(e.eigenvalue, e.winding) for e in covered.entries]
            for e in base.entries:
                matches = [
                    w for lam, w in got if abs(lam - k * e.eigenvalue) <= 1e-6
                ]
                assert k * e.winding in matches, (
                    f"({e.eigenvalue}, {e.winding}) not doubled in the {k}-fold table"
                )


class TestCrossingForm:
    def test_rotation(self):
        assert cz_crossing(rotation_loop(math.pi / 2), 1) == 1

    def test_hyperbolic(self):
        assert cz_crossing(hyperbolic_loop(), 1) == 0

    def test_rotation_double_cover_matches_spectrum(self):
        loop = rotation_loop(math.pi / 2)
        table = spectrum_from_loop(dense_cover(loop, 2), window=8.0)
        alpha_minus = table.alpha_minus(0.0)
        parity = table.alpha_plus(0.0) - alpha_minus
        assert cz_crossing(loop, 2) == 2 * alpha_minus + parity

    def test_degenerate_monodromy_rejected(self):
        with pytest.raises(DegenerateThresholdError):
            cz_crossing(FlowLoop(np.zeros((3, 2, 2))), 1)

    def test_odd_hyperbolic_and_its_bad_double(self):
        loop = rotating_axis_loop(1)
        assert cz_crossing(loop, 1) == 1
        assert cz_crossing(loop, 2) == 2

    def test_shifted_even_hyperbolic(self):
        assert cz_crossing(rotating_axis_loop(2), 1) == 2

    def test_overflowing_power_of_a_hyperbolic_monodromy(self):
        # diag(2, -2): P^355 has trace e^710, past the float range, but no power
        # of a hyperbolic P has the eigenvalue 1; the cover is k times the index
        loop = constant_loop(np.diag([2.0, -2.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert [cz_crossing(loop, k) for k in (1, 354, 355, 512)] == [0, 0, 0, 0]
            fresh = FlowLoop(loop.samples)  # its record is made at cover 355
            assert [cz_crossing(fresh, k) for k in (355, 1, 512)] == [0, 0, 0]
            odd = rotating_axis_loop(1, a=2.0)  # negative hyperbolic, index 1
            assert [cz_crossing(odd, k) for k in (1, 355, 512)] == [1, 355, 512]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            # integrating and sweeping per call, the overflow read as degenerate
            with pytest.raises(DegenerateThresholdError, match=r"\(trace inf\)"):
                reference_cz_crossing(loop, 355)

    def test_overflowing_one_period_monodromy(self):
        # diag(750, -750) is within the RK4 budget up to cover 5, but e^750 is
        # past the float range: P is not finite, which is no degenerate orbit
        loop = constant_loop(np.diag([750.0, -750.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (1, 3, 5, 1):
                with pytest.raises(SpectralResolutionError,
                                   match="overflows within one period of 192256 RK4 steps"):
                    cz_crossing(loop, k)
            with pytest.raises(SpectralResolutionError, match="cover 6 needs"):
                cz_crossing(loop, 6)

    def test_overflowing_monodromy_is_an_error(self, monkeypatch):
        # monodromy overflows as the crossing record does: it raises the same
        # error, with no numpy warning, and is_hyperbolic reads no inf trace
        loop = constant_loop(np.diag([750.0, -750.0]))
        monkeypatch.setattr(Catalog, "_audit", lambda self: None)  # its solve is over budget
        catalog = Catalog([SimpleOrbit("big", 1.0, loop)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: monodromy(loop), lambda: monodromy(loop, 5),
                         lambda: catalog.is_hyperbolic("big")):
                with pytest.raises(SpectralResolutionError,
                                   match="overflows within one period of 192256 RK4 steps"):
                    call()
            # the loop keeps the record once, with the overflow as its error
            p, _, value, error = loop._held[0]
            assert not np.isfinite(p).all() and value is None
            assert error[0] is SpectralResolutionError


class TestBuildOperator:
    """build_operator writes -D (x) J0 and the samples by strided assignments;
    the Kronecker-product build in support is the oracle, byte for byte."""

    def test_random_and_structured_loops(self):
        rng = np.random.default_rng(5)
        loops = [FlowLoop(np.zeros((3, 2, 2))), rotation_loop(1.0, n=5),
                 hyperbolic_loop(n=33), rotating_axis_loop(2, n=21)]
        for n in (3, 5, 7, 33, 101):
            samples = rng.normal(size=(n, 2, 2))
            samples[rng.random(n) < 0.3] = 0.0  # zero blocks keep signed zeros in play
            loops.append(FlowLoop(samples + np.transpose(samples, (0, 2, 1))))
        loops += [random_trig_loop(rng).resample(m) for m in (9, 41)]
        for loop in loops:
            got, want = build_operator(loop), reference_build_operator(loop)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), loop.n


class TestClip:
    def test_a_class_within_the_cluster_tolerance_of_the_edge_is_inside(self):
        for window in (0.5, 5.0, 300.0):
            tol = spectral.CLUSTER_TOL * max(1.0, window)
            rows = (spectral.SpectralEntry(-window - 0.9 * tol, 0, 1),
                    spectral.SpectralEntry(window + 0.9 * tol, 0, 1))
            table = spectral.SpectralTable(entries=rows, window=2 * window, grid=33)
            assert table.clip(window).entries == rows
            assert table.clip(0.999 * window).entries == ()


class TestTableGuards:
    """The refusals of a table's queries, each with its exact message."""

    TABLE = spectral.SpectralTable(
        entries=(spectral.SpectralEntry(-2.0, 0, 2), spectral.SpectralEntry(3.0, 1, 2)),
        window=5.0, grid=33)

    def test_a_clip_past_the_window(self):
        with pytest.raises(SpectralResolutionError) as err:
            self.TABLE.clip(6.0)
        assert str(err.value) == "requested window 6.0 exceeds trusted window 5.0"

    def test_an_alpha_with_nothing_on_its_side(self):
        with pytest.raises(SpectralResolutionError) as err:
            self.TABLE.alpha_minus(-4.0)
        assert str(err.value) == "no eigenvalue below threshold -4.0 in window 5.0"
        with pytest.raises(SpectralResolutionError) as err:
            self.TABLE.alpha_plus(4.0)
        assert str(err.value) == "no eigenvalue above threshold 4.0 in window 5.0"

    def test_an_even_grid(self):
        with pytest.raises(ValueError) as err:
            spectrum_from_loop(rotation_loop(math.pi / 2), 10.0, 40)
        assert str(err.value) == "grid must be odd and >= 3, got 40"


class TestAuditRefusals:
    """Each refusal of _audited_table on a hand-built scan: cover 1, so every
    winding fits block 0; eigenfunctions (cos 2 pi w s, sin 2 pi w s) of chosen
    windings w on 33 points; strength 0.5, so window 5 scans |lambda| <= 14."""

    WINDOW = 5.0

    @staticmethod
    def audit(rows, window=WINDOW):
        vals = np.array([lam for lam, _ in rows])
        winds = np.array([w for _, w in rows])
        m = 33
        s = np.arange(m) / m

        def points(idx):
            angle = 2 * math.pi * winds[idx][:, None] * s
            return np.stack((np.cos(angle), np.sin(angle)), axis=-1)

        read = (np.empty(len(rows)), np.full(len(rows), -1))
        return spectral._audited_table(vals, np.zeros(len(rows), dtype=int), points, 1,
                                       window, 0.5, m, read)

    def refusal(self, rows) -> str:
        with pytest.raises(SpectralResolutionError) as err:
            self.audit(rows)
        return str(err.value)

    def test_a_well_formed_scan(self):
        table = self.audit([(-2.0, 0), (-1.0, 0), (1.0, 1), (2.0, 1), (6.0, 2)])
        assert table == spectral.SpectralTable(
            entries=(spectral.SpectralEntry(-2.0, 0, 1), spectral.SpectralEntry(-1.0, 0, 1),
                     spectral.SpectralEntry(1.0, 1, 1), spectral.SpectralEntry(2.0, 1, 1)),
            window=self.WINDOW, grid=33)

    def test_a_cluster_that_mixes_windings(self):
        assert self.refusal([(1.0, 0), (1.0 + 1e-9, 1)]) == (
            "eigenvalue cluster at 1 mixes windings [0, 1]; increase the grid")
        # beyond the window's edge the mixed cluster is dropped
        table = self.audit([(-1.0, 0), (1.0, 0), (6.0, 1), (6.0 + 1e-9, 2)])
        assert table_as_tuples(table) == [(-1.0, 0, 1), (1.0, 0, 1)]

    def test_a_winding_that_decreases(self):
        assert self.refusal([(-2.0, 1), (-1.0, 1), (1.0, 0), (2.0, 0)]) == (
            "winding is not nondecreasing across the window; increase the grid")
        table = self.audit([(-1.0, 0), (1.0, 0), (6.0, 2), (6.5, 2), (7.0, 1), (7.5, 1)])
        assert table_as_tuples(table) == [(-1.0, 0, 1), (1.0, 0, 1)]

    def test_a_winding_that_decreases_on_a_rough_loop(self):
        a = 20 * np.random.default_rng(2).standard_normal((33, 2, 2))
        loop = FlowLoop((a + np.transpose(a, (0, 2, 1))) / 2)
        with pytest.raises(SpectralResolutionError) as err:
            spectrum_from_loop(loop, 40.0, 81, cover=2)
        assert str(err.value) == "winding is not nondecreasing across the window; increase the grid"

    def test_a_winding_with_three_eigenvalues(self):
        assert self.refusal([(-1.0, 0), (1.0, 0), (2.0, 0)]) == (
            "winding classes [0] carry more than two eigenvalues; increase the grid")
        # refused anywhere in the scan, also beyond the window's edge
        assert self.refusal([(-1.0, 0), (1.0, 0), (6.0, 1), (7.0, 1), (8.0, 1)]) == (
            "winding classes [1] carry more than two eigenvalues; increase the grid")

    def test_a_gap_in_the_run_of_complete_classes(self):
        assert self.refusal([(-2.0, 0), (-1.0, 0), (1.0, 2), (2.0, 2)]) == (
            "gap in the run of complete winding classes inside the window; increase the grid")
        table = self.audit([(-2.0, 0), (-1.0, 0), (6.0, 2), (7.0, 2)])
        assert table_as_tuples(table) == [(-2.0, 0, 1), (-1.0, 0, 1)]


class TestClusterMeans:
    """_cluster_means is np.mean of each cluster, bit for bit (support oracle)."""

    def test_random_clusters(self):
        rng = np.random.default_rng(8)
        for trial in range(200):
            sizes = rng.integers(1, 40 if trial % 2 else 300, size=int(rng.integers(1, 25)))
            vals = rng.normal(size=int(sizes.sum())) * 10.0 ** int(rng.integers(-3, 4))
            vals[rng.random(len(vals)) < 0.05] = -0.0  # np.mean turns a lone -0.0 into 0.0
            ends = np.cumsum(sizes).tolist()
            starts = [0] + ends[:-1]
            got = spectral._cluster_means(vals, starts, ends)
            want = reference_cluster_means(vals, starts, ends)
            assert [repr(x) for x in got] == [repr(x) for x in want], trial
        assert spectral._cluster_means(np.empty(0), [], []) == []


class TestStrength:
    def test_stored_strength_is_the_sample_norm(self):
        rng = np.random.default_rng(4)
        for loop in (random_trig_loop(rng), hyperbolic_loop(2.5), FlowLoop(np.zeros((3, 2, 2)))):
            want = max(float(np.linalg.norm(s, 2)) for s in loop.samples)
            assert loop.strength() == pytest.approx(want, rel=1e-12, abs=1e-300)
            with pytest.raises(AttributeError, match="immutable"):
                loop.samples = loop.samples


class TestJacobi:
    def test_agrees_with_numpy_on_random_symmetric(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(60, 60))
        m = m + m.T
        vals, vecs = jacobi_eigh(m)
        expected = np.linalg.eigh(m)[0]
        assert np.max(np.abs(vals - expected)) < 1e-10
        assert np.max(np.abs(m @ vecs - vecs * vals[None, :])) < 1e-9

    def test_spectrum_solver_option(self, monkeypatch):
        loop = rotation_loop(math.pi / 2, n=21)
        via_eigh = spectrum_from_loop(loop, window=8.0, grid=21)
        monkeypatch.setattr(np.linalg, "eigh", jacobi_eigh)
        via_jacobi = spectrum_from_loop(loop, window=8.0, grid=21)
        assert table_as_tuples(via_jacobi, 8) == table_as_tuples(via_eigh, 8)


class TestMonotonicityProperty:
    def test_random_loops_obey_winding_rules(self):
        rng = np.random.default_rng(2024)
        for _ in range(5):
            loop = nondegenerate_trig_loop(rng, n=63)
            table = spectrum_from_loop(loop, window=8.0)
            table.validate()
            windings = [e.winding for e in table.entries]
            assert windings == sorted(windings)
            per = {}
            for e in table.entries:
                per[e.winding] = per.get(e.winding, 0) + e.multiplicity
            assert set(per.values()) == {2}


class TestMonodromy:
    def test_rotating_axis_monodromy(self):
        got = monodromy(rotating_axis_loop(1, a=0.7))
        expected = -np.diag([math.exp(0.7), math.exp(-0.7)])
        assert np.max(np.abs(got - expected)) < 1e-9

    def test_overflowing_power_names_the_cover(self):
        # diag(2, -2): P is finite and so is P**355, whose entries are about
        # e^710 / 2 (its trace e^710 is not); P**356 is past the float range
        loop = constant_loop(np.diag([2.0, -2.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for source in (loop, FlowLoop(loop.samples)):
                for k in (354, 355):
                    assert np.isfinite(monodromy(source, k)).all(), k
                for k in (356, 400):
                    with pytest.raises(SpectralResolutionError,
                                       match=f"the monodromy of cover {k} overflows"):
                        monodromy(source, k)

    def test_a_failed_sweep_still_gives_the_monodromy(self):
        # at the default step count the steep rotating axis sweeps more than
        # pi/2 a step: cz_crossing raises the record's failure, monodromy
        # returns its P, whichever of the two made the record
        loop = rotating_axis_loop(2, a=20.0)
        fresh = FlowLoop(loop.samples)
        period = spectral._integrate_frames(loop, spectral._step_count(loop, 1))
        for k in (1, 3):
            with pytest.raises(SpectralResolutionError, match="sweeps more than pi/2"):
                cz_crossing(loop, k)
            want = np.linalg.matrix_power(period[-1], k)
            assert np.array_equal(monodromy(loop, k), want)
            assert np.array_equal(monodromy(fresh, k), want)
            with pytest.raises(SpectralResolutionError, match="sweeps more than pi/2"):
                cz_crossing(fresh, k)


ORACLE_COVERS = (1, 2, 3, 4, 8, 16)
FIXTURE_ORBITS = ("hyp2", "hyp_even", "hyp_odd", "rot3", "rot_m", "rot_p")


def _outcome(compute):
    try:
        return compute()
    except HbcalcError as exc:
        return type(exc)


class TestPropagatorOracle:
    """The batched propagator against the sequential RK4 loop in support."""

    @pytest.mark.parametrize("name", FIXTURE_ORBITS + ("trig0", "trig1", "zero"))
    def test_matches_sequential_rk4(self, name, fixture_catalog):
        if name in FIXTURE_ORBITS:
            loop = fixture_catalog.orbit(name).model
        elif name == "zero":
            loop = FlowLoop(np.zeros((3, 2, 2)))
        else:
            loop = nondegenerate_trig_loop(np.random.default_rng(11 + int(name[-1])), n=63)
        # The loop repeats the same step matrices every period, so the
        # reference path of a k-fold cover is the first k periods of the
        # 16-fold one: integrate once and slice.
        top = max(ORACLE_COVERS)
        full = reference_integrate_frames(loop, top, None)
        n_steps = (len(full) - 1) // top
        got_path = spectral._integrate_frames(loop, n_steps)
        path = full[: n_steps + 1]
        scale = np.max(np.abs(path), axis=(1, 2), keepdims=True)
        assert np.max(np.abs(got_path - path) / scale) <= 1e-9
        for k in ORACLE_COVERS:
            got_p = monodromy(loop, k)
            path = full[: k * n_steps + 1]
            want_p = path[-1]
            assert np.max(np.abs(got_p - want_p)) <= 1e-9 * np.max(np.abs(want_p)), k
            power = np.linalg.matrix_power(monodromy(loop), k)
            assert np.max(np.abs(got_p - power)) <= 1e-12 * np.max(np.abs(power)), k
            # the sweep classifier along the whole k-fold path, where it resolves
            want_cz = _outcome(lambda: reference_cz_from_path(path))
            got_cz = _outcome(lambda: cz_crossing(loop, k))
            if want_cz is SpectralResolutionError:  # it lost the stable direction
                assert abs(np.trace(monodromy(loop))) > 2, k
                assert got_cz == k * cz_crossing(loop, 1), k
            else:
                assert got_cz == want_cz, k
            if name == "zero" or (name, k) == ("rot3", 4):
                assert want_cz is DegenerateThresholdError

    def test_rk4_budget(self, monkeypatch):
        loop = rotation_loop(1.0)  # 2048 steps per period
        assert spectral.MAX_RK4_STEPS // 2048 == 512
        # strength 5000 takes 256 x 5001 steps a period, past the budget at cover 1
        steep = constant_loop(np.diag([5000.0, -5000.0]))
        monkeypatch.setattr(spectral, "_integrate_frames",
                            lambda *args: pytest.fail("integrated past the RK4 budget"))
        for compute in (monodromy, cz_crossing):
            with pytest.raises(SpectralResolutionError, match="cover 513 needs 513 x 2048"):
                compute(loop, 513)
            with pytest.raises(SpectralResolutionError,
                               match=r"cover 1 needs 1 x 1280256 RK4 steps, above the budget"):
                compute(steep, 1)

    def test_rejects_cover_below_one(self):
        for compute in (monodromy, cz_crossing):
            with pytest.raises(ValueError, match="cover"):
                compute(rotation_loop(1.0), 0)


#: The corpus cases where the sweep along the whole k-fold path raised
#: SpectralResolutionError and Bott's formula gives an integer: every cover of
#: the named loop from the given one through 16.  All are positive hyperbolic
#: loops whose stable direction the whole-path sweep loses once lambda^k is
#: large.
BOTT_CHANGED = {
    "c02_1": 9, "c02_4": 11, "c02_6": 13, "c02_10": 7, "c02_11": 11, "c02_12": 10,
    "c02_15": 14, "c02_17": 12, "r99_5": 13, "r99_7": 12, "r99_8": 14, "r99_12": 11,
    "r99_13": 14, "r99_15": 9, "r99_18": 13, "r99_20": 15, "r99_22": 12, "r99_23": 9,
    "r99_24": 15, "r99_26": 14, "r99_33": 16, "r99_36": 14, "r99_37": 14, "r99_39": 9,
}
#: the Bloch-route spectrum of a changed case: its loop resampled to this many
#: points, and a window that holds the eigenvalues next to 0 at every cover
BOTT_SAMPLES = 21
BOTT_WINDOW = 60.0


class TestBottIteration:
    """cz_crossing(loop, k) from one period against the sweep classifier along
    the whole k-fold path, on the fixture orbits, the criterion-02 loops and 40
    unscreened random loops (seed 99) at k = 1..16."""

    def test_corpus_matches_the_cover_path(self, fixture_catalog, trig_loops):
        loops = {name: fixture_catalog.orbit(name).model for name in FIXTURE_ORBITS}
        loops.update((f"c02_{i}", loop) for i, loop in enumerate(trig_loops))
        rng = np.random.default_rng(99)
        loops.update((f"r99_{i}", random_trig_loop(rng)) for i in range(40))
        assert len(loops) == 66
        changed = []
        for name, loop in loops.items():
            got_1 = _outcome(lambda: cz_crossing(loop, 1))
            # the one-period path does not depend on the cover
            period = spectral._integrate_frames(loop, spectral._step_count(loop, 1))
            # the path the crossing route swept before Bott's formula; that of
            # a k-fold cover is the first k periods of the 16-fold one
            full, n_steps = cover_path(period, 16), len(period) - 1
            for k in range(1, 17):
                got = _outcome(lambda: cz_crossing(loop, k))
                want = _outcome(lambda: reference_cz_from_path(full[: k * n_steps + 1]))
                if got == want:
                    continue
                changed.append((name, k))
                assert want is SpectralResolutionError, (name, k)
                assert np.trace(period[-1]) > 2, (name, k)
                assert got == k * got_1, (name, k)
                # the changed loops are trigonometric polynomials of degree 3,
                # so BOTT_SAMPLES samples carry them exactly, and the Bloch
                # route fits every changed cover into the grid budget
                table = spectrum_from_loop(loop.resample(BOTT_SAMPLES), BOTT_WINDOW, cover=k)
                alpha_minus = table.alpha_minus(0.0)
                parity = table.alpha_plus(0.0) - alpha_minus
                assert got == 2 * alpha_minus + parity, (name, k)
        assert changed == [(name, k) for name, first in BOTT_CHANGED.items()
                           for k in range(first, 17)]


class TestMonodromySource:
    """monodromy(loop, k) is P**k with P the last frame of the one-period scan,
    bit for bit, whether the record it reads was made by monodromy or by
    cz_crossing, and P is the sequential RK4 endpoint of one period to
    rounding."""

    @pytest.mark.parametrize("name", FIXTURE_ORBITS + ("trig0", "trig1", "zero"))
    def test_matches_the_scan(self, name, fixture_catalog):
        if name in FIXTURE_ORBITS:
            loop = fixture_catalog.orbit(name).model
        elif name == "zero":
            loop = FlowLoop(np.zeros((3, 2, 2)))
        else:
            loop = random_trig_loop(np.random.default_rng(31 + int(name[-1])))
        n_steps = spectral._step_count(loop, 1)
        scan = spectral._integrate_frames(loop, n_steps)
        want = reference_integrate_frames(loop, 1, None)[-1]
        assert np.max(np.abs(scan[-1] - want)) <= 1e-9 * np.max(np.abs(want))
        after_cz = FlowLoop(loop.samples)
        _outcome(lambda: cz_crossing(after_cz, 2))
        for k in (1, 2, 5, 16):
            power = np.linalg.matrix_power(scan[-1], k)
            for source in (loop, FlowLoop(loop.samples), after_cz):
                assert monodromy(source, k).tobytes() == power.tobytes(), (name, k)


class TestHalfGrid:
    """_uniform_values, which samples the RK4 half grid and every resample, is the
    dense Dirichlet-kernel interpolant (support.dense_value_at)."""

    def test_loads_no_fft_module(self):
        # numpy.fft loads lazily and stays resident: about 0.9 MB of peak RSS
        code = ("import sys, numpy as np; from hbcalc.spectral import FlowLoop, cz_crossing; "
                "cz_crossing(FlowLoop(np.tile(np.diag([1.0, 2.0]), (33, 1, 1)))); "
                "print('numpy.fft' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    @pytest.mark.parametrize("name", FIXTURE_ORBITS)
    def test_matches_dense_interpolation(self, name, fixture_catalog):
        loop = fixture_catalog.orbit(name).model
        m = 2 * max(2048, 256 * math.ceil(loop.strength() + 1))  # the default step count
        got = spectral._uniform_values(loop.samples, m)
        want = dense_value_at(loop, np.arange(m) / m)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(loop.samples))

    @pytest.mark.parametrize("name", FIXTURE_ORBITS)
    def test_resample_is_the_dense_interpolant(self, name, fixture_catalog):
        loop = fixture_catalog.orbit(name).model
        for m in (3, 17, loop.n + 2, 183):
            want = dense_value_at(loop, np.arange(m) / m)
            got = loop.resample(m).samples
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(loop.samples)), m

    def test_loop_longer_than_the_half_grid(self):
        # random samples: every frequency up to 100 is present, more than a grid
        # of 100 or fewer points resolves
        rng = np.random.default_rng(3)
        samples = rng.normal(size=(201, 2, 2))
        loop = FlowLoop(samples + np.transpose(samples, (0, 2, 1)))
        for m in (100, 7, 2, 201, 202):
            got = spectral._uniform_values(loop.samples, m)
            want = dense_value_at(loop, np.arange(m) / m)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(loop.samples)), m
        path = spectral._integrate_frames(loop, 50)  # half grid of 100
        want = reference_integrate_frames(loop, 2, 50)
        assert np.max(np.abs(path - want[:51])) <= 1e-12 * np.max(np.abs(want[:51]))
        got_p = np.linalg.matrix_power(path[-1], 2)  # two periods of the one-period frames
        assert np.max(np.abs(got_p - want[-1])) <= 1e-12 * np.max(np.abs(want[-1]))
