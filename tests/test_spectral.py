import math

import numpy as np
import pytest

from hbcalc import spectral
from hbcalc.errors import DegenerateThresholdError, HbcalcError, SpectralResolutionError
from hbcalc.spectral import (
    J0,
    DiscreteLoop,
    FlowLoop,
    build_operator,
    cz_crossing,
    fourier_diff_matrix,
    jacobi_eigh,
    monodromy,
    spectrum_from_loop,
    winding,
)

from support import (
    analytic_rotation_table,
    hyperbolic_loop,
    nondegenerate_trig_loop,
    reference_integrate_frames,
    rotating_axis_loop,
    rotation_loop,
)


def table_as_tuples(table, ndigits=9):
    return [(round(e.eigenvalue, ndigits), e.winding, e.multiplicity) for e in table.entries]


class TestFlowLoop:
    def test_rejects_even_sample_count(self):
        with pytest.raises(ValueError, match="odd"):
            FlowLoop(np.zeros((4, 2, 2)))

    def test_rejects_asymmetric_sample(self):
        samples = np.zeros((3, 2, 2))
        samples[0] = [[0.0, 1.0], [0.0, 0.0]]
        with pytest.raises(ValueError, match="symmetric"):
            FlowLoop(samples)

    def test_trig_interpolation_is_exact_for_resolved_loops(self):
        loop = rotating_axis_loop(1, n=11)
        fine = loop.resample(33)
        ts = np.arange(33) / 33
        expected = rotating_axis_loop(1, n=33).samples
        assert np.max(np.abs(fine.samples - expected)) < 1e-12
        assert np.max(np.abs(loop.value_at(ts) - expected)) < 1e-12

    def test_cover_scales_and_wraps(self):
        loop = rotating_axis_loop(1, n=11)
        double = loop.cover(2)
        ts = np.arange(double.n) / double.n
        expected = 2 * loop.value_at((2 * ts) % 1.0)
        assert np.max(np.abs(double.samples - expected)) < 1e-12
        assert double.period == 2 * loop.period


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

    def test_diff_matrix_differentiates_modes_exactly(self):
        n = 9
        d = fourier_diff_matrix(n)
        ts = np.arange(n) / n
        for m in range(-(n // 2), n // 2 + 1):
            f = np.exp(2j * math.pi * m * ts)
            assert np.max(np.abs(d @ f - 2j * math.pi * m * f)) < 1e-9


class TestWinding:
    def test_constant_loop(self):
        assert winding(DiscreteLoop.from_array([[1.0, 0.0]] * 7)) == 0

    def test_one_counterclockwise_turn(self):
        ts = np.arange(9) / 9
        pts = np.stack([np.cos(2 * math.pi * ts), np.sin(2 * math.pi * ts)], axis=1)
        assert winding(DiscreteLoop.from_array(pts)) == 1

    def test_two_clockwise_turns(self):
        ts = np.arange(17) / 17
        pts = np.stack([np.cos(4 * math.pi * ts), -np.sin(4 * math.pi * ts)], axis=1)
        assert winding(DiscreteLoop.from_array(pts)) == -2

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            winding(DiscreteLoop.from_array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))

    def test_under_resolved_loop_rejected(self):
        # three turns over ten points: 0.6*pi per step, beyond the guard
        ts = np.arange(10) / 10
        pts = np.stack([np.cos(6 * math.pi * ts), np.sin(6 * math.pi * ts)], axis=1)
        with pytest.raises(SpectralResolutionError):
            winding(DiscreteLoop.from_array(pts))


class TestRotationSpectrum:
    def test_matches_analytic_solve(self):
        table = spectrum_from_loop(rotation_loop(math.pi / 2), window=10.0)
        expected = analytic_rotation_table(math.pi / 2, 10.0)
        assert len(table.entries) == len(expected)
        for entry, (lam, w, mult) in zip(table.entries, expected):
            assert entry.eigenvalue == pytest.approx(lam, rel=1e-8)
            assert entry.winding == w
            assert entry.multiplicity == mult

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
            covered = spectrum_from_loop(loop.cover(k), window=k * 2.5 + 4.0)
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
        table = spectrum_from_loop(loop.cover(2), window=8.0)
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


class TestJacobi:
    def test_agrees_with_numpy_on_random_symmetric(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(60, 60))
        m = m + m.T
        vals, vecs = jacobi_eigh(m)
        expected = np.linalg.eigh(m)[0]
        assert np.max(np.abs(vals - expected)) < 1e-10
        assert np.max(np.abs(m @ vecs - vecs * vals[None, :])) < 1e-9

    def test_spectrum_solver_option(self):
        loop = rotation_loop(math.pi / 2, n=21)
        via_jacobi = spectrum_from_loop(loop, window=8.0, grid=21, solver="jacobi")
        via_eigh = spectrum_from_loop(loop, window=8.0, grid=21)
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
    def test_matches_sequential_rk4(self, name, fixture_catalog, monkeypatch):
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
        full = reference_integrate_frames(loop, top, None, keep_path=True)
        n_steps = (len(full) - 1) // top
        for k in ORACLE_COVERS:
            got_p = monodromy(loop, k)
            got_cz = _outcome(lambda: cz_crossing(loop, k))
            path = full[: k * n_steps + 1]
            got_path = spectral._integrate_frames(loop, k, None, keep_path=True)
            scale = np.max(np.abs(path), axis=(1, 2), keepdims=True)
            assert np.max(np.abs(got_path - path) / scale) <= 1e-9, k
            want_p = path[-1]
            assert np.max(np.abs(got_p - want_p)) <= 1e-9 * np.max(np.abs(want_p)), k
            power = np.linalg.matrix_power(monodromy(loop), k)
            assert np.max(np.abs(got_p - power)) <= 1e-12 * np.max(np.abs(power)), k
            with monkeypatch.context() as patch:
                patch.setattr(
                    spectral, "_integrate_frames",
                    lambda *args, keep_path: path if keep_path else path[-1:],
                )
                want_cz = _outcome(lambda: cz_crossing(loop, k))
            assert got_cz == want_cz, k
            if name == "zero" or (name, k) == ("rot3", 4):
                assert want_cz is DegenerateThresholdError

    def test_rejects_cover_below_one(self):
        for compute in (monodromy, cz_crossing):
            with pytest.raises(ValueError, match="cover"):
                compute(rotation_loop(1.0), 0)
