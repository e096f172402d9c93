"""Shared test helpers: fixture paths, loop builders, random corpora, oracles.

Also the helpers that only tests use, kept out of src/hbcalc: constant
loops (`constant_loop`), the arithmetic genus of a connected building
(`arithmetic_genus`), and catalog serialization (`catalog_to_data`, from
tools/make_fixtures.py).
"""

from __future__ import annotations

import contextlib
import importlib.util
import itertools
import math
import pathlib
from dataclasses import replace

import numpy as np

from hbcalc.buildings import (
    Building,
    Component,
    Puncture,
    Site,
    component_graph,
    core,
    euler_char,
    is_connected,
    is_trivial_cylinder,
    set_constraints,
    trivial_breaking_pairs,
)
from hbcalc.degeneration import Asymptotics, LimitType, breaking_candidates
from hbcalc.errors import (
    BuildingError,
    CatalogError,
    DegenerateThresholdError,
    HbcalcError,
    IncompleteInputError,
    InconsistentDataError,
    InputError,
    InternalCheckError,
    NoCoreError,
    SpectralResolutionError,
)
from hbcalc.index_calculus import (
    AdditivityReport,
    ComponentReport,
    DefectReport,
    IndexReport,
)
from hbcalc import spectral
from hbcalc.orbits import Catalog, OrbitRef
from hbcalc.spectral import (
    CLUSTER_TOL,
    J0,
    MAX_STEP_ANGLE,
    WINDING_GUARD,
    FlowLoop,
    build_operator,
    check_grid_budget,
    default_grid,
    monodromy,
    next_odd,
    spectrum_from_loop,
)

REPO = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"

#: the five orbits the random corpus draws from
CORPUS_ORBITS = ("rot_p", "rot_m", "hyp_even", "hyp_odd", "hyp2")


# --- model loops -------------------------------------------------------------


def tool(name: str):
    """A script under tools/, imported as a module (its main() does not run)."""
    spec = importlib.util.spec_from_file_location(name, REPO / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the fixture generator defines the model loops of the shipped catalogs
_fixtures = tool("make_fixtures")
rotation_loop = _fixtures.rotation_loop
hyperbolic_loop = _fixtures.hyperbolic_loop
rotating_axis_loop = _fixtures.rotating_axis_loop
catalog_to_data = _fixtures.catalog_to_data


def constant_loop(matrix, n: int = 33) -> FlowLoop:
    """The loop whose n samples all equal the 2x2 `matrix`."""
    return FlowLoop(np.tile(np.asarray(matrix, dtype=float), (n, 1, 1)))


def analytic_rotation_table(theta: float, window: float):
    """Exact spectrum of the constant-rotation operator: 2*pi*m - theta with
    winding m and multiplicity two (the independent oracle for that model)."""
    out = []
    m = math.floor((-window + theta) / (2 * math.pi)) - 1
    while True:
        lam = 2 * math.pi * m - theta
        if lam > window:
            break
        if lam >= -window:
            out.append((lam, m, 2))
        m += 1
    return out


def random_trig_loop(rng: np.random.Generator, degree: int = 3, scale: float = 2.0,
                     n: int = 201) -> FlowLoop:
    ts = np.arange(n) / n

    def series():
        out = np.full(n, rng.uniform(-scale, scale))
        for d in range(1, degree + 1):
            out += rng.uniform(-scale, scale) * np.cos(2 * math.pi * d * ts)
            out += rng.uniform(-scale, scale) * np.sin(2 * math.pi * d * ts)
        return out

    s11, s12, s22 = series(), series(), series()
    arr = np.empty((n, 2, 2))
    arr[:, 0, 0] = s11
    arr[:, 0, 1] = s12
    arr[:, 1, 0] = s12
    arr[:, 1, 1] = s22
    return FlowLoop(arr)


def nondegenerate_trig_loop(rng: np.random.Generator, **kwargs) -> FlowLoop:
    """Random loop whose covers 1 and 2 are safely nondegenerate."""
    while True:
        loop = random_trig_loop(rng, **kwargs)
        try:
            ok = True
            for k in (1, 2):
                tr = float(np.trace(monodromy(loop, k)))
                if abs(tr - 2.0) < 1e-3:
                    ok = False
                    break
                table = spectrum_from_loop(dense_cover(loop, k), window=1.0)
                if table.min_abs_eigenvalue() < 0.05:
                    ok = False
                    break
        except (SpectralResolutionError, DegenerateThresholdError):
            ok = False
        if ok:
            return loop


# --- eigensolver oracle --------------------------------------------------------


def jacobi_eigh(matrix, tol: float = 1e-12, max_sweeps: int = 100):
    """Self-contained cyclic Jacobi diagonalization of a symmetric matrix.

    Rotations are applied in round-robin rounds of disjoint pivot pairs so
    each round is a handful of vectorized row/column updates.  Returns
    (eigenvalues ascending, column eigenvectors), like numpy.linalg.eigh.
    Intended for desk-scale matrices and as an eigensolver cross-check.
    """
    a = np.array(matrix, dtype=float, copy=True)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if np.max(np.abs(a - a.T)) > 1e-10 * max(1.0, np.max(np.abs(a))):
        raise ValueError("matrix must be symmetric")
    v = np.eye(n)
    if n == 1:
        return a.diagonal().copy(), v

    # round-robin tournament schedule over (padded) indices
    m = n if n % 2 == 0 else n + 1
    ring = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [(ring[i], ring[m - 1 - i]) for i in range(m // 2)]
        rounds.append([(p, q) if p < q else (q, p) for p, q in pairs if p < n and q < n])
        ring = [ring[0]] + [ring[-1]] + ring[1:-1]

    scale = max(1.0, float(np.max(np.abs(a))))
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.square(a - np.diag(a.diagonal()))))
        if off <= tol * scale:
            break
        for pairs in rounds:
            p = np.array([pq[0] for pq in pairs])
            q = np.array([pq[1] for pq in pairs])
            apq = a[p, q]
            active = np.abs(apq) > 1e-300
            if not np.any(active):
                continue
            phi = 0.5 * np.arctan2(2 * apq, a[p, p] - a[q, q])
            c = np.cos(phi)
            s = np.sin(phi)
            c[~active] = 1.0
            s[~active] = 0.0
            rp = a[p, :].copy()
            rq = a[q, :].copy()
            a[p, :] = c[:, None] * rp + s[:, None] * rq
            a[q, :] = -s[:, None] * rp + c[:, None] * rq
            cp = a[:, p].copy()
            cq = a[:, q].copy()
            a[:, p] = c[None, :] * cp + s[None, :] * cq
            a[:, q] = -s[None, :] * cp + c[None, :] * cq
            vp = v[:, p].copy()
            vq = v[:, q].copy()
            v[:, p] = c[None, :] * vp + s[None, :] * vq
            v[:, q] = -s[None, :] * vp + c[None, :] * vq
    vals = a.diagonal().copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], v[:, order]


# --- dense cover oracle ----------------------------------------------------------


def dense_value_at(loop: FlowLoop, ts) -> np.ndarray:
    """Trigonometric interpolation of the loop's samples at times ts (mod 1),
    through the dense Dirichlet kernel: O(len(ts) * n) sines.

    Exact whenever the underlying loop is a trigonometric polynomial of
    degree <= (n - 1) / 2.  The oracle for hbcalc.spectral._uniform_values,
    which FlowLoop.resample and the RK4 half grid use.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    n = loop.n
    x = ts[:, None] - np.arange(n)[None, :] / n
    # Dirichlet kernel sin(n pi x) / (n sin(pi x)), value 1 at x in Z
    num = np.sin(n * np.pi * x)
    den = n * np.sin(np.pi * x)
    near = np.abs(den) < 1e-13
    den[near] = 1.0
    kernel = num / den
    kernel[near] = 1.0
    return np.einsum("tj,jab->tab", kernel, loop.samples)


def dense_cover(loop: FlowLoop, k: int, grid: int | None = None) -> FlowLoop:
    """Coefficient loop of the k-fold cover, S_k(t) = k S(kt mod 1), sampled
    on `grid` points (by default next_odd(k * loop.n)).

    Its solve on `grid` points is one dense eigenproblem of dimension
    2 * grid: the oracle for the Bloch blocks of spectrum_from_loop(loop,
    window, grid, cover=k).
    """
    if k < 1:
        raise ValueError(f"cover must be >= 1, got {k}")
    if k == 1 and grid is None:
        return loop
    n = next_odd(k * loop.n) if grid is None else grid
    ts = (k * np.arange(n) / n) % 1.0
    return FlowLoop(k * dense_value_at(loop, ts))


@contextlib.contextmanager
def eigh_dims():
    """Record the dimension of every numpy.linalg.eigh call made in the block."""
    dims = []
    real = np.linalg.eigh

    def eigh(a, *args, **kwargs):
        dims.append(np.shape(a)[-1])
        return real(a, *args, **kwargs)

    np.linalg.eigh = eigh
    try:
        yield dims
    finally:
        np.linalg.eigh = real


class DenseCoverCatalog(Catalog):
    """A Catalog that solves every flow cover as one dense problem of
    dimension 2n: spectrum_from_loop(dense_cover(loop, k, n), window, grid=n)
    on the grid n that ``Catalog`` uses.  The oracle for the Bloch-block route
    of ``Catalog``; it keeps no solve."""

    def _compute_flow_table(self, orbit, k, window, grid):
        loop = orbit.model
        n = grid or default_grid(loop.n, k, window, loop.strength())
        check_grid_budget(n)  # before sampling: a cover far past the budget has millions of points
        with eigh_dims() as dims:
            table = spectrum_from_loop(dense_cover(loop, k, n), window, grid=n)
        assert dims == [2 * n], dims
        if table.min_abs_eigenvalue() <= table.cluster_tol():
            raise CatalogError(f"orbit {orbit.id!r} cover {k} is degenerate (0 is an eigenvalue)")
        return table


def loader_argv(fixture: str, path: str) -> list[str]:
    """The command that loads the file `path` in the role of the fixture named
    `fixture` (a catalog, building or asymptotics file)."""
    catalog = str(FIXTURES / "catalog_demo.json")
    if fixture == "catalog_table.json":
        return ["spectrum", "--catalog", path, "--orbit", "rot_tab", "--window", "10"]
    if fixture.startswith("catalog"):
        return ["index", "--catalog", path, "--building", str(FIXTURES / "building_figure3.json")]
    if fixture.startswith("building"):
        return ["index", "--catalog", catalog, "--building", path]
    return ["enumerate", "--catalog", catalog, "--asymptotics", path]


def _outcome(fn):
    try:
        return fn()
    except HbcalcError as exc:
        return type(exc)


def cover_outcomes(catalog: Catalog, ref: OrbitRef, windows, invariants: bool = True) -> list:
    """(query, result or exception class) for the tables of `ref` at each
    window, in order, then its cz_index (both extremal windings, parity and
    index at cut 0) and is_bad."""
    out = []
    for window in windows:
        table = _outcome(lambda: catalog.table(ref, window))
        if isinstance(table, type):
            out.append((("table", window), table))
        else:
            rows = [(e.winding, e.multiplicity) for e in table.entries]
            eigenvalues = [e.eigenvalue for e in table.entries]
            out.append((("table", window), (rows, table.grid, eigenvalues)))
    if invariants:
        out.append((("cz_index",), _outcome(lambda: catalog.cz_index(ref))))
        out.append((("is_bad",), _outcome(lambda: catalog.is_bad(ref))))
    return out


def outcome_differences(got: list, want: list) -> list[str]:
    """How two cover_outcomes lists differ: rows, grid, invariants and exception
    classes must be identical, eigenvalues within CLUSTER_TOL * window."""
    problems = []
    for (query, a), (query_b, b) in zip(got, want, strict=True):
        assert query == query_b
        if query[0] != "table" or isinstance(a, type) or isinstance(b, type):
            if a != b:
                problems.append(f"{query}: {a} != {b}")
            continue
        if a[:2] != b[:2]:
            problems.append(f"{query}: rows or grid differ")
            continue
        tol = CLUSTER_TOL * max(1.0, query[1])
        worst = max((abs(x - y) for x, y in zip(a[2], b[2])), default=0.0)
        if worst > tol:
            problems.append(f"{query}: eigenvalues differ by {worst:.3g} > {tol:.3g}")
    return problems


# --- per-loop winding reference -----------------------------------------------


def reference_winding(points) -> int:
    """Winding of one (n, 2) loop of plane vectors, one loop per call.

    Oracle for the batched ``hbcalc.spectral._windings``: the per-loop reader
    the spectral tables used before windings were read in batches, with its
    checks in the same order (zero vector, coarse step, off-integer total).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected points of shape (n, 2), got {pts.shape}")
    norms = np.hypot(pts[:, 0], pts[:, 1])
    if np.min(norms) <= 1e-13 * max(1.0, float(np.max(norms))):
        raise ValueError("loop contains a (numerically) zero vector")
    nxt = np.concatenate((pts[1:], pts[:1]))
    cross = pts[:, 0] * nxt[:, 1] - pts[:, 1] * nxt[:, 0]
    dot = pts[:, 0] * nxt[:, 0] + pts[:, 1] * nxt[:, 1]
    steps = np.arctan2(cross, dot)
    if np.max(np.abs(steps)) >= MAX_STEP_ANGLE:
        raise SpectralResolutionError(
            "winding step angle exceeds pi/2; sample the loop on a finer grid"
        )
    total = float(np.sum(steps)) / (2 * math.pi)
    nearest = round(total)
    if abs(total - nearest) > WINDING_GUARD:
        raise SpectralResolutionError(
            f"winding {total:.4f} is not within {WINDING_GUARD} of an integer; "
            "increase the grid"
        )
    return int(nearest)


# --- operator build and cluster means references ----------------------------


def reference_fourier_diff_matrix(n: int) -> np.ndarray:
    """The spectral differentiation matrix from all n^2 entries of the formula:
    the oracle for ``hbcalc.spectral.fourier_diff_matrix``, which must give the
    same bytes."""
    j = np.arange(n)
    diff = j[:, None] - j[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.pi * (-1.0) ** diff / np.sin(np.pi * diff / n)
    np.fill_diagonal(d, 0.0)
    return d


def reference_build_operator(loop: FlowLoop) -> np.ndarray:
    """-D (x) J0 - blockdiag(S(t_j)) as a Kronecker product and one subtraction
    per sample: the oracle for ``hbcalc.spectral.build_operator``, which must
    give the same bytes, signed zeros included."""
    n = loop.n
    a = -np.kron(reference_fourier_diff_matrix(n), J0)
    for i in range(n):
        a[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] -= loop.samples[i]
    return a


def reference_antiperiodic_block(loop: FlowLoop, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(R, P) for Bloch block k/2 of an even cover, as dense products: R is
    build_operator(loop.resample(m)) with each derivative entry (p, q) times
    cos(pi (p - q) / m), and P = H (x) I_2, with H the Householder reflector
    that takes n = (-1)^p / sqrt(m) to e_0.  The oracle for
    ``hbcalc.spectral._antiperiodic_eigenpairs``, which solves (P R P)[2:, 2:]
    and reflects its eigenvectors, padded with two zeros, back by P."""
    p = np.arange(m)
    cos = np.cos(np.pi * (p[:, None] - p[None, :]) / m)
    r = build_operator(loop.resample(m)) * np.kron(cos, np.ones((2, 2)))
    v = (-1.0) ** p / math.sqrt(m) - np.eye(m)[0]
    return r, np.kron(np.eye(m) - 2 * np.outer(v, v) / (v @ v), np.eye(2))


def reference_cluster_means(vals: np.ndarray, starts, ends) -> list[float]:
    """np.mean of each cluster vals[start:end], one cluster at a time: the
    oracle for ``hbcalc.spectral._cluster_means``."""
    members = vals.tolist()
    return [float(np.mean(members[start:end])) for start, end in zip(starts, ends)]


# --- crossing-form reference ---------------------------------------------------


def reference_cz_crossing(loop: FlowLoop, cover: int = 1, steps: int | None = None) -> int:
    """cz_crossing as one call that integrates and sweeps its own period: the
    oracle for the crossing record that ``hbcalc.spectral.cz_crossing`` keeps
    on each loop.  Every cover gives the same integer, or raises the same
    exception class with the same message, except that a hyperbolic monodromy
    whose power overflows is called degenerate here."""
    path = spectral._integrate_frames(loop, steps or spectral._step_count(loop, cover))
    p = path[-1]
    tr_cover = float(np.trace(np.linalg.matrix_power(p, cover)))
    if abs(tr_cover - 2.0) <= 1e-9 * max(1.0, abs(tr_cover)):
        raise DegenerateThresholdError(
            f"monodromy has eigenvalue 1 within tolerance (trace {tr_cover!r}); "
            "the orbit is degenerate"
        )
    tr = float(np.trace(p))
    if tr > 2.0:
        evals, evecs = np.linalg.eig(p)
        order = np.argsort(-evals.real)
        dirs = np.real(evecs[:, order])
        dirs = dirs / np.linalg.norm(dirs, axis=0)
        sweeps = spectral._swept_angles(path, dirs) / (2 * math.pi)
        rounded = [round(x) for x in sweeps]
        if any(abs(s - r) > WINDING_GUARD for s, r in zip(sweeps, rounded)) or (
            rounded[0] != rounded[1]
        ):
            raise SpectralResolutionError(
                f"eigenvector sweeps {sweeps} are not a clean integer; "
                "increase the step count"
            )
        return cover * 2 * int(rounded[0])
    angles = np.arange(16) * (math.pi / 16)
    dirs = np.vstack([np.cos(angles), np.sin(angles)])
    floors = np.floor(spectral._swept_angles(path, dirs) / (2 * math.pi)).astype(int)
    if len(set(floors.tolist())) != 1:
        raise SpectralResolutionError(
            "swept angles straddle a multiple of 2 pi; near-degenerate orbit or "
            "insufficient step count"
        )
    if tr < -2.0:
        return cover * (2 * int(floors[0]) + 1)
    theta = math.acos(tr / 2) / (2 * math.pi)
    if p[1, 0] < 0:
        theta = 1.0 - theta
    turns = cover * (int(floors[0]) + theta)
    if abs(turns - round(turns)) < 1e-6:
        raise DegenerateThresholdError(
            "a swept angle is numerically an integer multiple of 2 pi while the "
            "monodromy is not positive hyperbolic; the orbit is near-degenerate"
        )
    return 2 * math.floor(turns) + 1


def crossing_outcome(compute):
    """The integer compute() returns, or the class and message of what it raises."""
    try:
        return compute()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return (type(exc), str(exc))


# --- sequential RK4 reference ------------------------------------------------


def reference_integrate_frames(loop: FlowLoop, cover: int, steps: int | None) -> np.ndarray:
    """RK4 for Psi' = J0 S(t) Psi taken one step at a time over `cover` periods:
    the frames [I, Psi(h), ..., Psi(cover)].

    Oracle for ``hbcalc.spectral._integrate_frames`` (one period) and
    ``monodromy`` (P**cover): same step count, same half-grid samples, but no
    closed-form step matrices, no scan and no cover shortcut.
    """
    if cover < 1:
        raise ValueError(f"cover must be >= 1, got {cover}")
    strength = loop.strength()
    n_steps = steps or max(2048, 256 * int(math.ceil(strength + 1)))
    h = 1.0 / n_steps
    ts = np.arange(2 * n_steps + 1) * (h / 2)
    s_half = dense_value_at(loop, ts % 1.0)
    a_half = np.einsum("ij,tjk->tik", J0, s_half)

    total = cover * n_steps
    path = np.empty((total + 1, 2, 2))
    psi = np.eye(2)
    path[0] = psi
    for step in range(total):
        j = 2 * (step % n_steps)
        a0, a1, a2 = a_half[j], a_half[j + 1], a_half[j + 2]
        k1 = a0 @ psi
        k2 = a1 @ (psi + 0.5 * h * k1)
        k3 = a1 @ (psi + 0.5 * h * k2)
        k4 = a2 @ (psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        path[step + 1] = psi
    return path


def cover_path(period: np.ndarray, cover: int) -> np.ndarray:
    """The frames of `cover` periods from the frames of one: S is periodic, so
    Psi(t + j) = Psi(t) P^j with P = period[-1]."""
    n_steps = len(period) - 1
    powers = [np.linalg.matrix_power(period[-1], j) for j in range(cover + 1)]
    path = np.empty((cover * n_steps + 1, 2, 2))
    for j in range(cover):
        path[j * n_steps : (j + 1) * n_steps] = period[:-1] @ powers[j]
    path[-1] = powers[-1]
    return path


def _reference_sweeps(path: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Total angle swept by Psi(t) z, over 2 pi, for each column z of `directions`."""
    w = np.einsum("tij,jk->tik", path, directions)
    x, y = w[:-1, 0], w[:-1, 1]
    nx, ny = w[1:, 0], w[1:, 1]
    d = np.arctan2(x * ny - y * nx, x * nx + y * ny)  # signed step angles
    if np.max(np.abs(d)) >= MAX_STEP_ANGLE:
        raise SpectralResolutionError(
            "flow integration step sweeps more than pi/2; increase the step count"
        )
    return np.sum(d, axis=0) / (2 * math.pi)


def reference_cz_from_path(path: np.ndarray) -> int:
    """Conley-Zehnder index of a linearized-flow path Psi(t), Psi(0) = I, read
    off its swept angles along the whole path: the eigenvectors' integer sweep
    for a positive hyperbolic endpoint, else 2 floor(sweep) + 1 agreed by 16
    directions.  Applied to a k-fold cover path, it is the crossing route
    without Bott's iteration formula."""
    p = path[-1]
    tr = float(np.trace(p))
    if abs(tr - 2.0) <= 1e-9 * max(1.0, abs(tr)):
        raise DegenerateThresholdError(f"monodromy trace {tr!r} is 2 within tolerance")
    if tr > 2.0:
        evals, evecs = np.linalg.eig(p)
        dirs = np.real(evecs[:, np.argsort(-evals.real)])
        sweeps = _reference_sweeps(path, dirs / np.linalg.norm(dirs, axis=0))
        rounded = [round(x) for x in sweeps]
        if any(abs(s - r) > WINDING_GUARD for s, r in zip(sweeps, rounded)) or (
            rounded[0] != rounded[1]
        ):
            raise SpectralResolutionError(f"eigenvector sweeps {sweeps} are not an integer")
        return 2 * int(rounded[0])
    angles = np.arange(16) * (math.pi / 16)
    sweeps = _reference_sweeps(path, np.vstack([np.cos(angles), np.sin(angles)]))
    if np.min(np.abs(sweeps - np.round(sweeps))) < 1e-6:
        raise DegenerateThresholdError("a swept angle is numerically an integer")
    floors = set(np.floor(sweeps).astype(int).tolist())
    if len(floors) != 1:
        raise SpectralResolutionError("swept angles straddle a multiple of 2 pi")
    return 2 * floors.pop() + 1


# --- arithmetic genus ------------------------------------------------------------


def arithmetic_genus(building: Building) -> int:
    """Genus of the glued compactified surface of a connected building: the
    oracle for ``IndexReport.genus``, from the Euler characteristic and the
    external ends alone."""
    if not is_connected(building):
        raise BuildingError("arithmetic genus is defined for connected buildings only")
    # 2 - n_ext - chi = 2 (1 - #components + sum of genera + #pairs + #nodes)
    return (2 - len(building.external_sites()) - euler_char(building)) // 2


# --- per-pair trivial-breaking reference ---------------------------------------


def reference_trivial_breaking(building: Building, pair_index: int) -> bool:
    """Whether one breaking pair is trivial, decided by deleting it and searching.

    Oracle for ``hbcalc.buildings.trivial_breaking_pairs``: rebuilds the
    building without the pair, then searches the graph from both endpoints
    (no low-links, no subtree counts).  Works on disconnected buildings.
    """
    pos_site, neg_site = building.breaking_pairs[pair_index]
    trimmed = replace(
        building,
        breaking_pairs=tuple(
            p for i, p in enumerate(building.breaking_pairs) if i != pair_index
        ),
    )
    adj = component_graph(trimmed)

    def reachable(start):
        seen = {start}
        stack = [start]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    side = reachable(pos_site[0])
    if neg_site[0] in side:
        return False  # deletion does not disconnect
    other = reachable(neg_site[0])
    return any(
        all(is_trivial_cylinder(trimmed.component(cid)) for cid in piece)
        for piece in (side, other)
    )


# --- iterative core reference ---------------------------------------------------


def reference_core(building: Building) -> Building:
    """Collapse trivial cylinders one at a time, rebuilding after each.

    Oracle for ``hbcalc.buildings.core``: scans the cylinders in id order,
    collapses the first one it can (splicing its two partners, or moving its
    external constraint onto its one partner) into a new validated building,
    and restarts; raises NoCoreError when cylinders remain and none collapses.
    """
    current = building
    while True:
        cylinders = sorted(
            c.id for c in current.components if is_trivial_cylinder(c)
        )
        if not cylinders:
            return current
        progressed = False
        for cid in cylinders:
            if current.node_endpoints(cid) > 0:
                continue  # augmentation never attaches nodes to its cylinders
            comp = current.component(cid)
            pos_idx = next(i for i, p in enumerate(comp.punctures) if p.sign == 1)
            neg_idx = next(i for i, p in enumerate(comp.punctures) if p.sign == -1)
            pos_site = (cid, pos_idx)
            neg_site = (cid, neg_idx)
            up = current.pair_partner(pos_site)  # negative puncture above
            down = current.pair_partner(neg_site)  # positive puncture below
            if up is not None and up[0] == cid:
                continue  # self-glued cylinder: irreducible
            if up is None and down is None:
                continue  # standalone cylinder piece: irreducible
            pairs = [
                p
                for p in current.breaking_pairs
                if pos_site not in p and neg_site not in p
            ]
            comps = tuple(c for c in current.components if c.id != cid)
            if up is not None and down is not None:
                pairs.append((down, up))
                current = Building(
                    components=comps,
                    breaking_pairs=tuple(pairs),
                    nodal_pairs=current.nodal_pairs,
                )
            else:
                # one end external: its constraint moves to the severed partner
                if up is None:
                    outer = current.puncture(pos_site)
                    partner = down
                else:
                    outer = current.puncture(neg_site)
                    partner = up
                new_comps = []
                for c in comps:
                    if c.id != partner[0]:
                        new_comps.append(c)
                        continue
                    puncts = list(c.punctures)
                    puncts[partner[1]] = replace(
                        puncts[partner[1]], constraint=outer.constraint
                    )
                    new_comps.append(replace(c, punctures=tuple(puncts)))
                current = Building(
                    components=tuple(new_comps),
                    breaking_pairs=tuple(pairs),
                    nodal_pairs=current.nodal_pairs,
                )
            progressed = True
            break
        if not progressed:
            raise NoCoreError(
                "building has no core: a connected piece consists entirely of "
                "trivial cylinders"
            )


# --- per-function index formulas ----------------------------------------------
#
# The index layer as it was before every formula became a sum over the rows of
# ``hbcalc.index_calculus.ends``: each function resolves the constraints and
# asks the catalog again.  Oracle for the single pass (same values, same
# exception classes, same spectral queries).  These functions still take a
# map of constraint overrides; the single pass reads the constraints stored
# on the punctures, so it is compared on ``set_constraints(building, map)``.

ConstraintMap = dict[Site, float]


def reference_resolve_constraints(building: Building,
                                  constraints: ConstraintMap | None) -> ConstraintMap:
    """Constraints for every external puncture: inline values overridden by
    the supplied map (whose keys must be external sites)."""
    sites = building.external_sites()
    out = {site: building.puncture(site).constraint for site in sites}
    if constraints:
        site_set = set(sites)
        for site, value in constraints.items():
            if site not in site_set:
                raise BuildingError(f"constraint keyed by non-external site {site}")
            if value < 0:
                raise BuildingError(f"constraint at {site} must be >= 0, got {value}")
            out[site] = float(value)
    return out


def detached_piece(building: Building, cid: str) -> tuple[Building, dict[Site, float]]:
    """One component as a one-component building, with its end constraints:
    every puncture external, at its stored constraint (zero at a severed
    breaking puncture)."""
    comp = building.component(cid)
    return Building(components=(comp,)), {(cid, i): p.constraint
                                          for i, p in enumerate(comp.punctures)}


def reference_threshold(sign: int, constraint: float) -> float:
    # positive punctures are cut at -c, negative punctures at +c
    return -constraint if sign == 1 else constraint


def reference_cz_total(catalog: Catalog, building: Building,
             constraints: ConstraintMap | None = None) -> int:
    cs = reference_resolve_constraints(building, constraints)
    total = 0
    for site, c in cs.items():
        p = building.puncture(site)
        mu = catalog.cz_index(p.orbit, reference_threshold(p.sign, c)).mu_cz
        total += mu if p.sign == 1 else -mu
    return total


def reference_fredholm_index(catalog: Catalog, building: Building,
                   constraints: ConstraintMap | None = None) -> int:
    c1 = sum(c.rel_c1 for c in building.components)
    return -euler_char(building) + 2 * c1 + reference_cz_total(catalog, building, constraints)


def reference_puncture_parities(catalog: Catalog, building: Building,
                      constraints: ConstraintMap | None = None
                      ) -> tuple[tuple[Site, ...], tuple[Site, ...]]:
    """External punctures partitioned by constrained parity (even, odd)."""
    cs = reference_resolve_constraints(building, constraints)
    gamma0, gamma1 = [], []
    for site in sorted(cs):
        p = building.puncture(site)
        parity = catalog.cz_index(p.orbit, reference_threshold(p.sign, cs[site])).parity
        (gamma0 if parity == 0 else gamma1).append(site)
    return tuple(gamma0), tuple(gamma1)


def reference_normal_chern(catalog: Catalog, building: Building,
                 constraints: ConstraintMap | None = None) -> int:
    cs = reference_resolve_constraints(building, constraints)
    c1 = sum(c.rel_c1 for c in building.components)
    alpha_sum = 0
    for site, c in cs.items():
        p = building.puncture(site)
        summary = catalog.cz_index(p.orbit, reference_threshold(p.sign, c))
        if p.sign == 1:
            alpha_sum += summary.alpha_minus
        else:
            alpha_sum -= summary.alpha_plus
    cn = c1 - euler_char(building) + alpha_sum
    if is_connected(building):
        ind = reference_fredholm_index(catalog, building, constraints)
        genus = arithmetic_genus(building)
        gamma0, _ = reference_puncture_parities(catalog, building, constraints)
        if 2 * cn != ind - 2 + 2 * genus + len(gamma0):
            raise InternalCheckError(
                f"normal Chern number {cn} violates 2c_N = ind - 2 + 2g + #even "
                f"(ind={ind}, g={genus}, #even={len(gamma0)})"
            )
    return cn


def reference_defect(catalog: Catalog, building: Building, comp_id: str,
           constraints: ConstraintMap | None = None) -> DefectReport | None:
    """Per-puncture |extremal winding - controlling winding| for one component.

    The component is taken with its induced constraints (breaking punctures
    at zero).  Trivial and constant components have no defect; returns None.
    When the component declares wind_pi, wind_pi + total defect must equal its
    normal Chern number; otherwise the implied wind_pi must be nonnegative.
    """
    comp = building.component(comp_id)
    if comp.kind != "nontrivial":
        return None
    piece, induced = detached_piece(building, comp_id)
    if constraints:
        external = set(building.external_sites())
        for site, value in constraints.items():
            if site in induced and site in external:
                induced[site] = float(value)
    missing = [site for site in piece.external_sites()
               if piece.puncture(site).controlling_winding is None]
    if missing:
        raise IncompleteInputError(
            f"component {comp_id!r} lacks controlling windings at {missing}",
            sites=missing,
        )
    per = []
    total = 0
    for site in piece.external_sites():
        p = piece.puncture(site)
        c = induced[site]
        summary = catalog.cz_index(p.orbit, reference_threshold(p.sign, c))
        extremal = summary.alpha_minus if p.sign == 1 else summary.alpha_plus
        d = abs(extremal - p.controlling_winding)
        per.append((site, d))
        total += d
    cn = reference_normal_chern(catalog, piece, induced)
    if comp.wind_pi is not None:
        if comp.wind_pi + total != cn:
            raise InconsistentDataError(
                f"component {comp_id!r}: wind_pi {comp.wind_pi} + defect {total} "
                f"!= c_N {cn}"
            )
        wind_pi = comp.wind_pi
    else:
        wind_pi = cn - total
        if wind_pi < 0:
            raise InconsistentDataError(
                f"component {comp_id!r}: defect {total} exceeds c_N {cn}, "
                "forcing wind_pi < 0"
            )
    return DefectReport(per_puncture=tuple(per), total=total, wind_pi=wind_pi)


def reference_component_reports(catalog: Catalog, building: Building,
                      constraints: ConstraintMap | None = None) -> list[ComponentReport]:
    cs = reference_resolve_constraints(building, constraints)
    out = []
    for comp in sorted(building.components, key=lambda c: c.id):
        piece, induced = detached_piece(building, comp.id)
        for site in induced:
            if site in cs:
                induced[site] = cs[site]
        ind = reference_fredholm_index(catalog, piece, induced)
        cn = reference_normal_chern(catalog, piece, induced)
        defect_total = None
        consistent = True
        if comp.kind == "nontrivial":
            try:
                report = reference_defect(catalog, building, comp.id, constraints)
                defect_total = report.total
            except IncompleteInputError:
                pass
            except InconsistentDataError:
                consistent = False
        out.append(
            ComponentReport(
                component=comp.id,
                induced_constraints=tuple(sorted(induced.items())),
                index=ind,
                c_n=cn,
                defect_total=defect_total,
                wind_pi_consistent=consistent,
            )
        )
    return out


def reference_verify_additivity(catalog: Catalog, building: Building,
                      constraints: ConstraintMap | None = None) -> AdditivityReport:
    """Check index and c_N additivity over components exactly; mismatches are
    internal errors (these are theorems, not data checks)."""
    reports = reference_component_reports(catalog, building, constraints)
    parity_sum = 0
    for pos_site, _ in building.breaking_pairs:
        parity_sum += catalog.parity(building.puncture(pos_site).orbit)
    report = AdditivityReport(
        index_total=reference_fredholm_index(catalog, building, constraints),
        index_component_sum=sum(r.index for r in reports),
        c_n_total=reference_normal_chern(catalog, building, constraints),
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


def reference_index_report(catalog: Catalog, building: Building,
                 constraints: ConstraintMap | None = None) -> IndexReport:
    gamma0, gamma1 = reference_puncture_parities(catalog, building, constraints)
    return IndexReport(
        chi=euler_char(building),
        genus=arithmetic_genus(building) if is_connected(building) else None,
        c1_total=sum(c.rel_c1 for c in building.components),
        mu_total=reference_cz_total(catalog, building, constraints),
        index=reference_fredholm_index(catalog, building, constraints),
        c_n=reference_normal_chern(catalog, building, constraints),
        gamma0=gamma0,
        gamma1=gamma1,
        per_component=tuple(reference_component_reports(catalog, building, constraints)),
    )


def reference_signed_mu(catalog: Catalog, p: Puncture) -> int:
    cut = -p.constraint if p.sign == 1 else p.constraint
    mu = catalog.cz_index(p.orbit, cut).mu_cz
    return mu if p.sign == 1 else -mu


def reference_validate_stable_input(catalog: Catalog, asymptotics: Asymptotics) -> None:
    """Reject inputs that do not describe a stable index-2 genus-0 curve."""
    if asymptotics.rel_c1 != 0:
        raise InputError(
            "enumerate expects rel_c1 = 0 (sides are materialized with zero "
            "relative Chern number)"
        )
    if not asymptotics.punctures:
        raise InputError("a stable curve has at least one puncture")
    evens = []
    for i, p in enumerate(asymptotics.punctures):
        cut = -p.constraint if p.sign == 1 else p.constraint
        if catalog.cz_index(p.orbit, cut).parity == 0:
            evens.append(i)
    if evens:
        raise InputError(
            f"stability needs no even constrained punctures; punctures {evens} are even "
            "(2c_N = ind - 2 + 2g + #even fails for ind=2, g=0, c_N=0)"
        )
    n = len(asymptotics.punctures)
    ind = (n - 2) + sum(reference_signed_mu(catalog, p) for p in asymptotics.punctures)
    if ind != 2:
        raise InputError(f"input curve has index {ind} != 2")


def reference_enumerate_limits(catalog: Catalog, asymptotics: Asymptotics) -> list[LimitType]:
    """All (top, bottom, breaking orbit) splittings with both side indices 1.

    Ordered partitions with empty parts allowed; the side carrying the
    negative breaking puncture is the top.  Output is sorted and
    deterministic.
    """
    reference_validate_stable_input(catalog, asymptotics)
    punctures = asymptotics.punctures
    n = len(punctures)
    mus = [reference_signed_mu(catalog, p) for p in punctures]
    candidates = [
        (delta, catalog.cz_index(delta).mu_cz) for delta in breaking_candidates(catalog)
    ]
    out = []
    for top_mask in itertools.product((False, True), repeat=n):
        top = tuple(i for i in range(n) if top_mask[i])
        bottom = tuple(i for i in range(n) if not top_mask[i])
        mu_top = sum(mus[i] for i in top)
        mu_bottom = sum(mus[i] for i in bottom)
        chi_top = 1 - len(top)
        chi_bottom = 1 - len(bottom)
        for delta, mu_delta in candidates:
            ind_top = -chi_top + mu_top - mu_delta
            ind_bottom = -chi_bottom + mu_bottom + mu_delta
            if ind_top == 1 and ind_bottom == 1:
                out.append(LimitType(top=top, bottom=bottom, breaking=delta))
    out.sort(key=lambda lt: (lt.top, lt.breaking.simple, lt.breaking.k))
    return out


def stable_end_options(catalog: Catalog, rng: np.random.Generator,
                       covers=(1, 2)) -> list[tuple[Puncture, int, int]]:
    """(puncture, signed CZ index, parity) for every orbit cover of `catalog`
    with k in `covers`, both signs, unconstrained and at one seeded safe
    constraint; covers the catalog cannot solve are left out."""
    out = []
    for simple in catalog.ids():
        for k in covers:
            ref = OrbitRef(simple, k)
            try:
                c = safe_constraint(catalog, ref, rng)
            except (HbcalcError, AssertionError):
                continue
            for sign in (1, -1):
                for constraint in (0.0, c):
                    p = Puncture(sign, ref, constraint=constraint)
                    cz = catalog.cz_index(ref, reference_threshold(sign, constraint))
                    out.append((p, sign * cz.mu_cz, cz.parity))
    return out


def random_stable_asymptotics(rng: np.random.Generator, options,
                              n: int) -> Asymptotics | None:
    """n odd ends drawn from `options` (as from ``stable_end_options``) whose
    index ``(n - 2) + sum of signed mu`` is 2, or None if no n of them have.

    Only the run of consecutive odd signed indices around 1 is drawn from, so
    each draw can keep the sum the remaining ends must make within their
    reach, and the last draw always fits.
    """
    values = {m for _, m, parity in options if parity == 1}
    assert {-1, 1} <= values, "need odd ends of signed index -1 and 1"
    lo = hi = 1
    while lo - 2 in values:
        lo -= 2
    while hi + 2 in values:
        hi += 2
    pool = [(p, m) for p, m, parity in options if parity == 1 and lo <= m <= hi]
    need = 4 - n  # what the signed indices of the remaining ends must sum to
    if not n * lo <= need <= n * hi:
        return None
    punctures = []
    for rest in range(n - 1, -1, -1):
        fits = [(p, m) for p, m in pool if rest * lo <= need - m <= rest * hi]
        p, m = fits[int(rng.integers(len(fits)))]
        punctures.append(p)
        need -= m
    return Asymptotics(punctures=tuple(punctures))


def reference_nice_queries(catalog: Catalog, building: Building) -> None:
    """Make the spectral queries ``validate_nice`` made before it shared its
    detached components, in its order: the per-function defect of every
    nontrivial component, then the parity and bad-double tests of the orbits
    of the nontrivial breaking pairs."""
    for comp in building.components:
        if comp.kind == "nontrivial":
            reference_defect(catalog, building, comp.id)
    trivial = trivial_breaking_pairs(building)
    for i, (pos_site, _neg_site) in enumerate(building.breaking_pairs):
        ref = building.puncture(pos_site).orbit
        if i not in trivial and catalog.parity(ref) == 0 and ref.k == 2:
            catalog.is_bad(ref)


def reference_classify_queries(catalog: Catalog, building: Building) -> None:
    """Make the spectral queries ``classify_stable_limit`` made before the
    single ends pass, in its order: the nice-building checks (with the
    per-function defect), the induced index of every nontrivial component, the
    total index and, for a two-component core, each side's induced index.
    Its even-end test read the same cuts as that side index."""
    building = set_constraints(building, reference_resolve_constraints(building, None))
    reference_nice_queries(catalog, building)
    for comp in building.components:
        if comp.kind == "nontrivial":
            reference_fredholm_index(catalog, *detached_piece(building, comp.id))
    if reference_fredholm_index(catalog, building) not in (1, 2):
        return
    try:
        collapsed = core(building)
    except NoCoreError:
        return
    if len(collapsed.components) == 2:
        for comp in collapsed.components:
            reference_fredholm_index(catalog, *detached_piece(collapsed, comp.id))


# --- random building corpus ---------------------------------------------------


def connected_component_ids(building: Building) -> list[list[str]]:
    """The sorted component ids of each connected piece, pieces by least id."""
    adj = component_graph(building)
    out = []
    remaining = set(adj)
    while remaining:
        piece = {min(remaining)}
        stack = list(piece)
        while stack:
            for nxt in adj[stack.pop()] - piece:
                piece.add(nxt)
                stack.append(nxt)
        remaining -= piece
        out.append(sorted(piece))
    return out


def safe_constraint(catalog: Catalog, ref: OrbitRef, rng: np.random.Generator) -> float:
    """A positive constraint with both +/- cuts far from the spectrum."""
    table = catalog.table(ref, 6.0)
    eigenvalues = [e.eigenvalue for e in table.entries]
    for _ in range(60):
        c = round(float(rng.uniform(0.2, 3.0)), 3)
        if all(abs(x - c) > 0.1 and abs(x + c) > 0.1 for x in eigenvalues):
            return c
    raise AssertionError(f"no safe constraint found for {ref}")


def random_building(rng: np.random.Generator, catalog: Catalog,
                    max_components: int = 6, max_punctures: int = 4,
                    orbit_ids=CORPUS_ORBITS) -> Building:
    """A random well-formed connected building over the fixture orbits."""
    n = int(rng.integers(1, max_components + 1))
    components = []
    for i in range(n):
        cid = f"c{i}"
        roll = rng.random()
        if roll < 0.12 and n > 1:
            components.append(
                Component(cid, int(rng.integers(0, 3)), (), kind="constant")
            )
            continue
        if roll < 0.35:
            ref = OrbitRef(str(rng.choice(orbit_ids)), int(rng.integers(1, 3)))
            components.append(
                Component(cid, 0, (Puncture(1, ref), Puncture(-1, ref)), kind="trivial")
            )
            continue
        punctures = []
        for _ in range(int(rng.integers(1, max_punctures + 1))):
            ref = OrbitRef(str(rng.choice(orbit_ids)), int(rng.integers(1, 3)))
            sign = 1 if rng.random() < 0.5 else -1
            constraint = (
                safe_constraint(catalog, ref, rng) if rng.random() < 0.25 else 0.0
            )
            punctures.append(Puncture(sign, ref, constraint=constraint))
        components.append(
            Component(
                cid,
                int(rng.integers(0, 3)),
                tuple(punctures),
                rel_c1=int(rng.integers(-2, 3)),
            )
        )

    building = Building(components=tuple(components))

    # breaking pairs among unconstrained opposite-sign punctures over one orbit
    by_orbit_pos: dict[OrbitRef, list] = {}
    by_orbit_neg: dict[OrbitRef, list] = {}
    for comp in building.components:
        for idx, p in enumerate(comp.punctures):
            if p.constraint != 0.0:
                continue
            target = by_orbit_pos if p.sign == 1 else by_orbit_neg
            target.setdefault(p.orbit, []).append((comp.id, idx))
    pairs = []
    for orbit, pos_sites in sorted(by_orbit_pos.items()):
        neg_sites = by_orbit_neg.get(orbit, [])
        if not neg_sites:
            continue
        count = int(rng.integers(0, min(len(pos_sites), len(neg_sites)) + 1))
        pos_pick = list(rng.permutation(len(pos_sites))[:count])
        neg_pick = list(rng.permutation(len(neg_sites))[:count])
        pairs.extend(
            (pos_sites[i], neg_sites[j]) for i, j in zip(pos_pick, neg_pick)
        )
    nodes = []
    building = Building(components=tuple(components), breaking_pairs=tuple(pairs))

    # connect the pieces with nodes (constant components can only attach this way)
    pieces = connected_component_ids(building)
    while len(pieces) > 1:
        nodes.append((pieces[0][0], pieces[1][0]))
        building = Building(
            components=tuple(components),
            breaking_pairs=tuple(pairs),
            nodal_pairs=tuple(nodes),
        )
        pieces = connected_component_ids(building)
    if rng.random() < 0.2:
        ids = [c.id for c in components]
        nodes.append(
            (str(rng.choice(ids)), str(rng.choice(ids)))
        )
        building = Building(
            components=tuple(components),
            breaking_pairs=tuple(pairs),
            nodal_pairs=tuple(nodes),
        )
    return building


# --- exhaustive trivial-building enumeration -----------------------------------


def iter_trivial_buildings(max_components: int = 4, max_punctures: int = 3,
                           max_genus: int = 2):
    """Connected trivial buildings with at least one external puncture of each
    sign, yielded as (chi, genus, n_external, structure).

    Components are trivial curves (genus g, p positive and q negative
    punctures, p, q >= 1); breaking pairs form a matching between positive
    and negative slots.  Pure combinatorics; the caller cross-checks a sample
    against the real Building machinery.
    """
    types = [
        (g, p, q)
        for g in range(max_genus + 1)
        for p in range(1, max_punctures + 1)
        for q in range(1, max_punctures + 1)
        if p + q <= max_punctures
    ]
    for count in range(1, max_components + 1):
        for combo in itertools.combinations_with_replacement(types, count):
            chi = sum(2 - 2 * g - (p + q) for g, p, q in combo)
            pos_slots = [i for i, (g, p, q) in enumerate(combo) for _ in range(p)]
            neg_slots = [i for i, (g, p, q) in enumerate(combo) for _ in range(q)]
            total = len(pos_slots) + len(neg_slots)
            max_m = min(len(pos_slots), len(neg_slots))
            for m in range(max(0, count - 1), max_m + 1):
                for pos_sel in itertools.combinations(range(len(pos_slots)), m):
                    for neg_sel in itertools.permutations(range(len(neg_slots)), m):
                        edges = [
                            (pos_slots[a], neg_slots[b])
                            for a, b in zip(pos_sel, neg_sel)
                        ]
                        # connectivity via union-find
                        parent = list(range(count))

                        def find(x):
                            while parent[x] != x:
                                parent[x] = parent[parent[x]]
                                x = parent[x]
                            return x

                        for a, b in edges:
                            parent[find(a)] = find(b)
                        if len({find(i) for i in range(count)}) != 1:
                            continue
                        n_ext = total - 2 * m
                        ext_pos = len(pos_slots) - m
                        ext_neg = len(neg_slots) - m
                        if ext_pos < 1 or ext_neg < 1:
                            continue
                        genus2 = 2 - n_ext - chi
                        yield chi, genus2, n_ext, (combo, edges)


def build_trivial_building(combo, edges, orbit=OrbitRef("gamma", 1)) -> Building:
    """Materialize one enumerated structure with the real data model."""
    components = []
    for i, (g, p, q) in enumerate(combo):
        punctures = tuple(Puncture(1, orbit) for _ in range(p)) + tuple(
            Puncture(-1, orbit) for _ in range(q)
        )
        components.append(Component(f"c{i}", g, punctures, kind="trivial"))
    used_pos: dict[int, int] = {}
    used_neg: dict[int, int] = {}
    pairs = []
    for a, b in edges:
        (g, p, q) = combo[a]
        pos_idx = used_pos.get(a, 0)
        used_pos[a] = pos_idx + 1
        neg_idx = combo[b][1] + used_neg.get(b, 0)
        used_neg[b] = used_neg.get(b, 0) + 1
        pairs.append(((f"c{a}", pos_idx), (f"c{b}", neg_idx)))
    return Building(components=tuple(components), breaking_pairs=tuple(pairs))
