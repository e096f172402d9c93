"""Spectra and winding numbers of asymptotic operators along periodic orbits.

In a fixed unitary trivialization, the asymptotic operator of an orbit acts
on loops of plane vectors as

    (A v)(t) = -J0 v'(t) - S(t) v(t),        t in R/Z,

where J0 is the standard complex structure on the plane and S(t) is a loop
of symmetric 2x2 matrices encoding the linearized flow (the period is
already absorbed into S).  The k-fold cover of the orbit corresponds to the
loop  S_k(t) = k S(kt mod 1),  under which an eigenfunction e(t) with
eigenvalue lambda lifts to e(kt) with eigenvalue k*lambda and k times the
winding.

Discretization is Fourier spectral collocation on a uniform grid with an
odd number of points: the differentiation matrix is then exactly
antisymmetric, so the discretized operator is exactly symmetric and the
eigenproblem is solved by a dense symmetric solver.  Eigenvector winding
numbers are read off directly from the discrete loops, guarded against
under-resolution.  An independent route to the Conley-Zehnder index
integrates the linearized flow  Psi' = J0 S(t) Psi  and classifies the
swept angles (crossing-form/rotation-number computation); it never touches
the eigensolver, so the two routes cross-check each other.

The flow is integrated by classical RK4 over one period.  Because the ODE is
linear, each step is a 2x2 matrix M_j built in closed form from S on the
half grid; all M_j are formed by batched matrix products and the frames
Psi(t_j) = M_{j-1} ... M_0 by a log-depth prefix-product scan.  Covers need
no further integration: with P = Psi(1) the one-period monodromy,
Psi(t + j) = Psi(t) P^j, so the k-fold path is the one-period path times
P^j for j < k and the k-fold monodromy is P^k.

All integers produced here are relative to the trivialization implicit in
the flow-loop coordinates; only comparisons made in one consistent
trivialization are meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateThresholdError,
    SpectralResolutionError,
)

J0 = np.array([[0.0, -1.0], [1.0, 0.0]])

SYMMETRY_TOL = 1e-12
#: Relative clustering tolerance for grouping eigenvalues into multiplicity
#: classes: well below the pi-scale gaps of nondegenerate model orbits,
#: well above symmetric-eigensolver noise.
CLUSTER_TOL = 1e-7
#: A pre-rounding winding must be within this distance of an integer.
WINDING_GUARD = 0.1
#: Maximum allowed per-step angle when reading a winding off a discrete loop.
MAX_STEP_ANGLE = math.pi / 2


def next_odd(n: int) -> int:
    return n if n % 2 == 1 else n + 1


def _as_samples(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 3 or arr.shape[1:] != (2, 2):
        raise ValueError(f"expected samples of shape (n, 2, 2), got {arr.shape}")
    return arr


class FlowLoop:
    """Uniform samples of the symmetric coefficient loop S(t) plus the period.

    The sample count must be odd and at least 3 (the spectral differentiation
    scheme needs it) and every sample symmetric to 1e-12.
    """

    __slots__ = ("samples", "period")

    def __init__(self, samples, period: float = 1.0):
        arr = _as_samples(samples)
        n = arr.shape[0]
        if n < 3 or n % 2 == 0:
            raise ValueError(f"sample count must be odd and >= 3, got {n}")
        defect = np.max(np.abs(arr[:, 0, 1] - arr[:, 1, 0]))
        if defect > SYMMETRY_TOL:
            raise ValueError(
                f"coefficient samples must be symmetric (defect {defect:.3e} > {SYMMETRY_TOL})"
            )
        if not period > 0:
            raise ValueError(f"period must be positive, got {period}")
        # store exactly symmetrized, read-only
        arr = 0.5 * (arr + np.transpose(arr, (0, 2, 1)))
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "period", float(period))

    def __setattr__(self, name, value):
        raise AttributeError("FlowLoop is immutable")

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @classmethod
    def constant(cls, matrix, n: int = 33, period: float = 1.0) -> "FlowLoop":
        m = np.asarray(matrix, dtype=float)
        return cls(np.broadcast_to(m, (n, 2, 2)).copy(), period)

    @classmethod
    def from_triples(cls, triples: Sequence[Sequence[float]], period: float = 1.0) -> "FlowLoop":
        """Build from rows [s11, s12, s22] (the catalog file layout)."""
        rows = np.asarray(triples, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ValueError(f"expected rows [s11, s12, s22], got shape {rows.shape}")
        arr = np.empty((rows.shape[0], 2, 2))
        arr[:, 0, 0] = rows[:, 0]
        arr[:, 0, 1] = rows[:, 1]
        arr[:, 1, 0] = rows[:, 1]
        arr[:, 1, 1] = rows[:, 2]
        return cls(arr, period)

    def to_triples(self) -> list[list[float]]:
        return [[float(s[0, 0]), float(s[0, 1]), float(s[1, 1])] for s in self.samples]

    def strength(self) -> float:
        """Max spectral norm over the samples (used for windows and step sizes)."""
        a = self.samples[:, 0, 0]
        b = self.samples[:, 0, 1]
        c = self.samples[:, 1, 1]
        radius = np.abs(a + c) / 2 + np.sqrt(((a - c) / 2) ** 2 + b**2)
        return float(np.max(radius))

    def value_at(self, ts) -> np.ndarray:
        """Trigonometric interpolation of the samples at times ts (mod 1).

        Exact whenever the underlying loop is a trigonometric polynomial of
        degree <= (n - 1) / 2.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        n = self.n
        x = ts[:, None] - np.arange(n)[None, :] / n
        # Dirichlet kernel sin(n pi x) / (n sin(pi x)), value 1 at x in Z
        num = np.sin(n * np.pi * x)
        den = n * np.sin(np.pi * x)
        near = np.abs(den) < 1e-13
        den[near] = 1.0
        kernel = num / den
        kernel[near] = 1.0
        return np.einsum("tj,jab->tab", kernel, self.samples)

    def resample(self, n: int) -> "FlowLoop":
        if n == self.n:
            return self
        ts = np.arange(n) / n
        return FlowLoop(self.value_at(ts), self.period)

    def cover(self, k: int, grid: int | None = None) -> "FlowLoop":
        """Coefficient loop of the k-fold cover: S_k(t) = k S(kt mod 1)."""
        if k < 1:
            raise ValueError(f"cover must be >= 1, got {k}")
        if k == 1 and grid is None:
            return self
        n = next_odd(k * self.n) if grid is None else grid
        ts = (k * np.arange(n) / n) % 1.0
        return FlowLoop(k * self.value_at(ts), k * self.period)


@dataclass(frozen=True)
class DiscreteLoop:
    """An ordered loop of nonzero plane vectors (e.g. a sampled eigenfunction)."""

    points: tuple[tuple[float, float], ...]

    @classmethod
    def from_array(cls, arr) -> "DiscreteLoop":
        pts = np.asarray(arr, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"expected points of shape (n, 2), got {pts.shape}")
        return cls(tuple((float(x), float(y)) for x, y in pts))


def winding(loop: DiscreteLoop) -> int:
    """Total signed angle of the loop divided by 2*pi, rounded to an integer.

    Rejects zero vectors; per-step angles >= pi/2 or a pre-rounding value
    further than 0.1 from an integer mean the loop is under-resolved.
    """
    pts = np.asarray(loop.points, dtype=float)
    return _winding_of_points(pts)


def _winding_of_points(pts: np.ndarray) -> int:
    norms = np.hypot(pts[:, 0], pts[:, 1])
    if np.min(norms) <= 1e-13 * max(1.0, float(np.max(norms))):
        raise ValueError("loop contains a (numerically) zero vector")
    nxt = np.roll(pts, -1, axis=0)
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


def fourier_diff_matrix(n: int) -> np.ndarray:
    """Spectral differentiation matrix for period-1 loops on an odd grid.

    Exactly antisymmetric; differentiates trigonometric polynomials of
    degree <= (n - 1) / 2 exactly.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"grid must be odd and >= 3, got {n}")
    j = np.arange(n)
    diff = j[:, None] - j[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.pi * (-1.0) ** diff / np.sin(np.pi * diff / n)
    np.fill_diagonal(d, 0.0)
    return d


def build_operator(loop: FlowLoop) -> np.ndarray:
    """Discretized asymptotic operator: -D (x) J0 - blockdiag(S(t_j)).

    Both parts are exactly symmetric (D and J0 are both antisymmetric), so
    the result is symmetric to machine precision; sample vectors stack as
    (x_0, y_0, x_1, y_1, ...).
    """
    n = loop.n
    d = fourier_diff_matrix(n)
    a = -np.kron(d, J0)
    for i in range(n):
        a[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] -= loop.samples[i]
    return a


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


def solve_symmetric(matrix, solver: str = "eigh"):
    if solver == "eigh":
        return np.linalg.eigh(matrix)
    if solver == "jacobi":
        return jacobi_eigh(matrix)
    raise ValueError(f"unknown solver {solver!r}")


@dataclass(frozen=True)
class SpectralEntry:
    eigenvalue: float
    winding: int
    multiplicity: int


@dataclass(frozen=True)
class SpectralTable:
    """Windowed eigenvalues of an asymptotic operator with their windings.

    Entries are sorted by eigenvalue; only complete winding classes inside
    the window are listed, so within the window the winding is nondecreasing
    and every winding value carries total multiplicity exactly two.
    """

    entries: tuple[SpectralEntry, ...]
    window: float
    grid: int

    def validate(self) -> None:
        lams = [e.eigenvalue for e in self.entries]
        if lams != sorted(lams):
            raise InternalAudit("entries not sorted by eigenvalue")
        winds = [e.winding for e in self.entries]
        if winds != sorted(winds):
            raise InternalAudit("winding not nondecreasing in the eigenvalue")
        per: dict[int, int] = {}
        for e in self.entries:
            if e.multiplicity < 1:
                raise InternalAudit("nonpositive multiplicity")
            per[e.winding] = per.get(e.winding, 0) + e.multiplicity
        for w, m in per.items():
            if m != 2:
                raise InternalAudit(f"winding {w} has total multiplicity {m} != 2")

    # --- query helpers -------------------------------------------------

    def eigenvalues(self) -> list[float]:
        return [e.eigenvalue for e in self.entries]

    def min_abs_eigenvalue(self) -> float:
        if not self.entries:
            return math.inf
        return min(abs(e.eigenvalue) for e in self.entries)

    def kept_range(self) -> tuple[float, float]:
        if not self.entries:
            return (math.inf, -math.inf)
        return (self.entries[0].eigenvalue, self.entries[-1].eigenvalue)

    def cluster_tol(self) -> float:
        return CLUSTER_TOL * max(1.0, self.window)

    def check_threshold(self, threshold: float) -> None:
        tol = self.cluster_tol()
        for e in self.entries:
            if abs(e.eigenvalue - threshold) <= tol:
                raise DegenerateThresholdError(
                    f"threshold {threshold} hits eigenvalue {e.eigenvalue:.12g}"
                )

    def alpha_minus(self, threshold: float) -> int:
        """Max winding over eigenvalues below the threshold."""
        self.check_threshold(threshold)
        below = [e.winding for e in self.entries if e.eigenvalue < threshold]
        if not below:
            raise SpectralResolutionError(
                f"no eigenvalue below threshold {threshold} in window {self.window}"
            )
        return max(below)

    def alpha_plus(self, threshold: float) -> int:
        """Min winding over eigenvalues above the threshold."""
        self.check_threshold(threshold)
        above = [e.winding for e in self.entries if e.eigenvalue > threshold]
        if not above:
            raise SpectralResolutionError(
                f"no eigenvalue above threshold {threshold} in window {self.window}"
            )
        return min(above)

    def count_open(self, lo: float, hi: float) -> int:
        """Multiplicity count of eigenvalues strictly inside (lo, hi)."""
        tol = self.cluster_tol()
        total = 0
        for e in self.entries:
            if lo + tol < e.eigenvalue < hi - tol:
                total += e.multiplicity
        return total

    def clip(self, window: float) -> "SpectralTable":
        """Restrict to complete winding classes inside a smaller window."""
        if window > self.window:
            raise SpectralResolutionError(
                f"requested window {window} exceeds trusted window {self.window}"
            )
        inside = [e for e in self.entries if abs(e.eigenvalue) <= window]
        per: dict[int, int] = {}
        for e in inside:
            per[e.winding] = per.get(e.winding, 0) + e.multiplicity
        kept = tuple(e for e in inside if per.get(e.winding) == 2)
        return SpectralTable(entries=kept, window=window, grid=self.grid)


class InternalAudit(SpectralResolutionError):
    """A computed table failed its own consistency audit."""


def default_grid(base_n: int, k: int, window: float, base_strength: float) -> int:
    """Grid heuristic: resolve the covered loop and the requested window."""
    w_max = (window + k * base_strength) / (2 * math.pi) + 2
    return next_odd(max(k * base_n, int(math.ceil(10 * w_max)) | 1, 33))


def spectrum_from_loop(
    loop: FlowLoop,
    window: float,
    grid: int | None = None,
    solver: str = "eigh",
) -> SpectralTable:
    """Windowed spectral table of the operator defined by a coefficient loop.

    Covers are handled by passing loop.cover(k).  The audit trims winding
    classes that the window cuts at its edges and raises
    SpectralResolutionError when the interior of the window is not resolved
    (too-coarse grid, inconsistent windings, gaps in the winding run).
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    strength = loop.strength()
    if grid is None:
        n = default_grid(loop.n, 1, window, strength)
    else:
        if grid % 2 == 0 or grid < 3:
            raise ValueError(f"grid must be odd and >= 3, got {grid}")
        n = grid
    work = loop.resample(n)
    vals, vecs = solve_symmetric(build_operator(work), solver)

    scan = window + 2.0 * strength + 8.0
    tol = CLUSTER_TOL * max(1.0, window)

    lo = int(np.searchsorted(vals, -scan, side="left"))
    hi = int(np.searchsorted(vals, scan, side="right"))
    winds: dict[int, int | None] = {}
    for i in range(lo, hi):
        pts = vecs[:, i].reshape(n, 2)
        try:
            winds[i] = _winding_of_points(pts)
        except (SpectralResolutionError, ValueError):
            if abs(vals[i]) <= window:
                raise SpectralResolutionError(
                    f"eigenvector at lambda={vals[i]:.6g} is under-resolved at grid {n}; "
                    "increase the grid"
                )
            # outside the window the scan is best-effort
            winds[i] = None

    # cluster scanned eigenvalues into (eigenvalue, winding, multiplicity)
    clusters: list[list[int]] = []
    for i in range(lo, hi):
        if clusters and vals[i] - vals[clusters[-1][-1]] <= tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    cluster_data = []
    for members in clusters:
        ws = {winds[i] for i in members}
        known = {w for w in ws if w is not None}
        if len(known) > 1:
            mean = float(np.mean([vals[i] for i in members]))
            if abs(mean) <= window:
                raise SpectralResolutionError(
                    f"eigenvalue cluster at {mean:.6g} mixes windings {sorted(known)}; "
                    "increase the grid"
                )
            known = set()
        w = known.pop() if known else None
        cluster_data.append(
            (float(np.mean([vals[i] for i in members])), w, len(members))
        )

    # winding monotonicity across the known part of the scan
    last = None
    for lam, w, _ in cluster_data:
        if w is None:
            continue
        if last is not None and w < last and abs(lam) <= window:
            raise SpectralResolutionError(
                "winding is not nondecreasing across the window; increase the grid"
            )
        last = w if last is None else max(last, w)

    per_class: dict[int, int] = {}
    per_class_in: dict[int, int] = {}
    for lam, w, mult in cluster_data:
        if w is None:
            continue
        per_class[w] = per_class.get(w, 0) + mult
        if abs(lam) <= window:
            per_class_in[w] = per_class_in.get(w, 0) + mult

    if any(m > 2 for m in per_class.values()):
        bad = [w for w, m in per_class.items() if m > 2]
        raise SpectralResolutionError(
            f"winding classes {sorted(bad)} carry more than two eigenvalues; "
            "increase the grid"
        )

    # keep complete classes; incomplete ones are only tolerable at the edges
    kept_winds = sorted(w for w, m in per_class_in.items() if m == 2)
    dropped = sorted(w for w, m in per_class_in.items() if m < 2)
    if kept_winds:
        w_lo, w_hi = kept_winds[0], kept_winds[-1]
        if kept_winds != list(range(w_lo, w_hi + 1)):
            raise SpectralResolutionError(
                "gap in the run of complete winding classes inside the window; "
                "increase the grid"
            )
        for w in dropped:
            if w_lo < w < w_hi:
                raise SpectralResolutionError(
                    f"winding class {w} is deficient in the interior of the window; "
                    "increase the grid"
                )

    kept = set(kept_winds)
    entries = tuple(
        SpectralEntry(eigenvalue=lam, winding=w, multiplicity=mult)
        for lam, w, mult in cluster_data
        if w in kept and abs(lam) <= window
    )
    table = SpectralTable(entries=entries, window=window, grid=n)
    table.validate()
    return table


# --- linearized flow / crossing form --------------------------------------


def monodromy(loop: FlowLoop, cover: int = 1, steps: int | None = None) -> np.ndarray:
    """Endpoint of the linearized flow Psi' = J0 S(t) Psi over `cover` periods.

    This is P**cover, with P the RK4 monodromy of one period.
    """
    return _integrate_frames(loop, cover, steps, keep_path=False)[-1]


def _integrate_frames(
    loop: FlowLoop, cover: int, steps: int | None, keep_path: bool
) -> np.ndarray:
    if cover < 1:
        raise ValueError(f"cover must be >= 1, got {cover}")
    strength = loop.strength()
    n_steps = steps or max(2048, 256 * int(math.ceil(strength + 1)))
    h = 1.0 / n_steps
    # RK4 needs S on the half grid of every period; the cover scales S by k
    # and traverses the base loop k times, so one period's samples suffice.
    ts = np.arange(2 * n_steps + 1) * (h / 2)
    s_half = loop.value_at(ts % 1.0)
    a_half = np.einsum("ij,tjk->tik", J0, s_half)

    # The flow is linear, so RK4 step j is psi -> M_j psi with
    # M_j = I + h/6 (K1 + 2 K2 + 2 K3 + K4) built from S at t_j, t_j + h/2, t_j + h.
    a0, a1, a2 = a_half[0:-1:2], a_half[1::2], a_half[2::2]
    eye = np.eye(2)
    k = a1 @ (eye + (0.5 * h) * a0)  # K2, with K1 = a0
    frames = a0 + 2 * k
    k = a1 @ (eye + (0.5 * h) * k)  # K3
    frames += 2 * k
    frames += a2 @ (eye + h * k)  # K4
    frames *= h / 6.0
    frames += eye
    # Hillis-Steele scan: after the pass with offset d, frames[j] is the
    # product M_j ... M_{j-2d+1} (truncated at M_0), so frames[j] = Psi((j + 1) h).
    d = 1
    while d < n_steps:
        frames[d:] = frames[d:] @ frames[:-d]
        d *= 2
    p = frames[-1].copy()  # a view would keep all frames alive in callers' caches
    if not keep_path:
        return np.linalg.matrix_power(p, cover)[None]
    # S is periodic, so Psi(t + j) = Psi(t) P^j: covers need no further steps.
    powers = np.array([np.linalg.matrix_power(p, j) for j in range(cover + 1)])
    period = np.concatenate([eye[None], frames[:-1]])
    path = np.empty((cover * n_steps + 1, 2, 2))
    np.matmul(period, powers[:-1, None], out=path[:-1].reshape(cover, n_steps, 2, 2))
    path[-1] = powers[-1]
    return path


def _swept_angles(path: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Total angle swept by Psi(t) z for each column z of `directions`."""
    w = np.einsum("tij,jk->tik", path, directions)
    ang = np.arctan2(w[:, 1, :], w[:, 0, :])
    d = np.diff(ang, axis=0)
    d = (d + math.pi) % (2 * math.pi) - math.pi
    if np.max(np.abs(d)) >= MAX_STEP_ANGLE:
        raise SpectralResolutionError(
            "flow integration step sweeps more than pi/2; increase the step count"
        )
    return np.sum(d, axis=0)


def cz_crossing(loop: FlowLoop, cover: int = 1, steps: int | None = None) -> int:
    """Conley-Zehnder index of the orbit via the linearized-flow rotation number.

    Independent of the eigensolver route: integrates Psi' = J0 S(t) Psi with
    RK4 over one period, extends the path to the cover by Psi(t + j) =
    Psi(t) P^j, and classifies the monodromy.  Positive hyperbolic
    monodromies give the even index 2n from the integer swept angle of an
    eigenvector; all other nondegenerate monodromies give the odd index
    2*floor(angle/2pi)+1.
    """
    path = _integrate_frames(loop, cover, steps, keep_path=True)
    p = path[-1]
    tr = float(np.trace(p))
    # symplectic 2x2: det(P - 1) = 2 - tr, so eigenvalue 1 means tr = 2
    if abs(tr - 2.0) <= 1e-9 * max(1.0, abs(tr)):
        raise DegenerateThresholdError(
            f"monodromy has eigenvalue 1 within tolerance (trace {tr!r}); "
            "the orbit is degenerate"
        )
    if tr > 2.0:
        # positive hyperbolic: eigenvectors sweep an exact multiple of 2 pi
        evals, evecs = np.linalg.eig(p)
        order = np.argsort(-evals.real)
        dirs = np.real(evecs[:, order])
        dirs = dirs / np.linalg.norm(dirs, axis=0)
        sweeps = _swept_angles(path, dirs) / (2 * math.pi)
        rounded = [round(x) for x in sweeps]
        if any(abs(s - r) > WINDING_GUARD for s, r in zip(sweeps, rounded)) or (
            rounded[0] != rounded[1]
        ):
            raise SpectralResolutionError(
                f"eigenvector sweeps {sweeps} are not a clean integer; "
                "increase the step count"
            )
        return 2 * int(rounded[0])
    angles = np.arange(16) * (math.pi / 16)
    dirs = np.vstack([np.cos(angles), np.sin(angles)])
    sweeps = _swept_angles(path, dirs) / (2 * math.pi)
    floors = np.floor(sweeps).astype(int)
    if np.min(np.abs(sweeps - np.round(sweeps))) < 1e-6:
        raise DegenerateThresholdError(
            "a swept angle is numerically an integer multiple of 2 pi while the "
            "monodromy is not positive hyperbolic; the orbit is near-degenerate"
        )
    if len(set(int(f) for f in floors)) != 1:
        raise SpectralResolutionError(
            "swept angles straddle a multiple of 2 pi; near-degenerate orbit or "
            "insufficient step count"
        )
    return 2 * int(floors[0]) + 1
