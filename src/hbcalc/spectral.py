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
antisymmetric, so the discretized operator is exactly symmetric and each of
its Bloch blocks (below) is solved by a dense Hermitian or real symmetric
solver.  Eigenvector winding numbers are read off directly from the discrete
loops, guarded against under-resolution; a table reads its scanned
eigenfunctions in batches of at most WINDING_BATCH_POINTS loop points
(_windings takes a (B, n, 2) array and returns each loop's total turns and a
0/1 fault).

Between its samples S is read as their trigonometric interpolant (Trefethen,
Spectral Methods in MATLAB, 2000, ch. 3), and _uniform_values is its one
evaluation: a DFT of the samples gives its Fourier coefficients, and its
values at m uniform points are sums of them against two small root-of-unity
tables, exact for every m, with no dense kernel and no numpy.fft.  It samples
the base grid of the Bloch blocks (FlowLoop.resample) and the RK4 half grid.

Every solve of spectrum_from_loop(loop, window, grid, cover=k) splits the
k-fold cover into Floquet-Bloch blocks.  The cover operator commutes with the
deck shift t -> t + 1/k, so with s = kt every eigenfunction is
u(s) = exp(2 pi i j s/k) w(s) with w 1-periodic (Kuchment, Floquet Theory for
Partial Differential Equations, 1993).  Block j is the Hermitian matrix

    build_operator(loop.resample(m)) - (2 pi j / k) (I_m (x) i J0)

on the base grid of m = next_odd(ceil(n / k)) points, where n is the requested
grid (by default the grid heuristic), and its eigenvalues times k are
eigenvalues of the cover.  For k = 1 this is the one dense symmetric solve on
m = n points.  Blocks j and k - j are complex conjugates, so blocks 0..k//2
are solved, and two of them are real: block 0, and for even k block k/2, the
antiperiodic operator, which is solved as a deflated real block of dimension
2m - 2 (_antiperiodic_eigenpairs): the alternating mode of the base grid, whose
pair of eigenvalues lies beyond every scan of a default grid, is dropped, so an
even cover has 2km - 2 eigenvalues and an odd one 2km.  On the k*m-point cover
grid the real eigenfunctions are w(kt) for j = 0, the real and imaginary parts
of exp(2 pi i j t) w(kt) for 0 < j < k/2 (one eigenvalue of multiplicity two),
and for j = k/2 the block's real eigenvector repeated with alternating signs
over the k periods, and the windings, clustering and audit read them there.
The block index is a free cross-check: the winding of a block-j eigenfunction
is +-j mod k (its deck-shift eigenvalues are exp(+-2 pi i j / k)), and any
other winding inside the window raises SpectralResolutionError.  A table
(SpectralTable, an immutable NamedTuple of SpectralEntry rows) reports the grid
n it was asked for, which is k*m or less, or 0 for a stored table that no solve
produced; a grid n <= k leaves m < 3 and is refused.
The tests keep the dense solve of the cover loop sampled on n points as the
oracle of this route.

Inside a window the winding is monotone in the eigenvalue and each winding
carries exactly two eigenvalues (Hofer, Wysocki and Zehnder, Properties of
pseudoholomorphic curves in symplectisations II, GAFA 5, 1995).  The audit
(_audited_table) refuses a scan that breaks this inside the window and keeps
the winding classes that are complete there; _complete_classes is that one
rule, and SpectralTable.clip applies it to a narrower window.

A caller may keep the last solve in a one-slot list (spectrum_from_loop's
`held`): the catalog keeps its last solve and audits it again for each
window whose grid has the same base grid m (wider windows move the grid n in
steps smaller than k, which often keep m), reading windings only for
eigenfunctions that the wider scan adds, so the table is the one a fresh solve
gives, bit for bit, and reports its own grid.

An independent route to the Conley-Zehnder index integrates the linearized
flow  Psi' = J0 S(t) Psi  and classifies the swept angles
(crossing-form/rotation-number computation); it never touches the
eigensolver, so the two routes cross-check each other.

The flow is integrated by classical RK4 over one period, from S on the half
grid t = i h / 2 (_uniform_values).  Because the ODE is linear, each step is
a 2x2 matrix M_j built in closed form from S on the half grid; all M_j are
formed by batched matrix products and the frames Psi(t_j) = M_{j-1} ... M_0
by a log-depth prefix-product scan.  Covers need no further integration.
With P = Psi(1) the one-period monodromy, the k-fold monodromy is P^k, and
in dimension 2 the index of the k-fold cover follows from one period by
Bott's iteration formula (Bott, On the iteration of closed
geodesics and the Sturm intersection theory, CPAM 1956; Long, Index Theory
for Symplectic Paths with Applications, 2002): a hyperbolic P gives k times
the index of one period; an elliptic P has rotation number rho = m + theta,
with m the common floor of the one-period sweeps and P conjugate to the
rotation by 2 pi theta, so the index is 2 floor(k rho) + 1 and the cover is
degenerate exactly when k rho is an integer.  cz_crossing is split the same
way: a one-period record (P, tr P, and the index of one period or rho, or the
error of a failed sweep check or of a P that overflowed) and a per-cover part
(RK4 budget, the overflow of P, eigenvalue 1 of P^k, Bott's formula).  The
record is the only source of P: monodromy(loop, k) is P^k from it.  It depends
on the samples alone, so every FlowLoop keeps its own in a one-slot list: all
covers and monodromies of a loop integrate once.  The step count of one period
is a function of the loop's strength; the RK4 budget still bounds cover times
steps.

All integers produced here are relative to the trivialization implicit in
the flow-loop coordinates; only comparisons made in one consistent
trivialization are meaningful.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

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
#: Resource budget, checked before anything of that size is allocated: rows of
#: the dense operator (2 * grid; 4096 rows are 128 MiB of float64) and RK4 steps
#: of one linearized-flow integration (cover * steps per period).
MAX_DENSE_DIM = 4096
MAX_RK4_STEPS = 2**20
#: Loop points per batched winding read: bounds the batch's temporaries (about
#: 100 bytes a point) whatever the window, cover or grid.
WINDING_BATCH_POINTS = 2**14


def next_odd(n: int) -> int:
    return n if n % 2 == 1 else n + 1


def _as_samples(samples) -> np.ndarray:
    # in C order: the layout sets the summation order of the solves, and so
    # their last bits
    arr = np.ascontiguousarray(samples, dtype=float)
    if arr.ndim != 3 or arr.shape[1:] != (2, 2):
        raise ValueError(f"expected samples of shape (n, 2, 2), got {arr.shape}")
    return arr


class FlowLoop:
    """Uniform samples of the symmetric coefficient loop S(t), read between
    them as their trigonometric interpolant (module docstring).

    The sample count must be odd and at least 3 (the spectral differentiation
    scheme needs it) and every sample symmetric to 1e-12.
    """

    __slots__ = ("samples", "_strength", "_held")  # _held: [the crossing record or None]

    def __init__(self, samples):
        arr = _as_samples(samples)
        n = arr.shape[0]
        if n < 3 or n % 2 == 0:
            raise ValueError(f"sample count must be odd and >= 3, got {n}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficient samples must be finite (found NaN or infinity)")
        defect = np.max(np.abs(arr[:, 0, 1] - arr[:, 1, 0]))
        if defect > SYMMETRY_TOL:
            raise ValueError(
                f"coefficient samples must be symmetric (defect {defect:.3e} > {SYMMETRY_TOL})"
            )
        # store exactly symmetrized, read-only; halving first cannot overflow
        arr = 0.5 * arr + 0.5 * np.transpose(arr, (0, 2, 1))
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "_held", [None])
        a, b, c = arr[:, 0, 0], arr[:, 0, 1], arr[:, 1, 1]
        with np.errstate(over="ignore"):  # an overflow is rejected below
            radius = np.abs(a + c) / 2 + np.sqrt(((a - c) / 2) ** 2 + b**2)
        object.__setattr__(self, "_strength", float(np.max(radius)))
        if not math.isfinite(self._strength):
            raise ValueError("coefficient samples must have a finite spectral norm (it overflows)")

    def __setattr__(self, name, value):
        raise AttributeError("FlowLoop is immutable")

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @classmethod
    def from_triples(cls, triples: Sequence[Sequence[float]]) -> "FlowLoop":
        """Build from rows [s11, s12, s22] (the catalog file layout)."""
        rows = np.asarray(triples, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ValueError(f"expected rows [s11, s12, s22], got shape {rows.shape}")
        return cls(rows[:, [[0, 1], [1, 2]]])

    def strength(self) -> float:
        """Max spectral norm over the samples (used for windows and step sizes)."""
        return self._strength

    def resample(self, n: int) -> "FlowLoop":
        """The trigonometric interpolant of the samples, sampled on n uniform
        points (_uniform_values)."""
        if n == self.n:
            return self
        return FlowLoop(_uniform_values(self.samples, n))


def _root_sums(coef: np.ndarray, m: int, count: int) -> np.ndarray:
    """sum_f coef[f] exp(2 pi i f x / m) at x = 0..count-1, for coef of shape
    (F, c): a (count, c) array.

    x = a b + r with b ~ sqrt(count), so each term is the product of two small
    root-of-unity tables, exp(2 pi i f a b / m) exp(2 pi i f r / m), and nothing
    of size count x F is formed.
    """
    f = np.arange(len(coef))
    b = math.isqrt(count - 1) + 1
    a = -(-count // b)
    roots = np.exp((2j * math.pi / m) * np.arange(m))
    coarse, fine = roots[np.outer(np.arange(a) * b, f) % m], roots[np.outer(np.arange(b), f) % m]
    sums = (coarse[:, None, :] * coef.T) @ fine.T  # (a, c, b)
    return sums.transpose(0, 2, 1).reshape(a * b, -1)[:count]


def _uniform_values(samples: np.ndarray, m: int) -> np.ndarray:
    """The trigonometric interpolant of n uniform samples at the m points
    i / m, exact for every m: the one evaluation of a loop between its samples.

    The interpolant's Fourier coefficients c_f, f <= (n - 1) / 2, are a DFT of
    the samples; its values are a sum over them.  Both are _root_sums, so
    numpy.fft is never imported (it would stay resident).
    """
    n = samples.shape[0]
    coef = _root_sums(samples.reshape(n, 4), n, (n + 1) // 2).conj() / n
    coef[1:] *= 2  # c_f + c_-f = 2 Re c_f on real samples
    return _root_sums(coef, m, m).real.reshape(m, 2, 2)


def _windings(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Total turns and a 0/1 fault of each loop in a (B, n, 2) batch of
    plane-vector loops.

    A loop's total turns are its summed signed step angles over 2*pi; rounded,
    they are its winding when its fault is 0.  The fault is 1 when the loop is
    under-resolved: it has a numerically zero vector, a step angle >= pi/2, or
    turns further than WINDING_GUARD from an integer.
    """
    x, y = pts[..., 0], pts[..., 1]
    norms = np.hypot(x, y)
    zero = np.min(norms, axis=1) <= 1e-13 * np.maximum(1.0, np.max(norms, axis=1))
    nx = np.concatenate((x[:, 1:], x[:, :1]), axis=1)
    ny = np.concatenate((y[:, 1:], y[:, :1]), axis=1)
    steps = np.arctan2(x * ny - y * nx, x * nx + y * ny)
    coarse = np.max(np.abs(steps), axis=1) >= MAX_STEP_ANGLE
    turns = np.sum(steps, axis=1) / (2 * math.pi)
    off = ~(np.abs(turns - np.rint(turns)) <= WINDING_GUARD)
    return turns, (zero | coarse | off).astype(int)


def fourier_diff_matrix(n: int) -> np.ndarray:
    """Spectral differentiation matrix for period-1 loops on an odd grid.

    Exactly antisymmetric; differentiates trigonometric polynomials of
    degree <= (n - 1) / 2 exactly.  Entry (i, j) depends on i - j alone, so
    the 2n - 1 distinct values are computed once and row i is the reversed
    window values[i : i + n].
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"grid must be odd and >= 3, got {n}")
    diff = np.arange(1 - n, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.pi * (-1.0) ** diff / np.sin(np.pi * diff / n)
    values[n - 1] = 0.0  # the diagonal
    return np.lib.stride_tricks.sliding_window_view(values, n)[:, ::-1].copy()


def build_operator(loop: FlowLoop) -> np.ndarray:
    """Discretized asymptotic operator: -D (x) J0 - blockdiag(S(t_j)).

    Both parts are exactly symmetric (D and J0 are both antisymmetric), so
    the result is symmetric to machine precision; sample vectors stack as
    (x_0, y_0, x_1, y_1, ...).
    """
    n = loop.n
    d = fourier_diff_matrix(n)
    a = np.empty((2 * n, 2 * n))
    # the entries of -kron(D, J0), zeros signed as that product signs them
    a[0::2, 1::2] = d
    np.negative(d, out=a[1::2, 0::2])
    a[0::2, 0::2] = a[1::2, 1::2] = d * -0.0
    # entry (r, c) of the diagonal block of sample i is flat[i (4n + 2) + 2n r + c]
    flat = a.reshape(-1)
    for r in (0, 1):
        for c in (0, 1):
            flat[2 * n * r + c :: 4 * n + 2] -= loop.samples[:, r, c]
    return a


class SpectralEntry(NamedTuple):
    eigenvalue: float
    winding: int
    multiplicity: int


class SpectralTable(NamedTuple):
    """Windowed eigenvalues of an asymptotic operator with their windings.

    Entries are sorted by eigenvalue; only complete winding classes inside
    the window (|eigenvalue| <= window + CLUSTER_TOL * max(1, window)) are
    listed, so within the window the winding is nondecreasing and every
    winding value carries total multiplicity exactly two.  `grid` is the grid
    n the table was solved for; 0 marks a stored table (a table-mode orbit's)
    that no solve produced.
    """

    entries: tuple[SpectralEntry, ...]
    window: float
    grid: int

    def validate(self) -> None:
        lams = [e.eigenvalue for e in self.entries]
        if lams != sorted(lams):
            raise SpectralResolutionError("entries not sorted by eigenvalue")
        winds = [e.winding for e in self.entries]
        if winds != sorted(winds):
            raise SpectralResolutionError("winding not nondecreasing in the eigenvalue")
        per: dict[int, int] = {}
        for e in self.entries:
            if e.multiplicity < 1:
                raise SpectralResolutionError("nonpositive multiplicity")
            per[e.winding] = per.get(e.winding, 0) + e.multiplicity
        for w, m in per.items():
            if m != 2:
                raise SpectralResolutionError(f"winding {w} has total multiplicity {m} != 2")
        if per and len(per) != max(per) - min(per) + 1:
            gap = next(w for w in range(min(per), max(per)) if w not in per)
            raise SpectralResolutionError(f"no eigenvalue has winding {gap} between windings "
                                          f"{min(per)} and {max(per)}; the kept windings "
                                          "must be one run")

    # --- query helpers -------------------------------------------------

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
        """Restrict to complete winding classes inside a smaller window, as
        _complete_classes keeps them in the solve's audit."""
        if window > self.window:
            raise SpectralResolutionError(
                f"requested window {window} exceeds trusted window {self.window}"
            )
        kept = tuple(_complete_classes(self.entries, window))
        return SpectralTable(entries=kept, window=window, grid=self.grid)


def _edge(window: float) -> float:
    """The largest |eigenvalue| inside a window: an eigenvalue within the
    clustering tolerance of the edge is on it, so the last bits of a solve do
    not decide whether a class exactly on the edge is kept."""
    return window + CLUSTER_TOL * max(1.0, window)


def _complete_classes(rows, window: float) -> list:
    """The complete winding classes inside a window: of (eigenvalue, winding,
    multiplicity) rows sorted by eigenvalue, those within _edge(window) whose
    winding carries total multiplicity two there.  The one rule of the solve's
    audit and of every clip."""
    inside = [row for row in rows if abs(row[0]) <= _edge(window)]
    per: dict[int, int] = {}
    for _, w, mult in inside:
        per[w] = per.get(w, 0) + mult
    return [row for row in inside if per[row[1]] == 2]


def check_grid_budget(grid: int) -> None:
    """Reject a grid whose dense operator would exceed MAX_DENSE_DIM rows."""
    if 2 * grid > MAX_DENSE_DIM:
        raise SpectralResolutionError(
            f"grid {grid} needs a dense operator of dimension {2 * grid}, above the "
            f"budget of {MAX_DENSE_DIM}; lower the window, cover or grid"
        )


def default_grid(base_n: int, k: int, window: float, base_strength: float) -> int:
    """Grid heuristic: resolve the covered loop and the requested window."""
    try:
        cells = math.ceil(10 * ((window + k * base_strength) / (2 * math.pi) + 2))
    except OverflowError:  # the grid size is not even a float
        raise SpectralResolutionError(
            f"window {window} at cover {k} needs a grid past the float range, above the "
            f"budget of {MAX_DENSE_DIM}; lower the window or cover"
        ) from None
    return next_odd(max(k * base_n, cells | 1, 33))


def spectrum_from_loop(
    loop: FlowLoop,
    window: float,
    grid: int | None = None,
    cover: int = 1,
    held: list | None = None,
) -> SpectralTable:
    """Windowed spectral table of the k-fold cover (k = `cover`) of the
    operator defined by a coefficient loop.

    The cover is solved by its Bloch blocks on the base grid
    m = next_odd(ceil(n / k)) of the grid n = `grid` (by default the grid
    heuristic), and the table reports n (module docstring).  The grid budget
    is checked, and a grid that leaves the cover fewer than 3 points a period
    refused, before anything is sampled.  The audit trims winding classes that
    the window cuts at its edges and raises SpectralResolutionError when the
    interior of the window is not resolved (too-coarse grid, inconsistent
    windings, gaps in the winding run, a winding off its Bloch block).

    `held` is an optional one-slot list owned by the caller, [None] or the last
    solve.  A solve of the same loop object, cover and base grid m is reused,
    whatever grid the request reports (the solve depends on the grid only
    through m): only the window's audit runs again, and it reads windings only
    for eigenfunctions that no earlier window of that solve scanned.  Any
    other request empties the slot before it solves, so at most one solve is
    kept.
    """
    if not window > 0:
        raise ValueError(f"window must be positive, got {window}")
    if cover < 1:
        raise ValueError(f"cover must be >= 1, got {cover}")
    if grid is not None and (grid % 2 == 0 or grid < 3):
        raise ValueError(f"grid must be odd and >= 3, got {grid}")
    n = grid or default_grid(loop.n, cover, window, loop.strength())
    check_grid_budget(n)
    m = _base_grid(n, cover)
    if m < 3:
        raise SpectralResolutionError(
            f"grid {n} gives cover {cover} fewer than 3 points a period; increase the grid"
        )
    held = [None] if held is None else held
    solve = held[0]  # read once: another reader may replace it meanwhile
    if solve is None or solve[0] is not loop or solve[1:3] != (cover, m):
        held[0] = solve = None  # free the kept solve before making another
        vals, blocks, points = _bloch_eigenpairs(loop, cover, n)
        # windings read so far: turns, and 0/1 faults with -1 for "not read"
        held[0] = solve = (loop, cover, m, (vals, blocks, points),
                           (np.empty(len(vals)), np.full(len(vals), -1)))
    return _audited_table(*solve[3], cover, window, cover * loop.strength(), n, solve[4])


def _base_grid(n: int, k: int) -> int:
    """The points of one period on which the k-fold cover of an n-point grid
    is solved by Bloch blocks."""
    return next_odd(math.ceil(n / k))


def _bloch_eigenpairs(loop: FlowLoop, k: int, n: int):
    """Eigenvalues of the k-fold cover, sorted, with their Bloch block and a
    function taking an index array to the real eigenfunctions of those
    entries, a (len, k*m, 2) array on the k*m-point cover grid,
    m = next_odd(ceil(n / k)).  For k = 1 this is the dense solve of
    build_operator(loop.resample(m)).  An odd cover has 2km eigenvalues; an
    even one has 2km - 2, since its block k/2 is the deflated real block of
    _antiperiodic_eigenpairs.
    """
    m = _base_grid(n, k)
    base = build_operator(loop.resample(m))
    solved = [np.linalg.eigh(base)]  # (eigenvalues, eigenvectors) of blocks 0..k//2
    parts = [(0, False)]  # (block, imaginary part?) of each run of a block's entries
    x, y = np.arange(0, 2 * m, 2), np.arange(1, 2 * m, 2)
    for j in range(1, (k + 1) // 2):
        # base - (2 pi j / k) (I (x) i J0), written into the 2x2 diagonal blocks;
        # eigh reads the lower triangle only, so the Hermitian upper entries
        # block[x, y] (the conjugates) are left unwritten
        block = base.astype(complex)
        block[y, x] -= (2j * math.pi * j / k)
        solved.append(np.linalg.eigh(block))
        # block k - j is the conjugate of block j: one solve, two real parts
        parts += [(j, False), (j, True)]
    if k % 2 == 0:
        solved.append(_antiperiodic_eigenpairs(base, m))  # overwrites base
        parts.append((k // 2, False))
    sizes = [len(solved[j][0]) for j, _ in parts]
    all_vals = k * np.concatenate([solved[j][0] for j, _ in parts])
    order = np.argsort(all_vals, kind="stable")
    owner = np.repeat(np.arange(len(parts)), sizes)[order]
    block_of, imag_of = np.array(parts)[owner].T
    column = np.concatenate([np.arange(size) for size in sizes])[order]
    cells = np.arange(k * m)

    def points(idx) -> np.ndarray:
        idx = np.asarray(idx, dtype=int)
        out = np.empty((len(idx), k * m, 2))
        for j in set(block_of[idx].tolist()):  # not np.unique, which imports numpy.ma
            sel = np.flatnonzero(block_of[idx] == j)
            entries = idx[sel]
            w = np.tile(solved[j][1][:, column[entries]].T.reshape(-1, m, 2), (1, k, 1))
            if 2 * j == k:  # antiperiodic: u(p + r m) = (-1)^r u(p)
                w.reshape(len(sel), k, m, 2)[:, 1::2] *= -1.0
            if 2 * j in (0, k):  # the real blocks
                out[sel] = w
                continue
            v = np.exp((2j * math.pi * j / (k * m)) * cells)[:, None] * w
            out[sel] = np.where(imag_of[entries, None, None] == 1, v.imag, v.real)
        return out

    return all_vals[order], block_of, points


def _antiperiodic_eigenpairs(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and real eigenvectors, of length 2m, of Bloch block k/2 of an
    even cover, from a = build_operator(loop.resample(m)), which is overwritten.

    In the basis v(s) = exp(i pi s) w(s) the block is the real antiperiodic
    operator: each derivative entry (p, q) of a times cos(pi (p - q) / m), plus
    an imaginary term on the alternating vector n = (-1)^p / sqrt(m) of each
    plane component alone.  That mode, the grid's Nyquist mode, has no real
    derivative; its pair of eigenvalues, near +-pi k m on the cover, lies beyond
    every scan of a default grid n <= k m (pi n >= 5 (window + k s) + 20 pi,
    above the scan's window + 2 k s + 8, s the loop's strength).  It is deflated:
    the Householder reflector H = I - 2 h h^T, h ~ n - e_0, of each component
    takes n to e_0, and point 0 of the reflected matrix is dropped, leaving a
    real symmetric solve of dimension 2m - 2.  Its eigenvectors are padded with
    two zeros and reflected back; on the cover grid an eigenfunction is
    u(p + r m) = (-1)^r u(p).
    """
    a4 = a.reshape(m, 2, m, 2)
    cos = np.cos((math.pi / m) * np.arange(1 - m, m))
    a4 *= np.lib.stride_tricks.sliding_window_view(cos, m)[:, None, ::-1, None]
    h = (-1.0) ** np.arange(m)
    h[0] = 1.0 - math.sqrt(m)  # n - e_0, times sqrt(m)
    h /= math.sqrt(2.0 * m - 2.0 * math.sqrt(m))
    # H a H = a - U G^T - G U^T with U = h (x) I_2 and G = 2 a U - 2 U (U^T a U),
    # and g[d, p, c] = G[(p, c), d] (a is symmetric, so U^T a gives a U).  Rows
    # and columns of point 0 are dropped, so only points p, q >= 1 are updated,
    # where h_p = +-h_1 alternates: (U G^T)[p, c, q, d] = h_p g[c, q, d] is g
    # broadcast over every other row point, G U^T the same on the transposed
    # view, and nothing of a's size is allocated
    g = (h @ a.reshape(m, -1)).reshape(2, m, 2)
    g = 2.0 * g - 2.0 * h[:, None] * np.tensordot(g, h, axes=(1, 0))[:, None, :]
    for view in (a, a.T):
        for start, hp in ((1, h[1]), (2, h[2])):
            view.reshape(m, 2, m, 2)[start::2] -= hp * g
    vals, reduced = np.linalg.eigh(a[2:, 2:])
    vecs = np.empty((m, 2, 2 * m - 2))
    vecs[1:] = reduced.reshape(m - 1, 2, -1)
    proj = 2.0 * np.tensordot(h[1:], vecs[1:], axes=(0, 0))  # 2 U^T (0, 0, reduced)
    vecs[0] = -h[0] * proj
    for start, hp in ((1, h[1]), (2, h[2])):
        vecs[start::2] -= hp * proj
    return vals, vecs.reshape(2 * m, -1)


def _audited_table(vals, blocks, points, k: int, window: float, strength: float,
                   n: int, read) -> SpectralTable:
    """Read windings off the eigenfunctions, cluster and audit them into a table.

    `vals` are sorted eigenvalues, `blocks[i]` the Bloch block of entry i of a
    k-fold cover and `points(idx)` the real eigenfunctions of the entries
    `idx`; `strength` bounds the coefficient loop and `n` is the reported grid.
    `read` is (turns, faults) of every entry, fault 0 or 1 once read and -1
    before; the scan reads the missing ones and fills them in.  The table
    lists the rows that _complete_classes keeps, as SpectralTable.clip does;
    its refusals establish everything SpectralTable.validate checks.
    """
    scan = window + 2.0 * strength + 8.0
    tol = CLUSTER_TOL * max(1.0, window)
    edge = _edge(window)

    lo = int(np.searchsorted(vals, -scan, side="left"))
    hi = int(np.searchsorted(vals, scan, side="right"))
    lams = vals[lo:hi].tolist()
    turns, faults = read
    missing = lo + np.flatnonzero(faults[lo:hi] < 0)
    step = max(1, WINDING_BATCH_POINTS // (k * _base_grid(n, k)))  # k m points a loop
    for start in range(0, len(missing), step):
        idx = missing[start : start + step]
        turns[idx], faults[idx] = _windings(points(idx))  # faults last: they mark the read
    winds: list[int | None] = []
    for lam, j, total, fault in zip(lams, blocks[lo:hi].tolist(), turns[lo:hi].tolist(),
                                    faults[lo:hi].tolist()):
        if fault:
            if abs(lam) <= edge:
                raise SpectralResolutionError(
                    f"eigenvector at lambda={lam:.6g} is under-resolved at grid {n}; "
                    "increase the grid"
                )
            # outside the window the scan is best-effort
            w = None
        else:
            w = round(total)
        if w is not None and (w - j) % k and (w + j) % k:
            # u(t) = exp(2 pi i j t) w(kt) winds j times mod k, up to conjugation
            if abs(lam) <= edge:
                raise SpectralResolutionError(
                    f"eigenvector at lambda={lam:.6g} from Bloch block {j} of {k} has "
                    f"winding {w}, not +-{j} mod {k}; increase the grid"
                )
            w = None
        winds.append(w)

    # cluster scanned eigenvalues (runs of gaps <= tol) into
    # (eigenvalue, winding, multiplicity)
    cuts = (np.flatnonzero(np.diff(vals[lo:hi]) > tol) + 1).tolist()
    starts, ends = ([0] + cuts, cuts + [len(lams)]) if lams else ([], [])
    cluster_data = []
    for start, end, mean in zip(starts, ends, _cluster_means(vals[lo:hi], starts, ends)):
        known = {w for w in winds[start:end] if w is not None}
        if len(known) > 1:
            if abs(mean) <= edge:
                raise SpectralResolutionError(
                    f"eigenvalue cluster at {mean:.6g} mixes windings {sorted(known)}; "
                    "increase the grid"
                )
            known = set()
        w = known.pop() if known else None
        cluster_data.append((mean, w, end - start))

    # winding monotonicity across the known part of the scan
    last = None
    for lam, w, _ in cluster_data:
        if w is None:
            continue
        if last is not None and w < last and abs(lam) <= edge:
            raise SpectralResolutionError(
                "winding is not nondecreasing across the window; increase the grid"
            )
        last = w if last is None else max(last, w)

    per_class: dict[int, int] = {}
    for _, w, mult in cluster_data:
        if w is not None:
            per_class[w] = per_class.get(w, 0) + mult
    if any(m > 2 for m in per_class.values()):
        bad = [w for w, m in per_class.items() if m > 2]
        raise SpectralResolutionError(
            f"winding classes {sorted(bad)} carry more than two eigenvalues; "
            "increase the grid"
        )

    # keep complete classes; incomplete ones are only tolerable at the edges
    kept = _complete_classes(cluster_data, window)
    kept_winds = sorted({w for _, w, _ in kept})
    if kept_winds and kept_winds != list(range(kept_winds[0], kept_winds[-1] + 1)):
        raise SpectralResolutionError(
            "gap in the run of complete winding classes inside the window; "
            "increase the grid"
        )
    entries = tuple(SpectralEntry(*row) for row in kept)
    return SpectralTable(entries=entries, window=window, grid=n)


def _cluster_means(vals: np.ndarray, starts: list[int], ends: list[int]) -> list[float]:
    """np.mean of each cluster vals[start:end], bit for bit, in one reduction.

    np.mean adds a cluster's members pairwise onto 0.0 and divides by its
    size; np.add.reduceat would start from the first member instead, so a 0.0
    goes in front of each cluster.
    """
    if not starts:
        return []
    sums = np.add.reduceat(np.insert(vals, starts, 0.0), np.arange(len(starts)) + starts)
    return (sums / np.subtract(ends, starts)).tolist()


# --- linearized flow / crossing form --------------------------------------


def monodromy(loop: FlowLoop, cover: int = 1) -> np.ndarray:
    """Endpoint of the linearized flow Psi' = J0 S(t) Psi over `cover` periods.

    This is P**cover, with P the RK4 monodromy of one period from the
    loop's one-period record, which cz_crossing shares.  A record whose sweep
    check failed still gives its P; only cz_crossing raises that failure.  A
    flow that overflows within one period raises the record's
    SpectralResolutionError, and a P**cover that overflows raises one that
    names the cover.
    """
    p = _record(loop, cover)[0]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        power = np.array(np.linalg.matrix_power(p, cover))  # a copy: P stays the record's
    if not np.isfinite(power).all():
        raise SpectralResolutionError(
            f"the monodromy of cover {cover} overflows: P**{cover} is not finite"
        )
    return power


def _step_count(loop: FlowLoop, cover: int) -> int:
    """RK4 steps per period, once `cover` periods of them are within budget."""
    if cover < 1:
        raise ValueError(f"cover must be >= 1, got {cover}")
    n_steps = max(2048, 256 * int(math.ceil(loop.strength() + 1)))
    if cover * n_steps > MAX_RK4_STEPS:
        raise SpectralResolutionError(
            f"cover {cover} needs {cover} x {n_steps} RK4 steps, above the budget of "
            f"{MAX_RK4_STEPS}"
        )
    return n_steps


def _integrate_frames(loop: FlowLoop, n_steps: int) -> np.ndarray:
    """The RK4 frames [I, Psi(h), ..., Psi(1) = P] of one period of n_steps steps."""
    h = 1.0 / n_steps
    # RK4 needs S on the half grid t = i h / 2, i = 0..2 n_steps, of one period
    s_half = _uniform_values(loop.samples, 2 * n_steps)
    # J0 S is S with its rows swapped and the new first row negated
    a_half = np.concatenate((s_half, s_half[:1]))[:, ::-1] * np.array([[-1.0], [1.0]])

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
    return np.concatenate([eye[None], frames])


def _swept_angles(path: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Total angle swept by Psi(t) z for each column z of `directions`."""
    # the (T, columns) angle steps set the peak memory: they are filled a column
    # at a time, never from a (T, 2, columns) product of the whole path
    d = np.empty((len(path) - 1, directions.shape[1]))
    for c in range(directions.shape[1]):
        w = np.einsum("tij,j->ti", path, directions[:, c])
        angle = np.arctan2(w[:, 1], w[:, 0])
        np.subtract(angle[1:], angle[:-1], out=d[:, c])
    d += math.pi  # wrapped in place
    d %= 2 * math.pi
    d -= math.pi
    if np.max(np.abs(d)) >= MAX_STEP_ANGLE:
        raise SpectralResolutionError(
            "flow integration step sweeps more than pi/2; increase the step count"
        )
    return np.sum(d, axis=0)


def cz_crossing(loop: FlowLoop, cover: int = 1) -> int:
    """Conley-Zehnder index of the orbit via the linearized-flow rotation number.

    Independent of the eigensolver route: integrates Psi' = J0 S(t) Psi with
    RK4 over one period and classifies the one-period monodromy P; the cover
    follows by Bott's iteration formula (module docstring).  A positive
    hyperbolic P gives the even index 2n from the integer swept angle of an
    eigenvector, a negative hyperbolic one the odd index 2*floor(angle/2pi)+1,
    and either is multiplied by the cover; an elliptic P gives
    2*floor(cover*rho)+1 from its rotation number rho.

    The one-period record (_one_period) does not depend on the cover, and
    monodromy reads its P from the same record.  The loop keeps it, so each
    further cover only checks its RK4 budget, tests P**cover for the
    eigenvalue 1 and applies Bott's formula; a failed sweep check is raised by
    every cover after that test, as if the path were swept again.  A P that is
    not finite (the flow overflowed within one period) has no eigenvalues to
    test: every cover within budget raises SpectralResolutionError for it.
    """
    p, tr, value, error = _record(loop, cover)
    with np.errstate(over="ignore", invalid="ignore"):  # P**cover of a hyperbolic P may overflow
        tr_cover = float(np.trace(np.linalg.matrix_power(p, cover)))
    # symplectic 2x2: det(P - 1) = 2 - tr, so eigenvalue 1 means tr = 2; no
    # power of a hyperbolic P has it, so an overflowing trace needs no test
    overflow = abs(tr) > 2.0 and not math.isfinite(tr_cover)
    if not overflow and abs(tr_cover - 2.0) <= 1e-9 * max(1.0, abs(tr_cover)):
        raise DegenerateThresholdError(
            f"monodromy has eigenvalue 1 within tolerance (trace {tr_cover!r}); "
            "the orbit is degenerate"
        )
    if error is not None:
        raise error[0](*error[1])
    if tr > 2.0 or tr < -2.0:  # hyperbolic: the index of one period, times the cover
        return cover * value
    turns = cover * value
    if abs(turns - round(turns)) < 1e-6:
        raise DegenerateThresholdError(
            "a swept angle is numerically an integer multiple of 2 pi while the "
            "monodromy is not positive hyperbolic; the orbit is near-degenerate"
        )
    return 2 * math.floor(turns) + 1


def _record(loop: FlowLoop, cover: int) -> tuple:
    """The loop's one-period record, made and kept in its slot on first use,
    once the RK4 budget of `cover` periods is checked.  A P that is not finite
    (the flow overflowed) has no use to either caller: its error is raised
    here."""
    n_steps = _step_count(loop, cover)
    record = loop._held[0]  # read once: a concurrent first reader may fill it meanwhile
    if record is None:
        loop._held[0] = record = _one_period(loop, n_steps)
    if not np.isfinite(record[0]).all():
        raise record[3][0](*record[3][1])
    return record


def _one_period(loop: FlowLoop, n_steps: int) -> tuple:
    """The record of one period: (P, tr P, value, error).

    `value` is the index of one period for a hyperbolic P and the rotation
    number for an elliptic one; `error` is None, or the class and arguments of
    the exception a sweep check raised or of the overflow of a P that is not
    finite, and then `value` is None.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the record's error
        path = _integrate_frames(loop, n_steps)
        p = path[-1].copy()  # the record keeps P, not the path
        tr = float(np.trace(p))
    if not np.isfinite(p).all():
        overflow = (f"the linearized flow overflows within one period of {n_steps} RK4 "
                    "steps: the monodromy is not finite")
        return (p, tr, None, (SpectralResolutionError, (overflow,)))
    try:
        return (p, tr, _classify(path, p, tr), None)
    except SpectralResolutionError as exc:
        return (p, tr, None, (type(exc), exc.args))


def _classify(path: np.ndarray, p: np.ndarray, tr: float):
    """The index of one period of a hyperbolic P, or the rotation number of an
    elliptic P, from the angles swept along the one-period path."""
    if tr > 2.0:
        # positive hyperbolic: eigenvectors sweep an exact multiple of 2 pi.  They
        # are solved in closed form, unstable first, each from the row of P - lambda
        # that has no cancellation: numpy.linalg.eig would map LAPACK's general
        # eigensolver into the process (0.5-0.7 MB of peak RSS with numpy 2.4's
        # OpenBLAS) for one 2x2 matrix.
        (a, b), (c, d) = p / np.max(np.abs(p))
        h = (a - d) / 2
        root = math.sqrt(max(h * h + b * c, 0.0))  # lambda = (a + d) / 2 +- root
        dirs = np.array([[h + root, b], [c, -h - root]] if h >= 0
                        else [[b, h - root], [root - h, c]])
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
    floors = np.floor(_swept_angles(path, dirs) / (2 * math.pi)).astype(int)
    if len(set(floors.tolist())) != 1:
        raise SpectralResolutionError(
            "swept angles straddle a multiple of 2 pi; near-degenerate orbit or "
            "insufficient step count"
        )
    if tr < -2.0:  # negative hyperbolic
        return 2 * int(floors[0]) + 1
    # elliptic: P turns z by 2 pi theta, counterclockwise when det[z, P z] > 0
    theta = math.acos(tr / 2) / (2 * math.pi)
    if p[1, 0] < 0:  # det[e1, P e1]
        theta = 1.0 - theta
    return int(floors[0]) + theta
