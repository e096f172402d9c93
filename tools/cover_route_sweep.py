"""Sweep the Bloch-block route of every cover against the dense oracle.

Run from the repository root:  python3 tools/cover_route_sweep.py

For every orbit of fixtures/catalog_fixture.json at covers k = 1..16 and
windows 10, 40 and 100, and for the nondegenerate_trig_loop corpus of
acceptance criterion 02 (20 loops of 201 samples, seed 20240601) at covers
1, 2, 3, 4, 5 and 8 and windows 10 and 40, it asks a Catalog (Galerkin Bloch
blocks for every k, k = 1 included: real symmetric blocks 0 and, for even k,
k/2, and Hermitian blocks between) and a DenseCoverCatalog (one dense
collocation solve of dimension 2n of the cover loop dense_cover(loop, k, n)
on the same default grid n; it shares the Catalog's orbits, and so their flow
loops and crossing records) for the tables at each window, then cz_index (both extremal
windings, parity and index at the cut 0) and is_bad.  Rows (winding,
multiplicity), grids, invariants and exception classes must be identical and
eigenvalues within CLUSTER_TOL * window.  The Catalog keeps its last solve
and re-audits it while a growing window keeps the base grid and the modes of
its blocks, so each of its tables
must also be identical, bit for bit, to the table a fresh Catalog returns for
that window alone.  For every (orbit, k) it visits, Catalog.cz_via_crossing,
which serves all covers of an orbit and its is_hyperbolic from one
integration of its flow (the crossing record its loop keeps), must give the
integer, or raise the exception class with the message, of cz_crossing on a
new loop with the same samples, FlowLoop(orbit.model.samples), which
integrates afresh.  Prints one summary line per corpus, with the Catalog's
Bloch solves (a table whose blocks grow makes one at each size), the tables
that made none and reused the kept one, and the windings they read (the
oracle's dense solves are not counted), and the RK4 integrations of the
orbits' own loops (the load audits, is_bad and crossing queries of both
catalogs; each corpus is swept on new loops over its samples, so no crossing
record exists before the sweep), and exits 1 on any difference.  The trig
corpus solves dense problems of dimension up to 3218; the whole sweep takes
minutes with one BLAS thread.
"""
import pathlib
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from hbcalc import orbits as orbits_module, spectral  # noqa: E402
from hbcalc.cli import load_catalog  # noqa: E402
from hbcalc.orbits import Catalog, OrbitRef, SimpleOrbit  # noqa: E402
from support import (  # noqa: E402
    DenseCoverCatalog,
    cover_outcomes,
    crossing_outcome,
    nondegenerate_trig_loop,
    outcome_differences,
)


class AuditCounter:
    """Counts the Bloch solves of the Catalog's own spectrum_from_loop calls
    (the oracle's are not counted), the tables they audit, the tables that
    made no solve (they audit the kept solve again) and the windings they read from Bloch
    eigenfunctions, each of which passed the block-index audit when the table
    was returned.  A table reads its windings in batches, so each batch adds
    its size."""

    def __init__(self):
        self.counting = False  # inside a spectrum_from_loop call of a Catalog
        self.read = self.solves = self.tables = self.reused = 0
        self.integrated: list[int] = []  # id() of each loop integrated
        real_solve, real_pairs = orbits_module.spectrum_from_loop, spectral._bloch_eigenpairs
        real_audit, real_windings = spectral._audited_table, spectral._windings
        real_integrate = spectral._integrate_frames

        def solve(*args, **kwargs):
            self.counting = True
            solves, tables = self.solves, self.tables
            try:
                return real_solve(*args, **kwargs)
            finally:
                self.counting = False
                self.reused += self.tables > tables and self.solves == solves

        def pairs(*args):
            self.solves += self.counting
            return real_pairs(*args)

        def audit(*args):
            self.tables += self.counting
            return real_audit(*args)

        def windings(pts):
            if self.counting:
                self.read += len(pts)
            return real_windings(pts)

        def integrate(loop, n_steps):
            self.integrated.append(id(loop))
            return real_integrate(loop, n_steps)

        orbits_module.spectrum_from_loop = solve
        spectral._bloch_eigenpairs, spectral._audited_table = pairs, audit
        spectral._windings, spectral._integrate_frames = windings, integrate

    def counts(self) -> tuple[int, int, int, int]:
        return self.solves, self.tables, self.reused, self.read


def sweep(name, orbits, covers, windows, audit) -> int:
    start, before = time.perf_counter(), audit.counts()
    orbits = [SimpleOrbit(o.id, o.period, spectral.FlowLoop(o.model.samples)) for o in orbits]
    audit.integrated.clear()
    bloch, dense = Catalog(orbits), DenseCoverCatalog(orbits)
    cases = rows = failures = 0
    worst = 0.0
    raised: dict[str, int] = {}
    asked: list[tuple] = []
    for orbit in orbits:
        for k in covers:
            ref = OrbitRef(orbit.id, k)
            crossing = crossing_outcome(lambda: bloch.cz_via_crossing(ref))
            fresh = crossing_outcome(
                lambda: spectral.cz_crossing(spectral.FlowLoop(orbit.model.samples), k))
            if crossing != fresh:
                failures += 1
                print(f"DIFF {orbit.id}^{k} cz_via_crossing {crossing} != cz_crossing {fresh}")
            got = cover_outcomes(bloch, ref, windows)
            asked.append((orbit, ref, got))
            want = cover_outcomes(dense, ref, windows)
            for problem in outcome_differences(got, want):
                failures += 1
                print(f"DIFF {orbit.id}^{k} {problem}")
            for (query, a), (_, b) in zip(got, want):
                cases += 1
                if isinstance(a, type):
                    raised[a.__name__] = raised.get(a.__name__, 0) + 1
                elif query[0] == "table":
                    rows += len(a[0])
                    if not isinstance(b, type) and a[:2] == b[:2]:  # else a DIFF above
                        gap = max((abs(x - y) for x, y in zip(a[2], b[2])), default=0.0)
                        worst = max(worst, gap / (spectral.CLUSTER_TOL * query[1]))
    solves, _, reused, read = (b - a for a, b in zip(before, audit.counts()))
    # the orbits' loops stay alive, so their ids name them
    models = {id(orbit.model) for orbit in orbits}
    rk4 = sum(i in models for i in audit.integrated)
    for orbit, ref, got in asked:  # the tables of windows asked in ascending order
        for i, window in enumerate(windows):
            if cover_outcomes(Catalog([orbit]), ref, (window,), invariants=False) != got[i:i + 1]:
                failures += 1
                print(f"DIFF {ref.simple}^{ref.k} window {window}: not the table of a fresh "
                      "Catalog")
    print(f"{name}: {len(orbits)} orbits x covers {covers[0]}..{covers[-1]} "
          f"({len(covers)}) x windows {list(windows)}: {cases} queries, {rows} table rows, "
          f"raised {dict(sorted(raised.items()))}, {solves} Bloch solves, {reused} "
          f"tables reusing one, {read} Bloch windings audited, {len(orbits) * len(covers)} "
          f"crossing queries, {rk4} RK4 integrations of the orbit loops, worst eigenvalue gap "
          f"{worst:.2e} of CLUSTER_TOL * window, {failures} differences, "
          f"{time.perf_counter() - start:.0f} s")
    return failures


def main() -> int:
    audit = AuditCounter()
    fixture = load_catalog(str(ROOT / "fixtures" / "catalog_fixture.json"))
    failures = sweep("fixture orbits", [fixture.orbit(i) for i in fixture.ids()],
                     tuple(range(1, 17)), (10.0, 40.0, 100.0), audit)
    rng = np.random.default_rng(20240601)  # the corpus of acceptance criteria 02-04
    loops = [nondegenerate_trig_loop(rng, n=201) for _ in range(20)]
    orbits = [SimpleOrbit(f"trig{i}", 1.0, loop) for i, loop in enumerate(loops)]
    failures += sweep("trig corpus", orbits, (1, 2, 3, 4, 5, 8), (10.0, 40.0), audit)
    print("cover route sweep:", "FAILED" if failures else
          "identical to the dense oracle, to fresh catalogs and to fresh crossing integrations")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
