"""Sweep the Bloch-block cover route against the dense oracle.

Run from the repository root:  python3 tools/cover_route_sweep.py

For every orbit of fixtures/catalog_fixture.json at covers k = 1..16 and
windows 10, 40 and 100, and for the nondegenerate_trig_loop corpus of
acceptance criterion 02 (20 loops of 201 samples, seed 20240601) at covers
2, 3, 4, 5 and 8 and windows 10 and 40, it asks a Catalog (Bloch blocks for
k >= 2) and a DenseCoverCatalog (one dense solve of loop.cover(k, grid=n) on
the same default grid n) for the tables at each window, then cz_index, alpha
on both sides of the cut 0 and is_bad.  Rows (winding, multiplicity), grids,
invariants and exception classes must be identical and eigenvalues within
CLUSTER_TOL * window.  Prints one summary line per corpus and exits 1 on any
difference.  The trig corpus solves dense problems of dimension up to 3218;
the whole sweep takes minutes with one BLAS thread.
"""

import pathlib
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from hbcalc import spectral  # noqa: E402
from hbcalc.cli import load_catalog  # noqa: E402
from hbcalc.orbits import Catalog, OrbitRef, SimpleOrbit  # noqa: E402
from support import (  # noqa: E402
    DenseCoverCatalog,
    cover_outcomes,
    nondegenerate_trig_loop,
    outcome_differences,
)


class AuditCounter:
    """Counts the windings read from Bloch eigenfunctions of covers k >= 2,
    each of which passed the block-index audit when the table was returned.
    A table reads its windings in batches, so each batch adds its size."""

    def __init__(self):
        self.cover = 1
        self.read = 0
        real_pairs, real_windings = spectral._bloch_eigenpairs, spectral._windings

        def pairs(loop, k, n):
            self.cover = k
            return real_pairs(loop, k, n)

        def windings(pts):
            if self.cover > 1:
                self.read += len(pts)
            return real_windings(pts)

        spectral._bloch_eigenpairs, spectral._windings = pairs, windings


def sweep(name, orbits, covers, windows, audit) -> int:
    start, read = time.perf_counter(), audit.read
    bloch, dense = Catalog(orbits), DenseCoverCatalog(orbits)
    cases = rows = failures = 0
    worst = 0.0
    raised: dict[str, int] = {}
    for orbit in orbits:
        for k in covers:
            ref = OrbitRef(orbit.id, k)
            got = cover_outcomes(bloch, ref, windows)
            want = cover_outcomes(dense, ref, windows)
            for problem in outcome_differences(got, want):
                failures += 1
                print(f"DIFF {orbit.id}^{k} {problem}")
            for (query, a), (_, b) in zip(got, want):
                cases += 1
                if isinstance(a, type):
                    raised[a.__name__] = raised.get(a.__name__, 0) + 1
                elif query[0] == "table" and not isinstance(b, type) and a[2]:
                    rows += len(a[0])
                    gap = max(abs(x - y) for x, y in zip(a[2], b[2]))
                    worst = max(worst, gap / (spectral.CLUSTER_TOL * query[1]))
    print(f"{name}: {len(orbits)} orbits x covers {covers[0]}..{covers[-1]} "
          f"({len(covers)}) x windows {list(windows)}: {cases} queries, {rows} table rows, "
          f"raised {dict(sorted(raised.items()))}, {audit.read - read} Bloch windings "
          f"audited, worst eigenvalue gap {worst:.2e} of CLUSTER_TOL * window, "
          f"{failures} differences, {time.perf_counter() - start:.0f} s")
    return failures


def main() -> int:
    audit = AuditCounter()
    fixture = load_catalog(str(ROOT / "fixtures" / "catalog_fixture.json"))
    failures = sweep("fixture orbits", [fixture.orbit(i) for i in fixture.ids()],
                     tuple(range(1, 17)), (10.0, 40.0, 100.0), audit)
    rng = np.random.default_rng(20240601)  # the corpus of acceptance criteria 02-04
    loops = [nondegenerate_trig_loop(rng, n=201) for _ in range(20)]
    orbits = [SimpleOrbit(f"trig{i}", 1.0, loop) for i, loop in enumerate(loops)]
    failures += sweep("trig corpus", orbits, (2, 3, 4, 5, 8), (10.0, 40.0), audit)
    print("cover route sweep:", "FAILED" if failures else "identical to the dense oracle")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
