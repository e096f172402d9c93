"""The benchmark's own test.

    python3 perfbench/selftest.py

Checks that the tracer wraps each traced function in every hbcalc namespace
that binds it and restores them all, then makes one short traced run per
workload and asserts that no op failed (a traced output that differs from
its untraced run counts as a failed op) and that every per-layer metric
mapped to the workload fired.
"""

import json
import subprocess
import sys

import run

#: per-layer metrics that must be nonzero on each workload's traced run
FIRES = {
    "cli_cold": (
        "import.numpy_s", "import.hbcalc_s", "cli.load_catalog_s", "cli.load_building_s",
        "cli.load_asymptotics_s", "cli.render_s", "cli.main_s", "cli.input_bytes",
        "cli.output_bytes", "orbits.catalog_init_s", "orbits.table_calls", "orbits.table_solves",
        "orbits.cz_index_calls", "orbits.alpha_calls", "spectral.eigh_s", "spectral.eigh_calls",
        "spectral.dense_dim_max", "spectral.eigh_flops_computed",
        "spectral.operator_bytes_computed", "spectral.build_operator_s", "spectral.resample_s",
        "spectral.value_at_points", "spectral.winding_cluster_s", "spectral.monodromy_s",
        "spectral.rk4_steps_computed", "buildings.core_s", "buildings.augment_s",
        "buildings.component_lookups", "buildings.external_sites_calls",
        "buildings.euler_char_calls", "buildings.is_connected_calls",
        "buildings.detach_component_calls", "index_calculus.index_report_s",
        "index_calculus.component_reports_s", "index_calculus.fredholm_index_calls",
        "index_calculus.normal_chern_calls", "index_calculus.cz_index_calls_per_report",
        "degeneration.validate_nice_s", "degeneration.classify_stable_limit_s",
        "degeneration.enumerate_limits_s", "degeneration.enumerate_masks",
        "degeneration.enumerate_yield",
    ),
    "cover_spectra": (
        "import.numpy_s", "import.hbcalc_s", "cli.load_catalog_s", "orbits.catalog_init_s",
        "orbits.table_calls", "orbits.table_solves", "orbits.table_hit_ratio",
        "orbits.solves_per_cover", "orbits.cz_index_calls", "spectral.eigh_s",
        "spectral.eigh_calls", "spectral.dense_dim_max", "spectral.eigh_flops_computed",
        "spectral.operator_bytes_computed", "spectral.build_operator_s", "spectral.resample_s",
        "spectral.value_at_points", "spectral.winding_cluster_s", "spectral.cz_crossing_s",
        "spectral.rk4_steps_computed",
    ),
    "building_reports": (
        "import.numpy_s", "import.hbcalc_s", "cli.load_catalog_s", "orbits.catalog_init_s",
        "cli.load_building_s", "cli.load_asymptotics_s", "cli.render_s", "cli.input_bytes",
        "cli.output_bytes", "orbits.table_calls", "orbits.table_hit_ratio",
        "orbits.cz_index_calls", "orbits.alpha_calls", "buildings.core_s",
        "buildings.augment_s", "buildings.component_lookups", "buildings.external_sites_calls",
        "buildings.euler_char_calls", "buildings.is_connected_calls",
        "buildings.detach_component_calls", "index_calculus.index_report_s",
        "index_calculus.verify_additivity_s", "index_calculus.component_reports_s",
        "index_calculus.fredholm_index_calls", "index_calculus.normal_chern_calls",
        "index_calculus.cz_index_calls_per_report", "degeneration.validate_nice_s",
        "degeneration.classify_stable_limit_s", "degeneration.enumerate_limits_s",
        "degeneration.enumerate_masks", "degeneration.enumerate_yield",
    ),
}
#: short runs: one pass each
SECONDS = {"cli_cold": 4, "cover_spectra": 10, "building_reports": 3}

NAMESPACES = """
import sys
sys.path.insert(0, sys.argv[1])
from hbcalc import degeneration, index_calculus, orbits, spectral
import numpy as np
from tracer import Tracer

originals = (spectral.spectrum_from_loop, spectral.cz_crossing, index_calculus.defect,
             np.linalg.eigh, orbits.Catalog.table)
tracer = Tracer()
tracer.install()
assert orbits.spectrum_from_loop is spectral.spectrum_from_loop
assert orbits.cz_crossing is spectral.cz_crossing and orbits.monodromy is spectral.monodromy
assert spectral.spectrum_from_loop.__wrapped__ is originals[0]
assert degeneration.defect is index_calculus.defect
assert degeneration.defect.__wrapped__ is originals[2]
assert degeneration.fredholm_index is index_calculus.fredholm_index
assert hasattr(degeneration.fredholm_index, "__wrapped__")
assert np.linalg.eigh.__wrapped__ is originals[3]
assert orbits.Catalog.table.__wrapped__ is originals[4]
tracer.uninstall()
assert (spectral.spectrum_from_loop, spectral.cz_crossing, index_calculus.defect,
        np.linalg.eigh, orbits.Catalog.table) == originals
assert orbits.spectrum_from_loop is originals[0]
print("namespaces ok")
"""


def main() -> int:
    env = run.child_env()
    proc = subprocess.run([sys.executable, "-c", NAMESPACES, str(run.HERE)], cwd=run.ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    print(proc.stdout.strip() or proc.stderr.strip()[-2000:])
    problems = [] if proc.returncode == 0 else ["tracer namespaces"]
    for workload, must_fire in FIRES.items():
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "0",
             "--seconds", str(SECONDS[workload]), "--trace", "1"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            problems.append(f"{workload}: exit {proc.returncode}: {proc.stderr[-500:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = result["metrics"]
        silent = [name for name in must_fire if not metrics[name]["value"]]
        missing = sorted(set(m["name"] for m in run.load_benchmark()["per_layer"]) - set(metrics))
        print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
              f"silent {silent}, missing {missing}")
        if result["failed"] or not result["correct"]:
            problems.append(f"{workload}: {result['failed']} failed ops")
        if silent or missing:
            problems.append(f"{workload}: silent {silent}, missing {missing}")
    print("selftest " + ("FAILED: " + "; ".join(problems) if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
