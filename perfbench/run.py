"""hbcalc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli_cold|cover_spectra|building_reports \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program under test is the checkout's
own src/.  The harness generates the inputs from the seed (numpy only, never
hbcalc), times the set-up in fresh interpreters, then starts one worker
process that drives the workload with one client in a closed loop and checks
every output.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  The line before it is a report with the machine facts, the
input digest, sample counts and the failure fraction.  See BENCHMARK.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import gen

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli_cold", "cover_spectra", "building_reports")
#: seed whose building_reports outputs are pinned in data/expected.json
DEFAULT_SEED = 0
#: fresh interpreters whose median set-up time is setup_s
SETUP_PROBES = 7
#: seconds one pass over the inputs takes on the reference machine (2 CPUs,
#: Python 3.11, seed code); a run makes the fewest whole passes that last
#: --seconds there, so its op mix does not shift when the program gets faster
#: or slower
PASS_SECONDS = {"cli_cold": 3.4, "cover_spectra": 9.5, "building_reports": 2.3}
BLAS_THREADS = 1
#: a set-up probe that has not finished by then has hung
PROBE_TIMEOUT = 20.0
#: a run must end within 180 s; the harness stops the worker before that
RUN_LIMIT = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# --- inputs and processes -------------------------------------------------------


def prepare(workload: str, seed: int, work: pathlib.Path) -> tuple[dict, str]:
    """Write the seeded inputs under `work`; return them and their digest."""
    inputs = gen.generate(workload, seed, ROOT)
    work.mkdir(parents=True)
    files = [ROOT / "fixtures" / "catalog_fixture.json"]
    if workload == "cli_cold":
        files = sorted({ROOT / arg for argv in inputs["commands"].values() for arg in argv
                        if arg.startswith("fixtures/")})
    elif workload == "cover_spectra":
        files = []
        (work / "cover_catalog.json").write_text(json.dumps(inputs["catalog"]))
    else:
        for item in inputs["items"]:
            (work / f"{item['name']}.json").write_text(
                json.dumps(item["data"], sort_keys=True, indent=2) + "\n")
    (work / "inputs.json").write_text(json.dumps(inputs))
    return inputs, gen.digest(inputs, files)


def child_env() -> dict:
    """Environment for every child: this checkout's src/ and one BLAS thread.

    One thread stays below nproc and keeps dense solves steady when the host
    takes a CPU away; two threads on two shared CPUs spread far more.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def worker_cmd(workload: str, work: pathlib.Path, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--inputs", str(work), *extra]


def probe_setup(workload: str, work: pathlib.Path, env: dict, trace: int) -> tuple[float, dict]:
    """Spawn a fresh interpreter; return the time until it reports set-up done."""
    cmd = worker_cmd(workload, work, "--probe", "--trace", str(trace))
    spawned = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT)
    line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    if proc.returncode != 0 or not line.startswith("READY "):
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): "
                           f"{proc.stderr.strip()[-500:]}")
    ready = json.loads(line[len("READY "):])
    return ready["ready_at"] - spawned, ready


def run_worker(workload: str, work: pathlib.Path, env: dict, passes: int, trace: int,
               limit: float) -> dict:
    cmd = worker_cmd(workload, work, "--passes", str(passes), "--trace", str(trace),
                     "--limit", str(limit))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=limit + 15)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker failed (exit {proc.returncode}): {proc.stderr.strip()[-800:]}")
    return json.loads(lines[-1])


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def outputs_digest(digests: dict) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


# --- machine facts ----------------------------------------------------------------


def machine_facts() -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "machine": platform.machine(),
    }


# --- metrics ---------------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    idx = max(len(ordered) - 11, 0)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - idx - 1


def upper_quartiles(samples: list) -> list[float]:
    """Every sample replaced by the upper quartile of its op's latencies over the run's passes.

    Each pass repeats the same ops, so this keeps the spread between ops.  The
    host shares its cores with other tenants: pure-Python work runs up to twice
    as slow while a co-tenant is busy, which is most of the time, and the share
    of quiet moments drifts from minute to minute.  An op's median moves with
    that share; its upper quartile stays at the busy-core speed.
    """
    by_key: dict = {}
    for key, t in samples:
        by_key.setdefault(key, []).append(t)
    q3 = {key: statistics.quantiles(ts, n=4, method="inclusive")[2] if len(ts) > 1 else ts[0]
          for key, ts in by_key.items()}
    return [q3[key] for key, _ in samples]


def end_to_end(result: dict, setup_times: list[float]) -> tuple[dict, dict]:
    lat = upper_quartiles(result["samples"])
    tail_s, tail_pct, beyond = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1e3 * statistics.median_low(lat), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }
    notes = {"op_tail_percentile": round(tail_pct, 2), "op_tail_samples_beyond": beyond,
             "op_samples": len(lat), "setup_samples": len(setup_times)}
    return metrics, notes


def _merge(summaries: list[dict]) -> dict:
    """Sum trace summaries of several processes (one per cli_cold command)."""
    merged = {"total": {}, "self": {}, "group": {}, "counts": {}, "solved_covers": 0}
    for s in summaries:
        for part in ("total", "self", "group", "counts"):
            for key, value in s[part].items():
                if key == "dense_dim_max":
                    merged[part][key] = max(merged[part].get(key, 0), value)
                else:
                    merged[part][key] = merged[part].get(key, 0) + value
        merged["solved_covers"] += s["solved_covers"]
    return merged


def per_layer(result: dict, probes: list[dict], workload: str) -> dict:
    if workload == "cli_cold":
        traces = result["cli_traces"]
        trace = _merge(traces)
        n = max(len(traces), 1)
        setup = {key: sum(t["imports"][key] for t in traces) / n
                 for key in ("import.numpy_s", "import.hbcalc_s")}
        setup["cli.load_catalog_s"] = trace["self"].get("cli.load_catalog", 0.0) / n
        setup["orbits.catalog_init_s"] = trace["total"].get("orbits.Catalog.__init__", 0.0) / n
    else:
        trace = result["trace"]
        n = max(result["traced_ops"], 1)
        setup = {key: statistics.median(p["imports"][key] for p in probes)
                 for key in ("import.numpy_s", "import.hbcalc_s")}
        setup["cli.load_catalog_s"] = statistics.median(
            p["trace"]["self"].get("cli.load_catalog", 0.0) for p in probes)
        setup["orbits.catalog_init_s"] = statistics.median(
            p["trace"]["total"].get("orbits.Catalog.__init__", 0.0) for p in probes)
    t, own, grp, c = trace["total"], trace["self"], trace["group"], trace["counts"]

    def per(value):
        return value / n

    def ratio(num, den):
        return num / den if den else 0.0

    calls = c.get("orbits.Catalog.table", 0)
    solves = c.get("table_solves", 0)
    values = {
        **{key: (value, "s") for key, value in setup.items()},
        "cli.load_building_s": (per(t.get("cli.load_building", 0.0)), "s/op"),
        "cli.load_asymptotics_s": (per(t.get("cli.load_asymptotics", 0.0)), "s/op"),
        "cli.render_s": (per(grp.get("render", 0.0)), "s/op"),
        "cli.main_s": (per(t.get("cli.main", 0.0)), "s/op"),
        "cli.input_bytes": (per(c.get("input_bytes", 0)), "B/op"),
        "cli.output_bytes": (per(result["output_bytes"]), "B/op"),
        "orbits.table_calls": (per(calls), "count/op"),
        "orbits.table_solves": (per(solves), "count/op"),
        "orbits.table_hit_ratio": (ratio(calls - solves, calls), "ratio"),
        "orbits.solves_per_cover": (ratio(solves, trace["solved_covers"]), "ratio"),
        "orbits.cz_index_calls": (per(c.get("orbits.Catalog.cz_index", 0)), "count/op"),
        "orbits.alpha_calls": (per(c.get("orbits.Catalog.alpha", 0)), "count/op"),
        "spectral.eigh_s": (per(t.get("spectral.eigh", 0.0)), "s/op"),
        "spectral.eigh_calls": (per(c.get("spectral.eigh", 0)), "count/op"),
        "spectral.dense_dim_max": (c.get("dense_dim_max", 0), "rows"),
        "spectral.eigh_flops_computed": (per(c.get("eigh_flops", 0)), "flop/op"),
        "spectral.operator_bytes_computed": (per(c.get("operator_bytes", 0)), "B/op"),
        "spectral.build_operator_s": (per(t.get("spectral.build_operator", 0.0)), "s/op"),
        "spectral.resample_s": (per(grp.get("resample", 0.0)), "s/op"),
        "spectral.value_at_points": (per(c.get("value_at_points", 0)), "count/op"),
        "spectral.winding_cluster_s": (per(own.get("spectral.spectrum_from_loop", 0.0)),
                                       "s/op"),
        "spectral.cz_crossing_s": (per(t.get("spectral.cz_crossing", 0.0)), "s/op"),
        "spectral.monodromy_s": (per(t.get("spectral.monodromy", 0.0)), "s/op"),
        "spectral.rk4_steps_computed": (per(c.get("rk4_steps", 0)), "count/op"),
        "buildings.core_s": (per(t.get("buildings.core", 0.0)), "s/op"),
        "buildings.augment_s": (per(t.get("buildings.augment", 0.0)), "s/op"),
        "buildings.component_lookups": (per(c.get("buildings.Building.component", 0)),
                                        "count/op"),
        "buildings.external_sites_calls": (
            per(c.get("buildings.Building.external_sites", 0)), "count/op"),
        "buildings.euler_char_calls": (per(c.get("buildings.euler_char", 0)), "count/op"),
        "buildings.is_connected_calls": (per(c.get("buildings.is_connected", 0)), "count/op"),
        "buildings.detach_component_calls": (per(c.get("buildings.detach_component", 0)),
                                             "count/op"),
        "index_calculus.index_report_s": (per(t.get("index_calculus.index_report", 0.0)),
                                          "s/op"),
        "index_calculus.verify_additivity_s": (
            per(t.get("index_calculus.verify_additivity", 0.0)), "s/op"),
        "index_calculus.component_reports_s": (
            per(t.get("index_calculus.component_reports", 0.0)), "s/op"),
        "index_calculus.fredholm_index_calls": (
            per(c.get("index_calculus.fredholm_index", 0)), "count/op"),
        "index_calculus.normal_chern_calls": (per(c.get("index_calculus.normal_chern", 0)),
                                              "count/op"),
        "index_calculus.cz_index_calls_per_report": (
            ratio(c.get("cz_index_in_report", 0), c.get("index_calculus.index_report", 0)),
            "count/report"),
        "degeneration.validate_nice_s": (per(t.get("degeneration.validate_nice", 0.0)), "s/op"),
        "degeneration.classify_stable_limit_s": (
            per(t.get("degeneration.classify_stable_limit", 0.0)), "s/op"),
        "degeneration.enumerate_limits_s": (
            per(t.get("degeneration.enumerate_limits", 0.0)), "s/op"),
        "degeneration.enumerate_masks": (per(c.get("enumerate_masks", 0)), "count/op"),
        "degeneration.enumerate_yield": (
            ratio(c.get("enumerate_limits_found", 0), c.get("enumerate_attempts", 0)), "ratio"),
        "trace.overhead_frac": (
            ratio(result["traced_busy_s"], result["untraced_busy_s"]) - 1.0, "ratio"),
    }
    return values


# --- entry point --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hbcalc benchmark (see BENCHMARK.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    # on SIGTERM unwind normally, so the worker is killed and the inputs removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    for needed in ("BENCHMARK.json", "src/hbcalc/cli.py", "fixtures/catalog_fixture.json"):
        if not (ROOT / needed).is_file():
            return fail(f"{needed} not found under {ROOT}; run from an hbcalc checkout")

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs, input_digest = prepare(args.workload, args.seed, work)
        env = child_env()
        probes = [probe_setup(args.workload, work, env, args.trace)
                  for _ in range(SETUP_PROBES)]
        limit = RUN_LIMIT - (time.perf_counter() - started) - 15
        passes = max(1, math.ceil(args.seconds / PASS_SECONDS[args.workload]))
        result = run_worker(args.workload, work, env, passes, args.trace, limit)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = list(result["errors"])
    digest = outputs_digest(result["digests"])
    if args.workload == "building_reports" and args.seed == DEFAULT_SEED:
        pinned = json.loads((HERE / "data" / "expected.json").read_text())[
            "building_reports_seed0_outputs_sha256"]
        if digest != pinned:
            errors.append(f"outputs digest {digest} differs from the recorded {pinned}")
    attempted = result["attempted"]
    failed = min(len(errors), attempted)
    if not result["samples"]:
        return fail(f"no op completed: {errors[:3]}")

    if args.trace:
        metrics = per_layer(result, [p for _, p in probes], args.workload)
        notes = {"traced_ops": result["traced_ops"]}
    else:
        metrics, notes = end_to_end(result, [t for t, _ in probes])
    declared = {m["name"]: m["unit"]
                for m in load_benchmark()["per_layer" if args.trace else "end_to_end"]}
    if declared != {name: unit for name, (_, unit) in metrics.items()}:
        return fail("metrics differ from those BENCHMARK.json declares")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": input_digest,
        "outputs_sha256": digest,
        "machine": machine_facts(),
        "passes": result["passes"],
        "cli_outputs_equal_up_to_rounding": result["rounding_matches"],
        **notes,
        "fail_frac": failed / attempted,
        "errors": errors[:5],
        "metrics": {name: f"{value:.6g} {unit}" for name, (value, unit) in metrics.items()},
    }
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
