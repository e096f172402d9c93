"""Run the benchmark of BENCHMARK.json and keep its numbers in one JSON file.

Run from the repository root:

    python3 tools/bench.py [--out BENCH_<n>.json]
    python3 tools/bench.py --against OTHER_CHECKOUT --out pairs.json

Every run is at seed SEED for SECONDS seconds, so that each BENCH_<n>.json
can be quoted against the one before it.  The first form runs the unchanged
perfbench/run.py once per workload with --trace 0 (end-to-end metrics) and
once with --trace 1 (per-layer metrics).  For each run it keeps the result
line and the facts of the report line: the machine, src_sha256,
inputs_sha256, outputs_sha256 and fail_frac.  It also
keeps the per-layer metrics that perfbench/selftest.py requires to fire but
that read 0 ("silent"), as they read.  Then it times the tier-1 tests (the
pytest suite under tests/) and keeps their wall time and count, the
tools/loc.py count and the commit (`git rev-parse HEAD`, plus whether src/
differs from it).  --out defaults to the first free BENCH_<n>.json.  The
tier-1 run keeps collecting past a module that fails to import, and its
count of errors is kept next to passed and failed.

The second form runs PAIRS alternating pairs at --trace 0 instead: in each
pair the other checkout and this one run the same workload in alternating
order.  Its output has another layout, so it needs --out: it never takes a
BENCH_<n>.json name.  For each end-to-end metric it keeps every pair, both
medians, the other checkout's quartile spread and the relative change of the
median against the bound BENCHMARK.json sets.  It also keeps the length of
each checkout's path (under "path_length"), and warns on stderr when the two
differ: cover_spectra's peak_rss_mb moves by up to 0.5 MB with that length,
so pairs are compared at paths of one length.

Cold numbers depend on bytecode: a 10 s cli_cold run at seed 0 on a 2-core
x86-64 Linux box read 4.56 ops/s with PYTHONDONTWRITEBYTECODE=1 and no
src/hbcalc/__pycache__, and 5.68 ops/s after `python3 -m compileall src`.
So both layouts keep, per checkout (under "bytecode", and in the second form
under "other" and "this"), the value of PYTHONDONTWRITEBYTECODE (null when
unset) and whether src/hbcalc/__pycache__ held .pyc files before its first
perfbench run and after its last.  perfbench passes the environment on, so
with the variable unset the first run of a checkout writes its bytecode.
"""

import argparse
import json
import os
import pathlib
import re
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from selftest import FIRES  # noqa: E402  (perfbench/ is not a package)

#: alternating pairs per workload, the fewest the nine-tenths rule can judge
PAIRS = 10
#: the seed and run length of every perfbench run
SEED = 0
SECONDS = 30.0


def run_perfbench(checkout: pathlib.Path, workload: str, trace: int) -> dict:
    """One perfbench run: its result line and the facts of its report line."""
    argv = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("report "):
        raise RuntimeError(f"{workload} --trace {trace} in {checkout}: exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-800:]}")
    report = json.loads(lines[-2][len("report "):])
    facts = {key: report[key] for key in ("machine", "inputs_sha256", "outputs_sha256",
                                          "fail_frac", "errors")}
    return {"report": facts, "result": json.loads(lines[-1])}


def tier1() -> dict:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=ROOT, capture_output=True, text=True, timeout=1800)
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", summary)}
    return {"wall_s": round(wall, 2), "exit": proc.returncode, "summary": summary,
            "passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "errors": counts.get("errors", counts.get("error", 0))}


def has_pyc(checkout: pathlib.Path) -> bool:
    return any((checkout / "src" / "hbcalc" / "__pycache__").glob("*.pyc"))


def bytecode(checkout: pathlib.Path, pyc_at_start: bool) -> dict:
    return {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "pyc_at_start": pyc_at_start, "pyc_at_end": has_pyc(checkout)}


def git(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True, timeout=30)


def single_runs(workloads) -> dict:
    pyc_at_start = has_pyc(ROOT)
    out = {}
    for workload in workloads:
        runs = {f"trace_{trace}": run_perfbench(ROOT, workload, trace)
                for trace in (0, 1)}
        metrics = runs["trace_1"]["result"]["metrics"]
        runs["silent"] = [name for name in FIRES[workload] if not metrics[name]["value"]]
        out[workload] = runs
    state = bytecode(ROOT, pyc_at_start)
    loc = subprocess.run([sys.executable, str(ROOT / "tools" / "loc.py")], cwd=ROOT,
                         capture_output=True, text=True, timeout=60)
    return {
        "commit": git("rev-parse", "HEAD").stdout.strip(),
        "src_differs_from_commit": git("diff", "--quiet", "HEAD", "--", "src").returncode != 0,
        "seed": SEED,
        "seconds": SECONDS,
        "bytecode": state,
        "workloads": out,
        "tier1": tier1(),
        "loc": int(loc.stdout.split()[-1]),
    }


def quartile_spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def pair_runs(other: pathlib.Path, workloads, bounds: dict) -> dict:
    checkouts = {"other": other, "this": ROOT}
    path_length = {side: len(str(path)) for side, path in checkouts.items()}
    if path_length["other"] != path_length["this"]:
        print(f"warning: checkout paths differ in length ({path_length['other']} and "
              f"{path_length['this']}); peak_rss_mb moves with it", file=sys.stderr)
    pyc_at_start = {side: has_pyc(path) for side, path in checkouts.items()}
    out = {}
    for workload in workloads:
        rows = []
        for i in range(PAIRS):
            order = ("other", "this") if i % 2 == 0 else ("this", "other")
            row = {side: run_perfbench(checkouts[side], workload, 0) for side in order}
            rows.append(row)
        metrics = {}
        for name, (better, bound) in bounds.items():
            before = [r["other"]["result"]["metrics"][name]["value"] for r in rows]
            after = [r["this"]["result"]["metrics"][name]["value"] for r in rows]
            sign = 1 if better == "lower" else -1  # > 0: this checkout is worse
            change = statistics.median(after) / statistics.median(before) - 1.0
            metrics[name] = {
                "other_median": statistics.median(before),
                "this_median": statistics.median(after),
                "other_quartile_spread": quartile_spread(before),
                "relative_change": change,
                "worse_than_bound": sign * change > bound,
                "pairs_this_better": sum(sign * (a - b) < 0 for a, b in zip(after, before)),
            }
        out[workload] = {"metrics": metrics, "pairs": rows}
    state = {side: bytecode(path, pyc_at_start[side]) for side, path in checkouts.items()}
    return {"seed": SEED, "seconds": SECONDS, "pairs": PAIRS, "bytecode": state,
            "path_length": path_length, "workloads": out}


def next_bench_path() -> pathlib.Path:
    n = 0
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    return ROOT / f"BENCH_{n}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path)
    parser.add_argument("--against", type=pathlib.Path)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    if args.against is not None and args.out is None:
        parser.error("--against needs --out: pair runs are not a BENCH_<n>.json")
    if args.against is None:
        data = single_runs(workloads)
    else:
        bounds = {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}
        data = pair_runs(args.against.resolve(), workloads, bounds)
    out = args.out or next_bench_path()
    out.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
