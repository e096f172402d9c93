"""One benchmark client: runs a workload's ops in a closed loop and checks them.

Started by run.py in a fresh interpreter with PYTHONPATH=<checkout>/src:

    python3 perfbench/worker.py --workload W --inputs DIR --passes P --trace 0|1
    python3 perfbench/worker.py --workload W --inputs DIR --probe [--trace 1]

A probe does the workload's set-up (imports, catalog load with its audit),
prints ``READY <json>`` with the wall-clock time it finished, and exits;
run.py times it from spawn to that moment.
Otherwise the worker makes --passes whole passes over the inputs, timing each
op and checking its output between ops, and prints one JSON line with the raw
samples.  With --trace 1 it then installs the tracer
and replays the same ops, so the traced phase does identical work and its
outputs must match the untraced ones.

cli_cold ops are `python -m hbcalc.cli` subprocesses (traced: cli_shim.py);
the other workloads call hbcalc in this process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import re
import resource
import signal
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = pathlib.Path(__file__).resolve().parent
#: the seed's relative clustering tolerance; computed eigenvalues must lie
#: within CLUSTER_TOL * max(1, window) of the exact ones
CLUSTER_TOL = 1e-7
OP_TIMEOUT = 30.0


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op that ran past its wall-clock limit."""


class CheckError(Exception):
    """An op returned a wrong result."""


def _alarm(signum, frame):
    raise OpTimeout()


def _sha(text) -> str:
    return hashlib.sha256(text if isinstance(text, bytes) else text.encode()).hexdigest()


def _dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def import_hbcalc() -> dict:
    """Import numpy, then hbcalc from this checkout; return both import times."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import hbcalc.cli  # noqa: F401  (pulls in every hbcalc module)

    t2 = time.perf_counter()
    src = (ROOT / "src").resolve()
    if src not in pathlib.Path(hbcalc.cli.__file__).resolve().parents:
        raise SystemExit(f"hbcalc imported from {hbcalc.cli.__file__}, not from {src}")
    return {"import.numpy_s": t1 - t0, "import.hbcalc_s": t2 - t1}


# --- workloads --------------------------------------------------------------------


class CliCold:
    """Each op is one fixture command as a fresh `python -m hbcalc.cli` process."""

    def __init__(self, inputs, work: pathlib.Path):
        self.commands = inputs["commands"]
        self.order = inputs["order"]
        self.work = work
        self.expected = json.loads((HERE / "data" / "expected.json").read_text())["cli_cold"]
        self.traced = False
        self.trace_files: list[pathlib.Path] = []
        self.stdout_bytes = 0
        self.rounding_matches = 0

    def setup(self):
        from hbcalc import cli

        cli.load_catalog(str(ROOT / "fixtures" / "catalog_fixture.json"))

    def begin_pass(self, j, tracer):
        pass

    def ops(self, j):
        return self.order[j % len(self.order)]

    def run_op(self, name, timeout):
        argv = self.commands[name]
        env = dict(os.environ)
        if self.traced:
            trace_file = self.work / f"cli-trace-{len(self.trace_files):05d}.json"
            self.trace_files.append(trace_file)
            env["PERFBENCH_TRACE_FILE"] = str(trace_file)
            cmd = [sys.executable, str(HERE / "cli_shim.py"), *argv]
        else:
            cmd = [sys.executable, "-m", "hbcalc.cli", *argv]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=timeout)
        return proc

    def check(self, name, proc, first):
        want = self.expected[name]
        if proc.returncode != want["exit"]:
            raise CheckError(f"{name}: exit {proc.returncode}, expected {want['exit']}: "
                             f"{proc.stderr.decode(errors='replace')[-300:]}")
        if proc.stdout != want["stdout"].encode():
            # eigenvalues printed in full may differ in the last bits on another
            # BLAS kernel; any other difference, layout included, is a failure
            if not _equal_up_to_rounding(proc.stdout.decode(errors="replace"), want["stdout"]):
                raise CheckError(f"{name}: stdout differs from the recorded seed output")
            self.rounding_matches += 1
        self.stdout_bytes += len(proc.stdout)
        return _sha(proc.stdout)


_FLOAT = re.compile(r"-?\d+(?:\.\d+(?:[eE][-+]?\d+)?|[eE][-+]?\d+)")


def _equal_up_to_rounding(got: str, want: str) -> bool:
    """Same text except float literals, which agree to 1e-9 relative."""
    if _FLOAT.split(got) != _FLOAT.split(want):
        return False
    return all(abs(float(a) - float(b)) <= 1e-9 * max(1.0, abs(float(a)), abs(float(b)))
               for a, b in zip(_FLOAT.findall(got), _FLOAT.findall(want)))


class CoverSpectra:
    """Each op audits one orbit cover: spectra at growing windows and both CZ routes."""

    def __init__(self, inputs, work: pathlib.Path):
        self.order = inputs["order"]
        self.windows = inputs["windows"]
        self.expect = inputs["expect"]
        self.catalog_file = str(work / "cover_catalog.json")
        self.catalog = None

    def setup(self):
        from hbcalc import cli

        self.catalog = cli.load_catalog(self.catalog_file)

    def begin_pass(self, j, tracer):
        # a fresh catalog per pass, so every op solves cold
        self.setup()

    def ops(self, j):
        return self.order[j % len(self.order)]

    def run_op(self, key, timeout):
        from hbcalc.orbits import OrbitRef

        orbit, k = key.split(":")
        ref = OrbitRef(orbit, int(k))
        rows = {}
        for window in self.windows:
            table = self.catalog.spectrum_of(ref, window)
            rows[window] = [(e.eigenvalue, e.winding, e.multiplicity) for e in table.entries]
        return rows, self.catalog.cz_index(ref).mu_cz, self.catalog.cz_via_crossing(ref)

    def check(self, key, result, first):
        rows, mu_spectral, mu_crossing = result
        want = self.expect[key]
        if not mu_spectral == mu_crossing == want["mu"]:
            raise CheckError(f"cover {key}: CZ spectral {mu_spectral}, crossing "
                             f"{mu_crossing}, analytic {want['mu']}")
        for window in self.windows:
            got, exact = rows[window], want["rows"][str(int(window))]
            tol = CLUSTER_TOL * max(1.0, window)
            if [r[1:] for r in got] != [tuple(r[1:]) for r in exact] or any(
                    abs(g[0] - e[0]) > tol for g, e in zip(got, exact)):
                raise CheckError(f"cover {key} window {window}: rows differ from the exact "
                                 "spectrum")
        return _sha(repr(result))


class BuildingReports:
    """Building reports and enumerations against the warm fixture catalog."""

    def __init__(self, inputs, work: pathlib.Path):
        self.items = {item["name"]: item for item in inputs["items"]}
        self.order = inputs["order"]
        self.work = work
        self.catalog = None
        self.tracer = None
        self.output_bytes = 0

    def setup(self):
        from hbcalc import cli

        self.catalog = cli.load_catalog(str(ROOT / "fixtures" / "catalog_fixture.json"))

    def begin_pass(self, j, tracer):
        self.tracer = tracer

    def ops(self, j):
        return self.order[j % len(self.order)]

    def _render(self, payload) -> str:
        if self.tracer is None:
            return _dump(payload)
        with self.tracer.span("bench.render"):
            return _dump(payload)

    def run_op(self, name, timeout):
        from hbcalc import cli
        from hbcalc.buildings import augment, core
        from hbcalc.degeneration import classify_stable_limit, enumerate_limits, validate_nice
        from hbcalc.index_calculus import index_report, verify_additivity

        item = self.items[name]
        path = str(self.work / f"{name}.json")
        if item["kind"] == "enumerate":
            limits = enumerate_limits(self.catalog, cli.load_asymptotics(path))
            text = self._render([[list(lt.top), list(lt.bottom), lt.breaking.simple,
                                  lt.breaking.k] for lt in limits])
            return {"limits": limits, "text": text}
        building = cli.load_building(path)
        report = index_report(self.catalog, building)
        additivity = verify_additivity(self.catalog, building)
        nice = validate_nice(self.catalog, building)
        stable = classify_stable_limit(self.catalog, building)
        augmented = augment(building, item["augment_pair"])
        collapsed = core(augmented)
        text = self._render({
            "index": cli.index_report_to_data(report),
            "additivity": [additivity.index_total, additivity.index_component_sum,
                           additivity.c_n_total, additivity.c_n_component_sum,
                           additivity.breaking_parity_sum, additivity.nodal_points],
            "nice": [nice.ok, [[v.code, v.location] for v in nice.violations]],
            "stable": [stable.kind, stable.index, [[v.code, v.location]
                                                   for v in stable.violations]],
            "core": cli.building_to_data(collapsed),
        })
        return {"building": building, "report": report, "augmented": augmented,
                "core": collapsed, "text": text}

    def check(self, name, result, first: bool):
        """Invariants that hold for any seed; the expensive ones on first sight only."""
        from hbcalc import cli
        from hbcalc.buildings import core, euler_char
        from hbcalc.index_calculus import fredholm_index, normal_chern

        self.output_bytes += len(result["text"])
        item = self.items[name]
        if not first:
            return _sha(result["text"])
        want = item["expect"]
        if item["kind"] == "enumerate":
            got = [[list(lt.top), list(lt.bottom), lt.breaking.simple, lt.breaking.k]
                   for lt in result["limits"]]
            if got != want["limits"]:
                raise CheckError(f"{name}: limits differ from the brute-force count")
            return _sha(result["text"])
        report, building, augmented = result["report"], result["building"], result["augmented"]
        got = {"chi": report.chi, "genus": report.genus, "index": report.index,
               "c_N": report.c_n}
        if got != {key: want[key] for key in got}:
            raise CheckError(f"{name}: report {got} differs from the exact {want}")
        if (euler_char(augmented), fredholm_index(self.catalog, augmented),
                normal_chern(self.catalog, augmented)) != (report.chi, report.index, report.c_n):
            raise CheckError(f"{name}: augment changed chi, index or c_N")
        if not core(building).same_as(result["core"]):
            raise CheckError(f"{name}: core(augment(b)) differs from core(b)")
        again = cli.building_from_data(json.loads(_dump(cli.building_to_data(building))))
        if not again.same_as(building):
            raise CheckError(f"{name}: JSON round trip changed the building")
        return _sha(result["text"])


WORKLOADS = {"cli_cold": CliCold, "cover_spectra": CoverSpectra,
             "building_reports": BuildingReports}


# --- the closed loop -------------------------------------------------------------------


class Loop:
    def __init__(self, workload, limit: float):
        self.workload = workload
        self.start = time.perf_counter()
        self.limit = limit
        self.latencies: dict[int, float] = {}  # op index -> seconds
        self.keys: dict[int, str] = {}  # op index -> op key
        self.errors: list[str] = []
        self.attempted = 0
        self.digests: dict = {}
        self.sequence: list = []  # (pass, ops) actually run

    def remaining(self) -> float:
        return self.limit - (time.perf_counter() - self.start)

    def one(self, index: int, key, tracer=None) -> None:
        """Run, time and check one op; a failure is recorded, never raised."""
        self.attempted += 1
        timeout = min(OP_TIMEOUT, self.remaining())
        if timeout <= 0:
            self.errors.append(f"{key}: not started, wall-clock limit reached")
            return
        try:
            # the alarm stops a hung in-process op; subprocesses get `timeout`
            signal.setitimer(signal.ITIMER_REAL, timeout + 1.0)
            try:
                if tracer is not None:
                    tracer.op = index
                t0 = time.perf_counter()
                result = self.workload.run_op(key, timeout)
                # an op that returns is timed even if its output then fails the check
                self.latencies[index] = time.perf_counter() - t0
                self.keys[index] = key
                if tracer is not None:
                    tracer.op = None
                first = key not in self.digests
                digest = self.workload.check(key, result, first)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                if tracer is not None:
                    tracer.op = None
            if not first and digest != self.digests[key]:
                raise CheckError(f"{key}: output differs from an earlier run of the same op")
            self.digests[key] = digest
        except (OpTimeout, subprocess.TimeoutExpired):
            self.errors.append(f"{key}: timed out")
        except Exception as exc:  # noqa: BLE001 - every op failure is counted, not fatal
            self.errors.append(f"{key}: {type(exc).__name__}: {exc}")

    def run_passes(self, passes: int) -> None:
        """`passes` whole passes over the inputs, unless the wall-clock limit comes first."""
        for j in range(passes):
            self.workload.begin_pass(j, None)
            keys = self.workload.ops(j)
            self.sequence.append((j, keys))
            for key in keys:
                self.one(self.attempted, key)

    def replay(self, other: "Loop", tracer) -> None:
        """The same passes and ops as `other`, traced; outputs must match its digests."""
        self.digests = dict(other.digests)
        index = 0
        for j, keys in other.sequence:
            tracer.op = None
            self.workload.begin_pass(j, tracer)
            for key in keys:
                self.one(index, key, tracer)
                index += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, type=pathlib.Path)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--limit", type=float, default=150.0,
                        help="hard wall-clock limit for all ops of this worker")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    imports = import_hbcalc()
    inputs = json.loads((args.inputs / "inputs.json").read_text())
    workload = WORKLOADS[args.workload](inputs, args.inputs)
    signal.signal(signal.SIGALRM, _alarm)
    # on SIGTERM unwind normally, so a running command is killed first
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.probe:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        workload.setup()
        # wall-clock time, so run.py can subtract the moment it spawned this process
        ready = {"ready_at": time.time(), "imports": imports}
        if tracer is not None:
            tracer.uninstall()
            ready["trace"] = tracer.summary(ops_only=False)
        print("READY " + json.dumps(ready), flush=True)
        return 0

    workload.setup()
    plain = Loop(workload, args.limit)
    # a traced run makes half the passes untraced, then replays them traced
    plain.run_passes(max(1, args.passes // 2) if args.trace else args.passes)
    out = {
        "samples": [[plain.keys[i], t] for i, t in plain.latencies.items()],
        "attempted": plain.attempted,
        "errors": plain.errors,
        "peak_rss_kb": resource.getrusage(
            resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
        ).ru_maxrss,
        "digests": plain.digests,
        "passes": len(plain.sequence),
        "rounding_matches": getattr(workload, "rounding_matches", 0),
    }
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        traced = Loop(workload, args.limit - (time.perf_counter() - plain.start))
        if args.workload == "cli_cold":
            workload.traced = True
            workload.stdout_bytes = 0
        else:
            tracer.install()
            if isinstance(workload, BuildingReports):
                workload.output_bytes = 0
        traced.replay(plain, tracer)
        tracer.uninstall()
        both = [i for i in traced.latencies if i in plain.latencies]
        out.update({
            "attempted": plain.attempted + traced.attempted,
            "errors": plain.errors + traced.errors,
            "traced_ops": len(traced.latencies),
            "traced_busy_s": sum(traced.latencies[i] for i in both),
            "untraced_busy_s": sum(plain.latencies[i] for i in both),
        })
        if args.workload == "cli_cold":
            out["cli_traces"] = [json.loads(f.read_text()) for f in workload.trace_files
                                 if f.exists()]
            out["output_bytes"] = workload.stdout_bytes
        else:
            out["trace"] = tracer.summary()
            out["output_bytes"] = getattr(workload, "output_bytes", 0)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
