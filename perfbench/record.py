"""Record the reference outputs the benchmark checks against, in data/expected.json.

    python3 perfbench/record.py

Run it on the commit whose outputs are the reference (the outputs are meant
to stay byte-identical across later commits).  It records the stdout digest
and exit code of every cli_cold command and the digest of the
building_reports outputs for the default seed.
"""

import json
import os
import shutil
import subprocess
import sys

import gen
import run


def main() -> int:
    env = run.child_env()
    cli = {}
    for name, argv in gen.CLI_COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "hbcalc.cli", *argv], cwd=run.ROOT,
                              env=env, capture_output=True, timeout=120)
        cli[name] = {"exit": proc.returncode, "stdout": proc.stdout.decode()}
    work = run.ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    try:
        run.prepare("building_reports", run.DEFAULT_SEED, work)
        result = run.run_worker("building_reports", work, env, 1, 0, 150.0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result["errors"]:
        print(f"record: building_reports failed: {result['errors'][:3]}", file=sys.stderr)
        return 1
    expected = {
        "recorded_from_src_sha256": run.machine_facts()["src_sha256"],
        "cli_cold": cli,
        "building_reports_seed0_outputs_sha256": run.outputs_digest(result["digests"]),
    }
    path = run.HERE / "data" / "expected.json"
    path.write_text(json.dumps(expected, sort_keys=True, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
