"""`python -m hbcalc.cli` with the tracer installed, for the traced cli_cold run.

    PERFBENCH_TRACE_FILE=out.json python3 perfbench/cli_shim.py <hbcalc arguments>

Times the numpy and hbcalc imports, runs ``hbcalc.cli.main`` as one traced
op and writes the trace summary to $PERFBENCH_TRACE_FILE.  Stdout and the
exit code are the command's own.
"""

import json
import os
import sys

from worker import import_hbcalc

if __name__ == "__main__":
    imports = import_hbcalc()
    from hbcalc import cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    try:
        code = cli.main(sys.argv[1:])
    finally:
        tracer.op = None
        tracer.uninstall()
        sys.stdout.flush()
        summary = tracer.summary()
        summary["imports"] = imports
        with open(os.environ["PERFBENCH_TRACE_FILE"], "w", encoding="utf-8") as handle:
            json.dump(summary, handle)
    sys.exit(code)
