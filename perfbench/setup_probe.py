"""Set-up probe, run in a fresh interpreter by run.py.

Usage: python3 perfbench/setup_probe.py WORKLOAD WORKDIR SEED

Imports ``cvuq`` from ``src/`` under the current directory, writes the input
files and runs the workload's tiny warm-up invocation, then prints one JSON
line: the system-wide monotonic clock at the end (the parent subtracts its
own clock reading from before the spawn), the import time, and any output
check failures.
"""

import sys
import time

t_import = time.monotonic()
sys.path.insert(0, "src")
from cvuq import cli  # noqa: E402

import_s = time.monotonic() - t_import

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    name, workdir, seed = sys.argv[1], Path(sys.argv[2]), int(sys.argv[3])
    warmup = workloads.WORKLOADS[name].warmup
    workloads.write_inputs(workdir)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(warmup.resolve(workdir, workloads.cvuq_seed(seed, 999), 1))
    end = time.monotonic()
    errors = checks.check_output(rc, out.getvalue(), warmup.mode, warmup.reps, None)
    print(json.dumps({"end": end, "import_s": import_s, "errors": errors}))


if __name__ == "__main__":
    main()
