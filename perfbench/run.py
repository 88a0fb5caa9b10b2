"""Benchmark of the ``cvuq`` command line, driven in process.

Usage, from the root of a cvuq checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py                    # every workload, timed
  python3 perfbench/run.py --smoke            # every workload, tiny, timed and traced
  python3 perfbench/run.py --write-reference  # store outputs of the reference seed

One closed-loop caller runs each workload's fixed list of ``cvuq.cli.main``
invocations, one after another, in this process.  BLAS is pinned to one
thread; ``--threads`` is 2, or 1 on a one-core host.

``--trace 0`` measures, with no wrappers installed:
  setup_s        median over 3 fresh interpreters of the time from spawn until
                 the workload's tiny warm-up invocation finishes (import
                 cvuq, write the input files, one small run);
  reps_per_s     median over list cycles of reps per second at 2 threads,
                 scaled to the host's usual speed (see timed_metrics);
  reps_per_s_1t  the same at 1 thread (cycles alternate 1 and 2 threads);
  peak_rss_mb    peak resident memory (MiB) after the first 1-thread cycle,
                 which precedes every 2-thread cycle.
``--trace 1`` runs the list once untraced and once traced, each at 1 and at
2 threads, and prints the per-layer metrics of tracer.py.

Every invocation is checked (checks.py); its stdout must also be identical
at 1 and 2 threads and on every repeat.  error_rate = failed / attempted.
The last line of stdout is the result object; the report goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracer
from workloads import REFERENCE_SEED, WORKLOADS, cvuq_seed, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"setup_s": "s", "reps_per_s": "reps/s", "reps_per_s_1t": "reps/s", "peak_rss_mb": "MB"}
SETUP_PROBES = 3
WARMUP_INDEX = 999
# calibrate() time on the host of record.json at its usual speed
CALIBRATION_REF_S = 0.05
THREADS = min(2, len(os.sched_getaffinity(0)))  # --threads of the multi-thread pass
PASSES = tuple(dict.fromkeys((1, THREADS)))  # 1-thread first: peak_rss_mb is read after it


def load_cli():
    """Import ``cvuq.cli`` from ``src/`` of the checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "cvuq" / "__init__.py").is_file():
        sys.exit("perfbench: no src/cvuq here; run from the root of a cvuq checkout")
    sys.path.insert(0, str(src))
    from cvuq import cli

    if Path(cli.__file__).resolve().parent != (src / "cvuq").resolve():
        sys.exit(f"perfbench: imported cvuq from {cli.__file__}, not from {src}")
    return cli


class Caller:
    """The closed-loop caller: runs one invocation at a time and checks it."""

    def __init__(self, cli, workdir: Path, seed: int, references: dict | None):
        self.cli = cli
        self.workdir = workdir
        self.seed = seed
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._first: dict = {}  # (index, label) -> (stdout, errors) of its first run

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def call(self, index: int, inv, threads: int, rec=None) -> tuple[float, int]:
        """Run one invocation; returns its wall time and stdout length."""
        argv = inv.resolve(self.workdir, cvuq_seed(self.seed, index), threads)
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                if rec is None:
                    rc = self.cli.main(argv)
                else:
                    with rec.span("cli.main"):
                        rc = self.cli.main(argv)
        except Exception as exc:  # a traceback is a failed invocation, not a crashed run
            rc = f"exception {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        stdout = out.getvalue()
        self.attempted += 1
        key = (index, inv.label)
        if key in self._first:
            first_stdout, errors = self._first[key]
            if not errors and stdout != first_stdout:
                errors = [f"stdout at --threads {threads} differs from the first run"]
        else:
            if self.references is None or index == WARMUP_INDEX:
                errors = checks.check_output(rc, stdout, inv.mode, inv.reps, None)
            elif inv.label not in self.references:
                errors = ["no stored reference"]
            else:
                errors = checks.check_output(rc, stdout, inv.mode, inv.reps, self.references[inv.label])
            self._first[key] = (stdout, errors)
        if errors:
            self.fail(f"{inv.label} (threads {threads}): {errors[0]}")
        return wall, len(stdout.encode())

    def cycle(self, invocations, threads: int, rec=None) -> tuple[float, int]:
        walls = [self.call(i, inv, threads, rec) for i, inv in enumerate(invocations)]
        return sum(w for w, _ in walls), sum(b for _, b in walls)


def probe_setup(name: str, workdir: Path, seed: int, count: int, caller: Caller):
    """(setup seconds, import seconds) from ``count`` fresh interpreters."""
    setups, imports = [], []
    for i in range(count):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(workdir / f"setup{i}"), str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        caller.attempted += 1
        if rec["errors"]:
            caller.fail(f"{name} warm-up in a fresh interpreter: {rec['errors'][0]}")
        setups.append(rec["end"] - t0)
        imports.append(rec["import_s"])
    return statistics.median(setups), statistics.median(imports)


def calibrate() -> float:
    """Seconds for fixed memory-bound, sorting and interpreter work that does
    not touch ``cvuq``."""
    import numpy

    rng = numpy.random.default_rng(0)
    t0 = time.perf_counter()
    (rng.standard_normal((50_000, 20)) @ rng.standard_normal(20)).sum()
    numpy.sort(rng.standard_normal(500_000))
    total = 0
    for i in range(100_000):
        total += i % 7
    return time.perf_counter() - t0


def timed_metrics(caller: Caller, invocations, seconds: float) -> tuple[dict, list[str]]:
    """Cycles of the invocation list, alternating 1 and 2 threads.

    A shared host runs faster or slower by up to a third for minutes at a
    time, and every timing moves with it.  Three calibration timings after
    each pair of cycles follow the host's speed, so both rates are scaled by
    the run's median calibration time over ``CALIBRATION_REF_S``: they are
    reps per second on the host at its usual speed.
    """
    reps = sum(inv.reps for inv in invocations)
    rates: dict[int, list[float]] = {t: [] for t in PASSES}
    calibration: list[float] = []
    peak_mb = None
    start = time.perf_counter()
    while True:
        for t in rates:
            wall, _ = caller.cycle(invocations, t)
            rates[t].append(reps / wall)
            if peak_mb is None:  # ru_maxrss is in KiB on Linux
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # after the cycles, so the first 1-thread cycle's peak is cvuq's alone
        calibration += [calibrate() for _ in range(3)]
        if time.perf_counter() - start >= seconds:
            break
    scale = statistics.median(calibration) / CALIBRATION_REF_S
    raw = {t: statistics.median(r) for t, r in rates.items()}
    notes = [
        f"{len(rates[1])} cycles per thread count; median calibration "
        f"{statistics.median(calibration):.5f} s (scale {scale:.4f})",
        f"unscaled reps_per_s {raw[THREADS]:.6g}, reps_per_s_1t {raw[1]:.6g}",
    ]
    values = {"reps_per_s": raw[THREADS] * scale, "reps_per_s_1t": raw[1] * scale, "peak_rss_mb": peak_mb}
    return values, notes


def traced_metrics(caller: Caller, workload, invocations) -> tuple[dict, list[str]]:
    untraced = sum(caller.cycle(invocations, t)[0] for t in PASSES)
    recs, traced, stdout_bytes, absent = {}, 0.0, 0, []
    for t in PASSES:
        rec = tracer.Recorder()
        with tracer.installed(rec) as absent:
            wall, nbytes = caller.cycle(invocations, t, rec)
        traced += wall
        recs[t] = rec
        if t == 1:
            stdout_bytes = nbytes
    one, many = tracer.PassStats(recs[1].spans), tracer.PassStats(recs[THREADS].spans)
    metrics = tracer.layer_metrics(one, many, THREADS)
    missing = [n for n in workload.expected_spans if one.calls(n) == 0]
    atoms = sum(inv.reps * inv.atoms_per_rep for inv in invocations)
    metrics.update({
        "simlab.kernel.atoms": atoms,
        "simlab.kernel.atoms_per_rep": max(inv.atoms_per_rep for inv in invocations),
        "simlab.kernel.bytes_computed": 8 * atoms,
        "cli.stdout_bytes": stdout_bytes,
        "trace.untraced_wall_s": untraced,
        "trace.traced_wall_s": traced,
        "trace.overhead_s": traced - untraced,
        "trace.spans": sum(len(r.spans) for r in recs.values()),
        "trace.layers_missing": len(missing),
        "trace.targets_absent": len(absent),
    })
    notes = [f"expected span with zero count: {n}" for n in missing]
    notes += [f"entry point absent: {t}" for t in absent]
    return metrics, notes


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    workload = WORKLOADS[name]
    invocations = workload.invocations(smoke)
    references = None
    if seed == REFERENCE_SEED:
        stored = json.loads((HERE / "reference.json").read_text())
        references = stored["smoke" if smoke else "full"][name]
    workdir = Path(tempfile.mkdtemp(prefix=f".work-{name}-", dir=HERE))
    try:
        write_inputs(workdir)
        caller = Caller(cli, workdir, seed, references)
        setup_s, import_s = probe_setup(name, workdir, seed, 1 if smoke else SETUP_PROBES, caller)
        for t in PASSES:
            caller.call(WARMUP_INDEX, workload.warmup, t)
        if trace:
            values, notes = traced_metrics(caller, workload, invocations)
            values["cli.import_s"] = import_s
            units = tracer.PER_LAYER
        else:
            values, notes = timed_metrics(caller, invocations, seconds)
            values["setup_s"] = setup_s
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    report(name, seed, trace, metrics, caller, notes)
    return {
        "correct": caller.failed == 0,
        "attempted": caller.attempted,
        "failed": caller.failed,
        "metrics": metrics,
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, else the pinned variable."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        maps = []
    for lib in sorted({line.split()[-1] for line in maps if "openblas" in line}):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ["OPENBLAS_NUM_THREADS"]


def host_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "cvuq_threads": THREADS,
    }


def report(name, seed, trace, metrics, caller, notes) -> None:
    err = sys.stderr
    print(f"== {name}  seed={seed}  trace={int(trace)}  threads={','.join(map(str, PASSES))}", file=err)
    for key, m in metrics.items():
        tag = "  (computed)" if key in tracer.COMPUTED else ""
        value = f"{m['value']:>16d}" if isinstance(m["value"], int) else f"{m['value']:>16.6g}"
        print(f"   {key:<46} {value} {m['unit']}{tag}", file=err)
    rate = caller.failed / caller.attempted if caller.attempted else 0.0
    print(f"   {'error_rate':<46} {rate:>16.6g} fraction  "
          f"({caller.failed} failed / {caller.attempted} attempted)", file=err)
    for line in notes + caller.messages:
        print(f"   note: {line}", file=err)


def write_reference(cli) -> None:
    """Store the reference seed's outputs for full and smoke sizes, and the
    host record they were produced on."""
    stored = {}
    for size in ("full", "smoke"):
        stored[size] = {}
        for name, workload in WORKLOADS.items():
            workdir = Path(tempfile.mkdtemp(prefix=".work-reference-", dir=HERE))
            write_inputs(workdir)
            outputs = {}
            for i, inv in enumerate(workload.invocations(size == "smoke")):
                argv = inv.resolve(workdir, cvuq_seed(REFERENCE_SEED, i), 1)
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = cli.main(argv)
                errors = checks.check_output(rc, out.getvalue(), inv.mode, inv.reps, None)
                if errors:
                    sys.exit(f"perfbench: {name}/{inv.label}: {errors[0]}")
                outputs[inv.label] = checks.parse_strict(out.getvalue())
            stored[size][name] = outputs
            shutil.rmtree(workdir)
    (HERE / "reference.json").write_text(json.dumps(stored, indent=1) + "\n")
    record_path = HERE / "record.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    record.update({
        "host": host_record(),
        "commit": commit.stdout.strip() or "unknown",
        "reference_seed": REFERENCE_SEED,
        "workloads": {n: {"why": w.why, "invocations": [list(map(str, i.argv)) for i in w.invocations(False)]}
                      for n, w in WORKLOADS.items()},
        "end_to_end": END_TO_END,
        "per_layer": tracer.PER_LAYER,
        "computed": list(tracer.COMPUTED),
        "layers": tracer.LAYERS,
    })
    record_path.write_text(json.dumps(record, indent=1) + "\n")


def check_manifest() -> list[str]:
    """Differences between BENCHMARK.json and what this benchmark prints."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return ["BENCHMARK.json not found"]
    spec = json.loads(path.read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("workload names differ from workloads.py")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != END_TO_END:
        problems.append("end_to_end metrics differ from run.py")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != tracer.PER_LAYER:
        problems.append("per_layer metrics differ from tracer.py")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, timed and traced")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    for var in BLAS_ENV:
        os.environ[var] = "1"
    cli = load_cli()
    print(f"host: {json.dumps(host_record())}", file=sys.stderr)
    if args.write_reference:
        write_reference(cli)
        return 0
    if args.workload and not args.smoke:
        result = run_workload(cli, args.workload, args.seed, args.seconds, bool(args.trace), False)
        print(json.dumps(result))
        return 0
    names = [args.workload] if args.workload else list(WORKLOADS)
    traces = (False, True) if args.smoke else (bool(args.trace),)
    seconds = 0.0 if args.smoke else args.seconds
    ok = True
    for name in names:
        for trace in traces:
            result = run_workload(cli, name, args.seed, seconds, trace, args.smoke)
            ok = ok and result["correct"]
            print(json.dumps({"workload": name, "trace": int(trace), **result}))
    if args.smoke:
        for problem in check_manifest():
            print(f"manifest: {problem}", file=sys.stderr)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
