"""impactdesk benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload ens-exp --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout; the package is imported from its
`src/`.  The worker count and BLAS threads are pinned to one (the
reference host has 2 cores, too few for a wall-clock worker-scaling
claim, so no workload scales workers).

Set-up (import of impactdesk and of the benchmark's workload module,
which imports `impactdesk.config`; config parse and agent build,
including the utility-table build; initial state) is timed in several
fresh processes, one after another, and its median reported.  numpy is
imported before the clock starts, because the thread pins and the
`trapz` alias must be in place first, so its import is not counted.
The timed phase then repeats passes of fixed work on fresh seeded
inputs for `--seconds`, at least two passes; `wall_s` is the median
pass time.  Outputs of every pass are checked afterwards.

With `--trace 1` each pass runs twice, untraced and then with layer
spans recorded (see `spans`); the traced outputs must be bit-identical
to the untraced ones.  Per-layer times are medians over traced passes,
counts come from traced pass 0, and `trace.overhead` is the median
traced/untraced time ratio minus one.

Every metric is printed as `metric <name> = <value> <unit> (n=<samples>)`,
then a `record` line with the host and inputs, and last one JSON line:
{"correct", "attempted", "failed", "metrics"}.  An operation is a path
run (ensembles), a query row, or a certification pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"     # names each workload and why
PINS = {"IMPACTDESK_WORKERS": "1", "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 11
MIN_PASSES = 2
WORKLOAD_NAMES = ("ens-exp", "strong-tanh", "query-tanh")


def apply_numpy_shim(np) -> bool:
    """Give numpy 2 back the `trapz` name; return whether it was missing.

    impactdesk.conditions evaluates `getattr(np, "trapezoid", np.trapz)`
    at import.  Python evaluates the `np.trapz` default eagerly, so the
    import fails where numpy removed `trapz`, although the function it
    picks is `np.trapezoid`.  The alias is evaluated and discarded, and
    nothing the package computes changes.
    """
    if hasattr(np, "trapz"):
        return False
    np.trapz = np.trapezoid
    return True


@dataclass
class Pass:
    index: int
    seconds: float
    output: object          # None when the pass raised
    error: str = ""


def run_pass(workload, desk, seed: int, index: int) -> Pass:
    start = time.perf_counter()
    try:
        out, err = workload.run(desk, seed, index), ""
    except Exception:
        out, err = None, traceback.format_exc()
    return Pass(index, time.perf_counter() - start, out, err)


def timed_passes(workload, desk, seed: int, seconds: float) -> list:
    """Passes 0, 1, ... until the next one would overrun `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        p = run_pass(workload, desk, seed, len(passes))
        passes.append(p)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + p.seconds > seconds:
            return passes


def check_passes(workload, desk, seed: int, passes, reference) -> tuple:
    attempted = failed = 0
    for p in passes:
        attempted += workload.ops(desk)
        if p.output is None:
            print(p.error, file=sys.stderr)
            failed += workload.ops(desk)
        else:
            failed += workload.check(desk, seed, p.index, p.output, reference)
    return attempted, failed


def blas_name(np) -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas'].get('version', '')}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def print_metric(name, value, unit, n):
    print(f"metric {name} = {value!r} {unit} (n={n})")


def load_numpy():
    """Pin threads, import numpy and alias `trapz` if numpy lacks it.

    Returns (numpy, whether the alias was needed), or None when the
    checkout has no impactdesk package under `src/`.
    """
    os.environ.update(PINS)      # before numpy loads its BLAS
    src = ROOT / "src"
    if not (src / "impactdesk" / "__init__.py").is_file():
        print(f"perfbench: no impactdesk package under {src}",
              file=sys.stderr)
        return None
    sys.path.insert(0, str(src))
    import numpy as np
    return np, apply_numpy_shim(np)


def load_workloads():
    """Import impactdesk from this checkout's `src/`, then the workloads.

    Returns the `workloads` module, or None when impactdesk was found
    somewhere else.
    """
    import impactdesk
    if Path(impactdesk.__file__).resolve().parent != ROOT / "src/impactdesk":
        print(f"perfbench: imported impactdesk from {impactdesk.__file__}",
              file=sys.stderr)
        return None
    import workloads
    return workloads


def probe_setup(name: str) -> int:
    """Print the seconds a fresh process takes to import and set up."""
    if load_numpy() is None:
        return 2
    start = time.perf_counter()
    workloads = load_workloads()
    if workloads is None:
        return 2
    workloads.WORKLOADS[name].setup()
    print(time.perf_counter() - start)
    return 0


def setup_seconds(name: str) -> list:
    """Set-up times of SETUP_REPEATS fresh processes, one after another."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--setup-probe"], capture_output=True,
                              text=True, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def plain_run(workload, seed: int, seconds: float) -> tuple:
    """End-to-end metrics, with nothing traced."""
    setup_s = setup_seconds(workload.name)
    desk = workload.setup()
    passes = timed_passes(workload, desk, seed, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "wall_s": (statistics.median(p.seconds for p in passes), "s",
                   len(passes)),
        "peak_rss_mb": (peak_mb, "MB", 1),
    }
    return desk, passes, metrics, 0


def traced_run(workload, seed: int, seconds: float) -> tuple:
    """Per-layer metrics from traced passes, each right after the same
    pass untraced, so tracing overhead is measured on equal inputs.

    The last item counts the operations of traced passes whose outputs
    are not bit-identical to their untraced twins.
    """
    import spans
    tracer = spans.Tracer()
    tracer.install()
    for k in range(SETUP_REPEATS):
        with tracer.segment(f"setup-{k}"):
            desk = workload.setup()
    tracer.uninstall()
    pairs = []
    start = time.perf_counter()
    while True:
        index = len(pairs)
        plain = run_pass(workload, desk, seed, index)
        tracer.install()
        with tracer.segment(f"pass-{index}"):
            traced = run_pass(workload, desk, seed, index)
        tracer.uninstall()
        pairs.append((plain, traced))
        pair_s = plain.seconds + traced.seconds
        if time.perf_counter() - start + pair_s > seconds:
            break
    differs = 0
    for plain, traced in pairs:
        if (plain.output is None or traced.output is None
                or workload.digest(plain.output)
                != workload.digest(traced.output)):
            print(f"perfbench: traced pass {plain.index} differs from the "
                  "untraced one", file=sys.stderr)
            differs += workload.ops(desk)
    metrics = spans.layer_metrics(tracer, desk.agents.size)
    metrics["trace.overhead"] = (
        statistics.median(t.seconds / p.seconds for p, t in pairs) - 1,
        "share", len(pairs))
    metrics["trace.missing_boundaries"] = (len(tracer.missing), "count", 1)
    for site in tracer.missing:
        print(f"missing boundary {site}: not traced")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(str(out_dir / f"spans-{workload.name}.tsv.gz"))
    return desk, [p for pair in pairs for p in pair], metrics, differs


def run_workload(args) -> int:
    loaded = load_numpy()
    workloads = loaded and load_workloads()
    if workloads is None:
        return 2
    np, shimmed = loaded
    workload = workloads.WORKLOADS[args.workload]
    why = {w["name"]: w["why"]
           for w in json.loads(BENCHMARK.read_text())["workloads"]}
    reference = json.loads(REFERENCE.read_text())
    run = traced_run if args.trace else plain_run
    desk, passes, metrics, failed = run(workload, args.seed, args.seconds)
    attempted, wrong = check_passes(workload, desk, args.seed, passes,
                                    reference)
    failed += wrong

    print(f"workload {workload.name}: {why[workload.name]}")
    for name, (value, unit, n) in metrics.items():
        print_metric(name, value, unit, n)
    if not args.trace:
        for name, value, unit, n in workload.report(desk, passes):
            print_metric(name, value, unit, n)
    print_metric("fail_ratio", failed / attempted, "share", attempted)
    record = {
        "workload": workload.name, "why": why[workload.name],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "pass_inputs": [workload.pass_input(args.seed, p.index)
                        for p in passes],
        "pass_seconds": [p.seconds for p in passes],
        "sizes": workload.sizes(desk), "passes": len(passes),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_name(np), "pins": PINS, "numpy_trapz_shim": shimmed,
    }
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.setup_probe:
        return probe_setup(args.workload)
    if args.workload != "all":
        return run_workload(args)
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
        status |= subprocess.run(cmd, check=False).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
