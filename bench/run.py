"""Benchmark of fig8lab: one workload, timed passes, oracle-checked outputs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload jones_sweep --seed 1 --seconds 25 --trace 0

The package is imported from the checkout's ``src/``; nothing is installed.
With ``--trace 0`` the run measures the end-to-end metrics (set-up time,
pass time, accuracy, peak allocation).  With ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics of
``BENCHMARK.json``.  A detail line (environment, raw times, every failed
check) comes first; the last line of stdout is the result object.
Exit codes: 0 result printed, 2 the package or the workload is missing.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "bench"
SETUP_SAMPLES = 9          # spread evenly over the timed loop
MIN_PASSES = 5
# After each timed call the calibration kernel runs for this share of the
# call's time.
KERNEL_SHARE = 0.5
# Nominal time of one kernel run, about its fastest time on a 2-vCPU Xeon
# virtual machine.  It only fixes the unit of pass_s: it reads as if every
# kernel run had taken this long.
KERNEL_REFERENCE_S = 7.5e-4
_GRID = np.linspace(0.0, 1.0, 20_000)

# A fresh interpreter imports the package and makes one small call per layer,
# which builds every lazily computed table (Gauss rules, cached constants).
SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import fig8lab as f8
ctx = f8.EvalContext(u=0.5, p=1, n=7)
f8.jones_exp(3, 0.1j)
f8.t_n(0.5 + 0j, ctx)
f8.li2(0.5)
f8.saddle_data(0.5, 1)
f8.cusp_volume()
"""

# A fresh interpreter that runs a fixed loop and does not import fig8lab: the
# yardstick of set-up time.  One is started just before and one just after
# each set-up sample.
KERNEL_CHILD = """
import cmath
acc = 0j
for k in range(40_000):
    acc += cmath.exp(1j * k * 1e-3) * (1.0 - cmath.exp(-k * 1e-4))
"""
# Nominal wall time of KERNEL_CHILD, about its fastest time on the machine
# named above; it only fixes the unit of setup_s.
KERNEL_CHILD_REFERENCE_S = 0.06


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_package():
    if not (SRC / "fig8lab" / "__init__.py").is_file():
        _fail(f"no package at {SRC / 'fig8lab'}; run from a fig8lab checkout")
    sys.path.insert(0, str(SRC))
    import fig8lab

    if Path(fig8lab.__file__).resolve().parent != (SRC / "fig8lab").resolve():
        _fail(f"imported fig8lab from {fig8lab.__file__}, not from {SRC}")


def environment(seed: int) -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "mpmath": version("mpmath"),
            "nproc": os.cpu_count(), "seed": seed}


def kernel_sample() -> float:
    """Wall time of one run of a fixed kernel that does not use fig8lab.

    Other tenants of the machine slow the CPU by up to 1.8 times, switching
    within a fraction of a second and for minutes at a stretch, so that no
    statistic of the workload's own times holds steady between runs.  The
    kernel mixes what the workloads do (Python complex arithmetic, numpy
    vector maths, number formatting) in about a millisecond.  Run between
    the calls, it is slowed as they are, and the ratio of the two is what
    the benchmark reports.
    """
    start = time.perf_counter()
    acc = 0j
    for k in range(600):
        acc += cmath.exp(1j * k * 1e-3) * (1.0 - cmath.exp(-k * 1e-4))
    np.exp(1j * _GRID).sum()
    "".join("%.17g\n" % x for x in _GRID[:300].tolist())
    return time.perf_counter() - start


def run_kernel(seconds: float, times: list) -> None:
    """Run the kernel for about ``seconds``, at least once; append each time to ``times``."""
    deadline = time.perf_counter() + seconds
    times.append(kernel_sample())
    while time.perf_counter() < deadline:
        times.append(kernel_sample())


def in_kernel_units(seconds: float, kernel: list) -> float:
    """``seconds`` as a multiple of the mean kernel time, expressed at KERNEL_REFERENCE_S."""
    return seconds / statistics.fmean(kernel) * KERNEL_REFERENCE_S


def child_seconds(code: str, *args: str) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    start = time.perf_counter()
    # no timeout: with one, wait() polls and rounds the time up to 50 ms steps
    subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def setup_sample() -> tuple:
    """(wall time, time in KERNEL_CHILD units) of one fresh interpreter importing fig8lab and warming it.

    Process start and imports do not follow the in-process kernel, but they
    do follow a fresh interpreter of fixed work started next to them.
    """
    before = child_seconds(KERNEL_CHILD)
    seconds = child_seconds(SETUP_CHILD, str(SRC))
    after = child_seconds(KERNEL_CHILD)
    return seconds, seconds / ((before + after) / 2) * KERNEL_CHILD_REFERENCE_S


def quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4, method="inclusive")


def timed_pass(workloads, work, kernel: list | None = None) -> tuple:
    """(outcomes, seconds per call) of one untraced pass.

    Given a list ``kernel``, the kernel runs after each call for KERNEL_SHARE
    of the call's time, and its times are appended to ``kernel``.
    """
    gc.collect()
    outcomes, seconds = [], []
    for call in work.calls:
        outcome, elapsed = workloads.run_call(call)
        outcomes.append(outcome)
        seconds.append(elapsed)
        if kernel is not None:
            run_kernel(KERNEL_SHARE * elapsed, kernel)
    workloads.attach_file_digests(work, outcomes)
    return outcomes, seconds


def traced_pass(workloads, spans, work) -> tuple:
    """(tracer, outcomes, seconds per call) of one traced pass; span 0 is the pass."""
    gc.collect()
    tracer = spans.Tracer()
    with spans.traced(tracer), tracer.span("pass"):
        outcomes, seconds = workloads.run_pass(work)
    workloads.attach_file_digests(work, outcomes)
    return tracer, outcomes, seconds


def best_pass(passes: list) -> float:
    """Sum over the calls of each call's fastest time across the passes."""
    return sum(min(call) for call in zip(*passes))


def same_outputs(a: list, b: list) -> bool:
    return all(x.code == y.code and x.text == y.text and x.err == y.err and x.files == y.files
               for x, y in zip(a, b))


def layer_metrics(tracers: list) -> dict:
    """Per-layer values: counts from the last traced pass, self times as minima over the passes."""
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    self_times = [t.self_by_name() for t in tracers]
    out = {}
    for name in names:
        if name == "trace_overhead":
            continue
        if name.endswith(".self_s"):
            span = name[: -len(".self_s")]
            out[name] = {"value": min(s[span] for s in self_times), "unit": "s"}
        else:
            unit = "bytes" if name.endswith(".bytes") else "count"
            out[name] = {"value": tracers[-1].counts[name], "unit": unit}
    return out


def end_to_end_metrics(setup_s: float, pass_s: float, digits: list, peak_bytes: float) -> dict:
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "pass_s": {"value": pass_s, "unit": "s"},
        "accuracy_digits": {"value": statistics.median(digits), "unit": "digits"},
        "peak_alloc_mb": {"value": peak_bytes / 1e6, "unit": "MB"},
    }


def module_shares(tracer) -> dict:
    """Share of the traced pass spent in each module's own code."""
    times = tracer.self_by_name()
    total = sum(times.values())
    shares = {}
    for name, own in times.items():
        module = "bench" if name == "pass" else name.split(".")[0]
        shares[module] = shares.get(module, 0.0) + own / total
    return {k: round(v, 4) for k, v in sorted(shares.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        _fail("--seed must be non-negative")

    _import_package()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    work = workloads.build(args.workload, args.seed, OUT_DIR)
    tracemalloc.start()      # the warm-up pass: its outputs are checked, its allocation peak reported
    reference, _ = timed_pass(workloads, work)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    checks = work.check(reference)

    # set-up samples are taken between passes, spread over the run like the passes
    untraced, traced, tracers, setups, pass_units, kernel_means = [], [], [], [], [], []
    deterministic = True
    start = time.perf_counter()
    deadline = start + args.seconds
    while time.perf_counter() < deadline or len(untraced) < MIN_PASSES:
        kernel = None if args.trace else []
        outcomes, seconds = timed_pass(workloads, work, kernel)
        untraced.append(seconds)
        deterministic &= same_outputs(outcomes, reference)
        if args.trace:
            tracer, outcomes, seconds = traced_pass(workloads, spans, work)
            tracers.append(tracer)
            traced.append(seconds)
            deterministic &= same_outputs(outcomes, reference)
        else:
            pass_units.append(in_kernel_units(sum(seconds), kernel))
            kernel_means.append(statistics.fmean(kernel))
            if len(setups) < SETUP_SAMPLES * (time.perf_counter() - start) / args.seconds:
                setups.append(setup_sample())
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample())
    pass_times = [sum(p) for p in untraced]

    failed = [c for c in checks if not c.ok]
    digits = [c.digits for c in checks if c.digits is not None]
    detail = {
        "workload": work.name, "env": environment(args.seed),
        "passes": len(untraced), "pass_median_s": statistics.median(pass_times),
        "pass_quartiles_s": quartiles(pass_times), "pass_all_s": pass_times,
        "checks": len(checks), "failed": len(failed), "fail_rate": len(failed) / len(checks),
        "known_defects_failed": sum(c.known_defect for c in failed),
        "deterministic": deterministic,
        "failures": [{"label": c.label, "error": c.error, "known_defect": c.known_defect} for c in failed],
    }

    if args.trace:
        metrics = layer_metrics(tracers)
        metrics["trace_overhead"] = {"value": best_pass(traced) / best_pass(untraced), "unit": "ratio"}
        detail.update(traced_passes=len(traced), traced_pass_s=best_pass(traced),
                      module_self_share=module_shares(tracers[-1]), absent=tracers[-1].absent)
    else:
        setup_wall, setup_units = zip(*setups)
        detail.update(pass_kernel_units_s=pass_units, kernel_mean_s=kernel_means,
                      setup_median_wall_s=statistics.median(setup_wall), setup_units_s=setup_units)
        metrics = end_to_end_metrics(statistics.median(setup_units), statistics.median(pass_units),
                                     digits, peak)

    # a failure outside the documented known defects, or outputs that change
    # between passes or under tracing, make the run incorrect
    correct = deterministic and all(c.known_defect for c in failed)
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": len(checks), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
