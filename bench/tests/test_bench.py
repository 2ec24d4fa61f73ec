"""Tests of the benchmark itself (not of fig8lab).

Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import mpmath as mp
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("n", range(1, 9))
def test_oracle_jones_sum_matches_naive_polynomial(n):
    with mp.workdps(40):
        for w in (0.3j, 0.1 + 0.7j, -0.2 - 1.1j, 2.5 + 0.4j):
            assert abs(oracle.jones_sum(n, w) - oracle.naive_jones(n, w)) <= mp.mpf(10) ** -30 * abs(
                oracle.naive_jones(n, w))


@pytest.mark.parametrize("n", range(1, 9))
def test_oracle_root_of_unity_matches_naive_polynomial(n):
    with mp.workdps(40):
        for num, den in ((1, 3), (2, 5), (-3, 7), (5, 11)):
            ref = oracle.naive_jones(n, 2j * mp.pi * num / den)
            assert abs(oracle.jones_root_of_unity(n, num, den) - ref) <= mp.mpf(10) ** -30 * max(abs(ref), 1)


def test_converged_raises_precision_until_agreement():
    # cancels about 18 digits: a single 30-digit evaluation is not enough
    value = oracle.converged(lambda: oracle.jones_sum(3201, oracle.xi_of(0.5, 2) / 3201))
    with mp.workdps(400):
        exact = oracle.jones_sum(3201, oracle.xi_of(0.5, 2) / 3201)
    assert abs(value - exact) <= abs(exact) * mp.mpf(10) ** -20


def test_log_relative_error():
    assert oracle.log_relative_error(0.0, math.pi, (0.0, -math.pi)) < 1e-15
    assert abs(oracle.log_relative_error(math.log(1.5), 0.0, (0.0, 0.0)) - 0.5) < 1e-15


def _all_calls(tmp_path):
    return {"jones_sweep": workloads.jones_sweep_calls(),
            "identities": [c for c, _, _ in workloads.identities_calls()],
            "region_grid": workloads.region_calls(tmp_path / "grid")}


def test_each_subcommand_gets_only_the_flags_it_reads(tmp_path):
    for name, calls in _all_calls(tmp_path).items():
        for call in calls:
            words = call.label.split()
            assert "--threads" not in words and "--tol" not in words, call.label
            assert ("--seed" in words) == (words[0] == "lemmas"), call.label


@pytest.mark.parametrize("name", ["jones_sweep", "identities", "region_grid"])
def test_outputs_identical_with_tracing_on_and_off(name, tmp_path):
    work = workloads.Workload(name, _all_calls(tmp_path)[name], lambda outcomes: [])
    plain, _ = run.timed_pass(workloads, work)
    tracer, traced, _ = run.traced_pass(workloads, spans, work)
    assert run.same_outputs(plain, traced)
    assert [o.text for o in plain] == [o.text for o in traced]
    assert tracer.counts["cli.main.calls"] == sum(c.label.split()[0] in
                                                  ("jones", "theorem", "lemmas", "region", "modularity")
                                                  for c in work.calls)


def test_best_pass_sums_the_fastest_time_of_each_call():
    assert run.best_pass([[1.0, 5.0, 2.0], [2.0, 3.0, 2.5], [1.5, 4.0, 1.0]]) == 1.0 + 3.0 + 1.0


def test_times_in_kernel_units_follow_the_mean_kernel_time():
    assert math.isclose(run.in_kernel_units(2.0, [1e-3, 3e-3]), 1000 * run.KERNEL_REFERENCE_S)
    # a machine slowed evenly leaves the value unchanged
    assert math.isclose(run.in_kernel_units(3.0, [1.5e-3, 4.5e-3]), run.in_kernel_units(2.0, [1e-3, 3e-3]))


def test_timed_pass_runs_the_kernel_after_every_call(tmp_path):
    work = workloads.Workload("region_grid", workloads.region_calls(tmp_path / "grid")[1:], lambda o: [])
    kernel = []
    _, seconds = run.timed_pass(workloads, work, kernel)
    assert len(seconds) == 2 and len(kernel) >= 2
    assert sum(kernel) >= run.KERNEL_SHARE * sum(seconds)


def test_self_times_add_up_to_root():
    tracer = spans.Tracer()
    with tracer.span("root"):
        with tracer.span("a"):
            time.sleep(0.002)
            with tracer.span("b"):
                time.sleep(0.002)
        with tracer.span("c"):
            time.sleep(0.001)
    root = tracer.spans[0]
    assert math.isclose(sum(tracer.self_times()), root[2] - root[1], rel_tol=1e-9)
    assert all(t >= 0 for t in tracer.self_times())
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0]


def test_traced_pass_self_times_add_up_to_the_pass(tmp_path):
    work = workloads.Workload("region_grid", workloads.region_calls(tmp_path / "grid")[1:], lambda o: [])
    tracer, _, _ = run.traced_pass(workloads, spans, work)
    root = tracer.spans[0]
    assert root[0] == "pass" and root[3] == -1
    assert math.isclose(sum(tracer.self_by_name().values()), root[2] - root[1], rel_tol=1e-9)


def test_wrappers_are_removed_after_tracing():
    import fig8lab.jones as jones
    import fig8lab.numkernel as numkernel

    before = (jones.lc_sum, numkernel.lc_sum, jones.jones_exp)
    with spans.traced(spans.Tracer()):
        assert jones.lc_sum is not before[0]
        assert jones.lc_sum is numkernel.lc_sum
    assert (jones.lc_sum, numkernel.lc_sum, jones.jones_exp) == before


def test_absent_function_is_reported_not_fatal(monkeypatch, tmp_path):
    import fig8lab
    import fig8lab.region as region

    monkeypatch.delattr(region, "label_components")
    monkeypatch.delattr(fig8lab, "label_components")
    tracer = spans.Tracer()
    with spans.traced(tracer):
        pass
    assert tracer.absent == ["region.label_components"]
    metrics = run.layer_metrics([tracer])
    assert metrics["region.label_components.calls"]["value"] == 0


def test_every_metric_and_workload_name_is_emitted(tmp_path):
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    work = workloads.Workload("region_grid", workloads.region_calls(tmp_path / "grid")[1:], lambda o: [])
    tracer, _, _ = run.traced_pass(workloads, spans, work)
    per_layer = run.layer_metrics([tracer])
    per_layer["trace_overhead"] = {"unit": "ratio"}
    assert set(per_layer) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert per_layer[metric["name"]]["unit"] == metric["unit"]
    end_to_end = run.end_to_end_metrics(setup_s=0.5, pass_s=1.0, digits=[12.0], peak_bytes=1e6)
    assert set(end_to_end) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert end_to_end[metric["name"]]["unit"] == metric["unit"]


def test_jones_sweep_fails_exactly_the_documented_points():
    work = workloads.build("jones_sweep", 0, ROOT / ".bench_build" / "bench")
    checks = work.check(workloads.run_pass(work)[0])
    failed = {c.label for c in checks if not c.ok}
    assert failed == {c.label for c in checks if c.known_defect}
    assert len(checks) == 83 and len(failed) == 10
    # no verdict sits within a factor of 10 of its tolerance
    for c in checks:
        assert c.error is not None and not (workloads.JONES_TOL / 10 < c.error < workloads.JONES_TOL * 10), c


def test_benchmark_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "identities", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
