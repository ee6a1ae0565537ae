"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py -q

(run from the repository root; the package is imported from ./src).
"""

import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import pytest  # noqa: E402

import hostspeed  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_same_seed_gives_identical_inputs():
    assert workloads.describe_inputs(7) == workloads.describe_inputs(7)
    assert workloads.describe_inputs(7) != workloads.describe_inputs(8)


def test_inputs_do_not_depend_on_the_run_length():
    short = workloads.probe_round_input(3, 0, probes=10)
    full = workloads.probe_round_input(3, 0)
    assert short["momenta"] == full["momenta"]
    assert short["jobs"] == full["jobs"][:10]


@pytest.mark.parametrize("n", [22, 23, 40, 99, 100, 1000, 12345])
def test_tail_leaves_exactly_ten_samples_beyond(n):
    values = [float(v) for v in range(n, 0, -1)]
    value, percentile = stats.tail(values)
    assert sum(1 for v in values if v > value) == stats.TAIL_BEYOND
    assert percentile == pytest.approx(100.0 * (n - 10) / n)
    assert percentile > 50.0
    assert value > statistics.median(values)


def test_tail_needs_more_than_twenty_one_samples():
    assert stats.tail([float(v) for v in range(21)]) is None
    assert stats.tail([1.0] * 20) is None
    assert stats.tail([]) is None


def test_tail_at_one_hundred_samples_is_p90():
    values = list(range(1, 101))
    assert stats.tail(values) == (90, 90.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, None, "nan"])
def test_non_finite_residual_fails(bad):
    checks = stats.Checks()
    assert not checks.within("residual", bad, 1e-10)
    assert not checks.exceeds("expected-failure", bad, 1e-10)
    assert not checks.finite("value", bad)
    assert (checks.attempted, checks.failed) == (3, 3)
    assert not checks.correct


def test_residual_above_tolerance_fails_and_expected_failure_must_happen():
    checks = stats.Checks()
    assert checks.within("ok", 1e-12, 1e-10)
    assert not checks.within("too-big", 1e-9, 1e-10)
    assert not checks.exceeds("did-not-fail", 1e-12, 1e-10)
    assert checks.exceeds("failed-as-expected", 0.5, 1e-10)
    assert (checks.attempted, checks.failed) == (4, 2)


def test_zero_check_run_is_a_failed_run():
    checks = stats.Checks()
    assert not checks.correct
    checks.require_any()
    assert (checks.attempted, checks.failed) == (1, 1)
    assert not checks.correct


def test_known_failure_counts_but_keeps_the_run_correct():
    checks = stats.Checks()
    checks.record("eigen", False, known=True)
    checks.within("other", 0.0, 1.0)
    assert (checks.attempted, checks.failed) == (2, 1)
    assert checks.correct
    checks.record("other", False)
    assert not checks.correct


def _pdp_report(braid_residual, braid_outcome):
    def summary(relation, residual, expected="pass", outcome="pass"):
        return {"relation": relation, "max_residual": residual, "tolerance": 1e-12,
                "expected": expected, "outcome": outcome}

    return {
        "model": {"kind": "pdp"},
        "overall_ok": True,
        "operator_relations": [
            summary("unitarity", 1e-16),
            summary("braid", braid_residual, "fail", braid_outcome),
        ],
        "coefficient_relations": [summary("wall_reflection", 0.3, "report-only", "fail")],
    }


def test_pdp_braid_must_actually_fail():
    checks = stats.Checks()
    workloads.grade_consistency(_pdp_report(0.56, "fail"), checks, "t")
    assert checks.failed == 0
    checks = stats.Checks()
    workloads.grade_consistency(_pdp_report(1e-16, "pass"), checks, "t")
    assert checks.failures == {"t.braid": 1, "t.braid.expected-fail": 1}
    checks = stats.Checks()
    workloads.grade_consistency(_pdp_report(math.nan, "fail"), checks, "t")
    assert checks.failures == {"t.braid": 1}


def test_speed_factors_use_the_median_of_nearby_samples():
    ref = hostspeed.REFERENCE_S
    samples = [ref, ref, 2 * ref, ref, ref, 4 * ref, 4 * ref, 4 * ref]
    factors = hostspeed.factors(samples, 1.0)
    assert len(factors) == len(samples)
    # One slow sample among fast ones does not move the factor ...
    assert factors[2] == 1.0
    # ... a slow stretch does, and at the ends the window is cut short.
    assert factors[-1] == 0.25
    assert hostspeed.factors(samples, 0.5)[-1] == 0.5


def test_job_loop_scales_each_stretch_by_its_speed_samples(monkeypatch):
    ticks = iter(range(1000))
    monkeypatch.setattr(workloads, "cpu_clock", lambda: 0.1 * next(ticks))
    monkeypatch.setattr(workloads, "CALIBRATE_EVERY_S", 0.25)
    speeds = iter([hostspeed.REFERENCE_S] * 5 + [2 * hostspeed.REFERENCE_S] * 5)
    monkeypatch.setattr(hostspeed, "sample", lambda: next(speeds))
    loop = workloads.JobLoop(speed_exponent=1.0)
    for j in range(30):
        loop.run(lambda: None, job=j % 3 != 0)
    loop.finish()
    assert loop.raw_latencies == pytest.approx([0.1] * 20)
    assert len(loop.speed_samples) == 10  # one per three calls
    assert loop.raw_busy == pytest.approx(3.0)
    assert loop.latencies[0] == pytest.approx(0.1)
    assert loop.latencies[-1] == pytest.approx(0.05)
    assert loop.busy < loop.raw_busy
    assert loop.jobs_per_s == pytest.approx(20 / loop.busy)


@pytest.mark.parametrize("seconds", [1, 10, 20, 60])
def test_fixed_work_workloads_depend_only_on_seconds(seconds):
    rounds = workloads.probe_rounds(seconds)
    assert rounds % len(workloads.PROBE_TABLES) == 0
    assert rounds >= len(workloads.PROBE_TABLES)
    assert workloads.cli_passes(seconds) >= 1


def test_fixed_work_at_the_benchmark_length():
    """cli-readme: ten jobs lie beyond the tail rank, so with at least twelve
    passes the tail job is one of the slowest command's runs, not the edge
    between two commands.  probe-sweep-n4: two cycles (NOTES.md)."""
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert workloads.cli_passes(seconds) >= stats.TAIL_BEYOND + 2
    assert workloads.probe_rounds(seconds) == 2 * len(workloads.PROBE_TABLES)


def test_readme_commands_match_the_metric_keys():
    keys = tuple(tracing.cli_command_key(c.split()) for c in workloads.README_COMMANDS)
    assert keys == tracing.CLI_COMMAND_KEYS


def test_tracer_restores_every_wrapped_function():
    import halfline_bethe.boundary as boundary
    from halfline_bethe.operators import RepOperator
    from halfline_bethe.weyl_group import SignedPermutation

    before = (boundary.evaluate_psi, RepOperator.apply, SignedPermutation.__mul__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert boundary.evaluate_psi is not before[0]
        checks = stats.Checks()
        loop = workloads.JobLoop(tracer)
        workloads.probe_round(0, 0, loop, checks, probes=8)
    finally:
        tracer.uninstall()
    assert (boundary.evaluate_psi, RepOperator.apply, SignedPermutation.__mul__) == before
    spans = tracer.spans()
    assert spans.mask("wavefunction.compute_coefficients").sum() == 1
    assert tracer.mul_calls > 0
    # Self time never exceeds the span's own duration.
    assert (spans.self_time <= spans.dur + 1e-12).all()
    assert checks.attempted > 0


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-readme", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
