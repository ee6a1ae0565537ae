"""The benchmark's span tracer (perfbench/tracing.py) still fits the library.

The tracer wraps library functions and methods by name, so a renamed or
removed name makes `Tracer.install` fail, and a layer that no longer calls
another leaves a per-layer metric without a span, which fails a traced
benchmark run.  One traced sector-build job and one short probe round (the
census of a traced run) must give the spans the half-line and evaluation
metrics are read from, and one N=4 regular consistency job those of the
consistency metrics.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 5


def wrapped_now():
    return [getattr(importlib.import_module(home), attr)
            for home, attr, _, _ in tracing.WRAPPED_FUNCTIONS]


def test_tracer_spans_the_sector_job_and_a_probe_round():
    originals = wrapped_now()
    tracer = tracing.Tracer()
    loop = workloads.JobLoop(tracer)
    checks = stats.Checks()
    tracer.install()
    try:
        assert all(now is not was for now, was in zip(wrapped_now(), originals))
        workloads.sector_build_job(SEED, 0, loop, checks)
        workloads.probe_round(SEED, 0, loop, checks, probes=workloads.CENSUS_PROBES)
    finally:
        tracer.uninstall()
    assert all(now is was for now, was in zip(wrapped_now(), originals))
    assert not any(name.startswith("sector.") for name in checks.failures)

    spans = tracer.spans()
    assert spans.mask("boundary.check_halfline_reduction").any()
    evaluate = spans.mask("wavefunction.evaluate_psi")
    warm_wedge = spans.mask("wavefunction.BetheCoefficients.wedge_data") & (spans.tag == 0)
    parents = spans.parent[warm_wedge]
    assert evaluate[parents[parents >= 0]].any()

    values = tracing._layer_values(spans, len(loop.raw_latencies))
    for metric in ("boundary.halfline_us", "wavefunction.build_ms.sector",
                   "wavefunction.wedge_data_ms", "wavefunction.evaluate_psi_us",
                   "wavefunction.wedge_hit_ratio"):
        assert values[metric] is not None and np.isfinite(values[metric]), metric


def test_tracer_spans_a_regular_consistency_job():
    tracer = tracing.Tracer()
    loop = workloads.JobLoop(tracer)
    checks = stats.Checks()
    tracer.install()
    try:
        workloads.consistency_job(SEED, 0, loop, checks)
    finally:
        tracer.uninstall()
    assert not checks.failures

    spans = tracer.spans()
    for rel in ("unitarity", "commuting", "braid", "reflection"):
        assert spans.mask(f"consistency.check_{rel}").any(), rel
    assert spans.mask("consistency.apply_chain").any()
    assert spans.mask("consistency.coefficient_relations").any()

    values = tracing._layer_values(spans, len(loop.raw_latencies))
    for metric in ("consistency.unitarity_ms", "consistency.commuting_ms",
                   "consistency.braid_ms", "consistency.reflection_ms",
                   "consistency.coefficient_relations_us", "consistency.basis_columns"):
        assert values[metric] is not None, metric
