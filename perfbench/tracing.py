"""In-memory span tracer installed around halfline_bethe's module boundaries.

Nothing under src/ knows about it: `Tracer.install` replaces the public
functions listed in WRAPPED_FUNCTIONS, in every package module that binds
them, and three methods with wrappers; `uninstall` puts the originals
back.  Each
span records its name, job id, parent span, start, end, a small integer
tag (operand size, cold/warm flag, ...) and whether it raised.  Spans stay
in typed arrays until the run ends; `layer_metrics` turns them into the
per-layer numbers listed in BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import math
import time
from array import array

import numpy as np
from halfline_bethe.errors import GeometryError, InconsistencyError
from halfline_bethe.representations import RegularRep

PACKAGE_MODULES = (
    "halfline_bethe",
    "halfline_bethe.weyl_group",
    "halfline_bethe.representations",
    "halfline_bethe.operators",
    "halfline_bethe.consistency",
    "halfline_bethe.wavefunction",
    "halfline_bethe.boundary",
    "halfline_bethe.scattering",
    "halfline_bethe.cli",
)

# Codes stored for a span whose call raised.
RAISED_GEOMETRY = 1
RAISED_INCONSISTENCY = 2
RAISED_OTHER = 3

# The README commands, keyed as the cli.main_ms.<key> metrics name them.
CLI_COMMAND_KEYS = (
    "consistency",
    "build",
    "verify-boundary",
    "verify-duality",
    "verify-eigen",
    "scatter",
    "reps",
)


def cli_command_key(argv) -> str:
    return "-".join(argv[:2]) if argv[0] == "verify" else argv[0]


def _operand_elements(_op, v, *_):
    return int(np.size(v))


def _chain_columns(_ops, v, *_):
    return int(np.shape(v)[1]) if np.ndim(v) == 2 else 1


def _build_kind(momenta, _model, rep, *_, **__):
    n = len(getattr(momenta, "values", momenta))
    return 2 * n + (1 if isinstance(rep, RegularRep) else 0)


# (module, attribute, span name, tagger) for the functions wrapped wherever
# a package module binds them: the places one module calls another.
WRAPPED_FUNCTIONS = (
    ("halfline_bethe.operators", "pair_exchange_op", "operators.pair_exchange_op", None),
    ("halfline_bethe.operators", "wall_reflection_op", "operators.wall_reflection_op", None),
    ("halfline_bethe.operators", "apply_chain", "consistency.apply_chain", _chain_columns),
    ("halfline_bethe.consistency", "check_unitarity", "consistency.check_unitarity", None),
    ("halfline_bethe.consistency", "check_commuting", "consistency.check_commuting", None),
    ("halfline_bethe.consistency", "check_braid", "consistency.check_braid", None),
    ("halfline_bethe.consistency", "check_reflection", "consistency.check_reflection", None),
    ("halfline_bethe.consistency", "coefficient_relations", "consistency.coefficient_relations", None),
    ("halfline_bethe.consistency", "consistency_report", "consistency.consistency_report", None),
    ("halfline_bethe.wavefunction", "compute_coefficients", "wavefunction.compute_coefficients", _build_kind),
    ("halfline_bethe.wavefunction", "evaluate_psi", "wavefunction.evaluate_psi", None),
    ("halfline_bethe.wavefunction", "word_independence_test", "wavefunction.word_independence_test", None),
    ("halfline_bethe.weyl_group", "classify_wedge", "weyl_group.classify_wedge", None),
    ("halfline_bethe.boundary", "check_pair_boundary", "boundary.check_pair_boundary", None),
    ("halfline_bethe.boundary", "check_wall_boundary", "boundary.check_wall_boundary", None),
    ("halfline_bethe.boundary", "check_halfline_reduction", "boundary.check_halfline_reduction", None),
    ("halfline_bethe.boundary", "check_eigen", "boundary.check_eigen", None),
    ("halfline_bethe.boundary", "duality_compare", "boundary.duality_compare", None),
    ("halfline_bethe.scattering", "convergence_sweep", "scattering.convergence_sweep", None),
    ("halfline_bethe.representations", "dimension_sum_check", "representations.dimension_sum_check", None),
)


def _raise_code(exc: BaseException) -> int:
    if isinstance(exc, GeometryError):
        return RAISED_GEOMETRY
    if isinstance(exc, InconsistencyError):
        return RAISED_INCONSISTENCY
    return RAISED_OTHER


class Tracer:
    """Spans and counters of one phase of a run."""

    COLUMNS = (("name", "i"), ("job", "q"), ("parent", "q"), ("start", "d"),
               ("end", "d"), ("tag", "q"), ("raised", "b"))

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cols = {col: array(code) for col, code in self.COLUMNS}
        self.mul_calls = 0
        self.job = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.cols["name"])

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int, tag: int = 0) -> int:
        cols = self.cols
        idx = len(cols["name"])
        cols["name"].append(name_id)
        cols["job"].append(self.job)
        cols["parent"].append(self._stack[-1] if self._stack else -1)
        cols["tag"].append(tag)
        cols["raised"].append(0)
        cols["end"].append(0.0)
        self._stack.append(idx)
        cols["start"].append(time.thread_time())
        return idx

    def close(self, idx: int, raised: int = 0):
        self.cols["end"][idx] = time.thread_time()
        if raised:
            self.cols["raised"][idx] = raised
        self._stack.pop()

    def add_span(self, name: str, start: float, end: float, tag: int = 0):
        """Record an already-finished span (a timing taken without a wrapper)."""
        idx = self.open(self.name_id(name), tag)
        self.close(idx)
        self.cols["start"][idx] = start
        self.cols["end"][idx] = end

    def wrap(self, fn, name: str, tagger=None):
        name_id = self.name_id(name)

        def traced(*args, **kwargs):
            idx = self.open(name_id, tagger(*args, **kwargs) if tagger else 0)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(idx, _raise_code(exc))
                raise
            self.close(idx)
            return result

        return traced

    # -- installing the wrappers -------------------------------------------

    def _patch(self, owner, attr: str, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [importlib.import_module(name) for name in PACKAGE_MODULES]
        for home, attr, span_name, tagger in WRAPPED_FUNCTIONS:
            original = getattr(importlib.import_module(home), attr)
            wrapper = self.wrap(original, span_name, tagger)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, bound, wrapper)

        from halfline_bethe.operators import RepOperator
        from halfline_bethe.wavefunction import BetheCoefficients
        from halfline_bethe.weyl_group import SignedPermutation

        self._patch(RepOperator, "apply",
                    self.wrap(RepOperator.apply, "operators.RepOperator.apply", _operand_elements))

        def wedge_cold(table, wedge):
            # Cold/warm is judged from the wedges requested of each table,
            # not read from the table's private cache.
            seen = table.__dict__.setdefault("_perfbench_wedges", set())
            cold = wedge not in seen
            seen.add(wedge)
            return int(cold)

        self._patch(BetheCoefficients, "wedge_data",
                    self.wrap(BetheCoefficients.wedge_data,
                              "wavefunction.BetheCoefficients.wedge_data", wedge_cold))

        multiply = SignedPermutation.__mul__

        def counted_mul(g, h):
            self.mul_calls += 1
            return multiply(g, h)

        self._patch(SignedPermutation, "__mul__", counted_mul)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- moving spans between processes ------------------------------------

    def save(self, path):
        arrays = {col: np.frombuffer(self.cols[col], dtype=self.cols[col].typecode)
                  for col, _ in self.COLUMNS}
        np.savez(path, names=np.array(self.names, dtype=str),
                 mul_calls=np.array(self.mul_calls), **arrays)

    def merge(self, path, parent: int, job: int):
        """Append a child process's spans under span `parent` of job `job`."""
        with np.load(path) as data:
            ids = np.array([self.name_id(str(n)) for n in data["names"]], dtype=np.int64)
            offset = len(self)
            parents = data["parent"].astype(np.int64)
            self.cols["name"].extend(ids[data["name"]].tolist())
            self.cols["job"].extend([job] * len(parents))
            self.cols["parent"].extend(np.where(parents < 0, parent, parents + offset).tolist())
            for col in ("start", "end", "tag", "raised"):
                self.cols[col].extend(data[col].tolist())
            self.mul_calls += int(data["mul_calls"])

    def spans(self) -> "Spans":
        return Spans(self)


class Spans:
    """Read-only numpy view of a finished tracer, with self times."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.mul_calls = tracer.mul_calls
        for col, code in Tracer.COLUMNS:
            setattr(self, col, np.frombuffer(tracer.cols[col], dtype=code).copy())
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        children = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                               minlength=len(self.dur))
        self.self_time = self.dur - children

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name == self.names.index(name)


def _median(values):
    return float(np.median(values)) if len(values) else None


def _layer_values(s: Spans, jobs: int) -> dict:
    """Every per-layer metric these spans can give; None where they hold no
    sample.  Per-job values divide phase totals by the phase's job count."""
    per_job = 1.0 / max(jobs, 1)
    out = {}

    def median_of(name, scale, extra=None):
        m = s.mask(name) if extra is None else s.mask(name) & extra
        return _median(s.dur[m] * scale)

    ok = s.raised == 0
    op = s.mask("operators.pair_exchange_op") | s.mask("operators.wall_reflection_op")
    apply_ = s.mask("operators.RepOperator.apply")
    out["weyl_group.mul_calls"] = s.mul_calls * per_job
    out["weyl_group.classify_wedge_us"] = median_of("weyl_group.classify_wedge", 1e6)
    out["operators.op_calls"] = int(np.count_nonzero(op)) * per_job
    out["operators.op_self_ms"] = float(np.sum(s.self_time[op])) * 1e3 * per_job
    out["operators.apply_calls"] = int(np.count_nonzero(apply_)) * per_job
    out["operators.apply_self_ms"] = float(np.sum(s.self_time[apply_])) * 1e3 * per_job
    out["operators.apply_bytes"] = 3 * 16 * float(np.sum(s.tag[apply_])) * per_job

    for rel in ("unitarity", "commuting", "braid", "reflection"):
        out[f"consistency.{rel}_ms"] = median_of(f"consistency.check_{rel}", 1e3)
    out["consistency.coefficient_relations_us"] = median_of("consistency.coefficient_relations", 1e6)
    chain = s.mask("consistency.apply_chain")
    out["consistency.basis_columns"] = float(np.mean(s.tag[chain])) if chain.any() else None

    build = s.mask("wavefunction.compute_coefficients")
    regular = (s.tag % 2) == 1
    out["wavefunction.build_ms.sector"] = median_of(
        "wavefunction.compute_coefficients", 1e3, ok & ~regular)
    out["wavefunction.build_ms.regular"] = median_of(
        "wavefunction.compute_coefficients", 1e3, ok & regular)
    built = build & ok
    if built.any():
        n = s.tag[built] // 2
        order = np.array([2**k * math.factorial(k) for k in n], dtype=float)
        out["wavefunction.edges_walked"] = float(np.mean(order * n))
        out["wavefunction.crosschecks"] = float(np.mean(order * n - order + 1))
    else:
        out["wavefunction.edges_walked"] = out["wavefunction.crosschecks"] = None
    out["wavefunction.inconsistency_raised"] = int(
        np.count_nonzero(build & (s.raised == RAISED_INCONSISTENCY)))

    wedge = s.mask("wavefunction.BetheCoefficients.wedge_data")
    cold = wedge & (s.tag == 1)
    out["wavefunction.wedge_data_ms"] = _median(s.dur[cold] * 1e3)
    evaluate = s.mask("wavefunction.evaluate_psi")
    # evaluate_psi is warm when the wedge_data call it made was warm.
    warm_parents = s.parent[wedge & (s.tag == 0)]
    warm = np.zeros(len(s.dur), dtype=bool)
    warm[warm_parents[warm_parents >= 0]] = True
    warm &= evaluate
    out["wavefunction.evaluate_psi_us"] = _median(s.dur[warm] * 1e6)
    n_eval = int(np.count_nonzero(evaluate))
    out["wavefunction.wedge_hit_ratio"] = (
        int(np.count_nonzero(warm)) / n_eval if n_eval else None)
    out["wavefunction.word_independence_ms"] = median_of("wavefunction.word_independence_test", 1e3)

    for metric, fn in (("pair_check", "check_pair_boundary"), ("wall_check", "check_wall_boundary"),
                       ("halfline", "check_halfline_reduction"), ("eigen", "check_eigen")):
        out[f"boundary.{metric}_us"] = median_of(f"boundary.{fn}", 1e6)
    out["boundary.duality_ms"] = median_of("boundary.duality_compare", 1e3)
    checks = np.zeros(len(s.dur), dtype=bool)
    for fn in ("check_pair_boundary", "check_wall_boundary", "check_halfline_reduction",
               "check_eigen", "duality_compare"):
        checks |= s.mask(f"boundary.{fn}")
    out["boundary.geometry_errors"] = int(np.count_nonzero(checks & (s.raised == RAISED_GEOMETRY)))
    out["scattering.sweep_us"] = median_of("scattering.convergence_sweep", 1e6)

    out["cli.import_ms"] = median_of("cli.import", 1e3)
    main = s.mask("cli.main")
    for i, key in enumerate(CLI_COMMAND_KEYS):
        out[f"cli.main_ms.{key}"] = _median(s.dur[main & (s.tag == i)] * 1e3)
    out["cli.render_self_ms"] = float(np.mean(s.self_time[main])) * 1e3 if main.any() else None
    return out


def layer_metrics(main: Tracer, main_jobs: int, census: Tracer, census_jobs: int) -> tuple[dict, list]:
    """Per-layer values from the traced job phase; a metric with no sample
    there (its layer is not on this workload's path) is taken from the
    census phase instead.  Returns the values and the names so filled."""
    values = _layer_values(main.spans(), main_jobs)
    fallback = _layer_values(census.spans(), census_jobs)
    filled = []
    for name, value in values.items():
        if value is None:
            if fallback[name] is None:
                raise RuntimeError(f"no span measured per-layer metric {name}")
            values[name] = fallback[name]
            filled.append(name)
    return values, filled
