"""Check bookkeeping and latency statistics shared by the benchmark files."""

from __future__ import annotations

import math
from collections import Counter

# The tail percentile must leave at least this many jobs beyond it.
TAIL_BEYOND = 10


def is_finite_number(value) -> bool:
    try:
        return math.isfinite(float(value))
    except (TypeError, ValueError):
        return False


class Checks:
    """Counts every check the benchmark evaluates.

    A check passes only when it was actually evaluated on a finite value,
    so NaN or infinity never reads as a pass.  A failure is `known` when it
    matches a documented defect of the program (see NOTES.md); it still
    counts as failed, but it does not make the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexplained = 0
        self.failures: Counter = Counter()

    def record(self, name: str, ok: bool, known: bool = False) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[name] += 1
            if not known:
                self.unexplained += 1
        return ok

    def within(self, name: str, value, tol: float) -> bool:
        """Passes when `value` is finite and at most `tol`."""
        return self.record(name, is_finite_number(value) and float(value) <= tol)

    def exceeds(self, name: str, value, tol: float) -> bool:
        """An expected failure: passes only when `value` is finite and above `tol`."""
        return self.record(name, is_finite_number(value) and float(value) > tol)

    def finite(self, name: str, value) -> bool:
        return self.record(name, is_finite_number(value))

    def require_any(self):
        """A run that evaluated no check is a failed run."""
        if self.attempted == 0:
            self.record("no-checks-evaluated", False)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.unexplained == 0

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "unexplained_failures": self.unexplained,
            "failed_frac": self.failed / self.attempted if self.attempted else 1.0,
            "failures_by_check": dict(sorted(self.failures.items())),
        }


def tail(values) -> tuple[float, float] | None:
    """(value, percentile) of the highest nearest-rank percentile that has
    at least TAIL_BEYOND samples above it, or None when that sample would
    not lie above the median (fewer than 2 * TAIL_BEYOND + 2 samples).

    With n sorted samples the answer is the sample at rank n - TAIL_BEYOND,
    i.e. percentile 100 * (n - TAIL_BEYOND) / n.
    """
    n = len(values)
    if n - TAIL_BEYOND <= (n + 1) // 2:
        return None
    rank = n - TAIL_BEYOND
    return sorted(values)[rank - 1], 100.0 * rank / n
