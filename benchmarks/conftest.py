"""Shared benchmark configuration.

Every benchmark regenerates one of the paper's figures at a reduced —
but structurally identical — scale, prints the figure's rows, and
writes them to ``benchmarks/results/<figure>.txt``.  Wall-clock
columns (:data:`TIMING_COLUMNS`) change on every run, so the tracked
table keeps only the deterministic columns and the full table, timings
included, goes to the untracked ``benchmarks/results/timings/``.  Scale
is selected with ``REPRO_BENCH_SCALE``:

* ``quick``   — smallest sweep that still exercises every code path;
* ``default`` — the scale EXPERIMENTS.md records (a few minutes total);
* ``paper``   — the paper's full configuration (10k thumbnails,
  3-minute traces, 14 users; hours of simulation — not for CI).
"""

from __future__ import annotations

import os
import statistics
from pathlib import Path
from typing import Sequence

import pytest

from repro.experiments.figures import ImageExperimentScale
from repro.metrics.report import format_table

RESULTS_DIR = Path(__file__).parent / "results"
TIMINGS_DIR = RESULTS_DIR / "timings"

#: Columns measured in wall-clock time (or ratios of such times).
TIMING_COLUMNS = frozenset(
    {"runtime_ms", "ilp_ms", "greedy_ms", "hit_us", "miss_us", "speedup"}
)

_SCALES = {
    "quick": ImageExperimentScale(rows=12, cols=12, trace_duration_s=10.0, num_traces=1),
    "default": ImageExperimentScale(rows=16, cols=16, trace_duration_s=15.0, num_traces=1),
    "paper": ImageExperimentScale.paper(),
}


@pytest.fixture(scope="session")
def bench_scale() -> ImageExperimentScale:
    name = os.environ.get("REPRO_BENCH_SCALE", "default")
    if name not in _SCALES:
        raise ValueError(f"REPRO_BENCH_SCALE={name!r}; want one of {sorted(_SCALES)}")
    return _SCALES[name]


@pytest.fixture(scope="session")
def bench_report():
    """Print a figure's rows and persist them under benchmarks/results/."""

    RESULTS_DIR.mkdir(exist_ok=True)

    def report(name: str, rows: Sequence[dict], title: str = "") -> None:
        title = title or name
        text = format_table(rows, title=title)
        print()
        print(text)
        stable = [
            {k: v for k, v in r.items() if k not in TIMING_COLUMNS} for r in rows
        ]
        if stable != list(rows):
            TIMINGS_DIR.mkdir(exist_ok=True)
            (TIMINGS_DIR / f"{name}.txt").write_text(text + "\n")
            text = format_table(stable, title=title)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return report


def mean_of(rows: Sequence[dict], system: str, column: str) -> float:
    """Average a metric over one system's rows (shape assertions)."""
    values = [r[column] for r in rows if r.get("system") == system and column in r]
    if not values:
        raise AssertionError(f"no rows for system={system!r} column={column!r}")
    return statistics.fmean(values)
