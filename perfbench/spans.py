"""Reduce the span files of traced processes to per-layer self time.

A layer's self time is the duration of its spans minus the part covered
by their child spans. Time a process spent outside every span on its
main thread (interpreter start-up, imports, unwrapped code, waiting) is
the unattributed remainder.
"""

from __future__ import annotations

import glob
import json
import os


def load(directory: str) -> list[dict]:
    files = []
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.json"))):
        with open(path) as f:
            files.append(json.load(f))
    return files


def reduce(files: list[dict]) -> dict:
    """Per-layer ``{"self_s", "total_s", "calls"}``, process time, counters.

    ``total_s`` includes child spans; process time sums the lifetimes of
    the processes that recorded any span.
    """
    layers: dict[str, dict] = {}
    counters: dict[str, float] = {}
    window = rooted = 0.0
    processes = 0
    for f in files:
        if not any(t["spans"] for t in f["threads"]):
            continue  # an idle helper, e.g. multiprocessing's resource tracker
        for thread in f["threads"]:
            spans = thread["spans"]
            child = [0.0] * len(spans)
            for span in spans:
                if span[3] >= 0:
                    child[span[3]] += span[2] - span[1]
            for span, covered in zip(spans, child):
                name = f["layers"][span[0]]
                entry = layers.setdefault(
                    name, {"self_s": 0.0, "total_s": 0.0, "calls": 0}
                )
                entry["self_s"] += span[2] - span[1] - covered
                entry["total_s"] += span[2] - span[1]
                entry["calls"] += 1
                if span[3] < 0 and thread["main"]:
                    rooted += span[2] - span[1]
        window += f["t_end"] - f["t_start"]
        processes += 1
        for key, value in f["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {
        "layers": layers,
        "process_s": window,
        "unattributed_s": window - rooted,
        "counters": counters,
        "processes": processes,
    }


def merge(reductions: list[dict]) -> dict:
    """Mean of several units' reductions (counts and times per unit)."""
    n = len(reductions)
    out = {"layers": {}, "counters": {}, "process_s": 0.0, "unattributed_s": 0.0,
           "processes": 0}
    for r in reductions:
        for name, e in r["layers"].items():
            slot = out["layers"].setdefault(
                name, {"self_s": 0.0, "total_s": 0.0, "calls": 0}
            )
            for key in slot:
                slot[key] += e[key] / n
        for key, value in r["counters"].items():
            out["counters"][key] = out["counters"].get(key, 0) + value / n
        for key in ("process_s", "unattributed_s", "processes"):
            out[key] += r[key] / n
    return out


def table(reduced: dict) -> str:
    """Human-readable per-layer table, largest self time first."""
    total = reduced["process_s"] or 1.0
    lines = [f"{'layer':<24}{'self_s':>10}{'share_%':>9}{'calls':>11}"]
    for name, e in sorted(reduced["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"{name:<24}{e['self_s']:>10.3f}{100 * e['self_s'] / total:>9.1f}"
            f"{e['calls']:>11.0f}"
        )
    lines.append(
        f"{'(unattributed)':<24}{reduced['unattributed_s']:>10.3f}"
        f"{100 * reduced['unattributed_s'] / total:>9.1f}"
    )
    lines.append(
        f"{'(process time)':<24}{reduced['process_s']:>10.3f}{100.0:>9.1f}"
        f"{reduced['processes']:>11.0f}"
    )
    return "\n".join(lines)
