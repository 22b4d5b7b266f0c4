"""Self-test of the benchmark: every workload at a tiny size.

Usage, from the root of a checkout: ``python3 perfbench/selftest.py``

Checks that

* every run is correct (the invariants hold) and prints every metric
  named in ``BENCHMARK.json`` with its unit;
* a traced and an untraced run of each sim workload give the same
  quality figures and summary digest, i.e. the probes only observe;
* without the program next to it the benchmark exits non-zero and
  prints no result.

Exits 0 when all checks pass. Takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import inputs
import run


def shrink() -> None:
    inputs.TRACE_S = 2.0
    inputs.STATIC.update(sessions=4)
    inputs.CHURN.update(sessions=6, rate_per_s=2.0, mean_dwell_s=2.0,
                        max_concurrent=2)
    inputs.LIVE.update(trace_s=2.0, linger_s=0.5)


def run_once(workload: str, trace: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "3",
                         "--seconds", "0", "--trace", str(trace)])
    assert code == 0, f"{workload}: exit code {code}"
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def check_result(workload: str, trace: int, result: dict, spec: list) -> None:
    assert result["correct"], f"{workload} trace={trace}: a check failed"
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    metrics = result["metrics"]
    for m in spec:
        got = metrics.get(m["name"])
        assert got is not None, f"{workload}: {m['name']} missing"
        assert got["unit"] == m["unit"], f"{workload}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{m['name']} not a number"
    assert set(metrics) == {m["name"] for m in spec}, f"{workload}: extra metrics"


def history_tail(n: int) -> list[dict]:
    with open(os.path.join(run.OUT_ROOT, "history.jsonl")) as f:
        return [json.loads(line) for line in f.readlines()[-n:]]


def check_without_program() -> None:
    """In a tree holding only BENCHMARK.json and the benchmark: exit != 0."""
    bare = os.path.join(run.OUT_ROOT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "live-kalman",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0, "ran without the program"
    assert '"correct"' not in proc.stdout, "printed a result without the program"


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    shrink()
    for workload in run.WORKLOADS:
        plain = run_once(workload, 0)
        check_result(workload, 0, plain, bench["end_to_end"])
        traced = run_once(workload, 1)
        check_result(workload, 1, traced, bench["per_layer"])
        if workload != "live-kalman":
            before, after = history_tail(2)
            assert before["info"]["digest"] == after["info"]["digest"], "digest"
            assert before["info"]["quality"] == after["info"]["quality"], "quality"
            for key in ("hit_pct", "within_100ms_pct", "ok_pct", "utility_mean"):
                assert before["end_to_end"][key] == after["end_to_end"][key], key
        print(f"ok  {workload}", flush=True)
    check_without_program()
    print("ok  exits non-zero without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
