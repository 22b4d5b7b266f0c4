"""End-to-end benchmark of the Khameleon reproduction, with a traced per-layer view.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``fleet-markov-static``: one ``run_fleet`` of 64 sessions from t=0,
  ``shared-markov`` predictor, replayed from seeded traces.
* ``sharded-churn-tcp``: ``run_fleet_sharded`` with W=2 over TCP, Poisson
  churn against an admission cap with a patience queue, checkpoint every
  round, CRDT sync every simulated second.
* ``live-kalman``: ``python -m repro serve --predictor kalman`` driven
  by two open-loop WebSocket clients; each unit replays traces of its
  own.

Every unit of work runs the program in fresh interpreters, so set-up
(interpreter, ``import repro.cli``, fleet build, worker spawn or server
boot) is measured each time. Units repeat while another fits in
``--seconds``, at least twice; times are medians over units.

The host's CPUs change speed by tens of percent from one minute to the
next, so each CPU the system runs on also runs a yardstick process
(``yardstick.py``) that shares it evenly with the program, and every
time is reported in seconds at the yardstick's reference speed: the
measured time times the yardstick's speed over the same window. The
static fleet runs on one CPU, the sharded fleet on two; the live server
runs on one and the load generator on another. The live run is paced
by its traces, so its ``run_wall_s`` is reported as measured.

With ``--trace 1`` units alternate between untraced and traced; the traced ones install span probes
(``hook/``) into every process of the system and the run prints a
per-layer table. Every unit is checked; a unit that fails a check makes
the run incorrect.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Run records go to
``.perfbench/`` (untracked).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import pickle
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
HOOK = os.path.join(HERE, "hook")
OUT_ROOT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("fleet-markov-static", "sharded-churn-tcp", "live-kalman")

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "run_wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_pct": "%",
    "within_100ms_pct": "%",
    "hit_pct": "%",
    "utility_mean": "utility",
}

#: Per-layer metrics: name -> unit. Layers a workload does not use read 0.
PER_LAYER = {
    "import.repro_cli_s": "s",
    "import.scipy_s": "s",
    "setup.import_s": "s",
    "setup.build_spawn_s": "s",
    "host.speed": "ratio",
    "workloads.trace_gen_s": "s",
    "greedy.schedule_batch_s": "s",
    "greedy.probability_s": "s",
    "greedy.install_s": "s",
    "greedy.batches": "count",
    "greedy.blocks_scheduled": "count",
    "greedy.rollback_blocks": "count",
    "predictors.observe_calls": "count",
    "predictors.observe_s": "s",
    "predictors.decode_calls": "count",
    "predictors.decode_s": "s",
    "engine.events": "count",
    "engine.self_pct": "%",
    "sender.self_pct": "%",
    "sender.blocks_sent": "count",
    "sender.bytes_sent": "bytes",
    "fairshare.jain": "ratio",
    "backend.fetches": "count",
    "backend.shared_hit_ratio": "ratio",
    "prefetch.coverage_pct": "%",
    "prefetch.accuracy_pct": "%",
    "prefetch.requests": "count",
    "prefetch.hits": "count",
    "prefetch.blocks_pushed": "count",
    "prefetch.blocks_used": "count",
    "latency.miss_p50_ms": "ms",
    "latency.miss_p90_ms": "ms",
    "latency.miss_samples": "count",
    "lifecycle.arrivals": "count",
    "lifecycle.admitted": "count",
    "lifecycle.queued": "count",
    "sharding.sync_rounds": "count",
    "sharding.barrier_pct": "%",
    "transport.frames": "count",
    "transport.bytes": "bytes",
    "transport.self_pct": "%",
    "checkpoint.captures": "count",
    "checkpoint.bytes": "bytes",
    "checkpoint.self_pct": "%",
    "prior.transitions_merged": "count",
    "prior.self_pct": "%",
    "pool.self_pct": "%",
    "serve.blocks_pushed": "count",
    "serve.bytes_pushed": "bytes",
    "serve.requests_received": "count",
    "serve.self_pct": "%",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
}

#: Per-layer self-share metrics: metric -> span layers it sums.
SHARES = {
    "engine.self_pct": ("engine",),
    "sender.self_pct": ("sender", "fairshare"),
    "transport.self_pct": ("transport.send", "transport.recv"),
    "checkpoint.self_pct": ("checkpoint",),
    "prior.self_pct": ("prior.merge",),
    "pool.self_pct": ("pool",),
    "serve.self_pct": ("serve.push", "serve.status", "ws.send"),
}

#: CPUs each workload's system runs on, each beside a yardstick.
SYSTEM_CPUS = {"fleet-markov-static": 1, "sharded-churn-tcp": 2, "live-kalman": 1}

#: Units per run, at least: times are medians over the untraced ones.
MIN_UNITS = 2

#: A unit that has not finished by then is killed and counted as failed.
UNIT_TIMEOUT_S = 150.0


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def sut_env(unit_dir: str, traced: bool) -> dict:
    """Environment of a process of the system under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HOOK])
    env["PERFBENCH_OUT"] = unit_dir
    env["PERFBENCH_TRACE"] = "1" if traced else "0"
    env.pop("PYTHONSTARTUP", None)
    return env


def read_marks(unit_dir: str) -> list[dict]:
    marks = []
    for name in sorted(os.listdir(unit_dir)):
        if name.startswith("mark-") and name.endswith(".json"):
            with open(os.path.join(unit_dir, name)) as f:
                marks.append(json.load(f))
    return marks


# -- sim workloads ---------------------------------------------------------


def placement(workload: str) -> tuple[list[int], set[int]]:
    """CPUs of the system under test, and the CPU of the load generator."""
    cpus = sorted(os.sched_getaffinity(0))
    system = cpus[: SYSTEM_CPUS[workload]]
    rest = [c for c in cpus if c not in system]
    return system, set(rest[:1] or system[:1])


def scale_times(units: list[dict], ys) -> None:
    """Stop the yardsticks and put every time in seconds at their reference speed.

    A unit's ``windows`` give the monotonic span each of its times was
    taken over; the time as measured is kept as ``raw_<name>``.
    """
    ys.stop()
    for u in units:
        for key, (t0, t1) in u.pop("windows", {}).items():
            u["raw_" + key] = u[key]
            u[key] = ys.scale(u[key], t0, t1)


def sim_unit(index: int, traced: bool, input_path: str, run_dir: str, cpus) -> dict:
    """One fleet run in a fresh interpreter on ``cpus`` (see ``fleetsut.py``)."""
    import procs

    unit_dir = os.path.join(run_dir, f"unit{index}")
    os.makedirs(unit_dir)
    result_path = os.path.join(unit_dir, "result.json")
    with open(os.path.join(unit_dir, "stderr.txt"), "w") as err:
        proc, t_launch = procs.launch(
            [sys.executable, os.path.join(HERE, "fleetsut.py"), input_path,
             result_path],
            cpus, env=sut_env(unit_dir, traced),
            cwd=ROOT, stdout=err, stderr=err,
        )
        rc, cpu, rss = procs.reap(proc, UNIT_TIMEOUT_S)
    t_reaped = time.monotonic()
    if rc != 0 or not os.path.exists(result_path):
        with open(os.path.join(unit_dir, "stderr.txt")) as f:
            tail = f.read()[-2000:]
        return {"violations": [f"fleet run exited {rc}: {tail}"]}
    with open(result_path) as f:
        res = json.load(f)
    marks = read_marks(unit_dir)
    first = max(m["first_run"] for m in marks if "first_run" in m)
    imported = min(m["cli_imported"] for m in marks if "cli_imported" in m)
    res.update(
        unit_dir=unit_dir,
        setup_s=first - t_launch,
        import_s=imported - t_launch,
        run_wall_s=res["t_done"] - first,
        cpu_s=cpu,
        peak_rss_mb=rss,
        windows={
            "setup_s": (t_launch, first),
            "import_s": (t_launch, imported),
            "run_wall_s": (first, res["t_done"]),
            "cpu_s": (t_launch, t_reaped),
        },
    )
    return res


def repeat_units(seconds: float, trace: bool, run_one) -> list[dict]:
    """Run ``run_one(index, traced)`` while another unit fits in ``seconds``.

    There are at least ``MIN_UNITS``. With tracing, units alternate
    untraced/traced. A unit that raises or fails a check ends the loop.
    """
    units: list[dict] = []
    start = time.monotonic()
    while True:
        traced = trace and len(units) % 2 == 1
        try:
            unit = run_one(len(units), traced)
        except Exception:  # the unit failed; the run reports it
            unit = {"violations": [traceback.format_exc()]}
        unit["traced"] = traced
        units.append(unit)
        label = f"unit {len(units) - 1}{' (traced)' if traced else ''}"
        if unit["violations"]:
            log(f"{label}: FAILED")
            break
        log(f"{label}: measured setup {unit['setup_s']:.3f}s "
            f"run {unit['run_wall_s']:.3f}s cpu {unit['cpu_s']:.3f}s")
        elapsed = time.monotonic() - start
        if len(units) >= MIN_UNITS and elapsed * (1 + 1 / len(units)) > seconds:
            break
    return units


def summarize(plain: list[dict], q: dict, gen_s: float):
    """End-to-end metrics and the per-layer figures every workload has."""
    metrics = {
        "setup_s": median(u["setup_s"] for u in plain),
        "run_wall_s": median(u["run_wall_s"] for u in plain),
        "cpu_s": median(u["cpu_s"] for u in plain),
        "peak_rss_mb": median(u["peak_rss_mb"] for u in plain),
        "ok_pct": q["ok_pct"],
        "within_100ms_pct": q["within_100ms_pct"],
        "hit_pct": q["hit_pct"],
        "utility_mean": q["utility_mean"],
    }
    layer = {
        "workloads.trace_gen_s": gen_s,
        "setup.import_s": median(u["import_s"] for u in plain),
        "setup.build_spawn_s": median(u["setup_s"] - u["import_s"] for u in plain),
        "host.speed": median(u["cpu_s"] / u["raw_cpu_s"] for u in plain),
        "latency.miss_p50_ms": q["miss_latency_p50_ms"],
        "latency.miss_p90_ms": q["miss_latency_p90_ms"],
        "latency.miss_samples": q["miss_samples"],
    }
    return metrics, layer


def prefetch_layer(layer: dict, p: dict) -> None:
    layer.update(
        {
            "prefetch.coverage_pct": 100.0 * p["hits"] / max(1, p["requests"]),
            "prefetch.accuracy_pct": p["accuracy_pct"],
            "prefetch.requests": p["requests"],
            "prefetch.hits": p["hits"],
            "prefetch.blocks_pushed": p["blocks_pushed"],
            "prefetch.blocks_used": p["blocks_used"],
        }
    )


def run_sim(workload: str, seed: int, seconds: float, trace: bool, run_dir: str, ys):
    import inputs

    spec, gen_s = inputs.fleet_spec(workload, seed)
    input_path = os.path.join(run_dir, "inputs.pkl")
    with open(input_path, "wb") as f:
        pickle.dump(spec, f)
    cpus, _ = placement(workload)
    units = repeat_units(
        seconds, trace,
        lambda i, traced: sim_unit(i, traced, input_path, run_dir, cpus),
    )
    scale_times(units, ys)
    bad = [v for u in units for v in u["violations"]]
    # Every unit replays the same inputs, traced or not: the digests and
    # quality figures must agree exactly, or the probes changed behaviour.
    if not bad and len({json.dumps([u["digest"], u["quality"]], sort_keys=True)
                        for u in units}) != 1:
        bad.append("units disagree: digests "
                   + ", ".join(sorted({u["digest"] for u in units})))
    if bad:
        return None, units, bad, {}
    base = units[0]
    metrics, layer = summarize(
        [u for u in units if not u["traced"]], base["quality"], gen_s
    )
    layer.update(base["counters"])
    prefetch_layer(layer, base["prefetch"])
    info = {"digest": base["digest"], "quality": base["quality"]}
    return metrics, units, [], {"layer": layer, "info": info}


# -- live workload ---------------------------------------------------------


def run_live(seed: int, seconds: float, trace: bool, run_dir: str, ys):
    import inputs
    import live

    cfg = inputs.LIVE
    gen_s = 0.0
    tally = live.count_frames()
    cpus, generator = placement("live-kalman")

    def run_one(index: int, traced: bool) -> dict:
        nonlocal gen_s
        # Each unit replays traces of its own, so that a run's quality
        # figures pool more user behaviour than one pair of traces.
        start = time.perf_counter()
        traces = inputs.traces([seed, index], cfg["clients"], cfg["trace_s"])
        gen_s += time.perf_counter() - start
        unit_dir = os.path.join(run_dir, f"unit{index}")
        os.makedirs(unit_dir)
        env = sut_env(unit_dir, traced)
        unit = live.run_unit(env, ROOT, cpus, traces, cfg["linger_s"], tally)
        marks = read_marks(unit_dir)
        t0 = unit["t_launch"]
        imported = min(m["cli_imported"] for m in marks)
        # The run is paced by the traces, not by the CPU: its wall time
        # is reported as measured.
        unit.update(
            unit_dir=unit_dir,
            import_s=imported - t0,
            windows={
                "setup_s": (t0, t0 + unit["setup_s"]),
                "import_s": (t0, imported),
                "cpu_s": (t0, unit["t_reaped"]),
            },
        )
        return unit

    # The load generator keeps off the server's CPU.
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, generator)
    try:
        units = repeat_units(seconds, trace, run_one)
    finally:
        os.sched_setaffinity(0, affinity)
    scale_times(units, ys)
    bad = [v for u in units for v in u["violations"]]
    if bad:
        return None, units, bad, {}
    plain = [u for u in units if not u["traced"]]
    q = live.quality_of(plain)
    metrics, layer = summarize(plain, q, gen_s)
    for key in plain[0]["counters"]:
        layer[key] = median(u["counters"][key] for u in plain)
    p = {k: sum(u["prefetch"][k] for u in plain) for k in
         ("requests", "hits", "blocks_pushed", "blocks_used")}
    p["accuracy_pct"] = 100.0 * p["blocks_used"] / max(1, p["blocks_pushed"])
    prefetch_layer(layer, p)
    extras = {k: max(u["extras"][k] for u in plain) for k in plain[0]["extras"]}
    extras["prefetch.timeliness_p50_ms"] = median(
        u["extras"]["prefetch.timeliness_p50_ms"] for u in plain
    )
    info = {"quality": q, "extras": extras}
    return metrics, units, [], {"layer": layer, "info": info}


# -- tracing and set-up attribution -----------------------------------------


def import_times() -> dict:
    """``import repro.cli`` in a fresh interpreter under ``-X importtime``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    out = {"import.repro_cli_s": 0.0, "import.scipy_s": 0.0}
    entries = []
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the header line
        name = fields[2].rstrip()
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip(), int(fields[1]) / 1e6))
    # Lines come children first; walk them backwards to see parents first
    # and count each scipy subtree once, at its outermost module.
    stack: list[tuple[int, bool]] = []
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            out["import.scipy_s"] += cumulative
        if name == "repro.cli":
            out["import.repro_cli_s"] = cumulative
        stack.append((depth, inside or is_scipy))
    return out


def traced_layer(units: list[dict], layer: dict) -> str:
    """Fill the span-derived per-layer metrics; returns the table."""
    import spans

    traced = [u for u in units if u["traced"]]
    plain = [u for u in units if not u["traced"]]
    reduced = spans.merge([spans.reduce(spans.load(u["unit_dir"])) for u in traced])
    L = reduced["layers"]

    def self_s(*names):
        return sum(L.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(*names):
        return sum(L.get(n, {}).get("calls", 0) for n in names)

    total = reduced["process_s"] or 1.0
    traced_cpu = median(u["cpu_s"] for u in traced)
    plain_cpu = median(u["cpu_s"] for u in plain)
    layer.update(
        {
            "greedy.schedule_batch_s": self_s("greedy.schedule_batch"),
            "greedy.probability_s": self_s("greedy.probability"),
            "greedy.install_s": self_s("greedy.install"),
            "greedy.batches": calls("greedy.schedule_batch"),
            "predictors.observe_calls": calls("predictors.observe"),
            "predictors.observe_s": self_s("predictors.observe"),
            "predictors.decode_calls": calls("predictors.decode", "predictors.state"),
            "predictors.decode_s": self_s("predictors.decode", "predictors.state"),
            "trace.unattributed_pct": 100.0 * reduced["unattributed_s"] / total,
            "trace.overhead_pct": 100.0 * (traced_cpu / plain_cpu - 1),
        }
    )
    for name in ("greedy.blocks_scheduled", "greedy.rollback_blocks",
                 "engine.events", "transport.frames", "transport.bytes",
                 "checkpoint.bytes"):
        layer[name] = reduced["counters"].get(name, 0)
    for metric, names in SHARES.items():
        layer[metric] = 100.0 * self_s(*names) / total
    # Inclusive: a worker's time at a barrier includes its transport calls.
    layer["sharding.barrier_pct"] = (
        100.0 * L.get("sharding.barrier", {}).get("total_s", 0.0) / total
    )
    return (
        spans.table(reduced)
        + f"\nsystem CPU per unit: {plain_cpu:.3f} s untraced, {traced_cpu:.3f} s"
        f" traced (tracing overhead {layer['trace.overhead_pct']:.1f}%)"
    )


def median(values) -> float:
    return float(statistics.median(list(values)))


# -- run record --------------------------------------------------------------


def machine_probe() -> float:
    """Fixed numpy workload (ms, best of 5): a reading of this machine."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((256, 256))
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(20):
            a @ a
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def steal_s() -> float:
    """Time the hypervisor gave this machine's CPUs to others (Linux guests)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def run_record(args) -> dict:
    import numpy as np

    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "machine_probe_ms": machine_probe(),
        "steal_s_at_start": steal_s(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


# -- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception so units in flight are stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        log(f"no program to measure: {os.path.join(SRC, 'repro')} is missing")
        return 2
    sys.path[:0] = [SRC, HOOK]
    # Byte-compile up front: a fresh checkout would otherwise charge the
    # first unit's set-up for it, a cost users do not pay on every run.
    compileall.compile_dir(SRC, quiet=1)
    record = run_record(args)
    run_dir = os.path.join(OUT_ROOT, args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    import yardstick

    trace = bool(args.trace)
    ys = yardstick.Yardstick(placement(args.workload)[0], run_dir)
    try:
        if args.workload == "live-kalman":
            metrics, units, bad, extra = run_live(
                args.seed, args.seconds, trace, run_dir, ys
            )
        else:
            metrics, units, bad, extra = run_sim(
                args.workload, args.seed, args.seconds, trace, run_dir, ys
            )
    finally:
        ys.stop()
    attempted = max(1, sum(u.get("operations", 0) for u in units))
    record.update(
        steal_s=steal_s() - record.pop("steal_s_at_start"),
        violations=bad,
        units=[
            {k: u[k] for k in ("traced", "setup_s", "run_wall_s", "cpu_s",
                               "raw_setup_s", "raw_run_wall_s", "raw_cpu_s",
                               "peak_rss_mb") if k in u}
            for u in units
        ],
    )
    if bad:
        for line in bad:
            log("CHECK FAILED:", line)
        out = {"correct": False, "attempted": attempted, "failed": attempted,
               "metrics": {}}
    else:
        layer = extra["layer"]
        record.update(end_to_end=metrics, info=extra["info"])
        if trace:
            layer.update(import_times())
            print(f"per-layer self time, {args.workload} (mean of traced units):")
            print(traced_layer(units, layer))
        for key, value in extra["info"].get("extras", {}).items():
            print(f"  {key} = {value:.3f}")
        for key, unit in END_TO_END.items():
            print(f"{key:<24} {metrics[key]:>14.4f} {unit}")
        if "digest" in extra["info"]:
            print(f"summary digest {extra['info']['digest']}")
        print(f"latency samples: {extra['info']['quality']['miss_samples']} misses "
              f"of {extra['info']['quality']['requests']} requests")
        record["per_layer"] = {k: layer.get(k, 0) for k in PER_LAYER}
        record["layer_other"] = {k: v for k, v in layer.items() if k not in PER_LAYER}
        chosen = PER_LAYER if trace else END_TO_END
        values = record["per_layer"] if trace else metrics
        out = {
            "correct": True,
            "attempted": attempted,
            "failed": 0,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in chosen.items()},
        }
    with open(os.path.join(OUT_ROOT, "history.jsonl"), "a") as f:
        f.write(json.dumps(record, default=str) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
