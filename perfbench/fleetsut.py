"""One run of a sim workload in a fresh interpreter (the system under test).

Usage: ``python3 perfbench/fleetsut.py INPUT.pkl RESULT.json``

Imports ``repro.cli`` as ``python -m repro fleet`` does, builds the
fleet from the pickled spec (``inputs.fleet_spec``), runs it with
``run_fleet`` or ``run_fleet_sharded``, checks the invariants and writes
quality figures, counters and the summary digest to RESULT.json.

Raw request outcomes are captured from outside by wrapping the public
``collect_fleet`` where the runner and the fleet call it.

Spawned shard workers import this file as their main module, so its top
level imports nothing but the standard library.
"""

from __future__ import annotations

import json
import pickle
import sys
import time


def _capture_outcomes(store: list) -> None:
    import repro.experiments.runner as runner
    import repro.fleet.fleet as fleet_mod

    for module in (runner, fleet_mod):
        original = module.collect_fleet

        def capture(outcomes_by_session, _original=original):
            store.append(outcomes_by_session)
            return _original(outcomes_by_session)

        module.collect_fleet = capture


def _counters(d: dict) -> dict:
    backend = d["backend"]
    out = {
        "sender.blocks_sent": d["blocks_sent"],
        "sender.bytes_sent": d["bytes_sent"],
        "fairshare.jain": d["link_fairness"],
        "backend.fetches": backend["fetches_started"],
        "backend.shared_hit_ratio": d["shared_hit_rate"],
    }
    churn = d.get("churn")
    if churn is not None:
        out.update(
            {
                "lifecycle.arrivals": churn["arrivals"],
                "lifecycle.admitted": churn["admitted"],
                "lifecycle.queued": churn["queued"],
            }
        )
    sharding = d.get("sharding")
    if sharding is not None:
        totals = sharding["transport"]["totals"]
        out.update(
            {
                "sharding.sync_rounds": sharding["sync_rounds"],
                "sharding.worker_cpu_s_max": max(sharding["cpu_run_s"]),
                "transport.heartbeat_rtt_ms_max": totals["heartbeat_rtt_ms_max"],
                "checkpoint.captures": sharding.get("checkpoints_taken", 0),
                "checkpoint.cpu_s": sum(sharding.get("checkpoint_cpu_s", [])),
                "prior.transitions_merged": sharding["transitions_merged"],
            }
        )
    return out


def _checks(spec: dict, result, outcomes_by_session) -> list[str]:
    import quality

    bad = []
    env = spec["fleet_env"]
    d = result.diagnostics
    planned = env.num_sessions
    summaries = result.summary.per_session
    if spec["kind"] == "static":
        if len(outcomes_by_session) != planned or not all(outcomes_by_session):
            bad.append(
                f"{len(outcomes_by_session)} sessions reported, "
                f"{planned} planned"
            )
        for i, (outs, trace) in enumerate(zip(outcomes_by_session, spec["traces"])):
            issued = sum(1 for e in trace.events if e.request is not None)
            if len(outs) != issued:
                bad.append(f"session {i}: {len(outs)} outcomes for {issued} requests")
    else:
        churn = d["churn"]
        if churn["arrivals"] != planned:
            bad.append(f"{churn['arrivals']} arrivals for {planned} planned")
        if churn["arrivals"] != churn["admitted"] + churn["rejected"]:
            bad.append("arrivals != admitted + rejected")
        labels = result.session_labels or []
        if len(labels) != churn["admitted"] or len(set(labels)) != len(labels):
            bad.append(
                f"{len(labels)} distinct sessions reported, "
                f"{churn['admitted']} admitted"
            )
        sharding = d["sharding"]
        if sharding["sessions_lost"] or sharding["shards_lost"]:
            bad.append(
                f"sessions_lost={sharding['sessions_lost']} "
                f"shards_lost={sharding['shards_lost']}"
            )
    bad.extend(quality.session_violations(outcomes_by_session, summaries))
    return bad


def main(argv: list[str]) -> int:
    input_path, result_path = argv
    import repro.cli  # noqa: F401  - the CLI import every `repro` run pays
    from repro.experiments import runner
    from repro.metrics.collector import overpush_rate
    from repro.workloads.image_app import ImageExplorationApp

    import quality

    with open(input_path, "rb") as f:
        spec = pickle.load(f)
    captured: list = []
    _capture_outcomes(captured)
    app = ImageExplorationApp(rows=spec["rows"], cols=spec["cols"])
    if spec["kind"] == "static":
        result = runner.run_fleet(
            app, spec["traces"], spec["fleet_env"], predictor=spec["predictor"]
        )
    else:
        result = runner.run_fleet_sharded(
            app,
            spec["traces"],
            spec["fleet_env"],
            num_shards=spec["shards"],
            predictor=spec["predictor"],
            sync_interval_s=spec["sync_interval_s"],
            transport="tcp",
        )
    t_done = time.monotonic()

    outcomes_by_session = captured[-1]
    pooled = [o for outs in outcomes_by_session for o in outs]
    d = result.diagnostics
    metrics = quality.request_metrics(quality.outcome_rows(pooled))
    overpush = overpush_rate(d["blocks_sent"], pooled)
    churn = d.get("churn") or {}
    sessions = result.fleet_env.num_sessions
    lost = d.get("sharding", {}).get("sessions_lost", 0)
    not_served = churn.get("rejected", 0) + lost
    metrics["ok_pct"] = 100.0 * (
        1 - (metrics["unanswered"] + not_served) / (len(pooled) + sessions)
    )
    out = {
        "t_done": t_done,
        "operations": len(pooled) + sessions,
        "quality": metrics,
        "prefetch": {
            "requests": len(pooled),
            "hits": metrics["hits"],
            "blocks_pushed": d["blocks_sent"],
            "blocks_used": round(d["blocks_sent"] * (1 - (overpush or 0.0))),
            "accuracy_pct": 100.0 * (1 - (overpush or 0.0)),
        },
        "counters": _counters(d),
        "digest": quality.digest(result.rows()),
        "violations": _checks(spec, result, outcomes_by_session),
    }
    with open(result_path, "w") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
