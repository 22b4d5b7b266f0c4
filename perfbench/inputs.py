"""Seeded inputs of every workload: mouse traces and the arrival plan.

The program receives only what these functions build; the same seed
gives the same inputs.
"""

from __future__ import annotations

import time

import numpy as np

#: Quick 12x12 image grid (``repro --scale quick``).
ROWS = COLS = 12
TRACE_S = 10.0
#: Both sim workloads share one link of this many times the paper's
#: 5.625 MB/s (``DEFAULT_ENV``). At 1x, 64 sessions congest it: hit_pct
#: swings with the seed (IQR/median 0.34 static, 0.14 churn over seeds
#: 1-3), too far for a bound of at most 0.25 to tell drift from inputs.
LINK_SCALE = 4.0

#: fleet-markov-static: 64 sessions from t=0 on the shared link.
STATIC = {"sessions": 64}

#: sharded-churn-tcp: 64 Poisson arrivals (4/s, mean dwell 8 s) against
#: an admission cap of 20 with a 20 s patience queue: about half of the
#: arrivals wait in the queue, none wait long enough to be shed. W=2
#: workers over TCP, CRDT sync every simulated second and a checkpoint
#: every sync round.
CHURN = {
    "sessions": 64,
    "rate_per_s": 4.0,
    "mean_dwell_s": 8.0,
    "max_concurrent": 20,
    "patience_s": 20.0,
    "shards": 2,
    "sync_interval_s": 1.0,
}

#: live-kalman: two clients, each replaying a 20 s trace in wall time.
LIVE = {"clients": 2, "trace_s": 20.0, "linger_s": 1.5}


def traces(seed, count: int, duration_s: float):
    """``count`` mouse traces on the quick grid, drawn from ``seed``.

    ``seed`` is an int or a sequence of ints, as ``np.random.default_rng``
    takes it.
    """
    from repro.predictors.layout import GridLayout
    from repro.workloads.mouse import MouseTraceGenerator

    layout = GridLayout(ROWS, COLS, cell_width=20.0, cell_height=20.0)
    rng = np.random.default_rng(seed)
    return [
        MouseTraceGenerator(layout, seed=int(s)).generate(duration_s=duration_s)
        for s in rng.integers(0, 2**31, size=count)
    ]


def fleet_spec(workload: str, seed: int) -> tuple[dict, float]:
    """Pickle-ready spec of one sim workload, and its generation time."""
    from repro.experiments.configs import DEFAULT_ENV, FleetEnvironment
    from repro.fleet import ArrivalConfig, CheckpointConfig

    start = time.perf_counter()
    env = DEFAULT_ENV.with_bandwidth(LINK_SCALE * DEFAULT_ENV.bandwidth_bytes_per_s)
    if workload == "fleet-markov-static":
        cfg = STATIC
        spec = {
            "kind": "static",
            "traces": traces(seed, cfg["sessions"], TRACE_S),
            "fleet_env": FleetEnvironment(
                num_sessions=cfg["sessions"],
                env=env,
            ),
        }
    else:
        cfg = CHURN
        arrival = ArrivalConfig(
            rate_per_s=cfg["rate_per_s"],
            mean_dwell_s=cfg["mean_dwell_s"],
            max_concurrent=cfg["max_concurrent"],
            patience_s=cfg["patience_s"],
            seed=int(np.random.default_rng([seed, 1]).integers(2**31)),
        )
        spec = {
            "kind": "sharded",
            "traces": traces(seed, cfg["sessions"], TRACE_S),
            "fleet_env": FleetEnvironment(
                num_sessions=cfg["sessions"],
                env=env,
                arrival=arrival,
                checkpoint=CheckpointConfig(cadence_rounds=1),
            ),
            "shards": cfg["shards"],
            "sync_interval_s": cfg["sync_interval_s"],
        }
    spec.update(rows=ROWS, cols=COLS, predictor="shared-markov")
    return spec, time.perf_counter() - start
