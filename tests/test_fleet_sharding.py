"""Tests for the multiprocess sharded fleet (repro.fleet.sharding).

The load-bearing contract is **W=1 bit-identity**: a single-shard
``run_fleet_sharded`` must reproduce the unsharded :func:`run_fleet`
exactly — same summary floats, same diagnostics counters, same cohort
tables — because every sharding transform (hash route, bandwidth
share, expected-population override, chunked ``sim.run`` at sync
barriers) degenerates to the identity at W=1.  That is what licenses
trusting the W>1 fleet: the machinery provably adds nothing of its
own.

The rest covers the generic machinery (stable hash routing, the
barrier protocol, worker-failure propagation) and the W=2 pooled
report (session conservation, pooled counters, prior aggregation).
"""

import dataclasses

import pytest

from repro.experiments.configs import DEFAULT_ENV, FleetEnvironment
from repro.experiments.runner import run_fleet, run_fleet_sharded
from repro.fleet import (
    ArrivalConfig,
    ShardError,
    ShardRecovery,
    ShardTask,
    SupervisionPolicy,
    assign_shards,
    run_sharded,
    shard_of,
)
from repro.metrics.fleet import pool_snapshots
from repro.workloads.image_app import ImageExplorationApp
from repro.workloads.mouse import MouseTraceGenerator


def small_fleet(num_sessions=4, trace_duration_s=3.0, arrival=None):
    app = ImageExplorationApp(rows=8, cols=8)
    traces = [
        MouseTraceGenerator(app.layout, seed=100 + i).generate(
            duration_s=trace_duration_s
        )
        for i in range(num_sessions)
    ]
    fleet_env = FleetEnvironment(
        num_sessions=num_sessions, env=DEFAULT_ENV, arrival=arrival
    )
    return app, traces, fleet_env


def strip_sharding(result):
    diagnostics = dict(result.diagnostics)
    diagnostics.pop("sharding")
    return dataclasses.replace(result, diagnostics=diagnostics)


class TestHashRouting:
    def test_stable_across_calls(self):
        assert [shard_of(i, 4) for i in range(16)] == [
            shard_of(i, 4) for i in range(16)
        ]

    def test_partition_is_total_and_disjoint(self):
        shards = assign_shards(range(100), 4)
        assert sorted(i for shard in shards for i in shard) == list(range(100))

    def test_single_shard_owns_everything(self):
        assert assign_shards(range(10), 1) == [list(range(10))]

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            shard_of(1, 0)


class TestBarrierProtocol:
    def test_exchange_relays_peer_payloads(self):
        tasks = [
            ShardTask(
                entry="_shard_helpers:echo_worker",
                spec=f"hello-{k}",
                shard=k,
                num_shards=3,
            )
            for k in range(3)
        ]
        results = run_sharded(tasks, sync_rounds=1, timeout_s=60.0)
        for k, got in enumerate(results):
            expected = sorted(f"hello-{j}" for j in range(3) if j != k)
            assert sorted(got) == expected

    def test_worker_exception_raises_shard_error(self):
        tasks = [
            ShardTask(
                entry="_shard_helpers:failing_worker",
                spec=None,
                shard=0,
                num_shards=1,
            )
        ]
        with pytest.raises(ShardError, match="deliberate"):
            run_sharded(tasks, timeout_s=60.0)

    def test_shard_indices_must_cover_range(self):
        task = ShardTask(entry="x:y", spec=None, shard=1, num_shards=2)
        with pytest.raises(ValueError, match="0..W-1"):
            run_sharded([task])


def crashable_task(shard, num_shards, rounds, crash_before_round=None, **extra):
    return ShardTask(
        entry="_shard_helpers:crashable_worker",
        spec={
            "tag": f"s{shard}",
            "rounds": rounds,
            "crash_before_round": crash_before_round,
            **extra,
        },
        shard=shard,
        num_shards=num_shards,
    )


class TestSupervision:
    """Supervised run_sharded: restart, recover, or degrade — never hang."""

    POLICY = SupervisionPolicy(max_restarts=2, backoff_s=0.01)

    def test_hard_crash_without_supervision_raises(self):
        tasks = [crashable_task(0, 1, rounds=2, crash_before_round=1)]
        with pytest.raises(ShardError, match="mid-protocol|pipe closed"):
            run_sharded(tasks, sync_rounds=2, timeout_s=60.0)

    def test_crashed_worker_is_respawned_and_finishes(self):
        rounds = 3
        tasks = [
            crashable_task(0, 2, rounds),
            crashable_task(1, 2, rounds, crash_before_round=1),
        ]
        recovery = ShardRecovery()

        def respawn(shard, next_round):
            # The replacement re-runs only the remaining barriers and
            # does not crash again — the chaos schedule fired already.
            return crashable_task(shard, 2, rounds - next_round)

        results = run_sharded(
            tasks,
            sync_rounds=rounds,
            timeout_s=60.0,
            supervision=self.POLICY,
            respawn=respawn,
            recovery=recovery,
        )
        assert recovery.recovered_shards == [1]
        assert recovery.lost_shards == []
        assert [s for s, _, _ in recovery.restarts] == [1]
        assert results[0]["rounds_done"] == rounds
        assert results[1]["rounds_done"] == rounds - 1  # resumed mid-run
        assert recovery.snapshot() == {
            "shards_recovered": 1,
            "shards_lost": 0,
            "restarts": 1,
        }

    def test_budget_exhaustion_drops_shard_but_survivors_finish(self):
        rounds = 2
        tasks = [
            crashable_task(0, 2, rounds),
            crashable_task(1, 2, rounds, crash_before_round=0),
        ]
        recovery = ShardRecovery()

        def respawn(shard, next_round):
            # The replacement is just as doomed: budget must run out.
            return crashable_task(
                shard, 2, rounds - next_round, crash_before_round=0
            )

        results = run_sharded(
            tasks,
            sync_rounds=rounds,
            timeout_s=60.0,
            supervision=SupervisionPolicy(max_restarts=1, backoff_s=0.01),
            respawn=respawn,
            recovery=recovery,
        )
        assert recovery.lost_shards == [1]
        assert recovery.recovered_shards == []
        assert results[1] is None  # the loss is surfaced, not raised
        assert results[0]["rounds_done"] == rounds
        # Once the peer was dropped, the survivor synced with nobody.
        assert results[0]["peers"][-1] == []

    def test_all_shards_lost_still_raises(self):
        tasks = [crashable_task(0, 1, rounds=1, crash_before_round=0)]

        def respawn(shard, next_round):
            return crashable_task(shard, 1, 1 - next_round, crash_before_round=0)

        with pytest.raises(ShardError, match="all shards lost"):
            run_sharded(
                tasks,
                sync_rounds=1,
                timeout_s=60.0,
                supervision=SupervisionPolicy(max_restarts=0),
                respawn=respawn,
            )

    def test_wedged_worker_trips_heartbeat_timeout_and_recovers(self):
        """A worker that stops making progress — but whose process is
        alive — is recycled via the quiet timeout, not the (much
        longer) total timeout.  Beacons are configured slower than the
        quiet window, so the wedge is detected."""
        rounds = 1
        wedged = crashable_task(0, 1, rounds, sleep_s=30.0)
        wedged.heartbeat_interval_s = 60.0  # no beacon before the wedge trips
        recovery = ShardRecovery()

        def respawn(shard, next_round):
            return crashable_task(shard, 1, rounds - next_round)

        results = run_sharded(
            [wedged],
            sync_rounds=rounds,
            timeout_s=120.0,
            supervision=SupervisionPolicy(
                max_restarts=1, backoff_s=0.01, heartbeat_timeout_s=1.0
            ),
            respawn=respawn,
            recovery=recovery,
        )
        assert recovery.recovered_shards == [0]
        assert results[0]["rounds_done"] == rounds

    def test_supervision_requires_respawn_factory(self):
        tasks = [crashable_task(0, 1, rounds=0)]
        with pytest.raises(ValueError, match="respawn"):
            run_sharded(tasks, supervision=self.POLICY)


class TestSingleShardBitIdentity:
    def test_static_shared_markov(self):
        app, traces, fleet_env = small_fleet()
        baseline = run_fleet(app, traces, fleet_env, predictor="shared-markov")
        sharded = run_fleet_sharded(
            app, traces, fleet_env, num_shards=1, predictor="shared-markov",
            sync_interval_s=0.5,
        )
        assert sharded.diagnostics["sharding"]["sync_rounds"] > 0
        assert strip_sharding(sharded) == baseline

    def test_static_kalman_no_sync(self):
        app, traces, fleet_env = small_fleet(num_sessions=3)
        baseline = run_fleet(app, traces, fleet_env, predictor="kalman")
        sharded = run_fleet_sharded(
            app, traces, fleet_env, num_shards=1, predictor="kalman"
        )
        assert sharded.diagnostics["sharding"]["sync_rounds"] == 0
        assert strip_sharding(sharded) == baseline

    def test_churn_shared_markov(self):
        arrival = ArrivalConfig(
            rate_per_s=1.5, mean_dwell_s=2.0, max_concurrent=3, seed=11
        )
        app, traces, fleet_env = small_fleet(num_sessions=5, arrival=arrival)
        baseline = run_fleet(app, traces, fleet_env, predictor="shared-markov")
        sharded = run_fleet_sharded(
            app, traces, fleet_env, num_shards=1, predictor="shared-markov",
            sync_interval_s=1.0,
        )
        assert strip_sharding(sharded) == baseline


class TestMultiShard:
    def test_two_shards_conserve_sessions_and_pool(self):
        app, traces, fleet_env = small_fleet(num_sessions=6)
        sharded = run_fleet_sharded(
            app, traces, fleet_env, num_shards=2, predictor="shared-markov",
            sync_interval_s=0.5,
        )
        d = sharded.diagnostics
        assert d["sessions"] == 6
        assert d["sharding"]["shards"] == 2
        assert sum(d["sharding"]["sessions_per_shard"]) == 6
        # Both shards observed transitions and the exchange pooled them:
        # the aggregate prior holds every shard's contribution.
        per_shard = assign_shards(range(6), 2)
        assert all(len(s) > 0 for s in per_shard)
        assert d["shared_prior"]["transitions_observed"] > 0
        assert d["shared_prior"]["transitions_observed"] == (
            d["sharding"]["transitions_merged"]
        )
        assert sharded.summary is not None
        assert len(sharded.summary.per_session) == 6
        # Global plan indices label the rows (positions are per-shard).
        assert sorted(int(l) for l in sharded.session_labels) == list(range(6))

    def test_warm_start_and_prior_out_round_trip(self, tmp_path):
        from repro.predictors.shared import SharedTransitionPrior

        app, traces, fleet_env = small_fleet(num_sessions=4)
        seed_prior = SharedTransitionPrior(app.num_requests)
        seed_prior.observe(0, 1)
        seed_prior.observe(1, 2)
        out = tmp_path / "pooled.npz"
        sharded = run_fleet_sharded(
            app, traces, fleet_env, num_shards=2, predictor="shared-markov",
            sync_interval_s=0.5, shared_prior=seed_prior, prior_out=out,
        )
        pooled = SharedTransitionPrior.load(out, n=app.num_requests)
        # Pooled = warm-start seed + every shard's own contribution.
        assert pooled.transitions_observed == (
            2 + sharded.diagnostics["sharding"]["transitions_merged"]
        )
        assert pooled.transitions_observed == (
            sharded.diagnostics["shared_prior"]["transitions_observed"]
        )


class TestPoolSnapshots:
    def test_single_snapshot_is_identity(self):
        snap = {"a": 3, "nested": {"b": 1.5, "flag": True}, "name": "x"}
        assert pool_snapshots([snap]) == snap

    def test_sums_counters_keeps_flags_maxes_peaks(self):
        a = {"n": 2, "peak_concurrency": 3, "flag": True, "inner": {"m": 1}}
        b = {"n": 5, "peak_concurrency": 2, "flag": True, "inner": {"m": 4}}
        assert pool_snapshots([a, b]) == {
            "n": 7,
            "peak_concurrency": 3,
            "flag": True,
            "inner": {"m": 5},
        }

    def test_disagreeing_flags_raise(self):
        with pytest.raises(ValueError, match="disagree"):
            pool_snapshots([{"flag": True}, {"flag": False}])

    def test_mismatched_keys_raise(self):
        with pytest.raises(ValueError, match="keys differ"):
            pool_snapshots([{"a": 1}, {"b": 1}])


class TestTcpTransportFleet:
    """The transport seam contract: run_sharded over loopback TCP is
    *the same computation* as over pipes — frames, CRCs, acks, and
    retransmits must be invisible to the DES above them."""

    def test_w1_tcp_is_bit_identical_to_pipe(self):
        app, traces, fleet_env = small_fleet()
        over_pipe = run_fleet_sharded(
            app, traces, fleet_env, num_shards=1, predictor="shared-markov",
            sync_interval_s=0.5, transport="pipe",
        )
        over_tcp = run_fleet_sharded(
            app, traces, fleet_env, num_shards=1, predictor="shared-markov",
            sync_interval_s=0.5, transport="tcp",
        )
        assert over_tcp.diagnostics["sharding"]["transport"]["driver"] == "tcp"
        assert strip_sharding(over_tcp) == strip_sharding(over_pipe)
        # The baseline too: the seam nests, it does not just cancel out.
        baseline = run_fleet(app, traces, fleet_env, predictor="shared-markov")
        assert strip_sharding(over_tcp) == baseline

    def test_net_chaos_requires_tcp(self):
        from repro.chaos import ChaosConfig

        app, traces, fleet_env = small_fleet()
        fleet_env = dataclasses.replace(
            fleet_env, chaos=ChaosConfig.parse("corrupt:0.1")
        )
        with pytest.raises(ValueError, match="requires"):
            run_fleet_sharded(
                app, traces, fleet_env, num_shards=2,
                predictor="shared-markov", transport="pipe",
            )


class TestChaoticWireEquivalence:
    """Wire faults must change *counters*, never *results*: a noisy or
    mid-run-partitioned link yields the same pooled summary as a clean
    run, with the defenses' firing visible in the transport totals."""

    def _clean_and_chaotic(self, chaos_str, **kw):
        from repro.chaos import ChaosConfig

        app, traces, fleet_env = small_fleet(num_sessions=6)
        clean = run_fleet_sharded(
            app, traces, fleet_env, num_shards=2, predictor="shared-markov",
            sync_interval_s=1.0, transport="tcp",
        )
        noisy_env = dataclasses.replace(
            fleet_env, chaos=ChaosConfig.parse(chaos_str)
        )
        chaotic = run_fleet_sharded(
            app, traces, noisy_env, num_shards=2, predictor="shared-markov",
            sync_interval_s=1.0, transport="tcp", **kw,
        )
        return clean, chaotic

    def test_corrupt_and_dup_wire_is_result_invisible(self):
        clean, chaotic = self._clean_and_chaotic("corrupt:0.05,dup:0.1")
        assert chaotic.summary == clean.summary
        assert chaotic.session_labels == clean.session_labels
        totals = chaotic.diagnostics["sharding"]["transport"]["totals"]
        assert totals["crc_rejects"] + totals["dup_drops"] > 0

    def test_healed_partition_matches_clean_run(self):
        clean, chaotic = self._clean_and_chaotic(
            "partition:0-1@1", partition_heal_s=0.8
        )
        assert chaotic.summary == clean.summary
        totals = chaotic.diagnostics["sharding"]["transport"]["totals"]
        assert totals["partitions_detected"] >= 1


class TestElasticMembership:
    """Membership change loses no session: a worker leaving past its
    restart budget is re-absorbed from its last checkpoint, and a
    worker joining mid-run takes only the ring-affected sessions, as
    checkpoint payloads over the transport."""

    def _elastic_fleet(self):
        app = ImageExplorationApp(rows=8, cols=8)
        traces = [
            MouseTraceGenerator(app.layout, seed=100 + i).generate(duration_s=4.0)
            for i in range(8)
        ]
        fleet_env = FleetEnvironment(num_sessions=8, env=DEFAULT_ENV)
        return app, traces, fleet_env

    def test_leave_reabsorbs_lost_shard_from_checkpoint(self):
        from repro.chaos import ChaosConfig
        from repro.fleet import CheckpointConfig

        app, traces, fleet_env = self._elastic_fleet()
        fleet_env = dataclasses.replace(
            fleet_env,
            chaos=ChaosConfig.parse("worker-crash:1@2"),
            checkpoint=CheckpointConfig(cadence_rounds=1),
        )
        result = run_fleet_sharded(
            app, traces, fleet_env, num_shards=3, predictor="shared-markov",
            sync_interval_s=1.0, transport="tcp",
            supervision=SupervisionPolicy(max_restarts=0, backoff_s=0.01),
        )
        d = result.diagnostics["sharding"]
        assert d["shards_lost"] == 0
        assert d["shards_reabsorbed"] == 1
        assert d["sessions_lost"] == 0
        # Every session still reports: the dead shard's slice replayed
        # from its last checkpoint.
        assert len(result.summary.per_session) == 8
        assert sorted(int(l) for l in result.session_labels) == list(range(8))

    def test_join_migrates_sessions_to_newcomer(self):
        app, traces, fleet_env = self._elastic_fleet()
        result = run_fleet_sharded(
            app, traces, fleet_env, num_shards=2, predictor="shared-markov",
            sync_interval_s=1.0, transport="tcp", join_at_round=1,
        )
        d = result.diagnostics["sharding"]
        assert d["members"] == 3
        assert d["joined_at_round"] == 1
        assert d["sessions_migrated"] > 0
        assert d["sessions_lost"] == 0
        assert len(result.summary.per_session) == 8
        assert sorted(int(l) for l in result.session_labels) == list(range(8))
        # The joiner really ran sessions: three restart columns now.
        assert len(d["restarts_by_shard"]) == 3

    def test_join_over_pipe_works_too(self):
        """Elastic membership is transport-independent: the same join
        rides the pipe driver's checkpoint payloads."""
        app, traces, fleet_env = self._elastic_fleet()
        result = run_fleet_sharded(
            app, traces, fleet_env, num_shards=2, predictor="shared-markov",
            sync_interval_s=1.0, transport="pipe", join_at_round=1,
        )
        d = result.diagnostics["sharding"]
        assert d["members"] == 3
        assert d["sessions_migrated"] > 0
        assert d["sessions_lost"] == 0
