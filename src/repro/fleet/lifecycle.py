"""Session lifecycle management: open-loop churn over a shared fleet.

The paper — and :mod:`repro.fleet.fleet`'s original assembly — evaluate
a *closed* population: N sessions exist for the whole run.  A serving
deployment is an **open** system: users arrive at some offered rate,
interact for a while, and leave, and the fleet must admit, attach, and
retire sessions while the simulator is running.

Two pieces implement that here:

* :class:`ArrivalConfig` — a deterministic description of the arrival /
  departure process: Poisson arrivals (exponential inter-arrival gaps at
  ``rate_per_s``), lognormal dwell times around ``mean_dwell_s``, and an
  admission cap ``max_concurrent``.  The **static fleet is exactly the
  degenerate case**: ``rate_per_s = 0`` puts every arrival at t = 0, and
  ``mean_dwell_s = None`` means nobody departs.  All randomness comes
  from one seeded generator, so a churn scenario is a pure function of
  its config.

* :class:`SessionManager` — the driver.  It pre-computes each session's
  :class:`SessionPlan` and schedules the arrivals into the simulator.
  At an arrival it applies admission control (reject when
  ``max_concurrent`` sessions are already attached — an oversubscribed
  fleet should shed load at the door, not thrash every tenant), asks the
  fleet to *build and attach* the session — which is when the session
  acquires its :class:`~repro.sim.fairshare.FairSharePort`, its backend
  throttle share, and its metrics collector — and starts it.  At the
  departure time it stops the session and releases those resources
  (:meth:`~repro.sim.fairshare.FairSharePort.close` retires the port
  mid-backlog; a weighted throttle share returns to the pool).

The manager records a :class:`SessionRecord` per planned session —
including rejected ones — so churn metrics (per-cohort latency,
admission rejections, cold-start behaviour) can be computed after the
run.

Prediction cadence under churn: with the fleet's coalesced
:class:`~repro.fleet.schedule_service.FleetScheduleService` (the
default), an admitted session is first polled at the next *fleet* tick
— at most one prediction interval after arrival, the same worst-case
delay as the per-session manager's own first tick, but aligned to the
fleet grid rather than phased per arrival.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.clock import Clock

if TYPE_CHECKING:  # avoid a lifecycle <-> fleet import cycle at runtime
    from repro.core.session import KhameleonSession
    from repro.fleet.fleet import KhameleonFleet

__all__ = [
    "ArrivalConfig",
    "SessionPlan",
    "SessionRecord",
    "SessionManager",
    "plan_horizon_s",
]


@dataclass(frozen=True)
class ArrivalConfig:
    """Deterministic open-loop arrival/departure process.

    Parameters
    ----------
    rate_per_s:
        Poisson arrival rate.  ``0.0`` (default) degenerates to "all
        sessions arrive at t = 0" — the static fleet.
    mean_dwell_s:
        Mean session lifetime; dwell times are lognormal with this mean
        and shape ``dwell_sigma``.  ``None`` (default) means sessions
        never depart (run to the end of the simulation).
    dwell_sigma:
        Lognormal shape parameter σ; ``0.0`` makes every dwell exactly
        ``mean_dwell_s``.
    max_concurrent:
        Admission cap: an arrival finding this many sessions attached is
        rejected.  ``None`` (default) admits everyone.
    patience_s:
        How long an arrival blocked at the cap will wait in the
        admission queue before giving up.  ``0.0`` (default) is exactly
        the binary reject-at-cap behaviour — no queue exists and the
        rejection path is bit-identical to the pre-queue manager.
    queue_depth:
        Bound on the patience queue.  When full, the *lowest-weight*
        waiter (including the newcomer) is shed — overload preferentially
        drops the arrivals the fair-share link would serve least.
        ``None`` (default) leaves the queue bounded only by patience.
    seed:
        Seed for the arrival-gap and dwell draws.  The whole plan is a
        pure function of ``(seed, num_sessions)``.
    """

    rate_per_s: float = 0.0
    mean_dwell_s: Optional[float] = None
    dwell_sigma: float = 0.6
    max_concurrent: Optional[int] = None
    seed: int = 0
    patience_s: float = 0.0
    queue_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.rate_per_s < 0:
            raise ValueError("arrival rate must be non-negative")
        if self.mean_dwell_s is not None and self.mean_dwell_s <= 0:
            raise ValueError("mean dwell must be positive when given")
        if self.dwell_sigma < 0:
            raise ValueError("dwell sigma must be non-negative")
        if self.max_concurrent is not None and self.max_concurrent < 1:
            raise ValueError("admission cap must be >= 1 when given")
        if self.patience_s < 0:
            raise ValueError("patience must be non-negative")
        if self.queue_depth is not None and self.queue_depth < 1:
            raise ValueError("queue depth must be >= 1 when given")

    @property
    def is_static(self) -> bool:
        """True when this config is exactly the closed, all-at-t0 fleet."""
        return (
            self.rate_per_s == 0.0
            and self.mean_dwell_s is None
            and self.max_concurrent is None
        )

    def expected_concurrency(self, num_sessions: int) -> float:
        """Little's-law estimate of concurrently attached sessions.

        Used as the per-session bandwidth-prior divisor: under churn a
        new sender's fair share is one part in the *expected* live
        population, not one part in every user who will ever arrive.
        """
        expected = float(num_sessions)
        if self.rate_per_s > 0 and self.mean_dwell_s is not None:
            expected = min(expected, self.rate_per_s * self.mean_dwell_s)
        if self.max_concurrent is not None:
            expected = min(expected, float(self.max_concurrent))
        return max(1.0, expected)

    def plan(self, num_sessions: int) -> list["SessionPlan"]:
        """Materialize the arrival times and dwells for each session."""
        if num_sessions < 1:
            raise ValueError("need at least one session to plan")
        rng = np.random.default_rng(self.seed)
        if self.rate_per_s > 0:
            # Open loop: i.i.d. exponential gaps, first arrival one gap in.
            gaps = rng.exponential(1.0 / self.rate_per_s, size=num_sessions)
            arrivals = np.cumsum(gaps)
        else:
            arrivals = np.zeros(num_sessions)
        if self.mean_dwell_s is None:
            dwells: list[Optional[float]] = [None] * num_sessions
        else:
            # Lognormal parameterized by its *mean*: E[X] = exp(mu + s^2/2).
            mu = np.log(self.mean_dwell_s) - 0.5 * self.dwell_sigma**2
            dwells = [
                float(d) for d in rng.lognormal(mu, self.dwell_sigma, size=num_sessions)
            ]
        return [
            SessionPlan(index=i, arrival_s=float(arrivals[i]), dwell_s=dwells[i])
            for i in range(num_sessions)
        ]


@dataclass(frozen=True)
class SessionPlan:
    """One planned session: when it arrives and how long it stays."""

    index: int
    arrival_s: float
    dwell_s: Optional[float]  # None = stays until the end of the run


@dataclass
class SessionRecord:
    """What actually happened to one planned session."""

    plan: SessionPlan
    admitted: bool = False
    session: Optional["KhameleonSession"] = None
    arrived_at: Optional[float] = None
    #: When the session actually attached — equals ``arrived_at`` for a
    #: direct admission, later for one that waited in the patience queue.
    admitted_at: Optional[float] = None
    departed_at: Optional[float] = None

    @property
    def index(self) -> int:
        return self.plan.index

    @property
    def rejected(self) -> bool:
        return self.arrived_at is not None and not self.admitted


@dataclass
class ChurnStats:
    """Counters the manager maintains as the process unfolds."""

    arrivals: int = 0
    admitted: int = 0
    rejected: int = 0
    departed: int = 0
    peak_concurrent: int = 0
    bytes_dropped_on_departure: int = 0
    # Patience-queue outcomes (all zero when patience_s == 0: the queue
    # never forms).  Every queued arrival ends in exactly one of
    # admitted_from_queue / shed_patience / shed_capacity / shed at
    # end-of-run, and shed arrivals also count in ``rejected`` so
    # ``arrivals == admitted + rejected`` holds with or without a queue.
    queued: int = 0
    admitted_from_queue: int = 0
    shed_patience: int = 0
    shed_capacity: int = 0

    def snapshot(self) -> dict:
        return {
            "arrivals": self.arrivals,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "departed": self.departed,
            "peak_concurrent": self.peak_concurrent,
            "bytes_dropped_on_departure": self.bytes_dropped_on_departure,
            "queued": self.queued,
            "admitted_from_queue": self.admitted_from_queue,
            "shed_patience": self.shed_patience,
            "shed_capacity": self.shed_capacity,
        }


class SessionManager:
    """Drives a fleet's arrival/departure process on the simulator.

    Parameters
    ----------
    sim:
        The shared simulator clock.
    fleet:
        The :class:`~repro.fleet.fleet.KhameleonFleet` whose
        ``_admit_session`` / ``_retire_session`` acquire and release the
        per-session resources (fair-share port, throttle share, metrics
        collector).
    arrival:
        The churn process.
    on_admit / on_depart / on_reject:
        Optional hooks, each called with the :class:`SessionRecord`.
        ``on_admit`` fires *after* the session is attached and started —
        the experiment runner uses it to begin replaying the user's
        trace at the (simulated) moment they showed up.
    route:
        Shard routing filter, ``plan_index -> bool``: only planned
        sessions this manager owns are scheduled to arrive.  The plan
        itself stays **global** — every shard materializes the same
        arrival times and dwells from the same seed, then drops the
        sessions routed elsewhere, so a session's timeline is identical
        no matter how many shards the fleet is split into (and
        :meth:`horizon_s` spans the whole fleet's plan, giving every
        shard the same run horizon for lock-step delta sync).
    """

    def __init__(
        self,
        sim: Clock,
        fleet: "KhameleonFleet",
        arrival: ArrivalConfig,
        on_admit: Optional[Callable[[SessionRecord], None]] = None,
        on_depart: Optional[Callable[[SessionRecord], None]] = None,
        on_reject: Optional[Callable[[SessionRecord], None]] = None,
        route: Optional[Callable[[int], bool]] = None,
    ) -> None:
        self.sim = sim
        self.fleet = fleet
        self.arrival = arrival
        self.on_admit = on_admit
        self.on_depart = on_depart
        self.on_reject = on_reject
        self.route = route
        self.plans = arrival.plan(fleet.config.num_sessions)
        self.records = [
            SessionRecord(plan=p)
            for p in self.plans
            if route is None or route(p.index)
        ]
        self.admitted_records: list[SessionRecord] = []  # admission order
        self.stats = ChurnStats()
        self._active: list[SessionRecord] = []
        self._queue: list[SessionRecord] = []  # arrival (FIFO) order
        self._patience_events: dict[int, object] = {}  # record index -> event
        self._arrival_events: list = []
        self._started = False
        self._stopped = False

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Schedule every planned arrival (idempotent)."""
        if self._started:
            return
        self._started = True
        for record in self.records:
            self._arrival_events.append(
                self.sim.schedule_at(record.plan.arrival_s, self._on_arrival, record)
            )

    def stop(self) -> None:
        """End of run: no further admissions; stop sessions still
        attached (their ports stay open so end-of-run accounting matches
        the static fleet's quiesce).  Arrivals still waiting in the
        patience queue are shed — they count as rejected, keeping
        ``arrivals == admitted + rejected``.  Idempotent."""
        self._stopped = True
        for event in self._arrival_events:
            event.cancel()
        self._arrival_events.clear()
        for record in list(self._queue):
            self._shed(record, "patience")
        for record in list(self._active):
            if record.session is not None:
                record.session.stop()
        self._active.clear()

    # -- arrival / departure events -------------------------------------

    def _on_arrival(self, record: SessionRecord) -> None:
        if self._stopped:
            return  # a stopped fleet admits nobody
        record.arrived_at = self.sim.now
        self.stats.arrivals += 1
        cap = self.arrival.max_concurrent
        if cap is not None and len(self._active) >= cap:
            if self.arrival.patience_s <= 0.0:
                # Binary reject-at-cap: the degenerate zero-patience
                # queue, kept byte-for-byte on the original path.
                self.stats.rejected += 1
                if self.on_reject is not None:
                    self.on_reject(record)
                return
            self._enqueue(record)
            return
        self._admit(record)

    def _admit(self, record: SessionRecord) -> None:
        session = self.fleet._admit_session(record.index)
        record.session = session
        record.admitted = True
        record.admitted_at = self.sim.now
        self.admitted_records.append(record)
        self._active.append(record)
        self.stats.admitted += 1
        self.stats.peak_concurrent = max(self.stats.peak_concurrent, len(self._active))
        session.start()
        if self.on_admit is not None:
            self.on_admit(record)
        if record.plan.dwell_s is not None:
            self.sim.schedule(record.plan.dwell_s, self._on_departure, record)

    def _on_departure(self, record: SessionRecord) -> None:
        if record not in self._active:
            return  # already stopped by end-of-run stop()
        self._active.remove(record)
        record.departed_at = self.sim.now
        self.stats.departed += 1
        self.stats.bytes_dropped_on_departure += self.fleet._retire_session(
            record.session
        )
        if self.on_depart is not None:
            self.on_depart(record)
        self._drain_queue()

    # -- patience queue -------------------------------------------------

    def _weight(self, record: SessionRecord) -> float:
        return self.fleet.config.weight_of(record.index)

    def _enqueue(self, record: SessionRecord) -> None:
        depth = self.arrival.queue_depth
        if depth is not None and len(self._queue) >= depth:
            # Weight-aware shedding: the lowest-weight waiter — newcomer
            # included — is dropped; ties shed the newest, preserving
            # queue seniority.  Overload thus sacrifices the arrivals
            # the weighted fair-share link would serve least.
            lightest = min(reversed(self._queue), key=self._weight)
            if self._weight(record) <= self._weight(lightest):
                self.stats.shed_capacity += 1
                self.stats.rejected += 1
                if self.on_reject is not None:
                    self.on_reject(record)
                return
            self._shed(lightest, "capacity")
        self._queue.append(record)
        self.stats.queued += 1
        self._patience_events[record.index] = self.sim.schedule(
            self.arrival.patience_s, self._on_patience_expired, record
        )

    def _shed(self, record: SessionRecord, reason: str) -> None:
        """Remove a waiter from the queue and count it as rejected."""
        self._queue.remove(record)
        event = self._patience_events.pop(record.index, None)
        if event is not None:
            event.cancel()
        if reason == "patience":
            self.stats.shed_patience += 1
        else:
            self.stats.shed_capacity += 1
        self.stats.rejected += 1
        if self.on_reject is not None:
            self.on_reject(record)

    def _on_patience_expired(self, record: SessionRecord) -> None:
        if record in self._queue:
            self._shed(record, "patience")

    def _drain_queue(self) -> None:
        """Admit waiters (FIFO) into slots freed by departures."""
        cap = self.arrival.max_concurrent
        while self._queue and (cap is None or len(self._active) < cap):
            record = self._queue.pop(0)
            event = self._patience_events.pop(record.index, None)
            if event is not None:
                event.cancel()
            self.stats.admitted_from_queue += 1
            self._admit(record)

    # -- introspection -------------------------------------------------

    @property
    def active_count(self) -> int:
        return len(self._active)

    @property
    def queued_count(self) -> int:
        return len(self._queue)

    def arrival_times(self) -> list[float]:
        """Per-admitted-session arrival times, in admission order.

        Parallel to the fleet's ``sessions`` list: both append exactly
        once per admission, inside :meth:`_on_arrival`.
        """
        return [r.arrived_at for r in self.admitted_records]

    def horizon_s(self, trace_duration_of: Callable[[int], float]) -> float:
        """Latest instant any planned session could still be interacting
        (:func:`plan_horizon_s` over this manager's plan)."""
        return plan_horizon_s(self.arrival, self.plans, trace_duration_of)


def plan_horizon_s(
    arrival: ArrivalConfig,
    plans: Sequence[SessionPlan],
    trace_duration_of: Callable[[int], float],
) -> float:
    """Latest instant any session in ``plans`` could still be interacting.

    ``trace_duration_of(index)`` maps a session to its trace length; the
    horizon is the max over sessions of arrival + min(trace, dwell),
    plus the patience allowance when a queue can delay admissions (a
    queued session replays its trace from the moment it is finally
    admitted).  Rejected sessions never interact, but their plans are
    included — rejection is decided at run time, not plan time.  A pure
    function of the plan, so a sharded coordinator and every worker
    agree on the run horizon.
    """
    wait_s = 0.0
    if arrival.max_concurrent is not None and arrival.patience_s > 0:
        wait_s = arrival.patience_s
    horizon = 0.0
    for plan in plans:
        span = trace_duration_of(plan.index)
        if plan.dwell_s is not None:
            span = min(span, plan.dwell_s)
        horizon = max(horizon, plan.arrival_s + wait_s + span)
    return horizon
