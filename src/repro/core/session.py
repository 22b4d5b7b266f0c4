"""One-call assembly of a Khameleon client/server pair (§3.2, §3.4).

:class:`KhameleonSession` is the "import and use" surface the paper
describes: an application supplies its request universe, progressive
encoder (via the backend), utility function, and predictor; the
session builds and wires the cache, scheduler, sender, estimator, and
managers over the links it is given.  The ``sim`` argument is any
:class:`repro.clock.Clock`: a :class:`~repro.sim.engine.Simulator` for
experiments, a :class:`~repro.clock.WallClock` when served live.

Typical use::

    sim = Simulator()
    downlink = FixedRateLink(sim, bytes_per_second=5_625_000,
                             propagation_delay_s=0.0125)
    uplink = ControlChannel(sim, latency_s=0.0125)
    session = KhameleonSession(
        sim=sim, backend=backend, predictor=predictor,
        utility=ssim_image_utility(),
        num_blocks=[encoder.num_blocks(r) for r in range(n)],
        downlink=downlink, uplink=uplink,
        config=SessionConfig(cache_bytes=50_000_000),
    )
    session.start()
    session.client.request(42)
    sim.run(until=180.0)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # core is the lower layer; import upper layers for typing only
    from repro.predictors.base import Predictor
    from repro.backends.base import Backend
    from repro.backends.throttle import BackendThrottle
    from repro.fleet.schedule_service import FleetScheduleService

from repro.core.cache import RingBufferCache
from repro.core.cache_manager import CacheManager
from repro.core.client import KhameleonClient
from repro.core.greedy import GreedyScheduler
from repro.core.predictor_manager import PredictorManager
from repro.core.scheduler import GainTable
from repro.core.sender import Sender
from repro.core.server import KhameleonServer
from repro.core.utility import UtilityFunction
from repro.sim.bandwidth import HarmonicMeanEstimator, ReceiveRateMonitor
from repro.clock import Clock
from repro.sim.link import ControlChannel, Link

__all__ = ["SessionConfig", "KhameleonSession"]


@dataclass
class SessionConfig:
    """Tunables with the paper's §6.1 defaults."""

    cache_bytes: int = 50_000_000
    block_bytes: int = 50_000
    prediction_interval_s: float = 0.150
    rate_report_interval_s: float = 0.150
    gamma: float = 1.0
    lookahead: int = 32
    scheduler_seed: int = 0
    meta_request: bool = True
    initial_bandwidth_bytes_per_s: float = 1_000_000.0
    bandwidth_cap_bytes_per_s: Optional[float] = None
    backend_concurrency: Optional[int] = None

    @property
    def cache_blocks(self) -> int:
        blocks = self.cache_bytes // self.block_bytes
        if blocks < 1:
            raise ValueError(
                f"cache of {self.cache_bytes} B holds no {self.block_bytes} B blocks"
            )
        return int(blocks)


class KhameleonSession:
    """A fully wired client + server over a simulated network."""

    def __init__(
        self,
        sim: Clock,
        backend: "Backend",
        predictor: Predictor,
        utility: UtilityFunction,
        num_blocks: Sequence[int],
        downlink: Link,
        uplink: ControlChannel,
        config: Optional[SessionConfig] = None,
        throttle: Optional["BackendThrottle"] = None,
        schedule_service: Optional["FleetScheduleService"] = None,
    ) -> None:
        self.sim = sim
        self.config = config or SessionConfig()
        cfg = self.config

        self.gains = GainTable(utility, num_blocks)
        n = self.gains.n

        # Server side ------------------------------------------------
        self.mirror = RingBufferCache(cfg.cache_blocks)
        self.scheduler = GreedyScheduler(
            gains=self.gains,
            cache_blocks=cfg.cache_blocks,
            gamma=cfg.gamma,
            mirror=self.mirror,
            meta_request=cfg.meta_request,
            seed=cfg.scheduler_seed,
        )
        self.estimator = HarmonicMeanEstimator(
            cfg.initial_bandwidth_bytes_per_s,
            cap_bytes_per_s=cfg.bandwidth_cap_bytes_per_s,
        )
        # An externally supplied throttle is shared (fleet sessions
        # split one backend's concurrency budget); otherwise the session
        # owns a private one sized by its config.
        if throttle is None and cfg.backend_concurrency is not None:
            from repro.backends.throttle import BackendThrottle

            throttle = BackendThrottle(
                cfg.backend_concurrency, active=lambda: backend.active_requests
            )
        self.throttle = throttle

        # Client side --------------------------------------------------
        self.cache = RingBufferCache(cfg.cache_blocks)
        self.cache_manager = CacheManager(
            clock=sim,
            cache=self.cache,
            num_blocks_of=self.gains.blocks_of,
            utility=utility,
        )

        self.sender = Sender(
            sim=sim,
            scheduler=self.scheduler,
            backend=backend,
            link=downlink,
            estimator=self.estimator,
            deliver=self._deliver,
            mirror=self.mirror,
            throttle=throttle,
            lookahead=cfg.lookahead,
        )
        self.server = KhameleonServer(
            sim=sim,
            scheduler=self.scheduler,
            sender=self.sender,
            predictor_server=predictor.server,
            deltas_s=predictor.deltas_s,
            estimator=self.estimator,
            nominal_block_bytes=cfg.block_bytes,
            num_requests=n,
        )

        # With a fleet schedule service the session's prediction tick is
        # coalesced into the fleet's single periodic event: the manager
        # keeps the state/dedup/accounting logic (polled by the service)
        # but owns no periodic task and never touches the uplink.
        self._schedule_service = schedule_service
        self.predictor_manager = PredictorManager(
            sim=sim,
            client_predictor=predictor.client,
            send_state=lambda state: uplink.send(self.server.on_predictor_state, state),
            interval_s=cfg.prediction_interval_s,
            autostart=schedule_service is None,
        )
        self.rate_monitor = ReceiveRateMonitor(
            sim=sim,
            interval_s=cfg.rate_report_interval_s,
            publish=lambda rate: uplink.send(self.server.on_rate_report, rate),
        )
        self.client = KhameleonClient(
            sim=sim,
            cache_manager=self.cache_manager,
            predictor_manager=self.predictor_manager,
            rate_monitor=self.rate_monitor,
        )
        self.backend = backend
        self.downlink = downlink
        self.uplink = uplink
        self._started = False
        self._stopped = False

    # -- lifecycle -----------------------------------------------------
    #
    # Sessions are attachable/detachable units: a fleet's lifecycle
    # manager starts one when its user arrives and stops it when the
    # user departs, possibly mid-simulation.  Both transitions are
    # idempotent, and a stopped session fires no further application
    # events — late wire deliveries are dropped, not upcalled.

    @property
    def started(self) -> bool:
        return self._started

    @property
    def active(self) -> bool:
        """Started and not yet stopped (attached to its resources)."""
        return self._started and not self._stopped

    def _deliver(self, block) -> None:
        if self._stopped:
            return  # departed: blocks already on the wire land silently
        self.client.on_block(block)

    def start(self) -> None:
        """Start pushing (before running the simulator, or at arrival)."""
        if self._started:
            return
        self._started = True
        if self._schedule_service is not None:
            self._schedule_service.register(self)
        self.server.start()

    def stop(self) -> None:
        """Stop pushing, cancel periodic tasks, finalize pending requests.

        Idempotent.  After this no upcalls, predictor states, or rate
        reports are produced, so a departed session is inert even while
        its last blocks drain off the shared link.
        """
        if self._stopped:
            return
        self._stopped = True
        if self._schedule_service is not None:
            self._schedule_service.unregister(self)
        self.sender.stop()
        self.client.stop()
