"""The serving app: the Khameleon fleet stack behind a WebSocket port.

:func:`create_app` takes the same :class:`FleetEnvironment` the
simulator experiments use and assembles the *identical* serving stack —
:class:`~repro.fleet.fleet.KhameleonFleet` (shared backend + §5.4
throttle), :class:`~repro.fleet.schedule_service.FleetScheduleService`
(one coalesced prediction tick), a
:class:`~repro.sim.fairshare.SharedDownlink` (weighted fair sharing of
the configured egress bandwidth) — on a
:class:`~repro.clock.WallClock` instead of a simulator.  Nothing in the
fleet layer knows the difference: the clock seam is the whole story.

Session lifecycle maps 1:1 onto the fleet's attach/detach points:

* a WebSocket connection's ``hello`` is an *arrival* — subject to the
  same admission cap a churn fleet's
  :class:`~repro.fleet.lifecycle.SessionManager` enforces, and carrying
  an optional fair-share ``weight`` for its downlink port;
* an admitted connection gets a full
  :class:`~repro.core.session.KhameleonSession` via
  :meth:`KhameleonFleet._admit_session` — predictor, scheduler, mirror,
  sender, cache manager — plus a tap on the sender's delivery callback
  that frames every scheduled block onto the socket.  The
  server-resident client model keeps receiving blocks too, so the §6.1
  metric surfaces (:mod:`repro.metrics`) observe the live session
  exactly as they observe a simulated one;
* a disconnect (or ``bye``) is a *departure*:
  :meth:`KhameleonFleet._retire_session` stops the session, releases
  its throttle share, and drops its port's backlog so surviving
  sessions immediately reclaim the capacity.

The modeled egress link is the pacing authority: blocks reach the
socket at the configured bandwidth/latency, so one serve process
emulates the paper's netem conditions over a real network.
"""

from __future__ import annotations

import asyncio
import json
import secrets
from dataclasses import dataclass, replace
from typing import Optional

from repro.chaos import ChaosConfig
from repro.clock import WallClock
from repro.core.blocks import Block
from repro.core.session import KhameleonSession, SessionConfig
from repro.experiments.configs import FleetEnvironment
from repro.fleet.fleet import FleetConfig, KhameleonFleet
from repro.fleet.lifecycle import ArrivalConfig
from repro.metrics.collector import collect
from repro.metrics.fleet import TRANSPORT_COUNTER_ZERO
from repro.predictors.base import MouseEvent
from repro.predictors.shared import SharedTransitionPrior, make_shared_markov_predictor
from repro.sim.fairshare import SharedDownlink
from repro.sim.link import ControlChannel, FixedRateLink
from repro.workloads.image_app import ImageExplorationApp

from . import protocol, ws

__all__ = ["create_app", "KhameleonServeApp", "ServeStats"]

#: Clamp for client-requested fair-share weights: enough range to
#: demonstrate weighted sharing, not enough to starve the fleet.
MIN_WEIGHT, MAX_WEIGHT = 0.1, 10.0

#: Predictors that need the replayed trace up front cannot serve live.
_LIVE_PREDICTORS = ("kalman", "uniform", "point", "markov", "shared-markov")


@dataclass
class ServeStats:
    """Server-lifetime counters (exposed for tests and the CLI)."""

    sessions_admitted: int = 0
    sessions_rejected: int = 0
    sessions_detached: int = 0
    blocks_pushed: int = 0
    bytes_pushed: int = 0
    frames_dropped: int = 0
    events_received: int = 0
    requests_received: int = 0
    pings_sent: int = 0
    idle_closed: int = 0
    #: Durable-session lifecycle: abrupt disconnects parked within the
    #: resume grace, token reconnects that reattached, and reconnect
    #: attempts turned away (unknown or expired token).
    sessions_parked: int = 0
    sessions_resumed: int = 0
    resume_rejected: int = 0
    #: ``disconnect:P@S`` chaos faults fired (server-side socket abort).
    disconnects_injected: int = 0


@dataclass
class _Connection:
    """Bookkeeping for one live WebSocket session."""

    index: int
    session: KhameleonSession
    socket: ws.WebSocket
    outbox: asyncio.Queue
    blocks_pushed: int = 0
    bytes_pushed: int = 0
    frames_dropped: int = 0
    detached: bool = False
    pump: Optional[asyncio.Task] = None
    pinger: Optional[asyncio.Task] = None
    pings_sent: int = 0
    last_recv_s: float = 0.0
    #: Server-issued resume token (in the welcome); a reconnecting
    #: client presents it to reattach to this exact session.
    token: str = ""
    #: Parked: the socket died but the session lives on, queueing into
    #: the bounded outbox, until the grace timer expires or the client
    #: reattaches.
    parked: bool = False
    park_timer: Optional[asyncio.Task] = None
    chaos_timer: Optional[asyncio.Task] = None
    said_bye: bool = False
    resumes: int = 0


class KhameleonServeApp:
    """A wall-clock Khameleon fleet serving WebSocket clients.

    Build with :func:`create_app`, then ``await start()`` inside a
    running event loop (the :class:`WallClock` needs one).  ``stop()``
    retires every live session and cancels the fleet's periodic tasks,
    so a served process can shut down as cleanly as a simulation ends.
    """

    def __init__(
        self,
        fleet_env: FleetEnvironment,
        *,
        rows: int = 12,
        cols: int = 12,
        predictor: str = "kalman",
        host: str = "127.0.0.1",
        port: int = 0,
        prior: Optional[SharedTransitionPrior] = None,
        outbox_depth: int = 1024,
        ping_interval_s: float = 20.0,
        ping_max_misses: int = 3,
        resume_grace_s: float = 0.0,
        chaos: Optional[ChaosConfig] = None,
        checkpoint_out: Optional[str] = None,
        checkpoint_in: Optional[str] = None,
    ) -> None:
        if outbox_depth < 1:
            raise ValueError("outbox_depth must be >= 1")
        if ping_interval_s < 0:
            raise ValueError("ping_interval_s must be >= 0 (0 disables)")
        if ping_max_misses < 1:
            raise ValueError("ping_max_misses must be >= 1")
        if resume_grace_s < 0:
            raise ValueError("resume_grace_s must be >= 0 (0 disables)")
        if predictor not in _LIVE_PREDICTORS:
            raise ValueError(
                f"predictor {predictor!r} cannot serve live sessions "
                f"(choose from {_LIVE_PREDICTORS})"
            )
        self.fleet_env = fleet_env
        self.predictor = predictor
        self.host = host
        self.port = port
        self.app = ImageExplorationApp(rows, cols)
        self.prior = prior if prior is not None else SharedTransitionPrior(
            self.app.num_requests
        )
        if self.prior.n != self.app.num_requests:
            raise ValueError(
                f"prior over {self.prior.n} requests, app has {self.app.num_requests}"
            )
        arrival = fleet_env.arrival
        self.max_concurrent: int = (
            arrival.max_concurrent
            if arrival is not None and arrival.max_concurrent is not None
            else fleet_env.num_sessions
        )
        #: Per-session outbox backpressure bound (frames).  When the
        #: real socket drains slower than the modeled link delivers,
        #: frames beyond this depth are shed and counted, never
        #: buffered unboundedly (``--outbox-depth`` on the CLI).
        self.outbox_depth = outbox_depth
        #: WS-level liveness: on a quiet connection the server
        #: originates a ping every ``ping_interval_s`` and closes the
        #: socket after ``ping_max_misses`` consecutive unanswered
        #: pings — a half-open TCP peer stops holding an admission slot.
        #: 0 disables the prober (``--ping-interval`` on the CLI).
        self.ping_interval_s = ping_interval_s
        self.ping_max_misses = ping_max_misses
        #: Reconnect-and-resume: an abrupt disconnect parks the session
        #: (pipeline, weight, metrics intact) for this many seconds; a
        #: ``hello`` carrying the session's resume token reattaches.
        #: 0 disables parking (``--resume-grace`` on the CLI).
        self.resume_grace_s = resume_grace_s
        #: Server-side fault injection: ``disconnect:P@S`` aborts
        #: session P's socket S seconds after admission.
        self.chaos = chaos
        #: Drain/restore lifecycle: ``stop()`` persists the crowd prior
        #: and resume-token table to ``checkpoint_out``; ``start()``
        #: warms from ``checkpoint_in`` and honors its tokens for
        #: ``resume_grace_s`` after boot.
        self.checkpoint_out = checkpoint_out
        self.checkpoint_in = checkpoint_in
        self.stats = ServeStats()
        self.clock: Optional[WallClock] = None
        self.fleet: Optional[KhameleonFleet] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._live: dict[int, _Connection] = {}
        self._parked: dict[str, _Connection] = {}
        #: Tokens honored across a drain/restart cycle (token → weight),
        #: loaded from ``checkpoint_in``.
        self._restored_tokens: dict[str, float] = {}
        self._started_at = 0.0
        self._draining = False
        self._next_index = 0
        # Grows with admissions; ``FleetConfig.weight_of`` reads it at
        # admission time, so per-client hello weights take effect.
        self._weights: list[float] = []
        self._tasks: set[asyncio.Task] = set()

    # -- lifecycle ---------------------------------------------------

    async def start(self) -> None:
        """Assemble the stack on a wall clock and bind the socket."""
        loop = asyncio.get_running_loop()
        env = self.fleet_env.env
        clock = WallClock(loop)
        self.clock = clock
        backend = self.app.make_backend(clock, fetch_delay_s=env.backend_delay_s)
        egress = FixedRateLink(
            clock,
            bytes_per_second=env.bandwidth_bytes_per_s,
            propagation_delay_s=env.one_way_latency_s,
        )
        session_cfg = SessionConfig(
            cache_bytes=env.cache_bytes,
            block_bytes=self.app.block_bytes,
            initial_bandwidth_bytes_per_s=env.bandwidth_bytes_per_s,
        )
        # Arrivals come from real sockets, not a planned process: a
        # non-static ArrivalConfig stops the fleet from pre-building
        # sessions, and the frontend drives _admit/_retire itself with
        # the same admission cap a SessionManager would apply.
        cfg = replace(
            self.fleet_env.fleet_config(session_cfg),
            weights=None,
            arrival=ArrivalConfig(max_concurrent=self.max_concurrent),
        )
        self.fleet = KhameleonFleet(
            sim=clock,
            backend=backend,
            make_predictor=self._make_predictor,
            utility=self.app.utility,
            num_blocks=self.app.num_blocks,
            downlink=SharedDownlink(clock, egress),
            make_uplink=lambda i: ControlChannel(clock, latency_s=0.0),
            config=cfg,
        )
        # Live weights: grown per admission, read by weight_of(i).
        self.fleet.config.weights = self._weights
        if self.checkpoint_in is not None:
            self._load_checkpoint(self.checkpoint_in)
        self._started_at = clock.now
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful drain: stop admissions, say goodbye, checkpoint, halt.

        Every connected client gets a WebSocket close 1001 ("going
        away") with a drain reason *before* its session is detached, so
        well-behaved reconnect logic knows not to retry.  With
        ``checkpoint_out`` set, the crowd prior and resume-token table
        are persisted so a restarted server (``checkpoint_in``) can
        honor the same tokens.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        conns = list(self._live.values()) + list(self._parked.values())
        for conn in conns:
            try:
                await conn.socket.close(code=1001, reason="going away: drain")
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        for conn in conns:
            self._detach(conn)
        for conn in list(self._live.values()) + list(self._parked.values()):
            self._detach(conn)
        if self.checkpoint_out is not None:
            self._write_checkpoint(self.checkpoint_out, conns)
        if self.fleet is not None:
            self.fleet.stop()

    # -- fleet wiring ------------------------------------------------

    def _make_predictor(self, i: int):
        if self.predictor == "shared-markov":
            return make_shared_markov_predictor(self.app.num_requests, self.prior)
        return self.app.make_predictor(self.predictor)

    def _admit(self, socket: ws.WebSocket, weight: float) -> _Connection:
        assert self.fleet is not None
        i = self._next_index
        self._next_index += 1
        while len(self._weights) <= i:
            self._weights.append(1.0)
        self._weights[i] = min(MAX_WEIGHT, max(MIN_WEIGHT, weight))
        session = self.fleet._admit_session(i)
        conn = _Connection(
            index=i,
            session=session,
            socket=socket,
            outbox=asyncio.Queue(maxsize=self.outbox_depth),
            token=secrets.token_hex(16),
        )
        # Tap the delivery callback: every block the modeled link
        # delivers goes to the socket *and* to the server-resident
        # client model (mirror, receive rate, §6.1 outcomes).
        downstream = session.sender.deliver

        def deliver(block: Block) -> None:
            if not conn.detached:
                self._push_block(conn, block)
            downstream(block)

        session.sender.deliver = deliver
        session.start()
        self._live[i] = conn
        self.stats.sessions_admitted += 1
        return conn

    def _detach(self, conn: _Connection) -> None:
        """Departure: idempotent retire + resource release."""
        if conn.detached:
            return
        conn.detached = True
        assert self.fleet is not None
        self.fleet._retire_session(conn.session)
        self._live.pop(conn.index, None)
        if conn.parked:
            self._parked.pop(conn.token, None)
            conn.parked = False
        self.stats.sessions_detached += 1
        if conn.pump is not None:
            conn.pump.cancel()
        if conn.pinger is not None:
            conn.pinger.cancel()
        if conn.park_timer is not None:
            conn.park_timer.cancel()
        if conn.chaos_timer is not None:
            conn.chaos_timer.cancel()

    # -- park / resume -------------------------------------------------

    def _park(self, conn: _Connection) -> None:
        """An abrupt disconnect within the grace window: keep the
        session running — scheduler, fair-share weight, metrics — with
        pushed frames queueing into the bounded outbox (shed past the
        depth, as for a slow socket), until the client reattaches with
        its token or the grace timer gives up."""
        if conn.detached or conn.parked:
            return
        conn.parked = True
        self._live.pop(conn.index, None)
        self._parked[conn.token] = conn
        self.stats.sessions_parked += 1
        if conn.pump is not None:
            conn.pump.cancel()
            conn.pump = None
        if conn.pinger is not None:
            conn.pinger.cancel()
            conn.pinger = None
        conn.park_timer = asyncio.ensure_future(self._expire_parked(conn))
        self._tasks.add(conn.park_timer)
        conn.park_timer.add_done_callback(self._tasks.discard)

    async def _expire_parked(self, conn: _Connection) -> None:
        try:
            await asyncio.sleep(self.resume_grace_s)
        except asyncio.CancelledError:
            return
        if conn.parked and not conn.detached:
            self._detach(conn)

    def _resume(self, conn: _Connection, socket: ws.WebSocket) -> None:
        """Reattach a parked session to a fresh socket, state intact."""
        self._parked.pop(conn.token, None)
        if conn.park_timer is not None:
            conn.park_timer.cancel()
            conn.park_timer = None
        conn.parked = False
        conn.socket = socket
        conn.resumes += 1
        self._live[conn.index] = conn
        self.stats.sessions_resumed += 1

    def _welcome_message(self, conn: _Connection, resumed: bool = False) -> str:
        layout = self.app.layout
        return protocol.encode_message(
            "welcome",
            protocol=protocol.PROTOCOL_VERSION,
            session=conn.index,
            token=conn.token,
            resumed=resumed,
            num_requests=self.app.num_requests,
            rows=layout.rows,
            cols=layout.cols,
            cell_width=layout.cell_width,
            cell_height=layout.cell_height,
            block_bytes=self.app.block_bytes,
        )

    def _push_block(self, conn: _Connection, block: Block) -> None:
        frame = protocol.encode_block(block)
        try:
            conn.outbox.put_nowait(frame)
        except asyncio.QueueFull:
            # The real socket is slower than the modeled link; shed the
            # frame rather than buffer unboundedly.  The server-side
            # mirror keeps its optimistic view — same as genuine loss.
            conn.frames_dropped += 1
            self.stats.frames_dropped += 1
            return
        conn.blocks_pushed += 1
        conn.bytes_pushed += block.size_bytes
        self.stats.blocks_pushed += 1
        self.stats.bytes_pushed += block.size_bytes

    # -- connection handling -----------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        try:
            socket = await ws.accept(reader, writer, http_handler=self._http_request)
        except (ws.WebSocketError, OSError):
            writer.close()
            return
        if socket is None:
            # Plain HTTP, answered by _http_request (GET /status).
            writer.close()
            return
        conn: Optional[_Connection] = None
        try:
            hello = await self._expect_hello(socket)
            if hello is None:
                return
            token = hello.get("resume")
            if token is not None:
                conn = await self._handle_resume(str(token), socket)
                if conn is None:
                    return
            else:
                reason = None
                if self._draining:
                    reason = "going away: drain"
                elif len(self._live) + len(self._parked) >= self.max_concurrent:
                    # Parked sessions still hold their slot: their
                    # resources are live until the grace expires.
                    reason = "admission cap reached"
                if reason is not None:
                    self.stats.sessions_rejected += 1
                    socket.send_text(
                        protocol.encode_message("reject", reason=reason)
                    )
                    await socket.drain()
                    return
                conn = self._admit(socket, float(hello.get("weight", 1.0)))
                socket.send_text(self._welcome_message(conn))
                await socket.drain()
                self._arm_chaos_disconnect(conn)
            conn.pump = asyncio.ensure_future(self._pump(conn))
            if self.ping_interval_s > 0:
                conn.last_recv_s = self.clock.now
                conn.pinger = asyncio.ensure_future(self._ping_loop(conn))
            await self._read_loop(conn)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        except asyncio.CancelledError:
            # Cancelled by stop(): the socket already received its 1001
            # close.  Finishing non-cancelled lets the finally detach
            # cleanly and keeps 3.11's streams done-callback (which
            # calls task.exception()) from logging the cancellation.
            pass
        finally:
            if conn is not None:
                if (
                    self.resume_grace_s > 0
                    and not conn.said_bye
                    and not self._draining
                    and not conn.detached
                ):
                    # Abrupt socket loss: park for the grace window
                    # instead of retiring — the pipeline keeps running.
                    self._park(conn)
                else:
                    self._detach(conn)
            try:
                await socket.close()
            except asyncio.CancelledError:
                # stop() cancelled us while we waited on the closing
                # handshake; the transport is torn down regardless.
                pass

    async def _handle_resume(
        self, token: str, socket: ws.WebSocket
    ) -> Optional[_Connection]:
        """A ``hello`` carrying a resume token: reattach or reject."""
        parked = self._parked.get(token)
        if parked is not None and not self._draining:
            self._resume(parked, socket)
            socket.send_text(self._welcome_message(parked, resumed=True))
            await socket.drain()
            return parked
        if (
            token in self._restored_tokens
            and not self._draining
            and self.clock is not None
            and self.clock.now - self._started_at <= self.resume_grace_s
            and len(self._live) + len(self._parked) < self.max_concurrent
        ):
            # A token honored across a drain/restart cycle: the old
            # process checkpointed it, this one admits a fresh session
            # under the same contract (resumed, not re-queued).
            weight = self._restored_tokens.pop(token)
            conn = self._admit(socket, weight)
            self.stats.sessions_resumed += 1
            socket.send_text(self._welcome_message(conn, resumed=True))
            await socket.drain()
            return conn
        self.stats.resume_rejected += 1
        socket.send_text(
            protocol.encode_message(
                "reject", reason="unknown or expired resume token"
            )
        )
        await socket.drain()
        return None

    def _arm_chaos_disconnect(self, conn: _Connection) -> None:
        """Schedule a ``disconnect:P@S`` fault for a fresh admission."""
        if self.chaos is None:
            return
        at_s = self.chaos.disconnect_at(conn.index)
        if at_s is None:
            return

        async def fire() -> None:
            try:
                await asyncio.sleep(at_s)
            except asyncio.CancelledError:
                return
            if conn.detached or conn.parked or conn.socket.closed:
                return
            self.stats.disconnects_injected += 1
            # An abrupt network drop: no closing handshake, just RST —
            # exactly what reconnect-and-resume must absorb.
            transport = conn.socket.writer.transport
            transport.abort()

        conn.chaos_timer = asyncio.ensure_future(fire())
        self._tasks.add(conn.chaos_timer)
        conn.chaos_timer.add_done_callback(self._tasks.discard)

    async def _expect_hello(self, socket: ws.WebSocket) -> Optional[dict]:
        try:
            item = await asyncio.wait_for(socket.recv(), timeout=10.0)
        except asyncio.TimeoutError:
            return None
        if item is None or item[0] != ws.OP_TEXT:
            return None
        msg = protocol.decode_message(item[1].decode("utf-8", "replace"))
        if msg is None or msg["type"] != "hello":
            return None
        return msg

    async def _read_loop(self, conn: _Connection) -> None:
        client = conn.session.client
        while True:
            item = await conn.socket.recv()
            if item is None:
                return
            conn.last_recv_s = self.clock.now
            opcode, payload = item
            if opcode != ws.OP_TEXT:
                continue
            msg = protocol.decode_message(payload.decode("utf-8", "replace"))
            if msg is None:
                continue
            kind = msg["type"]
            if kind == "event":
                try:
                    event = MouseEvent(float(msg["x"]), float(msg["y"]))
                except (KeyError, TypeError, ValueError):
                    continue
                self.stats.events_received += 1
                client.observe(event)
            elif kind == "request":
                try:
                    request = int(msg["id"])
                except (KeyError, TypeError, ValueError):
                    continue
                if not 0 <= request < self.app.num_requests:
                    continue
                self.stats.requests_received += 1
                client.request(request)
            elif kind == "bye":
                conn.said_bye = True
                conn.socket.send_text(self._stats_message(conn))
                await conn.socket.drain()
                return
            # unknown types: ignored (forward compatibility)

    def _stats_message(self, conn: _Connection) -> str:
        """The server's §6.1 view of one session, via repro.metrics."""
        outcomes = conn.session.cache_manager.outcomes
        summary = collect(outcomes).as_dict() if outcomes else {}
        return protocol.encode_message(
            "stats",
            session=conn.index,
            blocks_pushed=conn.blocks_pushed,
            bytes_pushed=conn.bytes_pushed,
            frames_dropped=conn.frames_dropped,
            blocks_sent=conn.session.sender.blocks_sent,
            server_metrics=summary,
        )

    # -- plain HTTP sidecar --------------------------------------------

    def status_snapshot(self) -> dict:
        """Fleet-wide serving stats (the ``GET /status`` JSON body)."""
        s = self.stats
        return {
            "sessions_live": len(self._live),
            "sessions_admitted": s.sessions_admitted,
            "sessions_rejected": s.sessions_rejected,
            "sessions_detached": s.sessions_detached,
            "admission_cap": self.max_concurrent,
            "blocks_pushed": s.blocks_pushed,
            "bytes_pushed": s.bytes_pushed,
            "frames_dropped": s.frames_dropped,
            "outbox_depth": self.outbox_depth,
            "events_received": s.events_received,
            "requests_received": s.requests_received,
            "pings_sent": s.pings_sent,
            "idle_closed": s.idle_closed,
            "ping_interval_s": self.ping_interval_s,
            # Durable sessions: parked right now, lifetime park/resume
            # counters, and the resume contract's knobs.
            "sessions_parked_now": len(self._parked),
            "sessions_parked": s.sessions_parked,
            "sessions_resumed": s.sessions_resumed,
            "resume_rejected": s.resume_rejected,
            "resume_grace_s": self.resume_grace_s,
            "disconnects_injected": s.disconnects_injected,
            "draining": self._draining,
            "predictor": self.predictor,
            # The crowd prior's "version mass": total transition count,
            # which only grows — the same quantity the sharded fleet's
            # CRDT deltas carry per row.
            "prior_version_mass": self.prior.transitions_observed,
            # One serving process has no coordinator wire, so the
            # transport counters are structurally zero — same shape as
            # a sharded run's pooled totals, so dashboards never branch.
            "transport": {
                "driver": "local",
                "totals": dict(TRANSPORT_COUNTER_ZERO),
            },
        }

    def _http_request(self, start: str, headers: dict) -> Optional[tuple[int, str, str]]:
        """Non-upgrade requests: serve ``GET /status``, 404 the rest."""
        parts = start.split(" ")
        if len(parts) < 2 or parts[0] != "GET":
            return None
        path = parts[1].split("?", 1)[0]
        if path == "/status":
            return 200, "application/json", json.dumps(self.status_snapshot())
        return 404, "application/json", json.dumps({"error": "not found"})

    # -- drain/restore checkpoint --------------------------------------

    #: File magic + version for the serve-side checkpoint (the fleet
    #: runner has its own bundle format in repro.fleet.checkpoint).
    CHECKPOINT_MAGIC = "khameleon-serve-checkpoint"
    CHECKPOINT_VERSION = 1

    def _write_checkpoint(self, path: str, conns: list[_Connection]) -> None:
        """Persist the crowd prior (COO) and the resume-token table."""
        payload = {
            "format": self.CHECKPOINT_MAGIC,
            "format_version": self.CHECKPOINT_VERSION,
            "n": self.app.num_requests,
            "tokens": {
                c.token: {
                    "index": c.index,
                    "weight": (
                        self._weights[c.index]
                        if c.index < len(self._weights)
                        else 1.0
                    ),
                }
                for c in conns
                if c.token
            },
            "prior": {
                "transitions_observed": self.prior.transitions_observed,
                "coo": [list(item) for item in self.prior.coo_items()],
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)

    def _load_checkpoint(self, path: str) -> None:
        """Warm the prior and token table from a drained predecessor.

        Fail-fast validation in the style of
        :meth:`SharedTransitionPrior.load`: not-a-checkpoint, version,
        and universe mismatches each raise a clear :class:`ValueError`
        before any client connects.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path!s} is not a saved checkpoint: {exc}") from exc
        if (
            not isinstance(payload, dict)
            or payload.get("format") != self.CHECKPOINT_MAGIC
        ):
            raise ValueError(f"{path!s} is not a saved checkpoint")
        version = payload.get("format_version")
        if version != self.CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint format v{version} unsupported "
                f"(expected v{self.CHECKPOINT_VERSION})"
            )
        saved_n = payload.get("n")
        if saved_n != self.app.num_requests:
            raise ValueError(
                f"checkpoint over {saved_n} requests, "
                f"expected {self.app.num_requests}"
            )
        for entry in payload.get("prior", {}).get("coo", []):
            prev, nxt, count = entry
            self.prior.warm(int(prev), int(nxt), int(count))
        for token, info in payload.get("tokens", {}).items():
            try:
                weight = float(info.get("weight", 1.0))
            except (AttributeError, TypeError, ValueError):
                weight = 1.0
            self._restored_tokens[str(token)] = weight

    async def _ping_loop(self, conn: _Connection) -> None:
        """Probe a quiet connection; close it once pongs stop coming.

        A connection carrying data frames is demonstrably alive, so
        pings only go out when the socket has been idle a full
        interval.  Each unanswered ping widens the ``pings_sent -
        pongs_received`` gap; at ``ping_max_misses`` the peer is
        declared half-open and the socket closed, which unwinds the
        read loop and frees the admission slot.
        """
        socket = conn.socket
        try:
            while not conn.detached and not socket.closed:
                await asyncio.sleep(self.ping_interval_s)
                if conn.detached or socket.closed:
                    return
                assert self.clock is not None
                if self.clock.now - conn.last_recv_s < self.ping_interval_s:
                    continue  # data traffic is proof of life
                missed = conn.pings_sent - socket.pongs_received
                if missed >= self.ping_max_misses:
                    self.stats.idle_closed += 1
                    await socket.close()
                    return
                socket.send_ping()
                conn.pings_sent += 1
                self.stats.pings_sent += 1
                await socket.drain()
        except (
            asyncio.CancelledError,
            ConnectionResetError,
            BrokenPipeError,
            OSError,
        ):
            return

    async def _pump(self, conn: _Connection) -> None:
        """Drain the outbox onto the socket (its own task per session)."""
        try:
            while True:
                frame = await conn.outbox.get()
                conn.socket.send_binary(frame)
                await conn.socket.drain()
        except (
            asyncio.CancelledError,
            ConnectionResetError,
            BrokenPipeError,
            OSError,
        ):
            return


def create_app(fleet_env: FleetEnvironment, **kwargs) -> KhameleonServeApp:
    """App factory: a wall-clock serving frontend for one fleet condition.

    ``fleet_env`` carries the environment (bandwidth, latency, cache),
    the expected population (``num_sessions``), the shared backend
    budget, and — via ``arrival.max_concurrent`` — the admission cap.
    Keyword arguments (grid size, predictor, host/port, a pre-warmed
    crowd prior) are forwarded to :class:`KhameleonServeApp`.
    """
    return KhameleonServeApp(fleet_env, **kwargs)
