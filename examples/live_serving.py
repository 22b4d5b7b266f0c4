"""Live serving: a scripted user against the real WebSocket port.

Every other example drives the stack through the discrete-event
:class:`~repro.sim.engine.Simulator`.  This one exercises the *other*
clock: it connects to ``python -m repro serve`` over a real socket,
replays a generated mouse trace in wall-clock time (the same
saccade/dwell model the experiments use), and rebuilds the paper's
§6.1 metrics from the client's side of the wire.

The number to watch is **prefetched hits**: requests whose first block
was already sitting on this client when the user asked for it.  Those
blocks crossed the network purely because the server's predictor and
scheduler decided to push them — the continuous-prefetch architecture
doing its job over a real port.

Run against a server you started yourself::

    PYTHONPATH=src python -m repro serve --port 8787 &
    PYTHONPATH=src python examples/live_serving.py --port 8787

or let the example boot (and tear down) its own server on an
ephemeral port — this is also the CI smoke invocation::

    PYTHONPATH=src python examples/live_serving.py --spawn-server --check
"""

from __future__ import annotations

import argparse
import asyncio
import os
import re
import subprocess
import sys
import time

from repro.predictors.layout import GridLayout
from repro.serve.client import AdmissionRejected, LiveClient
from repro.workloads.mouse import MouseTraceGenerator


async def run_session(
    host: str,
    port: int,
    duration_s: float,
    seed: int,
    linger_s: float,
    auto_reconnect: bool = False,
) -> tuple[object, int]:
    """Replay one mouse trace; returns (LiveReport, exit status)."""
    try:
        client = await LiveClient.connect(
            host, port, auto_reconnect=auto_reconnect
        )
    except AdmissionRejected as exc:
        print(f"rejected by admission control: {exc}")
        return exc.report, 1

    welcome = client.report.welcome
    layout = GridLayout(
        rows=welcome["rows"],
        cols=welcome["cols"],
        cell_width=welcome["cell_width"],
        cell_height=welcome["cell_height"],
    )
    trace = MouseTraceGenerator(layout, seed=seed).generate(duration_s=duration_s)
    print(
        f"session {welcome['session']}: {welcome['num_requests']} requests, "
        f"{layout.rows}x{layout.cols} grid, replaying "
        f"{len(trace.events)} events over {duration_s:.1f} s"
    )

    async with client:
        start = time.monotonic()
        for event in trace.events:
            delay = event.time_s - (time.monotonic() - start)
            if delay > 0:
                await asyncio.sleep(delay)
            # Across an injected disconnect the socket may be mid-splice;
            # sends fail soft and the replay keeps its wall-clock pace.
            try:
                client.send_event(event.x, event.y)
                if event.request is not None:
                    client.send_request(event.request)
                await client.drain()
            except (ConnectionError, OSError):
                pass
        # Let in-flight pushes land before asking for the bill.
        await asyncio.sleep(linger_s)
        report = await client.bye()
    if report.resumes:
        print(
            f"reconnected {report.resumes}x "
            f"(first at t={report.resumed_at[0]:.2f}s)"
        )
    return report, 0


def print_report(report) -> None:
    rows = [("blocks received", len(report.blocks)),
            ("bytes received", report.bytes_received),
            ("requests issued", len(report.requests)),
            ("prefetched hits", report.prefetched_hits),
            ("unrequested blocks", report.unrequested_blocks),
            ("reconnects", report.resumes)]
    width = max(len(k) for k, _ in rows)
    print("\n-- client wire accounting --")
    for key, value in rows:
        print(f"  {key:<{width}}  {value}")
    if report.requests:
        print("\n-- client-observed metrics (repro.metrics) --")
        for key, value in report.summary().as_dict().items():
            label = str(key)
            text = f"{value:.3f}" if isinstance(value, float) else str(value)
            print(f"  {label:<18} {text}")
    if report.server_stats:
        print("\n-- server-side session stats --")
        for key, value in sorted(report.server_stats.items()):
            if key == "type":
                continue
            text = f"{value:.3f}" if isinstance(value, float) else str(value)
            print(f"  {key:<18} {text}")


def spawn_server(args) -> tuple[subprocess.Popen, int]:
    """Boot ``python -m repro serve --port 0``; parse the bound port."""
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--host", args.host, "--port", "0",
        "--scale", args.scale,
        "--predictor", args.predictor,
    ]
    if args.disconnect_at > 0:
        # Server-side fault injection: abort this session's socket
        # mid-trace, and park it so the token reconnect can land.
        cmd += [
            "--chaos", f"disconnect:0@{args.disconnect_at:g}",
            "--resume-grace", "30",
        ]
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=os.environ.copy(),
    )
    deadline = time.monotonic() + 30.0
    assert proc.stdout is not None
    while True:
        if time.monotonic() > deadline:
            proc.terminate()
            raise RuntimeError("server did not report its port within 30 s")
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited early (rc={proc.wait()})")
        print(f"[server] {line.rstrip()}")
        match = re.search(r"serving on ws://[^:]+:(\d+)/", line)
        if match:
            return proc, int(match.group(1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8787)
    parser.add_argument(
        "--duration", type=float, default=6.0,
        help="mouse-trace length in (wall-clock) seconds (default: 6)",
    )
    parser.add_argument("--seed", type=int, default=7, help="trace seed")
    parser.add_argument(
        "--linger", type=float, default=1.5,
        help="seconds to keep listening after the trace ends (default: 1.5)",
    )
    parser.add_argument(
        "--spawn-server", action="store_true",
        help="boot 'python -m repro serve' on an ephemeral port first",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit nonzero unless blocks arrived and >=1 was prefetched "
        "(with --disconnect-at: also requires exactly one token "
        "reconnect and >=1 post-resume prefetched hit)",
    )
    parser.add_argument(
        "--disconnect-at", type=float, default=0.0, metavar="SECONDS",
        help="with --spawn-server: inject a server-side socket abort "
        "this long into the session and auto-reconnect through it "
        "(0 disables; default: 0)",
    )
    parser.add_argument("--scale", default="quick",
                        help="spawned server's grid scale (default: quick)")
    parser.add_argument("--predictor", default="kalman",
                        help="spawned server's predictor (default: kalman)")
    args = parser.parse_args(argv)

    if args.disconnect_at > 0 and not args.spawn_server:
        parser.error("--disconnect-at needs --spawn-server")
    proc = None
    port = args.port
    try:
        if args.spawn_server:
            proc, port = spawn_server(args)
        report, status = asyncio.run(
            run_session(
                args.host, port, args.duration, args.seed, args.linger,
                auto_reconnect=args.disconnect_at > 0,
            )
        )
    finally:
        if proc is not None:
            proc.terminate()
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()

    print_report(report)
    if args.check and status == 0:
        if not report.blocks:
            print("\nCHECK FAILED: no blocks were pushed")
            return 1
        if report.prefetched_hits < 1:
            print("\nCHECK FAILED: no request was answered by a prefetched block")
            return 1
        if args.disconnect_at > 0:
            if report.resumes != 1:
                print(f"\nCHECK FAILED: expected exactly 1 token reconnect, "
                      f"got {report.resumes}")
                return 1
            post = report.prefetched_hits_after(report.resumed_at[0])
            if post < 1:
                print("\nCHECK FAILED: no prefetched hit after the resume — "
                      "the reattached session's pipeline is not pushing")
                return 1
            print(f"\nCHECK OK: {len(report.blocks)} blocks pushed, "
                  f"{report.prefetched_hits} prefetched hits, "
                  f"resumed once with {post} post-resume hits")
            return 0
        print("\nCHECK OK: "
              f"{len(report.blocks)} blocks pushed, "
              f"{report.prefetched_hits} prefetched hits")
    return status


if __name__ == "__main__":
    sys.exit(main())
