"""live-kalman: ``repro serve --predictor kalman`` under an open-loop load.

The server runs as a subprocess of the benchmark; the load generator is
this process. Each client replays a seeded mouse trace in wall time,
sending every event and request when it is due whether or not earlier
requests were answered (open loop). Latency is timed from the request's
due time, so a stalled generator or server shows up as latency, and the
generator's own lateness is reported.
"""

from __future__ import annotations

import asyncio
import json
import re
import select
import subprocess
import sys
import time

import numpy as np

import procs
import quality

_SERVING = re.compile(r"serving on ws://[^:]+:(\d+)/")


def boot(env: dict, root: str, cpus, timeout_s: float = 60.0):
    """Start the server on ``cpus``; returns ``(proc, port, setup_s, t_launch)``."""
    cmd = [
        sys.executable, "-m", "repro", "serve", "--port", "0",
        "--scale", "quick", "--predictor", "kalman", "--sessions", "2",
    ]
    proc, t0 = procs.launch(
        cmd, cpus, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=root,
    )
    deadline = t0 + timeout_s
    while True:
        remaining = deadline - time.monotonic()
        ready = select.select([proc.stdout], [], [], max(0.0, remaining))[0]
        line = proc.stdout.readline() if ready else ""
        if not line:
            stop(proc)
            raise RuntimeError("server did not print its port")
        match = _SERVING.search(line)
        if match:
            return proc, int(match.group(1)), time.monotonic() - t0, t0


def stop(proc) -> tuple[int, float, float, str]:
    """Stop the server (graceful drain) and collect its output."""
    rc, cpu, rss = procs.stop(proc)
    output = proc.stdout.read()
    proc.stdout.close()
    return rc, cpu, rss, output


async def _status(port: int) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b"GET /status HTTP/1.1\r\nHost: localhost\r\n\r\n")
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    length = int(re.search(rb"(?i)content-length:\s*(\d+)", head).group(1))
    body = await reader.readexactly(length)
    writer.close()
    await writer.wait_closed()
    return json.loads(body)


async def _client(port: int, trace, linger_s: float) -> dict:
    from repro.serve.client import LiveClient

    t0 = time.monotonic()
    client = await LiveClient.connect("127.0.0.1", port)
    connect_ms = (time.monotonic() - t0) * 1e3
    base = client.now
    start = time.monotonic()
    due: list[float] = []
    late_max = 0.0
    async with client:
        for event in trace.events:
            delay = event.time_s - (time.monotonic() - start)
            if delay > 0:
                await asyncio.sleep(delay)
            late_max = max(late_max, time.monotonic() - start - event.time_s)
            client.send_event(event.x, event.y)
            if event.request is not None:
                due.append(base + event.time_s)
                client.send_request(event.request)
            await client.drain()
        await asyncio.sleep(linger_s)
        report = await client.bye()
    return {
        "report": report,
        "due": due,
        "connect_ms": connect_ms,
        "late_ms_max": late_max * 1e3,
        "t_start": start,
        "t_end": time.monotonic(),
    }


async def _drive(port: int, traces, linger_s: float):
    sessions = await asyncio.gather(*(_client(port, t, linger_s) for t in traces))
    return sessions, await _status(port)


def _session_rows(session: dict) -> tuple[list, dict]:
    """Request rows (see ``quality.request_metrics``) and block figures.

    ``LiveReport.outcomes`` times latency from the issue; shift it to the
    due time so generator lateness counts as latency.
    """
    report = session["report"]
    rows, leads = [], []
    for row, (issued, request), due in zip(
        quality.outcome_rows(report.outcomes()), report.requests, session["due"]
    ):
        latency, hit = row[0], row[1]
        if latency is not None:
            latency += (issued - due) * 1e3
        if hit:
            leads.append((issued - report.first_block_at(request)) * 1e3)
        rows.append((latency, hit, False, None))
    used = len(report.blocks) - report.unrequested_blocks
    return rows, {"leads_ms": leads, "blocks": len(report.blocks), "used": used}


def check_unit(sessions, status: dict, num_requests: int, frame_errors: int) -> list[str]:
    """The live invariants."""
    bad = []
    if frame_errors:
        bad.append(f"{frame_errors} pushed frames did not parse as KBLK")
    sent = 0
    for i, s in enumerate(sessions):
        report = s["report"]
        sent += len(report.requests)
        if any(not 0 <= b.request < num_requests for b in report.blocks):
            bad.append(f"client {i}: block for an out-of-range request id")
        if len(s["due"]) != len(report.requests):
            bad.append(f"client {i}: issued and due requests disagree")
        stats = report.server_stats
        if stats is None:
            bad.append(f"client {i}: no stats reply")
        elif stats["server_metrics"].get("requests") != len(report.requests):
            bad.append(
                f"client {i}: server saw {stats['server_metrics'].get('requests')} "
                f"of {len(report.requests)} requests"
            )
    if status["requests_received"] != sent:
        bad.append(f"/status counts {status['requests_received']} of {sent} requests")
    if status["sessions_admitted"] != len(sessions) or status["sessions_rejected"]:
        bad.append(
            f"admitted {status['sessions_admitted']}, "
            f"rejected {status['sessions_rejected']} of {len(sessions)}"
        )
    return bad


def count_frames() -> dict:
    """Count pushed frames that fail to parse, on the client side."""
    from repro.serve import protocol

    tally = {"errors": 0}
    original = protocol.decode_block

    def decode_block(frame):
        try:
            return original(frame)
        except ValueError:
            tally["errors"] += 1
            raise

    protocol.decode_block = decode_block
    return tally


def run_unit(env: dict, root: str, cpus, traces, linger_s: float, tally: dict) -> dict:
    """Boot a server on ``cpus``, drive it with one client per trace, stop it."""
    errors_before = tally["errors"]
    proc, port, setup_s, t_launch = boot(env, root, cpus)
    try:
        sessions, status = asyncio.run(_drive(port, traces, linger_s))
    finally:
        rc, cpu, rss, output = stop(proc)
    t_reaped = time.monotonic()
    num_requests = sessions[0]["report"].welcome["num_requests"]
    violations = check_unit(
        sessions, status, num_requests, tally["errors"] - errors_before
    )
    if rc != 0:
        violations.append(f"server exited with {rc}: {output[-500:]}")
    rows, leads, blocks, used = [], [], 0, 0
    served = util_sum = 0.0
    bytes_by_session = []
    for s in sessions:
        r, extra = _session_rows(s)
        rows += r
        leads += extra["leads_ms"]
        blocks += extra["blocks"]
        used += extra["used"]
        stats = s["report"].server_stats or {}
        m = stats.get("server_metrics", {})
        served += m.get("served", 0)
        util_sum += m.get("served", 0) * m.get("utility", 0.0)
        bytes_by_session.append(stats.get("bytes_pushed", 0))
    total = sum(bytes_by_session)
    jain = (
        total**2 / (len(bytes_by_session) * sum(b * b for b in bytes_by_session))
        if total else 0.0
    )
    return {
        "setup_s": setup_s,
        "t_launch": t_launch,
        "t_reaped": t_reaped,
        "run_wall_s": max(s["t_end"] for s in sessions)
        - min(s["t_start"] for s in sessions),
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        "rows": rows,
        "server_utility": util_sum / served if served else 0.0,
        "violations": violations,
        "counters": {
            "serve.blocks_pushed": status["blocks_pushed"],
            "serve.bytes_pushed": status["bytes_pushed"],
            "serve.requests_received": status["requests_received"],
            "sender.blocks_sent": status["blocks_pushed"],
            "sender.bytes_sent": status["bytes_pushed"],
            "fairshare.jain": jain,
            "lifecycle.arrivals": len(sessions),
            "lifecycle.admitted": status["sessions_admitted"],
        },
        "extras": {
            "ws.connect_ms": max(s["connect_ms"] for s in sessions),
            "loadgen.late_ms_max": max(s["late_ms_max"] for s in sessions),
            "prefetch.timeliness_p50_ms": quality.percentile(leads, 50),
            "prefetch.timeliness_samples": len(leads),
        },
        "prefetch": {
            "requests": len(rows),
            "hits": sum(1 for r in rows if r[1]),
            "blocks_pushed": blocks,
            "blocks_used": used,
        },
        "operations": len(rows) + len(sessions),
    }


def quality_of(units) -> dict:
    """Quality over the units' pooled requests (sessions count as operations)."""
    rows = [r for u in units for r in u["rows"]]
    metrics = quality.request_metrics(rows)
    metrics["utility_mean"] = float(np.mean([u["server_utility"] for u in units]))
    operations = sum(u["operations"] for u in units)
    metrics["ok_pct"] = 100.0 * (1 - metrics["unanswered"] / operations)
    return metrics
