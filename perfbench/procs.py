"""Start, reap and stop processes of the system under test.

Each one runs in its own process group, so shard workers and helper
processes it starts can be found, and stopped, with it.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time


def launch(cmd: list[str], cpus=None, **kwargs) -> tuple[subprocess.Popen, float]:
    """Start ``cmd`` in a new process group, on ``cpus`` if given.

    Returns the process and its launch time. Processes it starts inherit
    the CPUs. The CPUs are set between fork and exec, which is safe only
    while the caller runs no other thread.
    """
    if cpus is not None:
        kwargs["preexec_fn"] = lambda: os.sched_setaffinity(0, cpus)
    t0 = time.monotonic()
    return subprocess.Popen(cmd, start_new_session=True, **kwargs), t0


def _group_gone(pgid: int, timeout_s: float) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.01)
    return False


def reap(proc: subprocess.Popen, timeout_s: float) -> tuple[int, float, float]:
    """Wait for ``proc`` and its group; returns ``(returncode, cpu_s, peak_rss_mb)``.

    ``os.wait4`` reports the child's CPU and peak RSS together with the
    descendants it reaped, so shard workers count towards their
    coordinator. A process still running at the deadline is killed with
    its whole group.
    """
    deadline = time.monotonic() + timeout_s
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
    except BaseException:
        # Interrupted (e.g. SIGTERM to the benchmark): take the group down
        # with us rather than leave it running.
        os.killpg(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if not _group_gone(proc.pid, 10.0):
        os.killpg(proc.pid, signal.SIGKILL)
        _group_gone(proc.pid, 10.0)
    return (
        proc.returncode,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
    )


def stop(proc: subprocess.Popen, timeout_s: float = 30.0) -> tuple[int, float, float]:
    """SIGTERM (a graceful drain for ``repro serve``), then reap."""
    if proc.returncode is None:
        # os.kill, not Popen.send_signal: that polls, and reaping the
        # child there would lose its resource usage.
        os.kill(proc.pid, signal.SIGTERM)
    return reap(proc, timeout_s)
