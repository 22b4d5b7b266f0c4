"""A yardstick of the machine's speed, taken beside the program.

The host is shared: the speed of a CPU drifts by tens of percent within
seconds and for minutes at a time, and a time taken alone reads that
drift as much as the program. So every CPU the system under test runs
on also runs one yardstick process: a fixed loop of interpreter work
over a table of some megabytes and a small numpy step, like the
program's own mix, pinned to that CPU, in a session (and so a scheduling group) of its
own, so that the kernel shares the CPU evenly between the two. The
yardstick counts its loops and its CPU time. Loops per CPU second over
the window of a measured time is the speed the CPUs had in that window,
and ``Yardstick.scale`` turns the time into seconds at ``REF_RATE``.

The program gets about half of each CPU it runs on, so its wall times
are about twice those of a run alone; CPU times are not stretched.

Run by ``Yardstick``: ``python3 yardstick.py CPU OUT``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

#: Loops per CPU second the yardstick makes beside the program on the
#: machine the benchmark was made on (2-vCPU Xeon VM, Python 3.11,
#: numpy 2.4) in a quiet spell; scaled times are seconds at that speed.
REF_RATE = 9000.0
#: A sample (time, loops, CPU time) is kept every this many seconds.
SAMPLE_S = 0.02


#: Entries of the yardstick's table.
TABLE = 200_000


def _loop(table: dict, weights, x: int) -> int:
    """One loop: 60 scattered table updates and a cumulative-sum search."""
    import numpy as np

    for _ in range(60):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        entry = table[x % TABLE]
        entry[0] += 1
        entry[1] *= 1.0000001
    cdf = np.cumsum(weights)
    np.searchsorted(cdf, cdf[-1] * (x / 0x7FFFFFFF))
    return x


def main(argv: list[str]) -> int:
    import numpy as np

    cpu, out = int(argv[0]), argv[1]
    parent = os.getppid()
    os.sched_setaffinity(0, {cpu})
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(1))
    table = {i: [i, float(i)] for i in range(TABLE)}
    weights = np.random.default_rng(0).random(4096)
    x = _loop(table, weights, 1)
    samples = [(time.monotonic(), 0, time.process_time())]
    print("ready", flush=True)
    loops = 0
    next_sample = samples[0][0] + SAMPLE_S
    while not stopping:
        x = _loop(table, weights, x)
        loops += 1
        now = time.monotonic()
        if now >= next_sample:
            samples.append((now, loops, time.process_time()))
            next_sample = now + SAMPLE_S
            if os.getppid() != parent:
                return 1  # the benchmark is gone: so is the reader
    samples.append((time.monotonic(), loops, time.process_time()))
    with open(out, "w") as f:
        json.dump(samples, f)
    return 0


class Yardstick:
    """One yardstick process per CPU in ``cpus``, from now until ``stop``."""

    def __init__(self, cpus, out_dir: str):
        self.samples: list = []
        self._procs = []
        self._outs = []
        try:
            for cpu in cpus:
                out = os.path.join(out_dir, f"yardstick-cpu{cpu}.json")
                proc = subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__), str(cpu), out],
                    stdout=subprocess.PIPE, text=True, start_new_session=True,
                )
                self._procs.append(proc)
                self._outs.append(out)
                if proc.stdout.readline().strip() != "ready":
                    raise RuntimeError(f"yardstick on CPU {cpu} did not start")
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """Stop every yardstick and load its samples (idempotent)."""
        for proc in self._procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self._procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if self._procs and not self.samples:
            import numpy as np

            for out in filter(os.path.exists, self._outs):
                with open(out) as f:
                    self.samples.append(np.array(json.load(f), dtype=float))
        self._procs = []

    def rate(self, t0: float, t1: float) -> float:
        """Loops per CPU second over ``[t0, t1]``, pooled over the CPUs."""
        import numpy as np

        loops = cpu = 0.0
        for s in self.samples:
            times = s[:, 0]
            loops += np.interp(t1, times, s[:, 1]) - np.interp(t0, times, s[:, 1])
            cpu += np.interp(t1, times, s[:, 2]) - np.interp(t0, times, s[:, 2])
        if cpu <= 0:
            raise RuntimeError(f"no yardstick samples in [{t0:.3f}, {t1:.3f}]")
        return loops / cpu

    def scale(self, seconds: float, t0: float, t1: float) -> float:
        """``seconds`` measured over ``[t0, t1]``, in seconds at ``REF_RATE``."""
        return seconds * self.rate(t0, t1) / REF_RATE


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
