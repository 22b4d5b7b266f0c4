"""Probes the benchmark installs into every process of the system under test.

``sitecustomize.py`` in this directory calls :func:`install` when the
benchmark puts the directory on ``PYTHONPATH`` and sets ``PERFBENCH_OUT``.
That reaches interpreters the benchmark does not start itself: shard
workers spawned by ``multiprocessing`` and the ``repro serve`` process.

Two modes:

* always: one-shot marks. The time ``import repro.cli`` finished and the
  time of the first ``Simulator.run`` call are written to
  ``$PERFBENCH_OUT/mark-<pid>.json``. The first-run wrapper puts the
  original method back after one call, so an untraced run pays for one
  function call and one small file write.
* ``PERFBENCH_TRACE=1``: spans. Public calls into each layer are wrapped;
  each call records ``(layer, start, end, parent span, session id)`` in
  memory, one list per thread. The spans and a few counters are written to
  ``$PERFBENCH_OUT/spans-<pid>.json`` when the process exits (and, in
  shard workers, before the worker ships its result).

Modules are patched right after they execute, by a ``sys.meta_path``
finder, so names other modules import with ``from x import f`` are the
wrapped ones. Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import atexit
import functools
import inspect
import json
import os
import pickle
import sys
import threading
import time

OUT = os.environ.get("PERFBENCH_OUT", "")
TRACE = os.environ.get("PERFBENCH_TRACE") == "1"

#: module -> [(attribute path, layer, extra)].  ``extra`` names a
#: counter hook (see ``_count``) or, for ``flush``, a function after
#: which spans are written out.
TARGETS: dict[str, list[tuple[str, str, str | None]]] = {
    "repro.sim.engine": [("Simulator.run", "engine", "events")],
    "repro.core.greedy": [
        ("GreedyScheduler.schedule_batch", "greedy.schedule_batch", "blocks_out"),
        ("GreedyScheduler.install_distribution", "greedy.install", None),
        ("GreedyScheduler.update_distribution", "greedy.install", None),
        ("GreedyScheduler.rollback", "greedy.rollback", "blocks_in"),
    ],
    "repro.fleet.schedule_service": [
        ("batch_probability_matrices", "greedy.probability", None),
    ],
    "repro.core.predictor_manager": [
        ("PredictorManager.observe_event", "predictors.observe", None),
        ("PredictorManager.observe_request", "predictors.observe", None),
        ("PredictorManager.poll", "predictors.state", None),
    ],
    "repro.predictors.kalman": [
        ("KalmanClientPredictor.batch_states", "predictors.state", None),
        ("KalmanServerPredictor.decode", "predictors.decode", None),
        ("KalmanServerPredictor.decode_batch", "predictors.decode", None),
    ],
    "repro.predictors.markov": [
        ("MarkovServerPredictor.decode", "predictors.decode", None),
        ("MarkovServerPredictor.decode_batch", "predictors.decode", None),
    ],
    "repro.predictors.shared": [
        ("SharedMarkovServerPredictor.decode", "predictors.decode", None),
        ("SharedMarkovServerPredictor.decode_batch", "predictors.decode", None),
        ("SharedTransitionPrior.merge_delta", "prior.merge", None),
    ],
    "repro.core.sender": [("Sender._fill_pipeline", "sender", None)],
    "repro.sim.fairshare": [("FairSharePort.send", "fairshare", None)],
    "repro.backends.base": [("Backend.fetch", "backend", None)],
    "repro.fleet.sharding": [
        ("run_sharded", "sharding.coordinator", None),
        ("ShardChannel.exchange", "sharding.barrier", None),
    ],
    "repro.fleet.transport": [
        ("FramedEndpoint.send", "transport.send", None),
        ("FramedEndpoint.recv", "transport.recv", None),
        ("encode_frame", "transport.send", "frame"),
    ],
    "repro.fleet.checkpoint": [("capture_shard", "checkpoint", "checkpoint")],
    "repro.metrics.fleet": [
        ("collect_fleet", "pool", None),
        ("collect_cohorts", "pool", None),
        ("pool_snapshots", "pool", None),
        ("pool_transport_counters", "pool", None),
    ],
    "repro.serve.app": [
        ("KhameleonServeApp._push_block", "serve.push", "conn"),
        ("KhameleonServeApp.status_snapshot", "serve.status", None),
    ],
    "repro.serve.ws": [
        ("WebSocket.send_binary", "ws.send", None),
        ("WebSocket.send_text", "ws.send", None),
    ],
    "repro.experiments.runner": [("_sharded_fleet_worker", "", "flush")],
}


class Recorder:
    """In-memory spans (one list per thread) plus counters for one process."""

    def __init__(self) -> None:
        self.t_start = time.perf_counter()
        self.layers: list[str] = []
        self.layer_ids: dict[str, int] = {}
        self.threads: list[tuple[int, list]] = []
        self.lock = threading.Lock()
        self.counters: dict[str, float] = {}
        self.sim_events: dict[int, int] = {}
        self.local = threading.local()

    def layer_id(self, name: str) -> int:
        if name not in self.layer_ids:
            self.layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self.layer_ids[name]

    def thread_spans(self) -> list:
        """This thread's span list; a span's parent indexes the same list."""
        local = self.local
        local.spans, local.stack = [], []
        with self.lock:
            self.threads.append((threading.get_ident(), local.spans))
        return local.spans

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


REC = Recorder()
_marks: dict[str, float] = {}


def _write_json(name: str, payload: dict) -> None:
    path = os.path.join(OUT, f"{name}-{os.getpid()}.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(payload, f)
    os.replace(tmp, path)


def _mark(key: str) -> None:
    if key in _marks:
        return
    _marks[key] = time.monotonic()
    _write_json("mark", {"pid": os.getpid(), **_marks})


def flush() -> None:
    """Write this process's spans and counters (no-op when untraced)."""
    if not TRACE:
        return
    counters = dict(REC.counters)
    counters["engine.events"] = sum(REC.sim_events.values())
    t_end = time.perf_counter()
    main = threading.main_thread().ident
    with REC.lock:
        threads = list(REC.threads)
    _write_json(
        "spans",
        {
            "pid": os.getpid(),
            "t_start": REC.t_start,
            "t_end": t_end,
            "layers": REC.layers,
            # A span still open at flush time ends at the flush.
            "threads": [
                {
                    "main": tid == main,
                    "spans": [s if s[2] is not None else s[:2] + [t_end] + s[3:]
                              for s in spans],
                }
                for tid, spans in threads
            ],
            "counters": counters,
        },
    )


def _count(extra: str, args: tuple, result) -> None:
    if extra == "blocks_out":
        REC.add("greedy.blocks_scheduled", len(result))
    elif extra == "blocks_in":
        REC.add("greedy.rollback_blocks", len(args[1]))
    elif extra == "events":
        REC.sim_events[id(args[0])] = args[0].events_processed
    elif extra == "frame":
        REC.add("transport.frames", 1)
        REC.add("transport.bytes", len(result))
    elif extra == "checkpoint":
        REC.add("checkpoint.bytes", len(pickle.dumps(result.to_payload())))


def _span_wrapper(fn, layer: str, extra: str | None):
    lid = REC.layer_id(layer)
    local = REC.local
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            spans, stack = local.spans, local.stack
        except AttributeError:
            spans = REC.thread_spans()
            stack = local.stack
        sid = args[1].index if extra == "conn" else None
        span = [lid, clock(), None, stack[-1] if stack else -1, sid]
        stack.append(len(spans))
        spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = clock()
            stack.pop()
        if extra is not None and extra != "conn":
            _count(extra, args, result)
        return result

    return wrapper


def _flush_after(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            flush()

    return wrapper


def _first_run_mark(cls):
    original = cls.run

    @functools.wraps(original)
    def run(self, *args, **kwargs):
        cls.run = original
        _mark("first_run")
        return original(self, *args, **kwargs)

    cls.run = run


def _set(owner, name: str, wrap) -> None:
    raw = inspect.getattr_static(owner, name)
    if isinstance(raw, staticmethod):
        setattr(owner, name, staticmethod(wrap(raw.__func__)))
    elif isinstance(raw, classmethod):
        setattr(owner, name, classmethod(wrap(raw.__func__)))
    else:
        setattr(owner, name, wrap(raw))


def patch_module(module) -> None:
    """Apply this module's entries of :data:`TARGETS`."""
    name = module.__name__
    if name == "repro.cli":
        _mark("cli_imported")
        return
    if name == "repro.sim.engine" and not TRACE:
        _first_run_mark(module.Simulator)
        return
    if not TRACE:
        return
    for path, layer, extra in TARGETS.get(name, ()):
        owner = module
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        if extra == "flush":
            _set(owner, attr, _flush_after)
        else:
            _set(owner, attr, lambda f, l=layer, e=extra: _span_wrapper(f, l, e))
    if name == "repro.sim.engine":
        _first_run_mark(module.Simulator)


class _PatchingFinder:
    """Meta-path finder that patches target modules after they execute."""

    names = set(TARGETS) | {"repro.cli"}

    def find_spec(self, fullname, path=None, target=None):
        if fullname not in self.names:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        exec_module = loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            patch_module(module)

        loader.exec_module = exec_and_patch
        return spec


def install() -> None:
    """Called from ``sitecustomize`` at interpreter start-up."""
    sys.meta_path.insert(0, _PatchingFinder())
    if TRACE:
        atexit.register(flush)
