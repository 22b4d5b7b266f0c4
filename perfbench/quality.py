"""Request-level quality metrics and the invariants every run must meet.

Shared by the fleet child (``fleetsut.py``) and the live load generator
(``live.py``). Accounting follows §6.1 ``collect()``: preempted requests
are left out of hit, latency and within-100-ms shares, and requests
still unanswered when the run ends count as misses.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

#: The paper's interactivity target.
LIMIT_MS = 100.0


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def request_metrics(rows) -> dict:
    """Quality from ``(latency_ms or None, hit, preempted, utility or None)``.

    ``latency_ms`` is ``None`` for a request unanswered at run end.
    """
    live = [r for r in rows if not r[2]]
    answered = [r for r in live if r[0] is not None]
    hits = sum(1 for r in live if r[1])
    miss_lat = sorted(r[0] for r in answered if not r[1])
    within = sum(1 for r in answered if r[0] <= LIMIT_MS)
    utilities = [r[3] for r in answered if r[3] is not None]
    n = max(1, len(live))
    return {
        "requests": len(rows),
        "preempted": len(rows) - len(live),
        "unanswered": len(live) - len(answered),
        "hits": hits,
        "hit_pct": 100.0 * hits / n,
        "within_100ms_pct": 100.0 * within / n,
        "miss_samples": len(miss_lat),
        "miss_latency_p50_ms": percentile(miss_lat, 50),
        "miss_latency_p90_ms": percentile(miss_lat, 90),
        "utility_mean": float(np.mean(utilities)) if utilities else 0.0,
    }


def outcome_rows(outcomes) -> list[tuple]:
    """Rows for :func:`request_metrics` from simulated ``RequestOutcome``s."""
    return [
        (
            o.latency_s * 1e3 if o.served else None,
            o.cache_hit,
            o.preempted and not o.served,
            o.utility_at_upcall if o.served else None,
        )
        for o in outcomes
    ]


def session_violations(outcomes_by_session, summaries) -> list[str]:
    """Per session: every request is served, preempted or unanswered, once."""
    bad = []
    for i, outs in enumerate(outcomes_by_session):
        counts = (
            sum(1 for o in outs if o.served),
            sum(1 for o in outs if o.preempted),
            sum(1 for o in outs if not o.served and not o.preempted),
        )
        if any(o.served and o.preempted for o in outs):
            bad.append(f"session {i}: a request is both served and preempted")
        s = summaries[i]
        if outs and (
            s is None
            or s.num_requests != len(outs)
            or (s.num_served, s.num_preempted, s.num_unanswered) != counts
            or sum(counts) != s.num_requests
        ):
            bad.append(f"session {i}: summary disagrees with its outcomes")
    return bad


def digest(rows) -> str:
    """Short, stable digest of a summary table (drift shows as a change)."""
    text = json.dumps(rows, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
