"""Greedy scheduler (§5.3, Listing 1).

Khameleon's production scheduler.  Per batch of ``C`` blocks (the
client cache size), it repeatedly

1. computes each candidate's expected utility gain for receiving one
   more block — the probability the user still wants the request over
   the rest of the batch, times the marginal gain ``g(b+1)`` of its
   next block — and
2. samples a request proportionally to those gains, allocating it the
   next block.

The remaining-batch probability ``P_{i,t} = Σ_{k=t}^{C-1} P(q_i | k)``
is precomputed as a matrix per distribution update (a reverse
cumulative sum approximating the paper's trapezoidal Riemann sum), so
each allocation is a vectorized dot-and-sample over the explicit
requests.

**Meta-request optimization** (§5.3.1): with 10k possible requests,
most share the same ≈ 0 probability.  Those pool into one
*meta-request* whose probability is their sum; sampling it uniformly
picks a concrete request, which is then *promoted* to individual
tracking for the rest of the batch.  Disable with
``meta_request=False`` to measure the difference (the paper reports
13× on its 10k-request benchmark).

**Draw kernel.**  :meth:`schedule_batch` keeps per-request block
counts and next-block gains in numpy arrays maintained incrementally
(by allocations, ``on_sent`` confirmations, rollbacks, and mirror
evictions), so each draw is a handful of vectorized kernels over the
materialized requests.  :meth:`next_block` is the scalar Listing-1
loop it is specified against: both consume the same RNG stream and
produce **bit-identical** schedules at every seed (property-tested).

Deviation from Listing 1, documented in DESIGN.md §5: the pseudocode
resets per-request block counts ``B`` to zero every batch and ignores
what the client already caches.  We additionally consult the server's
cache mirror (exactly mirrorable thanks to the FIFO client cache) so
that (a) block *indices* continue the prefix the client already has
instead of resending block 0, and (b) fully cached requests get zero
gain.  §5's problem statement requires the scheduler to "keep track of
previously sent blocks"; this is that tracking.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .cache import RingBufferCache
from .distribution import RequestDistribution
from .scheduler import GainTable, ScheduledBlock

__all__ = ["GreedyScheduler", "probability_matrices"]


def probability_matrices(
    dist: RequestDistribution,
    cache_blocks: int,
    position: int,
    slot_duration_s: float,
    gamma: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Materialize ``(Pmat, Pres)`` for a batch's remaining slots.

    Row ``k`` of ``Pmat`` holds the γ-discounted probability mass of
    each explicit request over slots ``k..C-1``, where slot ``k`` maps
    to wall-clock offset ``(k − position + 1) · slot_duration``;
    ``Pres`` is the matching residual-mass column (Listing 1 lines
    6–11).  Rows before ``position`` are zero — those slots were
    already decided.

    Module-level so the fleet's batched recompute
    (:class:`~repro.fleet.FleetScheduleService`) can produce the same
    matrices in one stacked pass; its output must stay bit-identical
    to this per-scheduler path.
    """
    C, t = cache_blocks, position
    remaining = C - t
    m = len(dist.explicit_ids)
    if remaining <= 0:
        return np.zeros((C, m)), np.zeros(C)
    deltas = (np.arange(t, C) - t + 1) * slot_duration_s
    probs, residual = dist.explicit_matrix(deltas)
    if gamma < 1.0:
        discount = gamma ** np.arange(t, C)
        probs = probs * discount[:, None]
        residual = residual * discount
    # Reverse cumulative sum: row k = mass over slots k..C-1.
    pmat = np.zeros((C, probs.shape[1]))
    pres = np.zeros(C)
    pmat[t:] = np.cumsum(probs[::-1], axis=0)[::-1]
    pres[t:] = np.cumsum(residual[::-1])[::-1]
    return pmat, pres


class GreedyScheduler:
    """Single-step-horizon sampling scheduler with batch resets.

    Parameters
    ----------
    gains:
        Per-request utility gain table (defines ``n`` and ``Nb_i``).
    cache_blocks:
        ``C`` — client cache capacity in blocks; also the batch length.
    gamma:
        Future discount applied inside the remaining-batch probability
        (``γ^k`` weights; 1.0 = the paper's default behaviour).
    mirror:
        Optional server-side replica of the client ring buffer.  When
        given, allocations extend the cached prefix.
    meta_request:
        Enable the §5.3.1 uniform-mass pooling (default True).
    hedge_when_idle:
        When every tracked request has zero expected gain (e.g., a point
        distribution whose target is fully scheduled), push blocks for
        uniformly random incomplete requests instead of idling — §3.4:
        "use the remaining bandwidth to push random images for the
        client to cache".
    seed:
        Sampling is stochastic (Listing 1 line 17); fixed seed for
        reproducibility.
    """

    def __init__(
        self,
        gains: GainTable,
        cache_blocks: int,
        gamma: float = 1.0,
        mirror: Optional[RingBufferCache] = None,
        meta_request: bool = True,
        hedge_when_idle: bool = True,
        seed: int = 0,
    ) -> None:
        if cache_blocks < 1:
            raise ValueError("cache must hold at least one block")
        if not 0 <= gamma <= 1:
            raise ValueError("gamma must lie in [0, 1]")
        self.gains = gains
        self.C = cache_blocks
        self.gamma = gamma
        self.mirror = mirror
        self.meta_request = meta_request
        self.hedge_when_idle = hedge_when_idle
        self._rng = np.random.default_rng(seed)

        self._dist = RequestDistribution.uniform(gains.n)
        self._slot_duration_s = 0.01
        # Batch position (Listing 1's t).
        self._t = 0
        # Blocks allocated but not yet confirmed sent.  With a mirror,
        # the sender confirms via on_sent() as blocks hit the wire (the
        # mirror then carries them); without one, pending *is* Listing
        # 1's B and resets with the batch.
        self._pending: dict[int, int] = {}
        # Distribution-derived state.
        self._ids = np.empty(0, dtype=np.int64)
        self._Pmat = np.empty((0, 0))
        self._Pres = np.empty(0)
        self._explicit_set: set[int] = set()
        self._explicit_ids_ref: Optional[np.ndarray] = None
        self._promoted: list[int] = []
        self._promoted_set: set[int] = set()
        # Materialized-request fast-path state: parallel arrays over
        # explicit-then-promoted ids, updated incrementally so the
        # batch sampler never walks the pending/mirror dicts per draw.
        self._mat_ids = np.empty(0, dtype=np.int64)
        self._have = np.empty(0, dtype=np.int64)
        self._gain = np.empty(0)
        self._wbuf = np.empty(0)
        self._cbuf = np.empty(0)
        self._mlen = 0
        self._pos_of: dict[int, int] = {}
        if mirror is not None:
            mirror.add_evict_listener(self._on_mirror_evict)
        self._recompute_probabilities()

        self.schedules_generated = 0
        self.blocks_allocated = 0

    # -- public API ----------------------------------------------------

    def update_distribution(
        self, dist: RequestDistribution, slot_duration_s: float
    ) -> None:
        """Install a new prediction (client may send them at any time).

        Already-allocated slots of the current batch are untouched
        (§5.3.2: blocks 0..i were sent); only the remaining ``C − t``
        slots use the new probabilities.
        """
        if dist.n != self.gains.n:
            raise ValueError(f"distribution over {dist.n} requests, expected {self.gains.n}")
        if slot_duration_s <= 0:
            raise ValueError("slot duration must be positive")
        self._dist = dist
        self._slot_duration_s = slot_duration_s
        self._recompute_probabilities()

    def install_distribution(
        self,
        dist: RequestDistribution,
        slot_duration_s: float,
        pmat: np.ndarray,
        pres: np.ndarray,
    ) -> None:
        """:meth:`update_distribution` with externally computed matrices.

        The fleet's :class:`~repro.fleet.FleetScheduleService` computes
        every registered session's probability matrices in one stacked
        pass and installs them here.  ``(pmat, pres)`` must equal what
        :func:`probability_matrices` would return for this scheduler's
        current ``(C, position, slot_duration)`` — the caller owns that
        contract (it is equivalence-tested in the fleet suite).
        """
        if dist.n != self.gains.n:
            raise ValueError(f"distribution over {dist.n} requests, expected {self.gains.n}")
        if slot_duration_s <= 0:
            raise ValueError("slot duration must be positive")
        expected = (self.C, len(dist.explicit_ids))
        if pmat.shape != expected or pres.shape != (self.C,):
            # Reject before touching any state: a half-installed epoch
            # (new ids, old matrices) would corrupt later draws.
            raise ValueError(
                f"matrices shaped {pmat.shape}/{pres.shape}, "
                f"expected {expected}/{(self.C,)}"
            )
        self._dist = dist
        self._slot_duration_s = slot_duration_s
        self._refresh_epoch()
        self._Pmat = pmat
        self._Pres = pres

    def next_block(self) -> Optional[ScheduledBlock]:
        """Sample the next allocation (Listing 1 lines 14–19).

        Scalar reference path: weights are re-derived from the pending
        and mirror dictionaries on every call.  :meth:`schedule_batch`
        draws the same RNG stream over incrementally-maintained arrays
        and is bit-identical; prefer it on hot paths.
        """
        if self._t >= self.C:
            self._reset_batch()
        ids = self._all_ids()
        weights = self._utility_gains(ids)
        meta_weight = self._meta_weight()
        total = weights.sum() + meta_weight
        if total <= 1e-15:
            if not self.hedge_when_idle:
                return None
            request = self._sample_incomplete_request()
            if request is None:
                return None
            return self._allocate(request)
        # Sample a request proportional to utility gain (line 17).
        u = self._rng.random() * total
        cumulative = np.cumsum(weights)
        pos = int(np.searchsorted(cumulative, u, side="right"))
        if pos < len(ids):
            request = int(ids[pos])
        else:
            request = self._sample_uniform_request()
            if request is None:
                return None
            self._promote(request)
        return self._allocate(request)

    def schedule_batch(self, max_blocks: Optional[int] = None) -> list[ScheduledBlock]:
        """Allocate up to ``max_blocks`` (default: the rest of the batch).

        This is Listing 1's inner loop with ``bs = max_blocks``.  The
        weight vector's gain factor is materialized once per
        distribution epoch and only the sampled request's entry changes
        between draws, so each allocation costs a few numpy kernels over
        the materialized requests instead of a Python walk over the
        pending/mirror dicts.  The sender's lookahead fill and the
        standalone micro-benchmarks (Fig. 16) call it directly.
        """
        limit = self.C - self._t if max_blocks is None else max_blocks
        out: list[ScheduledBlock] = []
        while len(out) < limit:
            if self._t >= self.C:
                self._reset_batch()
            block = self._next_block_fast()
            if block is None:
                break
            out.append(block)
        return out

    def rollback(
        self, blocks: Sequence[ScheduledBlock], recompute: bool = True
    ) -> None:
        """Un-allocate scheduled-but-unsent blocks (sender preemption).

        §5.3.2: when a new prediction arrives, the schedule past the
        sender's position is discarded and regenerated.  The sender
        hands back the unsent tail; we rewind ``t`` and the per-request
        counts so the slots are re-decided under the new distribution.

        ``recompute=False`` skips re-materializing the probability
        matrices and fast-path arrays; it is for callers that install a
        fresh distribution immediately afterwards (the fleet service's
        batched tick) — no draws may happen in between.
        """
        for block in blocks:
            have = self._pending.get(block.request, 0)
            if have <= 0:
                raise ValueError(f"cannot roll back {block}: not allocated")
            if have == 1:
                del self._pending[block.request]
                # A request promoted out of the meta pool in a slot that
                # is now rolled back has no allocation left backing the
                # promotion: return it to the pool so it stops carrying
                # an individual probability weight until the batch reset.
                # Blocks already sent (mirror-held) still back it — the
                # concrete next-block gain must survive for requests the
                # client holds a prefix of.
                if (
                    block.request in self._promoted_set
                    and self._effective_blocks(block.request) == 0
                ):
                    self._promoted.remove(block.request)
                    self._promoted_set.discard(block.request)
            else:
                self._pending[block.request] = have - 1
            self._t = max(0, self._t - 1)
            self.blocks_allocated -= 1
        # The rewound slots need probability rows again (they were only
        # materialized from the position at the last distribution update).
        if blocks and recompute:
            self._recompute_probabilities()

    def on_sent(self, block: ScheduledBlock) -> None:
        """Sender confirmation that ``block`` reached the wire.

        Only meaningful with a mirror: the block is now tracked by the
        mirrored client cache, so the pending overlay must release it
        (otherwise it would be double-counted).
        """
        if self.mirror is None:
            return
        have = self._pending.get(block.request, 0)
        if have <= 0:
            raise ValueError(f"on_sent for unallocated block {block}")
        if have == 1:
            del self._pending[block.request]
        else:
            self._pending[block.request] = have - 1
        self._refresh_entry(block.request)

    # -- introspection ---------------------------------------------------

    @property
    def position(self) -> int:
        """Slots allocated in the current batch (Listing 1's ``t``)."""
        return self._t

    @property
    def materialized_fraction(self) -> float:
        """Fraction of requests with individually materialized probabilities."""
        return (len(self._ids) + len(self._promoted)) / self.gains.n

    def rng_state(self) -> dict:
        """The draw RNG's bit-generator state (JSON-safe plain ints).

        Sampling is the only stochastic step in the scheduler, so this
        state plus the deterministic inputs pins the whole draw stream —
        it is what shard checkpoints digest to verify that a replayed
        worker really is where the crashed one was.
        """
        return self._rng.bit_generator.state

    # -- internals -------------------------------------------------------

    def _reset_batch(self) -> None:
        """Lines 22–23: after C blocks, reset t and B.

        With a mirror, pending blocks are still in the sender pipeline
        and must survive the reset (the mirror will absorb them as they
        are sent); without one, pending is the per-batch B and clears.
        """
        self._t = 0
        if self.mirror is None:
            self._pending.clear()
        self._promoted.clear()
        self._promoted_set.clear()
        self.schedules_generated += 1
        self._recompute_probabilities()

    def _recompute_probabilities(self) -> None:
        """Start a distribution epoch: refresh ids/arrays, rebuild P."""
        self._refresh_epoch()
        self._Pmat, self._Pres = probability_matrices(
            self._dist, self.C, self._t, self._slot_duration_s, self.gamma
        )

    def _refresh_epoch(self) -> None:
        """Re-derive the materialized-request state from the distribution.

        The explicit-id set is cached against the distribution's own
        ids array (rollbacks and batch resets reuse the same
        distribution object, so the set survives those epochs), and the
        promoted list is only re-filtered when it would actually
        change.
        """
        ids = self._dist.explicit_ids
        if ids is not self._explicit_ids_ref:
            self._explicit_set = set(int(i) for i in ids)
            self._explicit_ids_ref = ids
        self._ids = ids
        if self._promoted:
            kept = [q for q in self._promoted if q not in self._explicit_set]
            if len(kept) != len(self._promoted):
                self._promoted = kept
                self._promoted_set = set(kept)
        self._rebuild_materialized()

    def _ensure_capacity(self, needed: int) -> None:
        if len(self._mat_ids) >= needed:
            return
        cap = max(needed + 64, 2 * len(self._mat_ids))
        for name in ("_mat_ids", "_have"):
            grown = np.empty(cap, dtype=np.int64)
            old = getattr(self, name)
            grown[: len(old)] = old
            setattr(self, name, grown)
        for name in ("_gain", "_wbuf", "_cbuf"):
            grown = np.empty(cap)
            old = getattr(self, name)
            grown[: len(old)] = old
            setattr(self, name, grown)

    def _rebuild_materialized(self) -> None:
        """Rebuild the fast-path arrays (once per distribution epoch)."""
        m = len(self._ids)
        mlen = m + len(self._promoted)
        self._ensure_capacity(mlen)
        ids = self._mat_ids
        ids[:m] = self._ids
        if self._promoted:
            ids[m:mlen] = self._promoted
        self._mlen = mlen
        self._pos_of = {int(r): i for i, r in enumerate(ids[:mlen])}
        if mlen:
            if self.mirror is None and not self._pending:
                self._have[:mlen] = 0
            else:
                self._have[:mlen] = np.fromiter(
                    (self._effective_blocks(int(r)) for r in ids[:mlen]),
                    dtype=np.int64,
                    count=mlen,
                )
            self._gain[:mlen] = self.gains.gain_vector(ids[:mlen], self._have[:mlen])

    def _refresh_entry(self, request: int) -> None:
        """Re-derive one materialized request's block count and gain."""
        pos = self._pos_of.get(request)
        if pos is None:
            return
        effective = self._effective_blocks(request)
        self._have[pos] = effective
        self._gain[pos] = self.gains.gain(request, effective)

    def _on_mirror_evict(self, request: Optional[int]) -> None:
        """Mirror replaced a live block: that request's prefix may have
        shrunk.  ``None`` means the mirror was cleared wholesale."""
        if request is None:
            self._rebuild_materialized()
        else:
            self._refresh_entry(request)

    def _all_ids(self) -> np.ndarray:
        if not self._promoted:
            return self._ids
        return np.concatenate([self._ids, np.array(self._promoted, dtype=np.int64)])

    def _effective_blocks(self, request: int) -> int:
        """Blocks the client will hold once the pipeline drains."""
        base = self.mirror.prefix_len(request) if self.mirror is not None else 0
        return base + self._pending.get(request, 0)

    def _utility_gains(self, ids: np.ndarray) -> np.ndarray:
        """Line 16: u = P_t · g[B] over explicit + promoted requests."""
        t = min(self._t, self.C - 1)
        m = len(self._ids)
        if len(ids) == 0:
            return np.empty(0)
        probs = np.full(len(ids), self._uniform_request_prob(t))
        probs[:m] = self._Pmat[t, :m]
        have = np.fromiter(
            (self._effective_blocks(int(r)) for r in ids), dtype=np.int64, count=len(ids)
        )
        return probs * self.gains.gain_vector(ids, have)

    def _next_block_fast(self) -> Optional[ScheduledBlock]:
        """One draw over the incrementally-maintained arrays.

        Mirrors :meth:`next_block` operation-for-operation (same array
        lengths, same elementwise kernels, same RNG consumption) so the
        sampled schedule is bit-identical to the scalar path.
        """
        t = min(self._t, self.C - 1)
        m = len(self._ids)
        mlen = self._mlen
        wv = self._wbuf[:mlen]
        if m:
            np.multiply(self._Pmat[t, :m], self._gain[:m], out=wv[:m])
        if mlen > m:
            np.multiply(
                self._gain[m:mlen], self._uniform_request_prob(t), out=wv[m:mlen]
            )
        meta_weight = self._meta_weight()
        total = (wv.sum() if mlen else 0.0) + meta_weight
        if total <= 1e-15:
            if not self.hedge_when_idle:
                return None
            request = self._sample_incomplete_request()
            if request is None:
                return None
            return self._allocate(request)
        u = self._rng.random() * total
        cv = self._cbuf[:mlen]
        np.cumsum(wv, out=cv)
        pos = int(np.searchsorted(cv, u, side="right"))
        if pos < mlen:
            request = int(self._mat_ids[pos])
        else:
            request = self._sample_uniform_request()
            if request is None:
                return None
            self._promote(request)
        return self._allocate(request)

    def _num_uniform(self) -> int:
        return self.gains.n - len(self._ids) - len(self._promoted)

    def _uniform_request_prob(self, t: int) -> float:
        pool = self.gains.n - len(self._ids)
        if pool <= 0:
            return 0.0
        return float(self._Pres[t]) / pool

    def _meta_weight(self) -> float:
        """Pooled weight of all still-uniform requests (§5.3.1)."""
        if not self.meta_request:
            return 0.0
        n_meta = self._num_uniform()
        if n_meta <= 0:
            return 0.0
        t = min(self._t, self.C - 1)
        share = self._uniform_request_prob(t) * n_meta
        return share * self.gains.mean_first_gain

    def _sample_uniform_request(self) -> Optional[int]:
        """Uniformly pick a pooled request (rejection sampling).

        The explicit + promoted set is tiny next to ``n``, so rejection
        terminates almost immediately; a deterministic scan backstops
        adversarial cases.
        """
        n = self.gains.n
        taken = self._explicit_set
        promoted = self._promoted_set
        for _ in range(64):
            candidate = int(self._rng.integers(0, n))
            if candidate not in taken and candidate not in promoted:
                return candidate
        for candidate in range(n):
            if candidate not in taken and candidate not in promoted:
                return candidate
        return None

    def _promote(self, request: int) -> None:
        self._promoted.append(request)
        self._promoted_set.add(request)
        self._ensure_capacity(self._mlen + 1)
        i = self._mlen
        effective = self._effective_blocks(request)
        self._mat_ids[i] = request
        self._have[i] = effective
        self._gain[i] = self.gains.gain(request, effective)
        self._pos_of[request] = i
        self._mlen += 1

    def _sample_incomplete_request(self) -> Optional[int]:
        """Random request that still has unsent blocks (idle hedging)."""
        n = self.gains.n
        for _ in range(64):
            candidate = int(self._rng.integers(0, n))
            if self._effective_blocks(candidate) < self.gains.blocks_of(candidate):
                return candidate
        for candidate in range(n):
            if self._effective_blocks(candidate) < self.gains.blocks_of(candidate):
                return candidate
        return None

    def _allocate(self, request: int) -> ScheduledBlock:
        index = self._effective_blocks(request)
        self._pending[request] = self._pending.get(request, 0) + 1
        pos = self._pos_of.get(request)
        if pos is not None:
            self._have[pos] = index + 1
            self._gain[pos] = self.gains.gain(request, index + 1)
        self._t += 1
        self.blocks_allocated += 1
        return ScheduledBlock(request=request, index=index)
