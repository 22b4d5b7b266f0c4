"""Vectorized scheduling core: equivalence and regression tests.

Three guarantees from the perf refactor are pinned here:

1. ``GreedyScheduler.schedule_batch`` (the incremental-gain fast path)
   produces **bit-identical** schedules to a ``next_block`` loop (the
   scalar Listing 1 reference) at every seed, across meta-request
   on/off, mirror on/off, mid-stream distribution updates, rollbacks,
   and mirror evictions.
2. The current implementation reproduces schedules captured from the
   pre-refactor code at fixed seeds (golden regression — the cached
   explicit/promoted sets and the incremental ``have`` array change no
   behaviour).
3. The vectorized ``expected_utility`` and
   ``RequestDistribution.explicit_matrix`` agree with their scalar
   references.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.core import (
    GainTable,
    GreedyScheduler,
    LinearUtility,
    RequestDistribution,
    RingBufferCache,
    ssim_image_utility,
)
from repro.core.greedy import probability_matrices
from repro.core.scheduler import ScheduledBlock, expected_utility, expected_utility_scalar


def drive(n, nb_seed, C, seed, meta, use_mirror, use_fast, mirror_cap=None):
    """Scripted scheduler workout; returns the flattened block stream.

    The script interleaves distribution updates, partial batch pulls,
    rollbacks of in-batch tails, and (with a mirror) sent-block
    confirmations — everything that mutates the fast path's
    incremental state.  ``use_fast`` picks ``schedule_batch`` vs the
    scalar ``next_block`` loop; both must emit the same stream.
    """
    rng = np.random.default_rng(nb_seed)
    nb = rng.integers(1, 7, size=n)
    mirror = RingBufferCache(mirror_cap or max(2, C)) if use_mirror else None
    gains = GainTable(LinearUtility(), nb)
    sched = GreedyScheduler(
        gains, cache_blocks=C, mirror=mirror, meta_request=meta, seed=seed
    )
    script = np.random.default_rng(seed + 999)
    out = []
    for _ in range(6):
        dense = script.random((2, n)) + 1e-9
        sched.update_distribution(
            RequestDistribution.from_dense(dense, deltas_s=[0.05, 0.25], threshold=0.02),
            0.01,
        )
        k = int(script.integers(1, C + 3))
        if use_fast:
            batch = sched.schedule_batch(k)
        else:
            batch = []
            for _ in range(k):
                block = sched.next_block()
                if block is None:
                    break
                batch.append(block)
        out += batch
        if batch and script.random() < 0.4:
            # Roll back a tail that is still inside the current batch.
            tail = min(int(script.integers(0, len(batch) + 1)), sched.position)
            if tail:
                sched.rollback(batch[len(batch) - tail :])
                del out[len(out) - tail :]
                batch = batch[: len(batch) - tail]
        if mirror is not None:
            for block in batch:
                mirror.mirror_put(block.request, block.index)
                sched.on_sent(block)
    return [(b.request, b.index) for b in out]


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    meta=st.booleans(),
    use_mirror=st.booleans(),
    C=st.integers(min_value=1, max_value=24),
)
def test_property_schedule_batch_bit_identical_to_scalar(seed, meta, use_mirror, C):
    fast = drive(50, seed + 1, C, seed, meta, use_mirror, use_fast=True)
    slow = drive(50, seed + 1, C, seed, meta, use_mirror, use_fast=False)
    assert fast == slow


def test_bit_identity_under_mirror_evictions():
    """A mirror smaller than the batch forces FIFO evictions, which
    shrink other requests' prefixes mid-stream; the evict listener must
    keep the incremental ``have`` array exact."""
    for seed in range(8):
        fast = drive(30, seed + 1, 16, seed, True, True, use_fast=True, mirror_cap=5)
        slow = drive(30, seed + 1, 16, seed, True, True, use_fast=False, mirror_cap=5)
        assert fast == slow


class TestGoldenSchedules:
    """Fixed-seed schedules captured from the pre-refactor implementation.

    Covers the satellite requirement that caching the promoted/explicit
    sets and maintaining ``have`` incrementally changes nothing under a
    fixed seed.
    """

    GOLDEN = {
        (40, 4, 16, 7, True, 0): [
            (22, 0), (34, 0), (28, 0), (7, 0), (10, 0), (34, 1), (0, 0), (31, 0),
            (30, 0), (17, 0), (10, 1), (9, 0), (8, 0), (16, 0), (18, 0), (20, 0),
        ],
        (40, 4, 16, 7, False, 0): [
            (22, 0), (34, 0), (28, 0), (7, 0), (10, 0), (34, 1), (0, 0), (31, 0),
            (30, 0), (17, 0), (10, 1), (9, 0), (8, 0), (16, 0), (18, 0), (20, 0),
        ],
        (40, 4, 16, 3, True, 16): [
            (3, 0), (11, 0), (32, 0), (24, 0), (3, 1), (17, 0), (19, 0), (6, 0),
            (29, 0), (4, 0), (15, 0), (21, 0), (17, 1), (24, 1), (29, 1), (38, 0),
        ],
        (25, 3, 12, 11, True, 12): [
            (4, 0), (13, 0), (16, 0), (1, 0), (5, 0), (23, 0), (2, 0), (3, 0),
            (23, 1), (16, 1), (9, 0), (13, 1),
        ],
    }

    @staticmethod
    def run(n, nb, C, seed, meta, mirror_cap, use_fast):
        mirror = RingBufferCache(mirror_cap) if mirror_cap else None
        gains = GainTable(LinearUtility(), [nb] * n)
        sched = GreedyScheduler(
            gains, cache_blocks=C, mirror=mirror, meta_request=meta, seed=seed
        )
        rng = np.random.default_rng(seed)
        dense = rng.random((2, n)) + 1e-9
        sched.update_distribution(
            RequestDistribution.from_dense(dense, deltas_s=[0.05, 0.25]), 0.01
        )
        out = []
        if use_fast:
            first = sched.schedule_batch(C // 2)
        else:
            first = [sched.next_block() for _ in range(C // 2)]
        out += first
        if mirror is not None:
            for block in first:
                mirror.mirror_put(block.request, block.index)
                sched.on_sent(block)
        if use_fast:
            out += sched.schedule_batch()
        else:
            while sched.position < C:
                block = sched.next_block()
                if block is None:
                    break
                out.append(block)
        return [(b.request, b.index) for b in out]

    @pytest.mark.parametrize("cfg", sorted(GOLDEN))
    def test_fast_path_reproduces_seed_schedules(self, cfg):
        assert self.run(*cfg, use_fast=True) == self.GOLDEN[cfg]

    @pytest.mark.parametrize("cfg", sorted(GOLDEN))
    def test_scalar_path_reproduces_seed_schedules(self, cfg):
        assert self.run(*cfg, use_fast=False) == self.GOLDEN[cfg]


class TestCachedSets:
    def test_explicit_set_cached_across_epochs_of_same_distribution(self):
        """Rollbacks and batch resets reuse the distribution object, so
        the explicit-id set must not be rebuilt (identity-cached)."""
        gains = GainTable(LinearUtility(), [4] * 30)
        sched = GreedyScheduler(gains, cache_blocks=8, seed=0)
        dense = np.random.default_rng(0).random((1, 30)) + 1e-9
        dist = RequestDistribution.from_dense(dense, deltas_s=[0.05], threshold=0.02)
        sched.update_distribution(dist, 0.01)
        cached = sched._explicit_set
        batch = sched.schedule_batch(4)
        sched.rollback(batch)  # same distribution: set object survives
        assert sched._explicit_set is cached
        sched.update_distribution(
            RequestDistribution.uniform(30), 0.01
        )  # new ids array: rebuilt
        assert sched._explicit_set is not cached

    def test_promoted_set_tracks_list(self):
        gains = GainTable(LinearUtility(), [4] * 50)
        sched = GreedyScheduler(gains, cache_blocks=12, seed=3)
        sched.update_distribution(RequestDistribution.uniform(50), 0.01)
        batch = sched.schedule_batch()
        assert set(sched._promoted) == sched._promoted_set
        sched.rollback(batch)
        assert set(sched._promoted) == sched._promoted_set == set()


class TestProbabilityMatrices:
    def test_install_rejects_shape_mismatch_without_mutating(self):
        gains = GainTable(LinearUtility(), [4] * 10)
        sched = GreedyScheduler(gains, cache_blocks=6, seed=0)
        dense = np.random.default_rng(0).random((1, 10)) + 1e-9
        dist = RequestDistribution.from_dense(dense, deltas_s=[0.05], threshold=0.02)
        before = sched._dist
        with pytest.raises(ValueError):
            sched.install_distribution(dist, 0.01, np.zeros((6, 1)), np.zeros(6))
        assert sched._dist is before  # rejected install left no residue
        good = probability_matrices(dist, 6, 0, 0.01)
        sched.install_distribution(dist, 0.01, *good)
        assert sched._dist is dist

    def test_zero_remaining_slots(self):
        dist = RequestDistribution.uniform(5)
        pmat, pres = probability_matrices(dist, 4, 4, 0.01)
        assert pmat.shape == (4, 0)
        np.testing.assert_array_equal(pres, np.zeros(4))

    def test_rows_before_position_are_zero(self):
        dense = np.random.default_rng(1).random((2, 8)) + 1e-9
        dist = RequestDistribution.from_dense(dense, deltas_s=[0.05, 0.2])
        pmat, pres = probability_matrices(dist, 6, 2, 0.05)
        np.testing.assert_array_equal(pmat[:2], 0.0)
        np.testing.assert_array_equal(pres[:2], 0.0)
        assert (pmat[2:] >= 0).all()
        # Row t aggregates all remaining slots; later rows shed mass.
        assert pres[2] >= pres[5]


class TestExplicitMatrixEquivalence:
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(min_value=0, max_value=5_000))
    def test_matches_explicit_at_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 50))
        deltas = np.unique(np.sort(rng.random(int(rng.integers(1, 5))) + 0.01))
        k = len(deltas)
        m = int(rng.integers(0, n))
        ids = rng.choice(n, size=m, replace=False).astype(np.int64)
        if m:
            raw = rng.random((k, m))
            probs = rng.uniform(0.3, 0.95) * raw / raw.sum(axis=1, keepdims=True)
        else:
            probs = np.empty((k, 0))
        residual = 1.0 - probs.sum(axis=1)
        dist = RequestDistribution(
            n=n, deltas_s=deltas, explicit_ids=ids,
            explicit_probs=probs, residual=residual,
        )
        # Below, between, exactly on, and beyond the horizons.
        qs = np.concatenate(
            [rng.random(7) * deltas[-1] * 1.5, deltas,
             [deltas[0] * 0.5, deltas[-1] * 2.0]]
        )
        mat, res = dist.explicit_matrix(qs)
        for row, q in enumerate(qs):
            _ids, p, r = dist.explicit_at(float(q))
            np.testing.assert_array_equal(mat[row], p)
            assert res[row] == r


class TestExpectedUtilityEquivalence:
    @settings(deadline=None, max_examples=40)
    @given(seed=st.integers(min_value=0, max_value=5_000))
    def test_matches_scalar_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 40))
        nb = rng.integers(1, 9, size=n)
        utility = ssim_image_utility() if seed % 2 else LinearUtility()
        gains = GainTable(utility, nb)
        C = int(rng.integers(1, 30))
        schedule = [ScheduledBlock(int(r), 0) for r in rng.integers(0, n, size=C)]
        dense = rng.random((2, n)) + 1e-9
        dist = RequestDistribution.from_dense(dense, deltas_s=[0.05, 0.3])
        seeds = {
            int(r): int(c)
            for r, c in zip(rng.integers(0, n, size=3), rng.integers(0, 5, size=3))
        }
        gamma = 0.97 if seed % 3 else 1.0
        a = expected_utility_scalar(
            schedule, dist, gains, 0.01, gamma=gamma, initial_blocks=seeds
        )
        b = expected_utility(
            schedule, dist, gains, 0.01, gamma=gamma, initial_blocks=seeds
        )
        assert b == pytest.approx(a, rel=1e-9, abs=1e-12)

    def test_empty_schedule(self):
        gains = GainTable(LinearUtility(), [3, 3])
        dist = RequestDistribution.uniform(2)
        assert expected_utility([], dist, gains, 0.01) == 0.0

    def test_validation(self):
        gains = GainTable(LinearUtility(), [3, 3])
        dist = RequestDistribution.uniform(2)
        with pytest.raises(ValueError):
            expected_utility([], dist, gains, 0.0)
        with pytest.raises(ValueError):
            expected_utility([], dist, gains, 0.01, gamma=1.5)


def skewed_dist(n, seed=0, k_explicit=10, residual=0.2, deltas=(0.05,)):
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(n, size=k_explicit, replace=False)).astype(np.int64)
    raw = rng.random((len(deltas), k_explicit)) + 0.05
    probs = (1.0 - residual) * raw / raw.sum(axis=1, keepdims=True)
    return RequestDistribution(
        n=n,
        deltas_s=np.asarray(deltas, dtype=float),
        explicit_ids=ids,
        explicit_probs=probs,
        residual=np.full(len(deltas), residual),
    )


class TestFirstDrawFrequencies:
    """Chi-squared: ``schedule_batch`` first-draw frequencies vs the
    Listing-1 weights (explicit requests plus the meta bucket), over
    repeated draw/rollback trials.

    With a single horizon every slot is a tail slot (a copy of the last
    horizon row); with two horizons whose last lies past the batch end
    every slot is an interpolated head slot.
    """

    TRIALS = 4000

    def _check(self, deltas, seed):
        dist = skewed_dist(60, seed=2, deltas=deltas)
        gains = GainTable(LinearUtility(), [3] * 60)
        sched = GreedyScheduler(gains, cache_blocks=24, seed=seed)
        sched.update_distribution(dist, 0.01)
        m = len(sched._ids)
        weights = np.concatenate(
            [sched._Pmat[0, :m] * sched._gain[:m], [sched._meta_weight()]]
        )
        explicit_pos = {int(r): i for i, r in enumerate(sched._ids)}
        counts = np.zeros(len(weights))
        for _ in range(self.TRIALS):
            batch = sched.schedule_batch(1)
            assert len(batch) == 1
            counts[explicit_pos.get(batch[0].request, len(weights) - 1)] += 1
            sched.rollback(batch)
        expected = self.TRIALS * weights / weights.sum()
        assert (expected > 5).all()  # chi-squared validity
        result = stats.chisquare(counts, expected)
        assert result.pvalue > 1e-3, result

    def test_first_tail_draw_matches_weights(self):
        self._check(deltas=(0.05,), seed=11)

    def test_first_head_draw_matches_weights(self):
        self._check(deltas=(0.05, 0.25), seed=13)
