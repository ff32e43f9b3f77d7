import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from risra import receiver as rx
from oracles import (
    exhaustive_decode, frame_traces, loop_peel_trace, peel_trace, replay_trace, slot_sets,
)


def mask_of_slots(slots, num_devices):
    """Device x slot replica mask from per-slot device sets."""
    mask = np.zeros((num_devices, len(slots)), dtype=bool)
    for s, devs in enumerate(slots):
        mask[list(devs), s] = True
    return mask


def decoded(trace):
    return frozenset(k for _iteration, _slot, k in trace)


def passes(trace):
    return trace[-1][0] if trace else 0


def all_pass(k, s):
    return np.full((k, s), 10.0)


class TestBuildOccupancy:
    """The slot_sets oracle, which the peeling tests compare against."""

    def test_disjoint_singletons(self):
        assert slot_sets(np.array([[True, False], [False, True]])) == [{0}, {1}]

    def test_full_collision(self):
        assert slot_sets(np.ones((2, 2), dtype=bool)) == [{0, 1}, {0, 1}]

    @given(st.data())
    @settings(max_examples=100)
    def test_replica_count_identity(self, data):
        s = data.draw(st.integers(1, 8))
        k = data.draw(st.integers(1, 8))
        sets = [
            data.draw(st.sets(st.integers(0, s - 1), min_size=1, max_size=s))
            for _ in range(k)
        ]
        mask = np.zeros((k, s), dtype=bool)
        for device, chosen in enumerate(sets):
            mask[device, list(chosen)] = True
        assert sum(len(devs) for devs in slot_sets(mask)) == sum(len(c) for c in sets)


class TestSicDecode:
    def test_peeling_chain_decodes_everyone(self):
        chain = mask_of_slots([{0}, {0, 1}, {1, 2}, {2}], 3)
        trace = peel_trace(rx.peel_batch, chain, all_pass(3, 4), 1.0)
        assert decoded(trace) == frozenset({0, 1, 2})
        assert passes(trace) <= 2

    def test_two_device_stopping_set(self):
        assert peel_trace(rx.peel_batch, np.ones((2, 2), dtype=bool), all_pass(2, 2), 1.0) == []

    def test_singleton_below_threshold_stays_undecoded(self):
        assert peel_trace(rx.peel_batch, np.ones((1, 1), dtype=bool), np.array([[0.5]]), 1.0) == []

    def test_low_snr_replica_rescued_through_other_slot(self):
        # device 0 fails in slot 0 but decodes alone in slot 1
        trace = peel_trace(rx.peel_batch, np.ones((1, 2), dtype=bool), np.array([[0.5, 5.0]]), 1.0)
        assert trace == [(1, 1, 0)]

    def test_count_successes(self):
        assert rx.peel(mask_of_slots([{0}, {0, 1}, {1, 2}, {2}], 3), all_pass(3, 4), 1.0) == 3
        assert rx.peel(np.ones((2, 2), dtype=bool), all_pass(2, 2), 1.0) == 0


def random_instance(rng, max_devices=6, max_slots=6):
    k = int(rng.integers(1, max_devices + 1))
    s = int(rng.integers(1, max_slots + 1))
    mask = rng.random((k, s)) < 0.45
    for device in range(k):
        if not mask[device].any():
            mask[device, int(rng.integers(s))] = True
    ok = rng.random((k, s)) < 0.7
    return mask, np.where(ok, 2.0, 0.5)


class TestPeelingProperties:
    def test_matches_exhaustive_schedule_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            mask, snr = random_instance(rng)
            trace = peel_trace(rx.peel_batch, mask, snr, 1.0)
            assert decoded(trace) == exhaustive_decode(slot_sets(mask), snr >= 1.0)

    def test_invariant_under_slot_and_device_relabeling(self):
        # new device n is old device dev_perm[n]; new slot i is old slot_perm[i]
        rng = np.random.default_rng(8)
        for _ in range(300):
            mask, snr = random_instance(rng)
            k, s = snr.shape
            slot_perm = rng.permutation(s)
            dev_perm = rng.permutation(k)
            new_label = np.argsort(dev_perm)
            cells = np.ix_(dev_perm, slot_perm)
            base = decoded(peel_trace(rx.peel_batch, mask, snr, 1.0))
            permuted = decoded(peel_trace(rx.peel_batch, mask[cells], snr[cells], 1.0))
            assert {int(new_label[k_]) for k_ in base} == set(permuted)

    def test_raising_threshold_never_helps(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            mask, snr = random_instance(rng)
            low = decoded(peel_trace(rx.peel_batch, mask, snr, 0.6))
            high = decoded(peel_trace(rx.peel_batch, mask, snr, 1.5))
            assert high <= low

    def test_zero_threshold_decodes_every_dedicated_slot(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            mask, snr = random_instance(rng)
            dedicated = {next(iter(devs)) for devs in slot_sets(mask) if len(devs) == 1}
            assert dedicated <= decoded(peel_trace(rx.peel_batch, mask, snr, 0.0))

    def test_trace_replay_reproduces_decoded_set(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            mask, snr = random_instance(rng)
            trace = peel_trace(rx.peel_batch, mask, snr, 1.0)
            assert replay_trace(slot_sets(mask), trace) == decoded(trace)

    def test_terminates_within_device_count_passes(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            mask, snr = random_instance(rng)
            assert passes(peel_trace(rx.peel_batch, mask, snr, 1.0)) <= snr.shape[0]

    def test_mask_peel_agrees_with_sic_decode(self):
        # the count the engine uses equals the oracle's decoded-set size
        rng = np.random.default_rng(13)
        for _ in range(300):
            mask, snr = random_instance(rng)
            assert rx.peel(mask, snr, 1.0) == len(exhaustive_decode(slot_sets(mask), snr >= 1.0))


def assert_matches_loop(chosen, snr, threshold):
    counts, trace = rx.peel_batch(chosen, snr, threshold, keep_traces=True)
    plain, no_trace = rx.peel_batch(chosen, snr, threshold)
    assert no_trace.shape == (0, 4) and no_trace.dtype == trace.dtype
    traces = frame_traces(trace, chosen.shape[0])
    for frame in range(chosen.shape[0]):
        want = loop_peel_trace(chosen[frame], snr[frame], threshold)
        assert traces[frame] == want
        assert counts[frame] == plain[frame] == len(want)


# k just past each word boundary of the device bitmasks (receiver.mask_words):
# uint8 to uint16, uint16 to uint32, uint32 to uint64, one 64-bit word to two
WORD_CROSSING_K = (9, 17, 33, 65)


@st.composite
def peel_batches(draw):
    # mostly k <= 8, in one uint8 word; sometimes a k that crosses a word,
    # on fewer frames and slots to keep the examples small
    k = draw(st.one_of(st.integers(1, 8), st.sampled_from(WORD_CROSSING_K)))
    top = 8 if k <= 8 else 3
    b, s = (draw(st.integers(1, top)) for _ in range(2))
    chosen = draw(hnp.arrays(bool, (b, k, s)))
    # values on both sides of and at the threshold 1.0
    snr = draw(hnp.arrays(float, (b, k, s), elements=st.sampled_from([0.0, 0.5, 1.0, 2.0])))
    return chosen, snr


class TestPeelBatch:
    @given(peel_batches())
    @settings(max_examples=300, deadline=None)
    def test_matches_loop_oracle(self, batch):
        assert_matches_loop(*batch, 1.0)

    @given(peel_batches())
    @settings(max_examples=50, deadline=None)
    def test_all_below_threshold_decodes_nothing(self, batch):
        chosen, snr = batch
        counts, trace = rx.peel_batch(chosen, snr, 3.0, keep_traces=True)
        assert not counts.any()
        assert trace.shape == (0, 4) and trace.dtype.kind == "i"
        assert_matches_loop(chosen, snr, 3.0)

    def test_mixed_finished_and_unfinished_frames(self):
        # a stopping set (done after pass 1), a three-pass chain, a lone
        # singleton and an empty frame share one batch
        chain = mask_of_slots([{0, 1}, {1, 2}, {2}, set()], 3)
        frames = [np.zeros((3, 4), dtype=bool) for _ in range(4)]
        frames[0][:2, :2] = True
        frames[1] = chain
        frames[2][1, 3] = True
        chosen = np.stack(frames)
        snr = np.full(chosen.shape, 2.0)
        counts, trace = rx.peel_batch(chosen, snr, 1.0, keep_traces=True)
        assert counts.tolist() == [0, 3, 1, 0]
        assert frame_traces(trace, 4)[1] == [(1, 2, 2), (2, 1, 1), (3, 0, 0)]
        assert_matches_loop(chosen, snr, 1.0)

    def test_frame_of_one_equals_peel_trace(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            mask, snr = random_instance(rng)
            assert peel_trace(rx.peel_batch, mask, snr, 1.0) == loop_peel_trace(mask, snr, 1.0)

    @given(peel_batches(), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_counts_invariant_under_relabeling(self, batch, seed):
        # a peel reaches the same decoded set in any scan order: relabelling the
        # devices or permuting the slots of each frame leaves its count unchanged
        chosen, snr = batch
        b, k, s = chosen.shape
        counts, _ = rx.peel_batch(chosen, snr, 1.0)
        rng = np.random.default_rng(seed)
        devices = rng.permuted(np.tile(np.arange(k), (b, 1)), axis=1)[:, :, None]
        slots = rng.permuted(np.tile(np.arange(s), (b, 1)), axis=1)[:, None, :]
        for order, axis in ((devices, 1), (slots, 2)):
            moved = [np.take_along_axis(a, order, axis=axis) for a in (chosen, snr)]
            assert np.array_equal(rx.peel_batch(*moved, 1.0)[0], counts)


@st.composite
def stacked_batches(draw):
    """Masks of m members stacked on a leading axis over one (b, k, s) grid."""
    m, b, k, s = (draw(st.integers(1, 5)) for _ in range(4))
    chosen = draw(hnp.arrays(bool, (m, b, k, s)))
    snr = draw(hnp.arrays(float, (b, k, s), elements=st.sampled_from([0.0, 0.5, 1.0, 2.0])))
    return chosen, snr


def assert_stack_matches_loop(chosen, snr, threshold):
    """Counts in the leading shape and one trace per frame in C order, each the loop oracle's."""
    counts, trace = rx.peel_batch(chosen, snr, threshold, keep_traces=True)
    assert counts.shape == chosen.shape[:-2]
    assert np.array_equal(rx.peel_batch(chosen, snr, threshold)[0], counts)
    frames = list(np.ndindex(chosen.shape[:-2]))
    for index, trace in zip(frames, frame_traces(trace, len(frames)), strict=True):
        want = loop_peel_trace(chosen[index], np.broadcast_to(snr, chosen.shape)[index], threshold)
        assert trace == want
        assert counts[index] == len(want)


class TestStackedPeel:
    """Leading axes beyond the batch: one peel of stacked masks over a shared grid."""

    @given(stacked_batches())
    @settings(max_examples=200, deadline=None)
    def test_stack_equals_each_member_alone(self, batch):
        chosen, snr = batch
        assert_stack_matches_loop(chosen, snr, 1.0)
        counts, trace = rx.peel_batch(chosen, snr, 1.0, keep_traces=True)
        b = len(snr)
        traces = frame_traces(trace, counts.size)
        for member, alone in enumerate(chosen):
            own_counts, own_trace = rx.peel_batch(alone, snr, 1.0, keep_traces=True)
            assert np.array_equal(counts[member], own_counts)
            assert traces[member * b:(member + 1) * b] == frame_traces(own_trace, b)

    # the masks widen where k outgrows a word (receiver.mask_words): uint8 to
    # uint16 between k = 8 and 9, uint16 to uint32 between 16 and 17, uint32
    # to uint64 between 32 and 33, and to a second 64-bit word between 64 and
    # 65; k = 129 takes three words, the last holding one device
    @pytest.mark.parametrize("k", [5, 6, 8, 9, 16, 17, 32, 33, 39, 40, 64, 65, 129])
    def test_encoding_widths(self, k):
        rng = np.random.default_rng(k)
        full = np.zeros((4, k, k), dtype=bool)
        full[0, :, 0] = True  # every device in slot 0 and nowhere else
        full[1] = True  # every device in every slot
        full[2, :, 0] = True  # every device in slot 0, device d > 0 alone in slot d:
        full[2, np.arange(1, k), np.arange(1, k)] = True  # slot 0 decodes device 0 last
        # (frame 2 decodes every device, each from its own bit, the top one included)
        full[3, [0, k - 1], 0] = True  # the first and last device collide, in two words past 64
        mixed = np.where(rng.random(full.shape) < 0.7, 2.0, 0.5)
        for snr in (np.full(full.shape, 2.0), np.full(full.shape, 0.5), mixed):
            assert_stack_matches_loop(full, snr, 1.0)
            assert_stack_matches_loop(np.stack([full, full[::-1]]), snr, 1.0)
        counts, trace = rx.peel_batch(full, np.full(full.shape, 2.0), 1.0, keep_traces=True)
        assert counts.tolist() == [0, 0, k, 0]
        assert frame_traces(trace, 4)[2][-1] == (2, 0, 0)
        masks = rng.random((2, 16, k, 8)) < 0.3
        snr = np.where(rng.random((16, k, 8)) < 0.7, 2.0, 0.5)
        assert_stack_matches_loop(masks, snr, 1.0)

    @pytest.mark.parametrize("replicas", [255, 256])
    def test_one_replica_in_every_word_of_a_slot_collides(self, replicas):
        # at k = 16384 a slot takes 256 words: a count of its nonzero words
        # must not wrap to 0 when every word holds one replica
        chosen = np.zeros((16384, 1), dtype=bool)
        chosen[64 * np.arange(replicas), 0] = True
        assert rx.peel(chosen, np.full(chosen.shape, 2.0), 1.0) == 0

    def test_packing_memory_is_linear_in_k(self):
        # one slot of k = 16384 devices is 64 KiB of float32 flags: a packing
        # whose memory is linear in k stays within a small multiple of that
        k = 16384
        flags = np.zeros((k, 1), dtype=bool)
        flags[::7] = True
        dtype, words = rx.mask_words(k)
        tracemalloc.start()
        try:
            packed = rx._pack(flags, dtype, words)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert np.array_equal(packed[:, 0], np.packbits(flags[:, 0], bitorder="little").view("<u8"))

    @pytest.mark.parametrize("k", [5, 6, 8, 9, 16, 17, 32, 33, 39, 40, 64, 65, 129])
    def test_mask_words_are_the_narrowest_that_hold_a_full_slot(self, k):
        # a slot holding every device needs k bits: one word of the narrowest
        # unsigned dtype that holds them up to k = 64, 64-bit words beyond
        dtype, words = rx.mask_words(k)
        assert dtype.kind == "u" and words * 8 * dtype.itemsize >= k
        # the next narrower unsigned dtype, if any, cannot hold them
        narrower = [t for t in (np.uint8, np.uint16, np.uint32) if np.dtype(t) < dtype]
        assert narrower == [] or 8 * np.dtype(narrower[-1]).itemsize < k
        # and one word fewer cannot either
        assert (words - 1) * 8 * dtype.itemsize < k
        assert (dtype, words) == {
            5: (np.uint8, 1), 6: (np.uint8, 1), 8: (np.uint8, 1), 9: (np.uint16, 1),
            16: (np.uint16, 1), 17: (np.uint32, 1), 32: (np.uint32, 1), 33: (np.uint64, 1),
            39: (np.uint64, 1), 40: (np.uint64, 1), 64: (np.uint64, 1), 65: (np.uint64, 2),
            129: (np.uint64, 3),
        }[k]
