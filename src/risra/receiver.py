"""AP-side receiver: singleton detection and successive interference cancellation.

The receiver only ever decodes singleton slots, i.e. slots holding exactly one
not-yet-decoded replica. A singleton replica decodes when its SNR in that slot
meets the threshold; the device's replicas are then removed from every slot,
which may expose new singletons. Passes repeat until one decodes nothing.
This is peeling on the device/slot bipartite graph, so the fixed point does
not depend on scan order (Luby et al., IEEE Trans. Inf. Theory 2001). Slot
occupancy is assumed perfectly known (ideal preamble recognition) and
cancellation is ideal.

peel_batch holds each slot of each frame as two device bitmasks: the devices
with a live replica there, and those of them whose SNR meets the threshold,
packed once from the SNR grid, which broadcasts across the leading axes (a
cell group stacks its members' masks of one batch on their shared grid).
Each pass walks a list of slot windows; a window decodes every decodable slot
in it of every frame still peeling and clears the decoded devices from every
slot. Counts take one window of all slots, so a pass decodes in parallel.
The order still fixes the decode trace, so traces take the single slots in
index order. peel is a batch of one.
"""

from __future__ import annotations

import numpy as np

_WORD_BITS = 64  # bits of the widest word; past k = 64 a slot takes several
_PIECE_BITS = 16  # bits of a word that one float32 sum packs
_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.int64)


def mask_words(k: int) -> tuple[np.dtype, int]:
    """The word dtype and words per slot of k-device bitmasks: the narrowest unsigned
    dtype that holds k bits (uint8 up to k = 8, uint16 to 16, uint32 to 32, uint64
    beyond), and one word per 64 devices past k = 64."""
    return np.min_scalar_type((1 << min(k, _WORD_BITS)) - 1), max(1, -(-k // _WORD_BITS))


def _pack(flags: np.ndarray, dtype: np.dtype, words: int) -> np.ndarray:
    """Boolean (..., k, s) flags as (..., words, s) bitmasks; device d is bit d % 64 of word d // 64.

    One float32 matmul sums each 16 consecutive bits of a word, weighted by
    their place value, into a piece; such a sum has at most 16 significant
    bits, so float32 holds it exactly. A word is the OR of its pieces. Past
    k = 64 the flags are padded to whole words, which share one weight block.
    """
    k, slots = flags.shape[-2:]
    block = min(k, _WORD_BITS)
    piece = min(8 * dtype.itemsize, _PIECE_BITS)
    pieces = 8 * dtype.itemsize // piece
    devices = np.arange(block)
    weights = np.zeros((pieces, block), np.float32)
    weights[devices // piece, devices] = 2.0 ** devices
    if k > block:
        values = np.zeros(flags.shape[:-2] + (words * block, slots), np.float32)
        values[..., :k, :] = flags
    else:
        values = flags.astype(np.float32)
    values = values.reshape(values.shape[:-2] + (words, block, slots))
    parts = np.matmul(weights, values).astype(dtype)
    word = parts[..., 0, :]
    for index in range(1, pieces):
        word = word | parts[..., index, :]
    return word


def _decodable(live: np.ndarray, good: np.ndarray) -> np.ndarray:
    """The devices that (n, words, s) masks decode at once, ORed per frame: (n, words).

    A slot decodes when its live mask holds at most one bit and its good
    mask, a subset, is not empty. The bits may name several devices; the
    nonzero words are counted in a dtype that holds their number.
    """
    ready = (
        (good != 0).any(axis=-2)
        & ((live & (live - 1)) == 0).all(axis=-2)
        & ((live != 0).sum(axis=-2, dtype=np.min_scalar_type(live.shape[-2])) <= 1)
    )
    return np.bitwise_or.reduce(good * ready[..., None, :], axis=-1)


def _devices(bits: np.ndarray) -> np.ndarray:
    """The device of each (f, words) row holding one bit: its word times 64 plus the bit's exponent."""
    exponent = np.frexp(bits)[1]  # 2**e reads (0.5, e + 1) and 0 reads (0, 0)
    offset = _WORD_BITS * np.arange(bits.shape[-1]) - 1
    return np.where(exponent > 0, exponent + offset, 0).sum(axis=-1)


def peel_batch(
    chosen: np.ndarray, snr_values: np.ndarray, threshold: float, keep_traces: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Peel boolean (..., k, s) replica masks until a pass decodes nothing.

    Every leading index of `chosen` is one frame; the (..., k, s) SNR grid
    broadcasts against it, so policies stacked on a leading axis peel on one
    shared grid. A pass walks windows of slots, all s at once or, with
    keep_traces, one at a time in index order. In a window every frame still
    peeling decodes each device alone among the live replicas of a slot with
    SNR at least `threshold`, and cancels its replicas from every slot. A
    frame stops after a pass that decodes nothing, at most one pass per
    device plus one. Returns the decoded-device count per frame, in the
    leading shape, and the decode events as one (n, 4) integer array of
    (frame, pass, slot, device) rows, frames numbered in C order of the
    leading axes and passes from 1, stably sorted by frame so each frame's
    events keep their decode order; without keep_traces it has no rows.
    """
    k, slots = chosen.shape[-2:]
    dtype, words = mask_words(k)
    live = _pack(chosen, dtype, words)
    good = live & _pack(snr_values >= threshold, dtype, words)
    # (live, good) of every frame, cleared together
    masks = np.stack([np.broadcast_to(live, good.shape), good]).reshape(2, -1, words, slots)
    windows = [slice(slot, slot + 1) for slot in range(slots)] if keep_traces else [slice(None)]
    found = np.zeros(masks.shape[1:3], dtype)
    frames = np.arange(len(found))
    events, iteration = [], 0
    while frames.size:
        iteration += 1
        decoded = np.zeros((frames.size, words), dtype)
        for window in windows:
            bits = _decodable(*masks[..., window])
            decoded |= bits
            if keep_traces:  # a slot decodes in few frames: cancel in those rows only
                rows = bits.any(axis=-1).nonzero()[0]
                if rows.size:
                    bits = bits[rows]
                    masks[:, rows] &= ~bits[..., None]
                    events.append((frames[rows], iteration, window.start, bits))
            else:
                masks &= ~bits[..., None]
        found[frames] |= decoded
        # a frame whose pass decodes nothing has no decodable slot left
        more = decoded.any(axis=-1).nonzero()[0]
        if more.size < frames.size:
            frames, masks = frames[more], masks.take(more, axis=1)
    counts = _POPCOUNT[found.view(np.uint8)].sum(axis=-1).reshape(good.shape[:-2])
    if not events:  # always so without keep_traces
        return counts, np.zeros((0, 4), np.int64)
    frames, passes, starts, bits = zip(*events)
    sizes = [len(rows) for rows in frames]
    trace = np.column_stack([np.concatenate(frames), np.repeat(passes, sizes),
                             np.repeat(starts, sizes), _devices(np.concatenate(bits))])
    return counts, trace[np.argsort(trace[:, 0], kind="stable")]


def peel(chosen: np.ndarray, snr_values: np.ndarray, threshold: float) -> int:
    """Decoded-device count for a boolean device-by-slot replica mask."""
    return int(peel_batch(chosen[None], snr_values[None], threshold)[0][0])
