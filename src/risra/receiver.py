"""AP-side receiver: singleton detection and successive interference cancellation.

The receiver only ever decodes singleton slots, i.e. slots holding exactly one
not-yet-decoded replica. A singleton replica decodes when its SNR in that slot
meets the threshold; the device's replicas are then removed from every slot,
which may expose new singletons. Passes repeat until one decodes nothing.
This is peeling on the device/slot bipartite graph, so the fixed point does
not depend on scan order. Slot occupancy is assumed perfectly known
(ideal preamble recognition) and cancellation is ideal.

The order still fixes the decode trace, so there is one: each pass visits the
slots in index order and a decode cancels before the next slot is looked at.
peel_batch runs it on masks of any leading shape at once, one slot at a time
across every frame still peeling, with the SNR grid broadcast across the
leading axes: a cell group stacks its members' masks of one batch and peels
them in one call on their shared grid. peel_trace and peel are a batch of one.
"""

from __future__ import annotations

import numpy as np


def load_dtype(k: int) -> np.dtype:
    """The narrowest unsigned dtype that holds peel_batch's largest slot load of k devices,
    k * (unit + k) with unit = k*k + 1: uint8 up to k = 5, uint16 up to 39, uint32 from 40."""
    return np.min_scalar_type(k * (k * k + 1 + k))


def peel_batch(
    chosen: np.ndarray, snr_values: np.ndarray, threshold: float, keep_traces: bool = False
) -> tuple[np.ndarray, list[list[tuple[int, int, int]]] | None]:
    """Peel boolean (..., k, s) replica masks until a pass decodes nothing.

    Every leading index of `chosen` is one frame; the (..., k, s) SNR grid
    broadcasts against it, so the masks of several policies stacked on a
    leading axis peel on one shared grid. Each pass visits slots 0..s-1 in
    order. At each slot, every frame still peeling whose slot holds one live
    replica with SNR at least `threshold` decodes that device and cancels its
    replicas from every slot. A frame stops after a pass that decodes
    nothing, so it takes at most one pass per device plus one. Returns the
    decoded-device count per frame, in the leading shape, and, with
    keep_traces, each frame's decode events (pass, slot, device) in order,
    passes counted from 1, one list per frame in C order of the leading axes
    (else None).
    """
    k, slots = chosen.shape[-2:]
    # each slot of each frame is one integer: its live replicas times `unit`,
    # plus per live replica its device index if it meets the threshold, else k.
    # The second part stays below unit, so a slot reads unit + d exactly when
    # its one live replica is device d and decodes. The loads are summed in
    # load_dtype(k), which holds the largest.
    unit = k * k + 1
    dtype = load_dtype(k)
    codes = np.arange(unit, unit + k, dtype=dtype)[:, None]
    base = np.where(snr_values >= threshold, codes, dtype.type(unit + k))
    weight = chosen * base
    lead = weight.shape[:-2]
    weight = weight.reshape(-1, k, slots)
    load = weight.sum(axis=1, dtype=dtype)
    decoded = np.zeros(len(load), dtype=np.int64)
    events = []
    iteration, progress = 0, True
    # a frame whose pass decodes nothing has no decodable slot left, so it
    # needs no bookkeeping to stay out of later passes
    while progress:
        iteration += 1
        progress = False
        for slot in range(slots):
            # below unit, load - unit wraps around to at least k in the
            # unsigned dtype, so one comparison finds the decodable frames
            offset = load[:, slot] - unit
            frames = (offset < k).nonzero()[0]
            if not frames.size:
                continue
            devices = offset[frames]
            load[frames] -= weight[frames, devices]
            decoded[frames] += 1
            progress = True
            if keep_traces:
                events.append((iteration, slot, frames.tolist(), devices.tolist()))
    decoded = decoded.reshape(lead)
    if not keep_traces:
        return decoded, None
    traces: list[list[tuple[int, int, int]]] = [[] for _ in range(len(load))]
    for iteration, slot, frames, devices in events:
        for frame, device in zip(frames, devices):
            traces[frame].append((iteration, slot, device))
    return decoded, traces


def peel_trace(
    chosen: np.ndarray, snr_values: np.ndarray, threshold: float
) -> list[tuple[int, int, int]]:
    """Decode events (pass, slot, device) of one device-by-slot mask; see peel_batch.

    Each device appears at most once, so the events count the decoded devices.
    """
    return peel_batch(chosen[None], snr_values[None], threshold, keep_traces=True)[1][0]


def peel(chosen: np.ndarray, snr_values: np.ndarray, threshold: float) -> int:
    """Decoded-device count for a boolean device-by-slot replica mask."""
    return int(peel_batch(chosen[None], snr_values[None], threshold)[0][0])
