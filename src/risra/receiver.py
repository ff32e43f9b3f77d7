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
peel_batch runs it on a whole batch of frames at once, one slot at a time
across every frame still peeling; peel_trace and peel are a batch of one.
"""

from __future__ import annotations

import numpy as np


def peel_batch(
    chosen: np.ndarray, snr_values: np.ndarray, threshold: float, keep_traces: bool = False
) -> tuple[np.ndarray, list[list[tuple[int, int, int]]] | None]:
    """Peel a batch of boolean (b, k, s) replica masks until a pass decodes nothing.

    Each pass visits slots 0..s-1 in order. At each slot, every frame still
    peeling whose slot holds one live replica with SNR at least `threshold`
    decodes that device and cancels its replicas from every slot. A frame
    stops after a pass that decodes nothing, so it takes at most one pass
    per device plus one. Returns the decoded-device count per frame and,
    with keep_traces, each frame's decode events (pass, slot, device) in
    order, passes counted from 1 (else None).
    """
    batch, k, slots = chosen.shape
    # each slot of each frame is one integer: its live replicas times `unit`,
    # plus per live replica its device index if it meets the threshold, else k.
    # The second part stays below unit, so a slot reads unit + d exactly when
    # its one live replica is device d and decodes.
    unit = k * k + 1
    weight = chosen * (unit + k - (snr_values >= threshold) * (k - np.arange(k)[:, None]))
    load = weight.sum(axis=1)
    decoded = np.zeros(batch, dtype=np.int64)
    events = []
    iteration, progress = 0, True
    # a frame whose pass decodes nothing has no decodable slot left, so it
    # needs no bookkeeping to stay out of later passes
    while progress:
        iteration += 1
        progress = False
        for slot in range(slots):
            column = load[:, slot]
            frames = np.flatnonzero((column >= unit) & (column < unit + k))
            if not frames.size:
                continue
            devices = column[frames] - unit
            load[frames] -= weight[frames, devices]
            decoded[frames] += 1
            progress = True
            if keep_traces:
                events.append((iteration, slot, frames.tolist(), devices.tolist()))
    if not keep_traces:
        return decoded, None
    traces: list[list[tuple[int, int, int]]] = [[] for _ in range(batch)]
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
