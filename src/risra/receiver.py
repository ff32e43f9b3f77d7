"""AP-side receiver: singleton detection and successive interference cancellation.

The receiver only ever decodes singleton slots, i.e. slots holding exactly one
not-yet-decoded replica. A singleton replica decodes when its SNR in that slot
meets the threshold; the device's replicas are then removed from every slot,
which may expose new singletons. Passes repeat until one decodes nothing.
This is peeling on the device/slot bipartite graph, so the fixed point does
not depend on scan order. Slot occupancy is assumed perfectly known
(ideal preamble recognition) and cancellation is ideal.
"""

from __future__ import annotations

import numpy as np


def peel_trace(
    chosen: np.ndarray, snr_values: np.ndarray, threshold: float
) -> list[tuple[int, int, int]]:
    """Peel a boolean device-by-slot replica mask until a pass decodes nothing.

    Returns the decode events (pass, slot, device) in order, passes counted
    from 1; each device appears at most once, so the events count the
    decoded devices. Terminates after at most one pass per device.
    """
    live: list[set[int]] = [set() for _ in range(chosen.shape[1])]
    device_slots: dict[int, list[int]] = {}
    devs, slots = np.nonzero(chosen)
    for k, s in zip(devs.tolist(), slots.tolist()):
        live[s].add(k)
        device_slots.setdefault(k, []).append(s)
    trace: list[tuple[int, int, int]] = []
    iteration = 0
    while True:
        iteration += 1
        decoded_before = len(trace)
        for s, devs in enumerate(live):
            if len(devs) == 1:
                (k,) = devs
                if snr_values[k, s] >= threshold:
                    trace.append((iteration, s, k))
                    for s2 in device_slots[k]:
                        live[s2].discard(k)
        if len(trace) == decoded_before:
            return trace


def peel(chosen: np.ndarray, snr_values: np.ndarray, threshold: float) -> int:
    """Decoded-device count for a boolean device-by-slot replica mask."""
    return len(peel_trace(chosen, snr_values, threshold))
