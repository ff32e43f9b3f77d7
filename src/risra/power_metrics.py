"""Frame power consumption and the throughput metric.

Power has three additive parts per frame: the AP (a static floor plus, when
the training block is transmitted, one PA term per training slot), the surface
(one phase-shifter per element), and each contending device (a static floor
plus one PA term per transmitted replica). Throughput divides the decoded
count by the frame duration; policies that skip training also skip the
training block in that duration. Energy efficiency, throughput over power,
is taken from the two by the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(slots=True, frozen=True)
class PowerParams:
    """Hardware power model: PA inverse efficiencies, the AP's transmit power, static powers."""

    ap_pa_inverse_eff: float
    ap_tx_power_w: float
    ap_static_w: float
    mtd_pa_inverse_eff: float
    mtd_static_w: float
    phase_shifter_w: float

    def __post_init__(self) -> None:
        for key, xi in (("power.ap_xi", self.ap_pa_inverse_eff),
                        ("power.mtd_xi", self.mtd_pa_inverse_eff)):
            if xi <= 1:
                raise ValueError(f"{key} must exceed 1")
        for key, value in (("power.ap_tx_power_w", self.ap_tx_power_w),
                           ("power.ap_static_dbw", self.ap_static_w),
                           ("power.mtd_static_w", self.mtd_static_w),
                           ("power.phase_shifter_mw", self.phase_shifter_w)):
            if value <= 0:
                raise ValueError(f"{key} must give a positive power, not {value} W")


@dataclass(slots=True, frozen=True)
class FrameTiming:
    """Slot count, access-slot duration and training/access slot duration ratio."""

    access_slot_s: float
    training_ratio: float
    slots: int

    def __post_init__(self) -> None:
        if self.access_slot_s <= 0:
            raise ValueError("timing.t_as_s must be positive")
        if self.training_ratio < 0:
            raise ValueError("timing.r must be nonnegative")
        if self.slots < 1:
            raise ValueError("sim.s must be >= 1")


def ap_power(params: PowerParams, slots: int, training_used: bool) -> float:
    """AP power: static floor, plus one PA term per training slot when training runs."""
    if training_used:
        return slots * params.ap_pa_inverse_eff * params.ap_tx_power_w + params.ap_static_w
    return params.ap_static_w


def ris_power(n_elements: int, phase_shifter_w: float) -> float:
    """Surface power: one phase-shifter per reflecting element."""
    if n_elements < 1:
        raise ValueError("n_elements must be >= 1")
    return n_elements * phase_shifter_w


def throughput(successes, timing: FrameTiming, training_used: bool):
    """Decoded packets per second over the frame; r drops to 0 without training."""
    if np.any(np.asarray(successes) < 0):
        raise ValueError("successes must be nonnegative")
    r_eff = timing.training_ratio if training_used else 0.0
    return successes / ((1.0 + r_eff) * timing.slots * timing.access_slot_s)


def frame_metrics(
    params: PowerParams,
    timing: FrameTiming,
    n_elements: int,
    mtd_tx_power_w: float,
    replica_counts: np.ndarray,
    successes: np.ndarray,
    training_used: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Frame power and throughput, batched over the leading axes.

    `replica_counts` has shape (..., k), one entry per contending device, each
    replica sent at `mtd_tx_power_w`, the power that sets the devices' SNR
    (RadioParams), and `successes` shape (...). Returns (power_w,
    throughput_pps) of shape (...).
    training_used says whether the frame runs the training block: if it does,
    the AP's training transmissions are charged and the block lengthens the
    frame; if not, neither.
    """
    counts = np.asarray(replica_counts)
    if np.any(counts < 1):
        raise ValueError("every contending device sends at least one replica")
    p_ap = ap_power(params, timing.slots, training_used)
    p_ris = ris_power(n_elements, params.phase_shifter_w)
    replica_w = params.mtd_pa_inverse_eff * mtd_tx_power_w
    p_mtd = (counts * replica_w).sum(axis=-1) + counts.shape[-1] * params.mtd_static_w
    return p_ap + p_ris + p_mtd, throughput(successes, timing, training_used)
