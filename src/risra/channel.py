"""Deterministic channel model for an uplink served through a reflecting surface.

The scene: a rectangular reconfigurable surface sits in the xz-plane, centered
at the origin. The access point (AP) and the machine-type devices (MTDs) live
in the xy-plane on opposite sides of a blockage, so every link goes through
the surface. A device is described by its distance from the origin, its angle
from the surface boresight, and its antenna gain; the AP by its distance and
gain alone, since its angle never reaches the SNR. The surface cycles through a
fixed set of phase-shift configurations, one per time slot; a device's SNR
therefore changes from slot to slot, which is what the access policies exploit.

For a device at angle theta_k and surface configuration theta_s, the channel
power gain factors into

    |h|^2 = path_loss * |array_factor|^2,

with the array factor a sum of per-column phasors along the x-axis of the
surface (reflection is modeled as independent of z, so the z-count enters as a
plain multiplier). The propagation phase of h never reaches the SNR, so it is
not modeled. The array factor depends on the two angles only through
sin(theta_k) - sin(theta_s), so the SNR grid takes each device's and each
slot's sine once and the kernel works on sines.

Everything in this module is linear (watts, power ratios, radians). dB values
are converted once at config parsing. The dB helpers at the bottom are the
only place decibels appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HALF_PI = math.pi / 2


@dataclass(slots=True, frozen=True)
class RisGeometry:
    """Reflecting surface: element counts along x and z, element size, carrier wavelength."""

    n_x: int
    n_z: int
    d_x_m: float
    d_z_m: float
    wavelength_m: float

    def __post_init__(self) -> None:
        for key, count in (("ris.n_x", self.n_x), ("ris.n_z", self.n_z)):
            if count < 1:
                raise ValueError(f"{key} must be >= 1")
        for key, size in (("ris.d_x_m", self.d_x_m), ("ris.d_z_m", self.d_z_m)):
            if not (0 < size <= self.wavelength_m):
                raise ValueError(f"{key} must be in (0, radio.wavelength_m]")

    @property
    def n_elements(self) -> int:
        return self.n_x * self.n_z

    @property
    def wavenumber(self) -> float:
        return 2 * math.pi / self.wavelength_m


@dataclass(slots=True, frozen=True)
class NodePlacement:
    """The AP's distance from the surface center plus its linear antenna power gain."""

    distance_m: float
    antenna_gain: float

    def __post_init__(self) -> None:
        if self.distance_m <= 0:
            raise ValueError("ap.distance_m must be positive")
        if self.antenna_gain <= 0:
            raise ValueError(f"ap.gain_db must give a positive linear gain, not {self.antenna_gain}")


@dataclass(slots=True, frozen=True)
class RadioParams:
    """MTD transmit power, receiver noise power and the SIC decoding SNR threshold (all linear)."""

    mtd_tx_power_w: float
    noise_power_w: float
    snr_threshold: float

    def __post_init__(self) -> None:
        for key, value in (("radio.mtd_tx_power_w", self.mtd_tx_power_w),
                           ("radio.noise_power_dbm", self.noise_power_w),
                           ("radio.snr_threshold_db", self.snr_threshold)):
            if value <= 0:
                raise ValueError(f"{key} must give a positive linear value, not {value}")


def phase_shift_set(num_slots: int) -> tuple[float, ...]:
    """The surface configuration angles, one per slot: the uniform sweep of [0, pi/2].

    HALF_PI * (i / (S - 1)) keeps both endpoints exact. A single-slot system
    gets the boresight configuration (angle 0), the limit of the sweep's
    first element.
    """
    if num_slots < 1:
        raise ValueError("num_slots must be >= 1")
    if num_slots == 1:
        return (0.0,)
    return tuple(HALF_PI * (i / (num_slots - 1)) for i in range(num_slots))


def array_factor_power(ris: RisGeometry, sin_mtd, sin_cfg) -> np.ndarray:
    """|array factor|^2, vectorized over broadcastable arrays of the angles' sines.

    The device and configuration angles enter only through their sines, so
    the caller takes each sine once and passes it. Uses the closed form
    |sum_{n=1..N} e^{jxn}|^2 = (sin(N x/2) / sin(x/2))^2, which channel tests
    hold to within 1e-10 of the direct summation; where sin(x/2) is 0 the
    ratio is its limit N. Every step works in place on one output buffer.
    """
    sin_mtd = np.asarray(sin_mtd, dtype=float)
    sin_cfg = np.asarray(sin_cfg, dtype=float)
    half = np.empty(np.broadcast_shapes(sin_mtd.shape, sin_cfg.shape))
    np.subtract(sin_mtd, sin_cfg, out=half)
    half *= ris.wavenumber * ris.d_x_m
    half *= 0.5
    den = np.sin(half)
    half *= ris.n_x
    np.sin(half, out=half)
    with np.errstate(divide="ignore", invalid="ignore"):
        half /= den
    half[den == 0.0] = ris.n_x
    half *= ris.n_z
    return np.square(half, out=half)


def snr_matrix(
    ris: RisGeometry,
    radio: RadioParams,
    ap: NodePlacement,
    mtd_gain: float,
    distances: np.ndarray,
    angles: np.ndarray,
    phases: tuple[float, ...],
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """SNR grid of devices at `distances` and `angles` (any shape (..., k)) over
    the slots' configuration angles `phases`; shape (..., k, num slots).

    Each entry is P_tx / N0 * |h|^2 with |h|^2 = path loss * |array factor|^2,
    the path loss being G_ap G_mtd / (4 pi)^2 * (d_x d_z / (d_ap d))^2 * cos(theta)^2.
    Each device's and each slot's sine is taken once. With a boolean `mask`
    of the grid's shape, only its True entries are computed, from the
    gathered sines, each bit-equal to the full grid's, and the rest are 0.
    """
    base = ap.antenna_gain * mtd_gain / (4 * math.pi) ** 2
    beta = base * (ris.d_x_m * ris.d_z_m / (ap.distance_m * distances)) ** 2 * np.cos(angles) ** 2
    scale = radio.mtd_tx_power_w / radio.noise_power_w * beta
    sin_mtd = np.sin(angles)
    sin_cfg = np.sin(np.asarray(phases, dtype=float))
    if mask is None:
        snr = array_factor_power(ris, sin_mtd[..., None], sin_cfg)
        snr *= scale[..., None]
        return snr
    entries = np.flatnonzero(mask)
    device, slot = np.divmod(entries, sin_cfg.size)
    values = array_factor_power(ris, sin_mtd.reshape(-1)[device], sin_cfg[slot])
    values *= scale.reshape(-1)[device]
    snr = np.zeros(mask.shape)
    snr.reshape(-1)[entries] = values
    return snr


def unit_doubles(words: np.ndarray) -> np.ndarray:
    """numpy's Generator.random of each raw 64-bit word: its top 53 bits times 2**-53."""
    return (words >> np.uint64(11)) * 2.0**-53


def sample_mtd_placements(
    words: np.ndarray,
    distance_range: tuple[float, float],
    angle_range: tuple[float, float] = (0.0, HALF_PI),
) -> tuple[np.ndarray, np.ndarray]:
    """Independent device (distances, angles), uniform in each, from raw stream words.

    `words` has shape (..., 2 * count): the first count words give the
    distances, the rest the angles, each as numpy's Generator.uniform(a, b)
    gives it, a + (b - a) * u with u = unit_doubles(word). The stream layout
    is part of the reproducibility contract.
    """
    d_min, d_max = distance_range
    a_min, a_max = angle_range
    count, odd = divmod(words.shape[-1], 2)
    if count < 1 or odd:
        raise ValueError("placement needs two words per device and at least one device")
    if not (0 < d_min <= d_max):
        raise ValueError("distance range must satisfy 0 < d_min <= d_max")
    if not (0 <= a_min <= a_max <= HALF_PI):
        raise ValueError("angle range must be ordered and lie within [0, pi/2]")
    u = unit_doubles(words)
    return d_min + (d_max - d_min) * u[..., :count], a_min + (a_max - a_min) * u[..., count:]


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def dbm_to_watts(x_dbm: float) -> float:
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


def dbw_to_watts(x_dbw: float) -> float:
    return 10.0 ** (x_dbw / 10.0)
