"""Deterministic channel model for an uplink served through a reflecting surface.

The scene: a rectangular reconfigurable surface sits in the xz-plane, centered
at the origin. The access point (AP) and the machine-type devices (MTDs) live
in the xy-plane on opposite sides of a blockage, so every link goes through
the surface. A node is described by its distance from the origin, its angle
from the surface boresight, and its antenna gain. The surface cycles through a
fixed set of phase-shift configurations, one per time slot; a device's SNR
therefore changes from slot to slot, which is what the access policies exploit.

For a device at angle theta_k and surface configuration theta_s, the channel
power gain factors into

    |h|^2 = path_loss * |array_factor|^2,

with the array factor a sum of per-column phasors along the x-axis of the
surface (reflection is modeled as independent of z, so the z-count enters as a
plain multiplier). The propagation phase of h never reaches the SNR, so it is
not modeled.

Everything in this module is linear (watts, power ratios, radians). dB values
are converted once at config parsing. The dB helpers at the bottom are the
only place decibels appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HALF_PI = math.pi / 2


@dataclass(slots=True)
class RisGeometry:
    """Reflecting surface: element counts along x and z, element size, carrier wavelength."""

    n_x: int
    n_z: int
    d_x_m: float
    d_z_m: float
    wavelength_m: float

    def __post_init__(self) -> None:
        if self.n_x < 1 or self.n_z < 1:
            raise ValueError("element counts n_x, n_z must be >= 1")
        if not (0 < self.d_x_m <= self.wavelength_m):
            raise ValueError("element width d_x_m must be in (0, wavelength]")
        if not (0 < self.d_z_m <= self.wavelength_m):
            raise ValueError("element height d_z_m must be in (0, wavelength]")

    @property
    def n_elements(self) -> int:
        return self.n_x * self.n_z

    @property
    def wavenumber(self) -> float:
        return 2 * math.pi / self.wavelength_m


@dataclass(slots=True)
class NodePlacement:
    """Polar placement of the AP plus its linear antenna power gain."""

    distance_m: float
    angle_rad: float
    antenna_gain: float

    def __post_init__(self) -> None:
        if self.distance_m <= 0:
            raise ValueError("distance_m must be positive")
        if not (0 <= self.angle_rad <= HALF_PI):
            raise ValueError("angle_rad must lie in [0, pi/2]")
        if self.antenna_gain <= 0:
            raise ValueError("antenna_gain must be positive (linear ratio)")


@dataclass(slots=True)
class RadioParams:
    """MTD transmit power, receiver noise power and the SIC decoding SNR threshold (all linear)."""

    mtd_tx_power_w: float
    noise_power_w: float
    snr_threshold: float

    def __post_init__(self) -> None:
        if self.mtd_tx_power_w <= 0 or self.noise_power_w <= 0 or self.snr_threshold <= 0:
            raise ValueError("radio parameters must be strictly positive")


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


def array_factor_power(ris: RisGeometry, theta_mtd, theta_cfg) -> np.ndarray:
    """|array factor|^2, vectorized over broadcastable angle arrays.

    Uses the closed form |sum_{n=1..N} e^{jxn}|^2 = (sin(N x/2) / sin(x/2))^2,
    which channel tests hold to within 1e-10 of the direct summation.
    """
    theta_mtd = np.asarray(theta_mtd, dtype=float)
    theta_cfg = np.asarray(theta_cfg, dtype=float)
    x = ris.wavenumber * ris.d_x_m * (np.sin(theta_mtd) - np.sin(theta_cfg))
    half = 0.5 * x
    den = np.sin(half)
    num = np.sin(ris.n_x * half)
    ratio = np.where(den == 0.0, float(ris.n_x), num / np.where(den == 0.0, 1.0, den))
    return (ris.n_z * ratio) ** 2


def snr_matrix(
    ris: RisGeometry,
    radio: RadioParams,
    ap: NodePlacement,
    mtd_gain: float,
    distances: np.ndarray,
    angles: np.ndarray,
    phases: tuple[float, ...],
) -> np.ndarray:
    """SNR grid of devices at `distances` and `angles` (any shape (..., k)) over
    the slots' configuration angles `phases`; shape (..., k, num slots).

    Each entry is P_tx / N0 * |h|^2 with |h|^2 = path loss * |array factor|^2,
    the path loss being G_ap G_mtd / (4 pi)^2 * (d_x d_z / (d_ap d))^2 * cos(theta)^2.
    """
    base = ap.antenna_gain * mtd_gain / (4 * math.pi) ** 2
    beta = base * (ris.d_x_m * ris.d_z_m / (ap.distance_m * distances)) ** 2 * np.cos(angles) ** 2
    gain_sq = array_factor_power(ris, angles[..., None], np.asarray(phases))
    return radio.mtd_tx_power_w / radio.noise_power_w * beta[..., None] * gain_sq


def sample_mtd_placements(
    rng: np.random.Generator,
    count: int,
    distance_range: tuple[float, float],
    angle_range: tuple[float, float] = (0.0, HALF_PI),
) -> tuple[np.ndarray, np.ndarray]:
    """Draw independent device (distances, angles), uniform in each.

    Distances are drawn first, then angles, so the stream layout is part of
    the reproducibility contract.
    """
    d_min, d_max = distance_range
    a_min, a_max = angle_range
    if count < 1:
        raise ValueError("count must be >= 1")
    if not (0 < d_min <= d_max):
        raise ValueError("distance range must satisfy 0 < d_min <= d_max")
    if not (0 <= a_min <= a_max <= HALF_PI):
        raise ValueError("angle range must be ordered and lie within [0, pi/2]")
    return rng.uniform(d_min, d_max, count), rng.uniform(a_min, a_max, count)


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    return 10.0 * math.log10(x)


def dbm_to_watts(x_dbm: float) -> float:
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


def watts_to_dbm(x_w: float) -> float:
    return 10.0 * math.log10(x_w) + 30.0


def dbw_to_watts(x_dbw: float) -> float:
    return 10.0 ** (x_dbw / 10.0)


def watts_to_dbw(x_w: float) -> float:
    return 10.0 * math.log10(x_w)
