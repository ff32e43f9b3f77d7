"""Channel-quality measurement and the four uplink access policies.

A frame has two blocks of S slots. During the first block the surface sweeps
its S configurations while the AP sends pilots, and each contending device
records one quality value per slot. During the second block the sweep repeats
and each device transmits packet replicas in the slots chosen by its policy:

  carp    quality-proportional Bernoulli trial per slot; if no trial fires,
          fall back to the single best-quality slot
  sscp    the fixed number of slots with the strongest measured qualities
  crdsap  two distinct slots, uniform over all pairs (no training needed)
  irsap   a random replica count drawn from a soliton-like degree
          distribution, then that many distinct slots uniformly (no training)

Every policy works on arrays of shape (..., k, s): any leading batch shape,
then devices, then slots. Its random numbers are drawn beforehand, one trial
at a time, by `draw_trial`, so the slot choice itself is deterministic. The
result is a boolean replica mask of the same shape. Slot indices are 0-based
throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

POLICY_KINDS = ("carp", "sscp", "crdsap", "irsap")


@dataclass(slots=True, frozen=True)
class Policy:
    """Access policy selector; sscp_s is the replica count used only by sscp."""

    kind: str
    sscp_s: int = 2

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(
                f"policy.kind must be one of {', '.join(POLICY_KINDS)}, got {self.kind!r}"
            )
        if self.kind == "sscp" and self.sscp_s < 1:
            raise ValueError("sscp replica count must be >= 1")

    @property
    def requires_training(self) -> bool:
        return self.kind in ("carp", "sscp")

    @property
    def label(self) -> str:
        return self.kind


def measure_quality(
    snr_values: np.ndarray, c: float = 1.0, noise_std: float = 0.0, noise: np.ndarray | None = None
) -> np.ndarray:
    """Quality grid: scaled SNR plus zero-mean estimation noise, clamped at zero.

    `noise` holds standard normal draws of the grid's shape and is required
    when noise_std > 0. With c = 1 and noise_std = 0 (perfect estimation) the
    values equal the SNR grid exactly. The clamp keeps the policies' weights
    nonnegative.
    """
    if noise_std < 0:
        raise ValueError("noise_std must be nonnegative")
    quality = c * np.asarray(snr_values, dtype=float)
    if noise_std > 0:
        if noise is None:
            raise ValueError("noise draws are required when noise_std > 0")
        quality = quality + noise_std * noise
    return np.maximum(quality, 0.0)


def carp_probabilities(quality: np.ndarray) -> np.ndarray:
    """Per-slot transmit probabilities proportional to the measured qualities.

    Normalized over the last axis. An all-zero row carries no information, so
    it degrades to uniform 1/S.
    """
    s = quality.shape[-1]
    totals = quality.sum(axis=-1, keepdims=True)
    return np.where(totals > 0.0, quality / np.where(totals > 0.0, totals, 1.0), 1.0 / s)


def carp_slots(quality: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One Bernoulli trial per slot (uniforms `u`); empty rows fall back to the best slot."""
    chosen = u < carp_probabilities(quality)
    empty = ~chosen.any(axis=-1)
    if empty.any():
        best = np.argmax(quality, axis=-1)
        rows = np.nonzero(empty)
        chosen[(*rows, best[rows])] = True
    return chosen


def sscp_slots(quality: np.ndarray, count: int) -> np.ndarray:
    """The `count` slots with the largest qualities, ties to the lower index."""
    if not (1 <= count <= quality.shape[-1]):
        raise ValueError("replica count must lie in [1, num_slots]")
    top = np.argsort(-quality, axis=-1, kind="stable")[..., :count]
    chosen = np.zeros(quality.shape, dtype=bool)
    np.put_along_axis(chosen, top, True, axis=-1)
    return chosen


def crdsap_slots(first: np.ndarray, second: np.ndarray, num_slots: int) -> np.ndarray:
    """Two distinct slots: `first` uniform on 0..S-1, `second` uniform on 0..S-2
    and shifted past `first`, so the pair is uniform over all unordered pairs."""
    second = second + (second >= first)
    chosen = np.zeros((*first.shape, num_slots), dtype=bool)
    np.put_along_axis(chosen, first[..., None], True, axis=-1)
    np.put_along_axis(chosen, second[..., None], True, axis=-1)
    return chosen


def irsap_degree_pmf(num_slots: int) -> np.ndarray:
    """Replica-count distribution over degrees 2..S; sums to 1 by telescoping."""
    if num_slots < 2:
        raise ValueError("irsap needs at least 2 slots")
    degrees = np.arange(2, num_slots + 1)
    return (1.0 + 1.0 / (num_slots - 1)) / ((degrees - 1) * degrees)


def irsap_mean_degree(num_slots: int) -> float:
    """Expected replicas per device under the irsap degree distribution."""
    if num_slots < 2:
        raise ValueError("irsap needs at least 2 slots")
    return (1.0 + 1.0 / (num_slots - 1)) * sum(1.0 / (s - 1) for s in range(2, num_slots + 1))


def irsap_sample_degrees(
    rng: np.random.Generator, count: int, num_slots: int
) -> np.ndarray:
    """Draw replica counts by inverse CDF; the last bin absorbs float residue."""
    cdf = np.cumsum(irsap_degree_pmf(num_slots))
    return np.minimum(2 + np.searchsorted(cdf, rng.random(count), side="right"), num_slots)


def irsap_slots(degrees: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Each device's `degrees` slots of smallest uniform `u`: a prefix of a random permutation."""
    ranks = np.argsort(np.argsort(u, axis=-1), axis=-1)
    return ranks < degrees[..., None]


def _draws_noise(policy: Policy, noise_std: float) -> bool:
    return policy.requires_training and noise_std > 0


def draw_trial(
    policy: Policy, noise_std: float, rng: np.random.Generator, k: int, s: int
) -> tuple[np.ndarray, ...]:
    """One trial's access draws, in stream order.

    Estimation noise comes first (trained policies with noise_std > 0 only),
    then the policy's own numbers: carp one uniform per device and slot,
    crdsap two slot indices per device, irsap a degree per device and one
    uniform per device and slot; sscp draws nothing.
    """
    noise = (rng.standard_normal((k, s)),) if _draws_noise(policy, noise_std) else ()
    if policy.kind == "carp":
        return (*noise, rng.random((k, s)))
    if policy.kind == "crdsap":
        return rng.integers(0, s, k), rng.integers(0, s - 1, k)
    if policy.kind == "irsap":
        return irsap_sample_degrees(rng, k, s), rng.random((k, s))
    return noise


def choose_slots(
    policy: Policy, snr_values: np.ndarray, draws, c: float = 1.0, noise_std: float = 0.0
) -> np.ndarray:
    """Replica mask of one policy over an SNR grid of shape (..., k, s).

    `draws` are `draw_trial`'s arrays, stacked along the same leading axes.
    Untrained policies read only the grid's shape.
    """
    if policy.requires_training:
        noise = None
        if _draws_noise(policy, noise_std):
            noise, *draws = draws
        quality = measure_quality(snr_values, c, noise_std, noise)
        if policy.kind == "carp":
            return carp_slots(quality, *draws)
        return sscp_slots(quality, policy.sscp_s)
    if policy.kind == "crdsap":
        return crdsap_slots(*draws, snr_values.shape[-1])
    return irsap_slots(*draws)
