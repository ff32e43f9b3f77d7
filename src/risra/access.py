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
then devices, then slots. Its random numbers are decoded beforehand from each
trial's raw 64-bit stream words by `decode_draws`, exactly as numpy's
Generator would draw them, so a slot choice, one `choose_slots` call for
every policy, is deterministic and reads the quality grid only for carp and
sscp. The result is a boolean replica mask of the same shape. Slot indices
are 0-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

POLICY_KINDS = ("carp", "sscp", "crdsap", "irsap")


@dataclass(slots=True, frozen=True)
class Policy:
    """Access policy selector; sscp_s is the replica count used only by sscp."""

    kind: str
    sscp_s: int = 2

    @property
    def requires_training(self) -> bool:
        return self.kind in ("carp", "sscp")


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
    totals = quality.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        probabilities = quality / totals
    empty = ~(totals > 0.0)
    if empty.any():
        np.copyto(probabilities, 1.0 / quality.shape[-1], where=empty)
    return probabilities


def carp_slots(quality: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One Bernoulli trial per slot (uniforms `u`); empty rows fall back to the best slot."""
    chosen = u < carp_probabilities(quality)
    rows = np.nonzero(~chosen.any(axis=-1))
    chosen[(*rows, np.argmax(quality[rows], axis=-1))] = True
    return chosen


def sscp_slots(quality: np.ndarray, count: int) -> np.ndarray:
    """The `count` slots with the largest qualities, ties to the lower index.

    Takes `count` rounds of argmax, each masking the slot it took, so it
    costs O(count * S) per device: cheaper than a sort for the replica
    counts used here (1 to 3), slower past about half the slots (1.4x a
    sort at count 39 of S = 40).
    Qualities must be above -inf and not NaN, as measure_quality's are.
    """
    s = quality.shape[-1]
    if not (1 <= count <= s):
        raise ValueError("replica count must lie in [1, num_slots]")
    left = np.array(quality, dtype=float, order="C")
    chosen = np.zeros(quality.shape, dtype=bool)
    rows = _row_starts(quality.shape)
    for _ in range(count):
        best = left.argmax(axis=-1)  # the first maximum: ties to the lower index
        best += rows
        chosen.reshape(-1)[best] = True
        left.reshape(-1)[best] = -np.inf
    return chosen


def _row_starts(shape: tuple[int, ...]) -> np.ndarray:
    """The flat index of each row's first slot in a C-ordered array of `shape`."""
    return np.arange(0, math.prod(shape), shape[-1]).reshape(shape[:-1])


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


def irsap_sample_degrees(u: np.ndarray, num_slots: int) -> np.ndarray:
    """Replica counts from unit doubles `u` by inverse CDF; the last bin absorbs float residue."""
    cdf = np.cumsum(irsap_degree_pmf(num_slots))
    return np.minimum(2 + np.searchsorted(cdf, u, side="right"), num_slots)


def irsap_slots(degrees: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Each device's `degrees` slots of smallest uniform `u`: a prefix of a random permutation."""
    order = np.argsort(u, axis=-1)
    order += _row_starts(u.shape)[..., None]
    keep = np.arange(u.shape[-1]) < degrees[..., None]
    chosen = np.empty(u.shape, dtype=bool)
    chosen.reshape(-1)[order.reshape(-1)] = keep.reshape(-1)
    return chosen


def policy_words(policy: Policy, k: int, s: int) -> int:
    """Raw 64-bit stream words one trial's access draws take, for k devices and s slots.

    carp takes one uniform per device and slot, irsap one uniform per device
    for its degree and then one per device and slot, crdsap one 32-bit half
    word per slot index (two indices per device, the second free at s = 2),
    sscp none. A Lemire rejection makes crdsap take more (see decode_draws).
    """
    if policy.kind == "carp":
        return k * s
    if policy.kind == "irsap":
        return k + k * s
    if policy.kind == "crdsap":
        return (k + k * (s > 2) + 1) // 2
    return 0


def bounded_integers(halves: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's integers(0, n) decoded from 32-bit words by Lemire's method.

    Each value is (h * n) >> 32. The second array flags the words numpy
    rejects, those with (h * n) mod 2**32 < (2**32 - n) mod n; numpy then
    draws another word, so every later value of its sequence shifts.
    """
    m = halves.astype(np.uint64) * np.uint64(n)
    return (m >> np.uint64(32)).astype(np.intp), (m & np.uint64(0xFFFFFFFF)) < (2**32 - n) % n


def crdsap_indices(rng: np.random.Generator, k: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """crdsap's two slot indices per device drawn by numpy itself, from `rng`
    positioned at the policy's first word: the fallback for rows that
    decode_draws flags."""
    return rng.integers(0, s, k), rng.integers(0, s - 1, k)


def decode_draws(
    policy: Policy, words: np.ndarray, units: np.ndarray, k: int, s: int
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """A batch's access draws from its raw words, shape (b, policy_words(policy, k, s)),
    and `units`, their unit_doubles: carp and irsap read those, crdsap the words.

    The draws equal numpy's Generator on the same words: carp `random((k, s))`;
    crdsap `integers(0, s, k)` then `integers(0, s - 1, k)` on the words'
    32-bit halves, low half first; irsap `random(k)` through
    irsap_sample_degrees, then `random((k, s))`; sscp nothing. Estimation
    noise is not among them. Returns the draws, stacked along the batch axis
    as choose_slots takes them, and a (b,) flag of the rows with a Lemire
    rejection, whose draws need words beyond `words`.
    """
    b = words.shape[0]
    clean = np.zeros(b, dtype=bool)
    if policy.kind == "carp":
        return (units.reshape(b, k, s),), clean
    if policy.kind == "irsap":
        return (irsap_sample_degrees(units[:, :k], s), units[:, k:].reshape(b, k, s)), clean
    if policy.kind == "crdsap":
        if s < 2:
            raise ValueError("crdsap needs at least 2 slots")
        halves = words.astype("<u8", copy=False).view("<u4")
        first, rejected = bounded_integers(halves[:, :k], s)
        if s == 2:
            second = np.zeros_like(first)  # integers(0, 1) is 0 and takes no word
        else:
            second, more = bounded_integers(halves[:, k:2 * k], s - 1)
            rejected = rejected | more
        return (first, second), rejected.any(axis=1)
    return (), clean


def choose_slots(policy: Policy, quality: np.ndarray | None, draws, num_slots: int) -> np.ndarray:
    """Replica mask of one policy, shape (..., k, num_slots), from its decode_draws arrays
    stacked along the leading axes: carp and sscp choose on `quality`, measure_quality's
    grid, and crdsap and irsap on the draws alone, so for them `quality` may be None."""
    if policy.kind == "carp":
        return carp_slots(quality, *draws)
    if policy.kind == "sscp":
        return sscp_slots(quality, policy.sscp_s)
    if policy.kind == "crdsap":
        return crdsap_slots(*draws, num_slots)
    return irsap_slots(*draws)
