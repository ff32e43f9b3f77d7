"""Independent reference oracles used by the test suite.

These deliberately avoid the library's own code paths: the decoder oracle
explores every legal decode schedule, the loop peel runs the receiver's scan
order on Python sets one frame at a time, the stream oracle builds each
trial's generator from numpy's own SeedSequence, the draw oracle takes a
trial's numbers through numpy's Generator methods, the array-factor oracle sums
terms one by one with cmath, the two-device sscp oracle integrates the
model's formulas by quadrature without importing the simulator, and the
fixed-grid oracle enumerates every slot choice of every device on a given SNR
grid. The reference kernels keep the simulator's earlier formulas, each a
chain of fresh arrays, np.where and full sorts, so the tests can hold the
in-place kernels to the same bits. The inverse decibel conversions and the
closed-form irsap mean degree check the simulator's conversions and degree
distribution; the simulator itself needs neither. energy_efficiency states the
per-frame ratio the engine divides inline, with its power check. reference_frame
chains the stream, draw, grid, slot-choice and peel oracles into one whole frame.
frame_traces and peel_trace are no oracles but adapters: they read the
receiver's (frame, pass, slot, device) trace array as per-frame tuple lists,
the form loop_peel_trace gives. Like the oracles they import nothing from the
simulator; peel_trace takes the peel it runs as an argument.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np


def loop_array_factor(n_x: int, n_z: int, d_x_m: float, wavelength_m: float,
                      theta_mtd: float, theta_cfg: float) -> complex:
    """Term-by-term phasor sum, sequential order, cmath arithmetic."""
    w = 2 * math.pi / wavelength_m
    x = w * (math.sin(theta_mtd) - math.sin(theta_cfg)) * d_x_m
    total = 0 + 0j
    for n in range(1, n_x + 1):
        total += cmath.exp(1j * x * n)
    return n_z * total


def where_array_factor_power(ris, theta_mtd, theta_cfg):
    """|array factor|^2 by the closed form, with np.where guarding sin(x/2) = 0.

    The square is np.square, x * x, for every shape: `** 2` is x * x on an
    array but C pow on the numpy scalar a 0-d input gives, and pow(x, 2) is
    not always correctly rounded (x = -2.582884288356395 gives
    6.671291247038321, half an ulp off; x * x gives 6.671291247038322).
    """
    theta_mtd = np.asarray(theta_mtd, dtype=float)
    theta_cfg = np.asarray(theta_cfg, dtype=float)
    x = ris.wavenumber * ris.d_x_m * (np.sin(theta_mtd) - np.sin(theta_cfg))
    half = 0.5 * x
    den = np.sin(half)
    num = np.sin(ris.n_x * half)
    ratio = np.where(den == 0.0, float(ris.n_x), num / np.where(den == 0.0, 1.0, den))
    return np.square(ris.n_z * ratio)


def where_snr_matrix(ris, radio, ap, mtd_gain, distances, angles, phases):
    """The full (..., k, s) SNR grid as the product (P/N0 * beta) * |AF|^2 of fresh arrays."""
    base = ap.antenna_gain * mtd_gain / (4 * math.pi) ** 2
    beta = base * (ris.d_x_m * ris.d_z_m / (ap.distance_m * distances)) ** 2 * np.cos(angles) ** 2
    gain_sq = where_array_factor_power(ris, angles[..., None], np.asarray(phases))
    return radio.mtd_tx_power_w / radio.noise_power_w * beta[..., None] * gain_sq


def where_carp_probabilities(quality):
    """Qualities over their row sums; an all-zero row gives 1/S everywhere."""
    s = quality.shape[-1]
    totals = quality.sum(axis=-1, keepdims=True)
    return np.where(totals > 0.0, quality / np.where(totals > 0.0, totals, 1.0), 1.0 / s)


def argsort_sscp_slots(quality, count: int):
    """The `count` largest qualities of each row by a stable sort: ties to the lower index."""
    top = np.argsort(-quality, axis=-1, kind="stable")[..., :count]
    chosen = np.zeros(quality.shape, dtype=bool)
    np.put_along_axis(chosen, top, True, axis=-1)
    return chosen


def double_argsort_irsap_slots(degrees, u):
    """Each row's `degrees` slots of smallest rank, the ranks from argsort(argsort(u))."""
    ranks = np.argsort(np.argsort(u, axis=-1), axis=-1)
    return ranks < degrees[..., None]


def substream(seed: int, *path: int) -> np.random.Generator:
    """Philox generator keyed by numpy's SeedSequence(entropy=seed, spawn_key=path)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=tuple(path)))
    )


# seeds of one, two, three, four and six 32-bit words, including the held-out
# benchmark seed; past the fourth word a seed takes 4 more pool hashes per word
KEY_SEEDS = (0, 1, 20261017, 2**32 + 5, 2**70 + 123, 2**127 + 9, 2**160 + 12345)


def generator_trial_draws(rng, kind: str, noise_std: float, k: int, s: int,
                          distance_range, angle_range) -> list[np.ndarray]:
    """One trial's numbers drawn through numpy's Generator methods, in stream order.

    The sequence the frame pipeline decodes from raw words: device distances
    and angles (`uniform`), then, for a trained policy with noise_std > 0, a
    standard normal per device and slot, then the policy's own draws: carp a
    uniform per device and slot; crdsap `integers(0, s, k)` and
    `integers(0, s - 1, k)`; irsap a degree per device by inverse CDF of the
    README's distribution, then a uniform per device and slot; sscp nothing.
    """
    out = [rng.uniform(*distance_range, k), rng.uniform(*angle_range, k)]
    if kind in ("carp", "sscp") and noise_std > 0:
        out.append(rng.standard_normal((k, s)))
    if kind == "carp":
        out.append(rng.random((k, s)))
    elif kind == "crdsap":
        out += [rng.integers(0, s, k), rng.integers(0, s - 1, k)]
    elif kind == "irsap":
        scale = 1.0 + 1.0 / (s - 1)
        cdf, total = [], 0.0
        for degree in range(2, s + 1):
            total += scale / ((degree - 1) * degree)
            cdf.append(total)
        # the first degree whose cdf exceeds u; the last absorbs float residue
        out.append(np.array([min(2 + sum(c <= u for c in cdf), s) for u in rng.random(k)]))
        out.append(rng.random((k, s)))
    return out


def loop_peel_trace(chosen, snr_values, threshold: float) -> list[tuple[int, int, int]]:
    """Decode events (pass, slot, device) of one device x slot mask, peeled on Python sets.

    Each pass scans slots in index order; a singleton whose replica meets the
    threshold decodes and its device leaves every slot at once. Passes repeat
    until one decodes nothing.
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


def frame_traces(trace, frames: int) -> list[list[tuple[int, int, int]]]:
    """A peel_batch trace array as each frame's (pass, slot, device) events, one list per frame.

    Asserts the array's form: integer (n, 4) rows, sorted by frame, every frame below `frames`.
    """
    assert trace.dtype.kind == "i" and trace.shape[1:] == (4,)
    assert ((0 <= trace[:, 0]) & (trace[:, 0] < frames)).all()
    assert (np.diff(trace[:, 0]) >= 0).all()
    out: list[list[tuple[int, int, int]]] = [[] for _ in range(frames)]
    for frame, *event in trace.tolist():
        out[frame].append(tuple(event))
    return out


def peel_trace(peel_batch, chosen, snr_values, threshold: float) -> list[tuple[int, int, int]]:
    """Decode events (pass, slot, device) of one device x slot mask, peeled by
    `peel_batch` (receiver.peel_batch) as a batch of one frame.

    Each device appears at most once, so the events count the decoded devices.
    """
    trace = peel_batch(chosen[None], snr_values[None], threshold, keep_traces=True)[1]
    return frame_traces(trace, 1)[0]


def reference_frame(cfg, trial: int) -> tuple[int, np.ndarray, float, float, list]:
    """Trial `trial` of cfg's run from the oracles above alone: its successes, replica
    counts per device, throughput, power and decode events (pass, slot, device).

    cfg is read as a plain object with the simulator's config attributes, in
    linear units. The trial's numbers are its SeedSequence stream's, drawn by
    numpy's Generator methods (generator_trial_draws); the slots' configurations
    are the sweep pi/2 * (i / (S - 1)), 0 for one slot; the grid is
    where_snr_matrix's and a quality c * SNR plus the noise std times the
    normals, clamped at 0. carp sends where its uniform is below
    where_carp_probabilities, and on the best-quality slot of a device that
    sends nowhere; sscp takes argsort_sscp_slots; crdsap its first index and the
    second shifted past it; irsap double_argsort_irsap_slots. loop_peel_trace
    decodes. Throughput and power are the README's, summed device by device.
    """
    k, s, kind = cfg.k, cfg.s, cfg.policy.kind
    trained = kind in ("carp", "sscp")
    distances, angles, *draws = generator_trial_draws(
        substream(cfg.seed, trial), kind, cfg.estimation_noise_std, k, s,
        (cfg.mtd_d_min_m, cfg.mtd_d_max_m), (cfg.mtd_angle_min_rad, cfg.mtd_angle_max_rad))
    phases = [math.pi / 2 * (i / (s - 1)) for i in range(s)] if s > 1 else [0.0]
    snr = where_snr_matrix(cfg.ris, cfg.radio, cfg.ap, cfg.mtd_gain, distances, angles, phases)
    if trained:
        quality = cfg.estimation_c * snr
        if cfg.estimation_noise_std > 0:
            quality = quality + cfg.estimation_noise_std * draws.pop(0)
        quality = np.maximum(quality, 0.0)
    if kind == "carp":
        chosen = draws[0] < where_carp_probabilities(quality)
        for device in np.flatnonzero(~chosen.any(axis=1)):
            chosen[device, np.argmax(quality[device])] = True
    elif kind == "sscp":
        chosen = argsort_sscp_slots(quality, cfg.policy.sscp_s)
    elif kind == "crdsap":
        first, second = draws
        chosen = np.zeros((k, s), dtype=bool)
        chosen[np.arange(k), first] = True
        chosen[np.arange(k), second + (second >= first)] = True
    else:
        chosen = double_argsort_irsap_slots(*draws)
    events = loop_peel_trace(chosen, snr, cfg.radio.snr_threshold)
    counts = chosen.sum(axis=1)
    ratio = cfg.timing.training_ratio if trained else 0.0
    throughput = len(events) / ((1.0 + ratio) * s * cfg.timing.access_slot_s)
    power = cfg.power
    training_w = s * power.ap_pa_inverse_eff * power.ap_tx_power_w if trained else 0.0
    ap_w = training_w + power.ap_static_w
    surface_w = cfg.ris.n_x * cfg.ris.n_z * power.phase_shifter_w
    replica_w = power.mtd_pa_inverse_eff * cfg.radio.mtd_tx_power_w
    devices_w = sum(n * replica_w for n in counts.tolist()) + k * power.mtd_static_w
    return len(events), counts, throughput, ap_w + surface_w + devices_w, events


def slot_sets(mask) -> list[set[int]]:
    """Per-slot sets of the devices with a replica there, from a device x slot mask."""
    return [{k for k in range(len(mask)) if mask[k][s]} for s in range(len(mask[0]))]


def exhaustive_decode(slots: list[set[int]], ok) -> frozenset[int]:
    """Fixed point of peeling, by exploring every decode schedule.

    `ok[k][s]` says whether device k passes the SNR gate in slot s. Every
    schedule must reach the same terminal decoded set (confluence); the oracle
    asserts that and returns it.
    """
    terminals: set[frozenset[int]] = set()
    seen: set[frozenset[int]] = set()

    def moves(decoded: frozenset[int]) -> set[int]:
        out = set()
        for s, devs in enumerate(slots):
            live = devs - decoded
            if len(live) == 1:
                (k,) = live
                if ok[k][s]:
                    out.add(k)
        return out

    def walk(decoded: frozenset[int]) -> None:
        if decoded in seen:
            return
        seen.add(decoded)
        options = moves(decoded)
        if not options:
            terminals.add(decoded)
            return
        for k in options:
            walk(decoded | {k})

    walk(frozenset())
    assert len(terminals) == 1, f"peeling reached multiple fixed points: {terminals}"
    return next(iter(terminals))


def replay_trace(slots: list[set[int]], trace) -> set[int]:
    """Re-run a decode trace against the initial occupancy, checking legality."""
    live = [set(devs) for devs in slots]
    membership: dict[int, list[int]] = {}
    for s, devs in enumerate(slots):
        for k in devs:
            membership.setdefault(k, []).append(s)
    decoded: set[int] = set()
    for _iteration, s, k in trace:
        assert live[s] == {k}, f"trace event ({s}, {k}) fired on a non-singleton slot"
        for s2 in membership[k]:
            live[s2].discard(k)
        assert k not in decoded, f"device {k} decoded twice"
        decoded.add(k)
    return decoded


def sscp_two_device_decoded(resolved: dict, ties: str, grid: int = 2048, nodes: int = 12) -> float:
    """Exact E[A] for two sscp devices sending two replicas each, by quadrature.

    `resolved` is the flat config mapping (`parse_config(...)[1]`); only its
    raw scenario values are read, in the units of the README's configuration
    table. The model is rebuilt here from the `channel` module docstring: the
    SNR of a device at distance d and angle theta, in the slot whose surface
    configuration is theta_s (the uniform sweep of [0, pi/2]), is

        P_tx / N0 * G_ap * G_mtd / (4 pi)^2 * (d_x d_z / (d_ap d))^2
                  * cos(theta)^2 * |AF(theta, theta_s)|^2,
        AF = n_z * sum_{n=1..n_x} exp(j n (2 pi / lambda) d_x (sin theta - sin theta_s)).

    A replica decodes when its SNR reaches the threshold tau, that is when
    d <= R(theta, s) = sqrt(K0 cos(theta)^2 |AF|^2 / tau), K0 collecting the
    constants. A device's two sscp slots are its two largest |AF|^2, so they
    depend on its angle alone. For a pair of angles the two slot sets are
    identical (both slots hold both devices: nothing decodes), share one slot
    x, or are disjoint (a device decodes iff d <= R at its best slot). With
    one shared slot and private slots p1, p2, peeling decodes device 1 iff
    d1 <= R1(p1), or d2 <= R2(p2) and d1 <= R1(x). Over the uniform distances
    every case is a sum of products of one-angle integrals of
    F(R) = P(d <= R). Those are taken by Gauss-Legendre quadrature (`nodes`
    points) on the pieces of the angle range where the ordered slot pair and
    the clipping of F stay the same, so the integrand is smooth on each
    piece. Piece ends are found by bisecting the cells of a `grid`-cell scan.

    Slots whose configurations lie a whole period of the array factor apart
    (k d_x (sin theta_s - sin theta_s') a multiple of 2 pi: with d_x equal to
    the wavelength, the slots at 0 and pi/2) have the same SNR at every
    angle. When such a pair ranks second and third, a device's choice between
    the two is a tie, broken by `ties`:

    - "lower": the lower slot index, as a stable sort of equal qualities
      (`access.sscp_slots`) breaks it. Every device makes the same choice.
    - "coin": either slot with probability 1/2, independently per device.
      This is the limit of vanishing estimation noise: Gaussian noise added
      to two equal qualities orders them either way with probability 1/2.

    The choice matters only when both devices have the same best slot:
    equal choices give identical slot sets, different ones share the best
    slot. So "lower" gives the least E[A] of any tie rule.
    """
    s_count = resolved["sim.s"]
    if ties not in ("lower", "coin"):
        raise ValueError(f"unknown tie rule {ties!r}")
    if resolved["policy.sscp_s"] != 2:
        raise ValueError("the oracle covers two replicas per device")
    if resolved["estimation.noise_std"] != 0.0 or resolved["estimation.c"] <= 0.0:
        raise ValueError("the oracle assumes noiseless quality estimates")
    d_min, d_max = resolved["mtd.d_min_m"], resolved["mtd.d_max_m"]
    a_min, a_max = resolved["mtd.angle_min_rad"], resolved["mtd.angle_max_rad"]
    if not (d_min < d_max and a_min < a_max):
        raise ValueError("the oracle needs nondegenerate distance and angle ranges")

    n_x, n_z = resolved["ris.n_x"], resolved["ris.n_z"]
    k_x = 2 * math.pi / resolved["radio.wavelength_m"] * resolved["ris.d_x_m"]
    sines = [math.sin(math.pi / 2 * i / (s_count - 1)) for i in range(s_count)]
    noise_w = 10.0 ** ((resolved["radio.noise_power_dbm"] - 30.0) / 10.0)
    gains = 10.0 ** ((resolved["ap.gain_db"] + resolved["mtd.gain_db"]) / 10.0)
    area = resolved["ris.d_x_m"] * resolved["ris.d_z_m"]
    k0 = (
        resolved["radio.mtd_tx_power_w"] / noise_w * gains / (4 * math.pi) ** 2
        * (area / resolved["ap.distance_m"]) ** 2
    )
    tau = 10.0 ** (resolved["radio.snr_threshold_db"] / 10.0)

    # classes of slots with identical |AF|^2, in slot order
    classes: list[list[int]] = []
    for s in range(s_count):
        for members in classes:
            lag = k_x * (sines[s] - sines[members[0]]) / (2 * math.pi)
            if abs(lag - round(lag)) < 1e-9:
                members.append(s)
                break
        else:
            classes.append([s])
    if any(len(members) > 2 for members in classes):
        raise ValueError("the oracle covers ties between at most two slots")
    rep_sines = np.array([sines[members[0]] for members in classes])
    paired = np.array([len(members) == 2 for members in classes])
    columns = np.arange(1, n_x + 1)

    def ranked(theta):
        # best and second class, with decoding radii; a tied best class is
        # the whole top two, so its radius serves both places
        x = k_x * (np.sin(theta)[:, None, None] - rep_sines[None, :, None])
        power = np.abs(n_z * np.exp(1j * x * columns).sum(axis=2)) ** 2
        order = np.argsort(-power, axis=1, kind="stable")[:, [0, min(1, len(classes) - 1)]]
        order[:, 1] = np.where(paired[order[:, 0]], order[:, 0], order[:, 1])
        radius = np.sqrt(k0 * np.cos(theta)[:, None] ** 2
                         * np.take_along_axis(power, order, axis=1) / tau)
        return order, radius

    def signature(theta):
        order, radius = ranked(theta)
        clip = (radius > d_min).astype(int) + (radius > d_max)
        return ((order[:, 0] * len(classes) + order[:, 1]) * 3 + clip[:, 0]) * 3 + clip[:, 1]

    # piece ends: bisect every scan cell whose end signatures differ, keeping
    # each half while its ends differ, down to a width of 1e-12
    theta = np.linspace(a_min, a_max, grid + 1)
    sig = signature(theta)
    cut = sig[1:] != sig[:-1]
    lo, hi, s_lo, s_hi = theta[:-1][cut], theta[1:][cut], sig[:-1][cut], sig[1:][cut]
    while lo.size and np.max(hi - lo) > 1e-12:
        mid = 0.5 * (lo + hi)
        s_mid = signature(mid)
        left, right = s_lo != s_mid, s_mid != s_hi
        lo, hi = np.concatenate([lo[left], mid[right]]), np.concatenate([mid[left], hi[right]])
        s_lo = np.concatenate([s_lo[left], s_mid[right]])
        s_hi = np.concatenate([s_mid[left], s_hi[right]])
    edges = np.unique(np.concatenate([[a_min, a_max], 0.5 * (lo + hi)]))

    x_gl, w_gl = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * np.diff(edges)
    points = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half[:, None] * x_gl[None, :]
    order, radius = ranked(points.ravel())
    f = np.clip((radius - d_min) / (d_max - d_min), 0.0, 1.0).reshape(*points.shape, 2)
    integrals = (w_gl[None, :, None] * f).sum(axis=1) * half[:, None]
    piece_order = order.reshape(*points.shape, 2)[:, nodes // 2]

    # per slot pair (best, second), a tied second place split by the tie
    # rule: [measure, integral of F at the best slot, at the second slot]
    stats: dict[tuple[int, int], list[float]] = {}
    for (c_best, c_second), width, (f_best, f_second) in zip(piece_order, 2 * half, integrals):
        if c_best == c_second:
            seconds = classes[c_best][1:]
        elif ties == "coin":
            seconds = classes[c_second]
        else:
            seconds = classes[c_second][:1]
        for second in seconds:
            entry = stats.setdefault((classes[c_best][0], second), [0.0, 0.0, 0.0])
            for i, value in enumerate((width, f_best, f_second)):
                entry[i] += value / len(seconds)

    def decoded(mine, theirs, vals_mine, vals_theirs):
        # integral over both angles of P(the device on `mine` decodes)
        m_theirs, best_theirs, second_theirs = vals_theirs
        _, best_mine, second_mine = vals_mine
        shared = set(mine) & set(theirs)
        if len(shared) == 2:
            return 0.0
        if shared != {mine[0]}:  # disjoint, or sharing my second slot
            return best_mine * m_theirs
        private_theirs = second_theirs if theirs[0] in shared else best_theirs
        return second_mine * m_theirs + (best_mine - second_mine) * private_theirs

    total = sum(2 * decoded(a, b, stats[a], stats[b]) for a in stats for b in stats)
    return total / (a_max - a_min) ** 2


def sscp_two_device_optimal_ee(resolved: dict, ties: str) -> tuple[int, float, int]:
    """Exact best-over-S energy efficiency of two sscp devices.

    E[A] is `sscp_two_device_decoded` under the tie rule `ties`. Throughput
    and power follow the README and the `power_metrics` docstring:
    G = A / ((1 + r) S T_as), and per frame the AP draws
    S * xi_ap * P_ap + P_static, the surface n_x n_z phase shifters, and each
    device 2 * xi_mtd * P_tx + P_mtd,static. EE = E[G] / P. Every S from 2 up
    is evaluated until the bound E[A] <= 2, which falls with S, is below the
    best value found, so the optimum holds over all S. Returns (best S, best
    EE, last S evaluated).
    """
    def power_w(s: int) -> float:
        ap = s * resolved["power.ap_xi"] * resolved["power.ap_tx_power_w"] + 10.0 ** (
            resolved["power.ap_static_dbw"] / 10.0)
        surface = resolved["ris.n_x"] * resolved["ris.n_z"] * resolved["power.phase_shifter_mw"] * 1e-3
        device = (2 * resolved["power.mtd_xi"] * resolved["radio.mtd_tx_power_w"]
                  + resolved["power.mtd_static_w"])
        return ap + surface + 2 * device

    def ee(s: int, decoded: float) -> float:
        return decoded / ((1.0 + resolved["timing.r"]) * s * resolved["timing.t_as_s"]) / power_w(s)

    best_s, best_ee, s = 2, 0.0, 2
    while ee(s, 2.0) > best_ee:
        value = ee(s, sscp_two_device_decoded({**resolved, "sim.s": s}, ties))
        if value > best_ee:
            best_s, best_ee = s, value
        s += 1
    return best_s, best_ee, s - 1


def slot_choice_distribution(kind: str, snr_row, sscp_s: int = 2) -> list[tuple[frozenset, float]]:
    """One device's exact distribution over its replica slot sets, given its
    SNR per slot, with perfect estimation (quality = SNR).

    The policies as the `access` module docstring states them:
    - crdsap: two distinct slots, every unordered pair equally likely;
    - irsap: degree d in 2..S with probability (1 + 1/(S-1)) / ((d-1) d),
      then every d-subset equally likely;
    - carp: each slot on its own with probability quality / row sum (1/S
      each on an all-zero row); an empty pattern falls back to the
      best-quality slot, the lowest index among equals;
    - sscp: the sscp_s best-quality slots, ties to the lower index.
    """
    s = len(snr_row)
    quality = [max(float(q), 0.0) for q in snr_row]
    if kind == "crdsap":
        pairs = list(itertools.combinations(range(s), 2))
        return [(frozenset(pair), 1.0 / len(pairs)) for pair in pairs]
    if kind == "irsap":
        out = []
        for degree in range(2, s + 1):
            mass = (1.0 + 1.0 / (s - 1)) / ((degree - 1) * degree)
            subsets = list(itertools.combinations(range(s), degree))
            out += [(frozenset(subset), mass / len(subsets)) for subset in subsets]
        return out
    if kind == "carp":
        total = sum(quality)
        probs = [q / total if total > 0 else 1.0 / s for q in quality]
        best = min(range(s), key=lambda slot: (-quality[slot], slot))
        out: dict[frozenset, float] = {}
        for pattern in itertools.product((False, True), repeat=s):
            mass = math.prod(p if on else 1.0 - p for p, on in zip(probs, pattern))
            chosen = frozenset(slot for slot, on in enumerate(pattern) if on) or frozenset({best})
            out[chosen] = out.get(chosen, 0.0) + mass
        return list(out.items())
    if kind == "sscp":
        ranked = sorted(range(s), key=lambda slot: (-quality[slot], slot))
        return [(frozenset(ranked[:sscp_s]), 1.0)]
    raise ValueError(f"unknown policy {kind!r}")


def fixed_grid_decoded(kind: str, snr, threshold: float, sscp_s: int = 2) -> float:
    """Exact E[A] of one frame on a fixed k x s SNR grid.

    Every combination of the devices' slot sets (slot_choice_distribution,
    independent across devices) is peeled to its fixed point by
    exhaustive_decode, and the decoded counts are averaged with the
    combinations' probabilities.
    """
    k, s = len(snr), len(snr[0])
    ok = [[snr[dev][slot] >= threshold for slot in range(s)] for dev in range(k)]
    choices = [slot_choice_distribution(kind, snr[dev], sscp_s) for dev in range(k)]
    total = 0.0
    for combo in itertools.product(*choices):
        slots = [{dev for dev, (chosen, _mass) in enumerate(combo) if slot in chosen}
                 for slot in range(s)]
        mass = math.prod(m for _chosen, m in combo)
        total += mass * len(exhaustive_decode(slots, ok))
    return total


def linear_to_db(x: float) -> float:
    """Inverse of channel.db_to_linear."""
    return 10.0 * math.log10(x)


def watts_to_dbm(x_w: float) -> float:
    """Inverse of channel.dbm_to_watts."""
    return 10.0 * math.log10(x_w) + 30.0


def watts_to_dbw(x_w: float) -> float:
    """Inverse of channel.dbw_to_watts."""
    return 10.0 * math.log10(x_w)


def irsap_mean_degree(num_slots: int) -> float:
    """Expected replicas per device under the irsap degree distribution, in closed form."""
    if num_slots < 2:
        raise ValueError("irsap needs at least 2 slots")
    return (1.0 + 1.0 / (num_slots - 1)) * sum(1.0 / (s - 1) for s in range(2, num_slots + 1))


def energy_efficiency(throughput_pps: float, power_w: float) -> float:
    """Packets per second per watt, the per-frame ratio simulate_frame reports."""
    if power_w <= 0:
        raise ValueError("power must be strictly positive")
    return throughput_pps / power_w
