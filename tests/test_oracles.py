"""The exact oracles: the two-device sscp oracle's independence and
convergence, and the Monte Carlo engine checked against it; the fixed-grid
slot-choice oracle checked against the decoded draws, slot choice and peel."""

import ast
import itertools
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from risra import access, channel, receiver
from risra.config import parse_config
from risra.engine import Z95, run_monte_carlo
from oracles import (
    fixed_grid_decoded,
    slot_choice_distribution,
    sscp_two_device_decoded,
    sscp_two_device_optimal_ee,
)

S_VALUES = (3, 4, 5, 6)
TRIALS = 10_000
TIES = ("lower", "coin")
# simultaneous 95% intervals over the four slot counts (Bonferroni); four
# separate 95% intervals would reject a correct engine about one run in five
Z_FAMILY = NormalDist().inv_cdf(1 - 0.05 / (2 * len(S_VALUES)))
# d_x below the wavelength: no two configurations share an array factor
NO_TIES = ("ris.d_x_m=0.09",)
# estimation noise far below every gap between slot qualities except the
# exact tie of aliased slots, which it breaks by an independent fair coin
VANISHING_NOISE = ("estimation.noise_std=1e-9",)


def sscp_pair(*overrides):
    return parse_config(None, ["policy.kind=sscp", "sim.k=2", *overrides])


def test_oracle_imports_nothing_from_the_simulator():
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
    assert not any(name.split(".")[0] == "risra" for name in modules), modules


def test_oracle_converges():
    for overrides in ((), NO_TIES):
        for s in S_VALUES:
            resolved = sscp_pair(f"sim.s={s}", *overrides)[1]
            for ties in TIES:
                coarse = sscp_two_device_decoded(resolved, ties, grid=1024, nodes=8)
                fine = sscp_two_device_decoded(resolved, ties, grid=4096, nodes=16)
                assert coarse == pytest.approx(fine, abs=1e-4)


def test_oracle_tie_rule_matters_only_where_configurations_alias():
    # with d_x equal to the wavelength the slots at 0 and pi/2 share an
    # array factor, and devices that all take the lower one collide more
    tied = sscp_pair("sim.s=4")[1]
    assert sscp_two_device_decoded(tied, "lower") < sscp_two_device_decoded(tied, "coin")
    untied = sscp_pair("sim.s=4", *NO_TIES)[1]
    assert sscp_two_device_decoded(untied, "lower") == sscp_two_device_decoded(untied, "coin")


def test_oracle_two_slots_decode_nothing():
    # both devices send in both slots (test_engine's two-device loop)
    for overrides in ((), NO_TIES):
        for ties in TIES:
            assert sscp_two_device_decoded(sscp_pair("sim.s=2", *overrides)[1], ties) == 0.0


@pytest.mark.parametrize("ties", TIES)
def test_oracle_optimum_is_bounded_over_all_slot_counts(ties):
    s_best, _ee_best, s_last = sscp_two_device_optimal_ee(sscp_pair()[1], ties)
    # S=2..5 exact; from S=6 on two decoded devices cannot beat the optimum
    assert (s_best, s_last) == (4, 5)


@pytest.mark.parametrize(
    "geometry, noise, ties",
    [(NO_TIES, (), "lower"), ((), VANISHING_NOISE, "coin")],
    ids=["no_ties", "vanishing_noise"],
)
def test_engine_matches_oracle_at_two_devices(geometry, noise, ties):
    """Mean decoded count at K=2 within the oracle's simultaneous 95% band.

    Without aliased slots no tie arises and both rules agree. At the
    baseline geometry a vanishing estimation noise breaks the tie between
    the slots at 0 and pi/2 by an independent fair coin per device, the
    oracle's "coin" rule; the oracle itself is noiseless.
    """
    misses = []
    for s in S_VALUES:
        cfg, _ = sscp_pair(
            f"sim.s={s}", f"sim.trials={TRIALS}", "sim.workers=2", *geometry, *noise
        )
        expected = sscp_two_device_decoded(sscp_pair(f"sim.s={s}", *geometry)[1], ties)
        agg = run_monte_carlo(cfg)
        frame_s = (1.0 + cfg.timing.training_ratio) * s * cfg.timing.access_slot_s
        half_width = agg.ci95_throughput / Z95 * Z_FAMILY * frame_s
        if abs(agg.mean_a - expected) > half_width:
            misses.append(f"S={s}: engine {agg.mean_a:.4f} +- {half_width:.4f}, "
                          f"oracle {expected:.4f}")
    assert not misses, misses


# fixed SNR grids (threshold 1) with entries below the threshold, a zero
# quality, and equal qualities at the edge of sscp's choice, where the
# lower-index tie rule changes the decoded count; with the sscp replica count
# used on each
FIXED_GRIDS = {
    "k3_s4": ([[3.0, 1.5, 0.8, 1.5],
               [0.4, 0.4, 2.5, 1.5],
               [1.5, 3.0, 1.5, 1.5]], 2),
    "k2_s5": ([[0.0, 0.4, 1.5, 0.4, 0.8],
               [2.5, 1.5, 3.0, 2.5, 3.0]], 3),
}
GRID_FRAMES = 40_000
# simultaneous 95% intervals over every (grid, policy) pair (Bonferroni)
Z_GRID = NormalDist().inv_cdf(1 - 0.05 / (2 * len(FIXED_GRIDS) * len(access.POLICY_KINDS)))


@pytest.mark.parametrize("grid", FIXED_GRIDS)
def test_slot_choice_distributions_sum_to_one(grid):
    snr, sscp_s = FIXED_GRIDS[grid]
    for kind in access.POLICY_KINDS:
        for row in snr:
            choices = slot_choice_distribution(kind, row, sscp_s)
            assert sum(mass for _slots, mass in choices) == pytest.approx(1.0, abs=1e-12)
            assert all(len(slots) >= 1 for slots, _mass in choices)


@pytest.mark.parametrize("kind", access.POLICY_KINDS)
@pytest.mark.parametrize("grid", FIXED_GRIDS)
def test_decoded_draws_match_the_fixed_grid_oracle(grid, kind):
    """Mean decoded count of decode_draws -> choose_slots -> peel_batch on a
    fixed grid, over random stream words, against the oracle's exact E[A]."""
    snr, sscp_s = FIXED_GRIDS[grid]
    k, s = len(snr), len(snr[0])
    policy = access.Policy(kind, sscp_s)
    words = np.random.default_rng(2024).bit_generator.random_raw(
        (GRID_FRAMES, access.policy_words(policy, k, s)))
    draws, rejected = access.decode_draws(policy, words, channel.unit_doubles(words), k, s)
    gamma = np.broadcast_to(np.array(snr), (GRID_FRAMES, k, s))
    chosen = access.choose_slots(policy, gamma, draws, s)
    decoded = receiver.peel_batch(chosen, gamma, 1.0)[0][~rejected]
    expected = fixed_grid_decoded(kind, snr, 1.0, sscp_s)
    half_width = Z_GRID * decoded.std(ddof=1) / math.sqrt(decoded.size)
    assert abs(decoded.mean() - expected) <= half_width, (decoded.mean(), expected, half_width)


# rows that put all or most of their weight on a few slots, and an all-zero
# row: most Bernoulli patterns fire nothing, so carp falls back on most rows
SPARSE_GRID = [[0.0, 0.0, 0.0, 2.0, 0.0],
               [0.0, 1.5, 0.0, 0.0, 0.5],
               [0.0, 0.0, 0.0, 0.0, 0.0]]


@pytest.mark.parametrize("snr", [*(snr for snr, _sscp_s in FIXED_GRIDS.values()), SPARSE_GRID],
                         ids=[*FIXED_GRIDS, "sparse"])
def test_carp_slots_match_the_fixed_grid_oracle_on_every_pattern(snr):
    """carp_slots on every Bernoulli pattern of every device of a fixed grid, as one
    batch: the masks, each weighted by its pattern's probability, give the oracle's
    slot sets, the fallback of the patterns that fire nothing included."""
    s = len(snr[0])
    patterns = np.array(list(itertools.product((False, True), repeat=s)))
    quality = np.repeat(np.array(snr)[:, None], len(patterns), axis=1)
    # a zero uniform fires every slot of positive probability, a unit one none
    chosen = access.carp_slots(quality, np.broadcast_to(np.where(patterns, 0.0, 1.0), quality.shape))
    probabilities = access.carp_probabilities(np.array(snr)).tolist()
    for row, masks, probs in zip(snr, chosen, probabilities):
        got: dict[frozenset, float] = {}
        for pattern, mask in zip(patterns.tolist(), masks):
            mass = math.prod(p if on else 1.0 - p for p, on in zip(probs, pattern))
            if mass:  # a pattern firing a zero-probability slot fires nothing
                slots = frozenset(np.flatnonzero(mask).tolist())
                got[slots] = got.get(slots, 0.0) + mass
        want = {slots: mass for slots, mass in slot_choice_distribution("carp", row) if mass}
        assert got.keys() == want.keys()
        assert all(got[slots] == pytest.approx(mass, rel=1e-12) for slots, mass in want.items())
