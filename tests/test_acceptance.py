"""Acceptance suite.

Each criterion prints one `ACCEPTANCE <id>: PASS/FAIL` line (run with -s to
see them on success). The heavy Monte Carlo criteria (8a, 8b) use two worker
processes; everything is seeded, so reruns are bit-identical.
"""

import itertools
import math

import numpy as np
import pytest

from risra import access as ac
from risra import channel as ch
from risra import cli
from risra import power_metrics as pm
from risra import receiver as rx
from risra.access import Policy
from risra.config import parse_config
from risra.engine import run_groups, run_monte_carlo
from oracles import exhaustive_decode, peel_trace, slot_sets, sscp_two_device_optimal_ee

IRSAP_MEAN_DEGREE_S20 = 3.7344627969933493
STATIC_9_DBW = 7.943282347242815

K_GRID = tuple(range(2, 21, 2))
COARSE_S_GRID = (2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 26, 33, 40)
COARSE_TRIALS = 2500
TRIALS = 10_000
WORKERS = 2
POLICIES = ("carp", "sscp", "crdsap", "irsap")


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def make_cfg(*overrides):
    cfg, _ = parse_config(None, list(overrides))
    return cfg


def ee_ci(agg) -> float:
    """Conservative 95% half-width for the ratio-of-means efficiency."""
    return (agg.ci95_throughput + agg.ee_ratio_of_means * agg.ci95_power_w) / agg.mean_power_w


def test_c1_replica_count_exactness():
    frames = 10_000
    rng = np.random.default_rng(101)
    k, s = 10, 20
    crdsap, sscp2, sscp3 = Policy("crdsap"), Policy("sscp", 2), Policy("sscp", 3)
    # one trial of frames * k devices takes the same words numpy's integers would
    words = rng.bit_generator.random_raw((1, ac.policy_words(crdsap, frames * k, s)))
    units = ch.unit_doubles(words)
    (first, second), _rejected = ac.decode_draws(crdsap, words, units, frames * k, s)
    draws = (first.reshape(frames, k), second.reshape(frames, k))
    totals = ac.choose_slots(crdsap, None, draws, s).sum(axis=(1, 2))
    ok = bool(np.all(totals == 2 * k))
    for policy, count in ((sscp2, 2), (sscp3, 3)):
        snr = rng.uniform(0.0, 100.0, (frames, k, s))
        totals = ac.choose_slots(policy, snr, (), s).sum(axis=(1, 2))
        ok = ok and bool(np.all(totals == count * k))
    report("1", ok, f"crdsap=2K and sscp(s)=sK replica totals over {frames} frames")
    assert ok


def test_c2_irsap_degree_statistics():
    n, s = 100_000, 20
    rng = np.random.default_rng(202)
    irsap = Policy("irsap")
    words = rng.bit_generator.random_raw((1, ac.policy_words(irsap, n, s)))
    draws, _rejected = ac.decode_draws(irsap, words, ch.unit_doubles(words), n, s)
    sizes = ac.choose_slots(irsap, None, draws, s)[0].sum(axis=1)

    mean_ok = abs(sizes.mean() - IRSAP_MEAN_DEGREE_S20) <= 0.01 * IRSAP_MEAN_DEGREE_S20
    pmf = ac.irsap_degree_pmf(s)
    freq = np.bincount(sizes, minlength=s + 1)[2:] / n
    se = np.sqrt(pmf * (1 - pmf) / n)
    pmf_ok = bool(np.all(np.abs(freq - pmf) <= 3 * se))
    report(
        "2",
        mean_ok and pmf_ok,
        f"mean replicas {sizes.mean():.4f} vs {IRSAP_MEAN_DEGREE_S20:.4f} (1%), "
        f"degree pmf within 3 SE: {pmf_ok}",
    )
    assert mean_ok and pmf_ok


def test_c3_carp_probability_normalization():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(10_000):
        row = rng.uniform(0.0, 1e4, int(rng.integers(1, 41)))
        p = ac.carp_probabilities(row)
        worst = max(worst, abs(p.sum() - 1.0))
    uniform_ok = True
    for s in (1, 2, 5, 20, 40):
        p = ac.carp_probabilities(np.full(s, 3.7))
        uniform_ok = uniform_ok and bool(np.all(p == p[0]))
    ok = worst <= 1e-12 and uniform_ok
    report("3", ok, f"max |sum(p) - 1| = {worst:.2e}; equal rows exactly uniform: {uniform_ok}")
    assert ok


def test_c4_array_factor_peak():
    worst = 0.0
    for n_x, n_z in itertools.product((1, 2, 5, 10, 20), repeat=2):
        ris = ch.RisGeometry(n_x, n_z, 0.1, 0.1, 0.1)
        for theta in ch.phase_shift_set(5):
            value = math.sqrt(float(ch.array_factor_power(ris, np.sin(theta), np.sin(theta))))
            worst = max(worst, abs(value - ris.n_elements) / ris.n_elements)
    ok = worst <= 1e-9
    report("4", ok, f"aligned |array factor| = N across 25 geometries, worst rel err {worst:.2e}")
    assert ok


def test_c5_sic_matches_exhaustive_oracle():
    rng = np.random.default_rng(505)
    instances = 10_000
    ok = True
    for _ in range(instances):
        k = int(rng.integers(1, 7))
        s = int(rng.integers(1, 7))
        mask = rng.random((k, s)) < 0.45
        for device in range(k):
            if not mask[device].any():
                mask[device, int(rng.integers(s))] = True
        snr = np.where(rng.random((k, s)) < 0.7, 2.0, 0.5)
        decoded = {device for *_event, device in peel_trace(rx.peel_batch, mask, snr, 1.0)}

        if decoded != exhaustive_decode(slot_sets(mask), snr >= 1.0):
            ok = False
            break
        # scan-order invariance: decode with slots relabeled by a random shuffle
        perm = rng.permutation(s)
        shuffled = peel_trace(rx.peel_batch, mask[:, perm], snr[:, perm], 1.0)
        if {device for *_event, device in shuffled} != decoded:
            ok = False
            break
    report("5", ok, f"{instances} random instances equal the all-schedules oracle, any scan order")
    assert ok


def test_c6_closed_form_single_device_throughput():
    base = (
        "sim.k=1",
        "sim.s=5",
        "sim.trials=3000",
        "mtd.d_min_m=25",
        "mtd.d_max_m=25",
        "mtd.angle_min_rad=0",
        "mtd.angle_max_rad=0",
    )
    from risra.engine import simulate_frame

    expected = {"carp": 1.0 / ((1.0 + 0.2) * 5 * 1.0), "crdsap": 1.0 / ((1.0 + 0.0) * 5 * 1.0)}
    ok = True
    means = {}
    for kind, g_expected in expected.items():
        cfg = make_cfg(*base, f"policy.kind={kind}")
        # the per-frame contract is exact; aggregate means only accumulate
        # summation ulps on top of bit-identical per-frame values
        for trial in range(500):
            frame = simulate_frame(cfg, trial)
            ok = ok and frame.successes == 1 and frame.throughput_pps == g_expected
        agg = run_monte_carlo(cfg)
        means[kind] = agg.mean_throughput
        ok = (
            ok
            and agg.mean_a == 1.0
            and agg.ci95_throughput <= 1e-15
            and agg.mean_throughput == pytest.approx(g_expected, rel=1e-14)
        )
    report(
        "6",
        ok,
        f"aligned device decodes every frame; G = {means['carp']:.6f} (carp), "
        f"{means['crdsap']:.6f} (crdsap)",
    )
    assert ok


def test_c7_power_spot_values():
    params = pm.PowerParams(1.2, 0.1, ch.dbw_to_watts(9.0), 1.2, 0.04, 0.0015)
    timing = pm.FrameTiming(access_slot_s=1.0, training_ratio=0.2, slots=20)
    ris_ok = pm.ris_power(100, 0.0015) == pytest.approx(0.15, rel=1e-12)
    ap_value = pm.ap_power(params, 20, True)
    ap_ok = ap_value == pytest.approx(2.4 + STATIC_9_DBW, rel=1e-6)
    # one device's share of the frame power: P(one device, 2 replicas) - P(no devices)
    with_device, without = (
        pm.frame_metrics(params, timing, 100, 0.01, np.array(counts, dtype=int), 0, True)[0]
        for counts in ([2], [])
    )
    mtd_ok = with_device - without == pytest.approx(0.064, rel=1e-12)
    ok = ris_ok and ap_ok and mtd_ok
    report(
        "7",
        ok,
        f"P_ris(100)=150 mW, P_ap(20 slots)={ap_value:.6f} W, P_mtd(2)=64 mW",
    )
    assert ok


@pytest.fixture(scope="module")
def baseline_k20():
    results = {}
    for kind in ("carp", "crdsap", "irsap"):
        cfg = make_cfg(
            f"policy.kind={kind}", "sim.k=20", "sim.s=20",
            f"sim.trials={TRIALS}", f"sim.workers={WORKERS}",
        )
        results[kind] = run_monte_carlo(cfg)
    return results


def test_c8a_carp_dominates_at_high_load(baseline_k20):
    carp = baseline_k20["carp"]
    ok = True
    details = []
    for other_kind in ("crdsap", "irsap"):
        other = baseline_k20[other_kind]
        g_gap = (carp.mean_throughput - carp.ci95_throughput) - (
            other.mean_throughput + other.ci95_throughput
        )
        ee_gap = (carp.ee_ratio_of_means - ee_ci(carp)) - (
            other.ee_ratio_of_means + ee_ci(other)
        )
        ok = ok and g_gap > 0 and ee_gap > 0
        details.append(f"{other_kind}: G gap {g_gap:+.4f}, EE gap {ee_gap:+.5f}")
    report("8a", ok, "carp above crdsap and irsap at K=20 with separated CIs; " + "; ".join(details))
    assert ok


@pytest.fixture(scope="module")
def optimal_ee_curve():
    """Each policy's optimal-over-S efficiency per K, as (K, EE, CI) points.

    A two-stage grid search over the slot count: a coarse sweep locates the
    efficiency peak, a step-1 window around it is then evaluated at the full
    trial count (the efficiency curve is flat near its peak, so coarse-only
    searches understate it between grid points). The four policies run
    together as cell groups (engine.run_groups): per K, the coarse stage is
    one group per S holding every policy, and the fine stage runs the union
    of the policies' windows, each S as a group of the policies whose window
    holds it. The cells and seeds are those of a search per policy, so every
    point is the same.
    """
    def cells(points, trials: int):
        return [
            make_cfg(f"policy.kind={kind}", f"sim.k={k}", f"sim.s={s}",
                     f"sim.trials={trials}", f"sim.workers={WORKERS}")
            for kind, k, s in points
        ]

    def run(cfgs):
        runs = run_groups(cfgs)
        return [(cfg.policy.kind, cfg.s, agg) for cfg, (agg, _traces) in zip(cfgs, runs)]

    curves = {kind: [] for kind in POLICIES}
    for k in K_GRID:
        peaks = {}
        coarse = cells([(kind, k, s) for kind in POLICIES for s in COARSE_S_GRID], COARSE_TRIALS)
        for kind, s, agg in run(coarse):
            peaks[kind] = max(peaks.get(kind, (-math.inf, 0)), (agg.ee_ratio_of_means, s))
        windows = [
            (kind, k, s)
            for kind in POLICIES
            for s in range(max(2, peaks[kind][1] - 3), min(40, peaks[kind][1] + 3) + 1)
        ]
        best = {}
        for kind, _s, agg in run(cells(windows, TRIALS)):
            if kind not in best or agg.ee_ratio_of_means > best[kind].ee_ratio_of_means:
                best[kind] = agg
        for kind in POLICIES:
            curves[kind].append((k, best[kind].ee_ratio_of_means, ee_ci(best[kind])))
    return curves


def sscp_two_to_four(points) -> tuple[bool, str]:
    """sscp's K=2 -> 4 step, checked against the exact two-device oracle.

    Two sscp devices whose two strongest slots coincide form a loop that
    peeling cannot open, so the optimal efficiency at K=2 is low and rises
    at K=4 (README, "Known results"). The oracle's K=2 optimum is taken with
    ties to the lower slot index, the rule `access.sscp_slots` documents;
    no tie rule decodes less. The step must rise, the K=2 fixture optimum
    must not lie below the oracle's by more than its CI, and the K=4 point
    must clear the oracle's optimum by its whole CI. A model change that
    removes the rise fails here. The optimum with a fair coin per device,
    the limit of vanishing estimation noise, is printed for comparison.
    """
    (k_two, ee_two, ci_two), (k_four, ee_four, ci_four) = points[:2]
    assert (k_two, k_four) == (2, 4)
    _cfg, resolved = parse_config(None, ["policy.kind=sscp", "sim.k=2"])
    s_best, ee_oracle, _s_last = sscp_two_device_optimal_ee(resolved, "lower")
    _s, ee_coin, _s_last = sscp_two_device_optimal_ee(resolved, "coin")
    lower = ee_four - ci_four
    consistent = ee_two + ci_two >= ee_oracle
    ok = consistent and ee_four > ee_two and lower > ee_oracle
    return ok, (
        f"K=2->4 rise: oracle K=2 optimum {ee_oracle:.5f} (S={s_best}, lower-index "
        f"ties; {ee_coin:.5f} with coin ties), fixture {ee_two:.5f}+-{ci_two:.5f} "
        f"(not below: {consistent}); K=4 lower bound {lower:.5f}, margin "
        f"{lower - ee_oracle:+.5f}"
    )


@pytest.mark.parametrize("kind", POLICIES)
def test_c8b_optimal_ee_decreases_with_devices(optimal_ee_curve, kind):
    points = optimal_ee_curve[kind]
    violations = []
    for (k_prev, ee_prev, ci_prev), (k_next, ee_next, ci_next) in zip(points, points[1:]):
        if kind == "sscp" and (k_prev, k_next) == (2, 4):
            continue  # checked by sscp_two_to_four
        # excess > allowance holds exactly when the rise ee_next - ee_prev
        # exceeds |ci_prev - ci_next|: with equal CIs no rise is admitted
        allowance = 2 * max(ci_prev, ci_next)
        excess = (ee_next + ci_next) - (ee_prev - ci_prev)
        if excess > allowance:
            violations.append(f"K={k_prev}->{k_next}: EE {ee_prev:.5f}->{ee_next:.5f}")
    rise_ok, rise_detail = sscp_two_to_four(points) if kind == "sscp" else (True, "")
    ok = rise_ok and not violations
    summary = ", ".join(f"{k}:{ee:.4f}" for k, ee, _ in points)
    report("8b", ok, f"{kind} optimal-over-S EE vs K [{summary}]"
           + (f"; {rise_detail}" if rise_detail else "")
           + ("" if not violations else f"; rises: {violations}"))
    assert not violations, f"{kind}: optimal EE rises with K at {violations}"
    assert rise_ok, f"{kind}: the K=2->4 step no longer fits the two-device oracle; {rise_detail}"


def test_c9_manifest_determinism(tmp_path):
    argv = [
        "sweep", "--axis", "K", "--values", "2,6", "--trials", "200",
        "--policies", "carp,crdsap", "--set", "sim.s=8",
    ]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    workers = tmp_path / "workers.csv"
    assert cli.main(argv + ["--out", str(first)]) == 0
    assert cli.main(argv + ["--out", str(second)]) == 0
    assert cli.main(argv + ["--out", str(workers), "--set", "sim.workers=2"]) == 0
    replayed = tmp_path / "replayed.csv"
    cli.replay_manifest(tmp_path / "first.csv.manifest.json", replayed)
    ok = (
        first.read_bytes() == second.read_bytes() == workers.read_bytes()
        and replayed.read_bytes() == first.read_bytes()
    )
    report("9", ok, "rerun, worker-count change and manifest replay all byte-identical")
    assert ok
