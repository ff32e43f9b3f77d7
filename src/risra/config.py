"""Scenario configuration: flat key=value schema, defaults, validation.

Config files are plain text, one `key = value` per line, `#` comments allowed.
Keys are dotted and flat (no sections). Decibel-valued keys are converted to
linear exactly once here; everything downstream is linear. Unset keys take the
defaults below, which describe the baseline scenario used throughout the test
suite: a 10x10 surface with 0.1 m elements at 0.1 m wavelength, the AP at 20 m
with 5 dB gain, devices uniform over 25..100 m and the full angle quadrant,
10 mW device transmit power, -94 dBm noise, 0 dB SIC threshold, 20 slots, 10
contending devices. Each rule is a _RULES row, checked on every ScenarioConfig
built (dataclasses.replace too) over plain-record parts; errors name the key.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Any, Callable, Iterable

from .access import POLICY_KINDS, Policy
from .channel import (
    HALF_PI,
    NodePlacement,
    RadioParams,
    RisGeometry,
    db_to_linear,
    dbm_to_watts,
    dbw_to_watts,
)
from .power_metrics import FrameTiming, PowerParams, ap_power, ris_power

# key -> (python type, default)
CONFIG_SCHEMA: dict[str, tuple[type, Any]] = {
    "ris.n_x": (int, 10),
    "ris.n_z": (int, 10),
    "ris.d_x_m": (float, 0.1),
    "ris.d_z_m": (float, 0.1),
    "radio.wavelength_m": (float, 0.1),
    "radio.mtd_tx_power_w": (float, 0.01),
    "radio.noise_power_dbm": (float, -94.0),
    "radio.snr_threshold_db": (float, 0.0),
    "ap.distance_m": (float, 20.0),
    "ap.gain_db": (float, 5.0),
    "mtd.d_min_m": (float, 25.0),
    "mtd.d_max_m": (float, 100.0),
    "mtd.angle_min_rad": (float, 0.0),
    "mtd.angle_max_rad": (float, HALF_PI),
    "mtd.gain_db": (float, 5.0),
    "policy.kind": (str, "carp"),
    "policy.sscp_s": (int, 2),
    "estimation.c": (float, 1.0),
    "estimation.noise_std": (float, 0.0),
    "power.ap_xi": (float, 1.2),
    "power.ap_tx_power_w": (float, 0.1),
    "power.ap_static_dbw": (float, 9.0),
    "power.mtd_xi": (float, 1.2),
    "power.mtd_static_w": (float, 0.04),
    "power.phase_shifter_mw": (float, 1.5),
    "timing.t_as_s": (float, 1.0),
    "timing.r": (float, 0.2),
    "sim.k": (int, 10),
    "sim.s": (int, 20),
    "sim.trials": (int, 1000),
    "sim.seed": (int, 1),
    "sim.workers": (int, 1),
}

# keys of earlier versions -> the value at which their outputs equal this
# version's, None where no output read the key: a manifest replay drops a
# removed key at that value and refuses any other (cli.replay_manifest)
REMOVED_KEYS: dict[str, Any] = {"ap.angle_rad": None, "power.always_charge_training": False}

# sweep axis -> the flat keys one axis value sets
SWEEP_AXES: dict[str, tuple[str, ...]] = {
    "K": ("sim.k",),
    "rho_mtd": ("radio.mtd_tx_power_w",),
    "N": ("ris.n_x", "ris.n_z"),
    "S": ("sim.s",),
}


@dataclass(slots=True, frozen=True)
class ScenarioConfig:
    """Everything one Monte Carlo run needs; validated on construction."""

    ris: RisGeometry
    ap: NodePlacement
    radio: RadioParams
    mtd_d_min_m: float
    mtd_d_max_m: float
    mtd_angle_min_rad: float
    mtd_angle_max_rad: float
    mtd_gain: float
    policy: Policy
    estimation_c: float
    estimation_noise_std: float
    power: PowerParams
    timing: FrameTiming
    k: int
    trials: int
    seed: int
    workers: int

    def __post_init__(self) -> None:
        for _key, rule, message in _RULES:
            if not rule(self):
                raise ValueError(message if isinstance(message, str) else message(self))
        _check_overflow(self)

    @property
    def s(self) -> int:
        return self.timing.slots


def _positive(key: str, value: Callable[[ScenarioConfig], float], what: str, unit: str = "") -> tuple:
    """The row of a key whose value in the built config must be positive."""
    return (key, lambda c: value(c) > 0,
            lambda c: f"{key} must give a positive {what}, not {value(c)}{unit}")


def _integer(key: str, value: Callable[[ScenarioConfig], Any]) -> tuple:
    """The row of a key whose value in the built config must be an int, not a bool."""
    return (key, lambda c: isinstance(value(c), int) and not isinstance(value(c), bool),
            lambda c: f"{key} must be an integer, got {type(value(c)).__name__}")


# (key, rule every valid config keeps, message) rows, checked in the order build_config makes
# the parts, so a config is told the first it breaks. Messages show ints and texts by _shown.
_RULES = (
    _integer("ris.n_x", lambda c: c.ris.n_x),
    ("ris.n_x", lambda c: c.ris.n_x >= 1, "ris.n_x must be >= 1"),
    _integer("ris.n_z", lambda c: c.ris.n_z),
    ("ris.n_z", lambda c: c.ris.n_z >= 1, "ris.n_z must be >= 1"),
    ("ris.d_x_m", lambda c: 0 < c.ris.d_x_m <= c.ris.wavelength_m,
     "ris.d_x_m must be in (0, radio.wavelength_m]"),
    ("ris.d_z_m", lambda c: 0 < c.ris.d_z_m <= c.ris.wavelength_m,
     "ris.d_z_m must be in (0, radio.wavelength_m]"),
    ("ap.distance_m", lambda c: c.ap.distance_m > 0, "ap.distance_m must be positive"),
    _positive("ap.gain_db", lambda c: c.ap.antenna_gain, "linear gain"),
    _positive("radio.mtd_tx_power_w", lambda c: c.radio.mtd_tx_power_w, "linear value"),
    _positive("radio.noise_power_dbm", lambda c: c.radio.noise_power_w, "linear value"),
    _positive("radio.snr_threshold_db", lambda c: c.radio.snr_threshold, "linear value"),
    ("power.ap_xi", lambda c: c.power.ap_pa_inverse_eff > 1, "power.ap_xi must exceed 1"),
    ("power.mtd_xi", lambda c: c.power.mtd_pa_inverse_eff > 1, "power.mtd_xi must exceed 1"),
    _positive("power.ap_tx_power_w", lambda c: c.power.ap_tx_power_w, "power", " W"),
    _positive("power.ap_static_dbw", lambda c: c.power.ap_static_w, "power", " W"),
    _positive("power.mtd_static_w", lambda c: c.power.mtd_static_w, "power", " W"),
    _positive("power.phase_shifter_mw", lambda c: c.power.phase_shifter_w, "power", " W"),
    ("timing.t_as_s", lambda c: c.timing.access_slot_s > 0, "timing.t_as_s must be positive"),
    ("timing.r", lambda c: c.timing.training_ratio >= 0, "timing.r must be nonnegative"),
    _integer("sim.s", lambda c: c.s),
    ("sim.s", lambda c: c.s >= 1, "sim.s must be >= 1"),
    ("policy.kind", lambda c: c.policy.kind in POLICY_KINDS, lambda c:
     f"policy.kind must be one of {', '.join(POLICY_KINDS)}, got {_shown(c.policy.kind)}"),
    _integer("policy.sscp_s", lambda c: c.policy.sscp_s),
    ("policy.sscp_s", lambda c: c.policy.kind != "sscp" or c.policy.sscp_s >= 1,
     "policy.sscp_s must be >= 1"),
    _integer("sim.k", lambda c: c.k),
    ("sim.k", lambda c: c.k >= 1, "sim.k must be >= 1"),
    _integer("sim.trials", lambda c: c.trials),
    # trial indices key the streams as one 32-bit word (engine._trial_keys)
    ("sim.trials", lambda c: 1 <= c.trials <= 2**32,
     lambda c: f"sim.trials must be between 1 and 2**32, got {_shown(c.trials)}"),
    _integer("sim.workers", lambda c: c.workers),
    ("sim.workers", lambda c: c.workers >= 1, "sim.workers must be >= 1"),
    _integer("sim.seed", lambda c: c.seed),
    ("sim.seed", lambda c: c.seed >= 0, "sim.seed must be a nonnegative integer"),
    ("mtd.d_min_m", lambda c: 0 < c.mtd_d_min_m <= c.mtd_d_max_m,
     "0 < mtd.d_min_m <= mtd.d_max_m must hold"),
    ("mtd.angle_min_rad", lambda c: 0 <= c.mtd_angle_min_rad <= c.mtd_angle_max_rad <= HALF_PI,
     "0 <= mtd.angle_min_rad <= mtd.angle_max_rad <= pi/2 must hold"),
    _positive("mtd.gain_db", lambda c: c.mtd_gain, "linear gain"),
    # measure_quality's clamp at 0 would zero every quality
    ("estimation.c", lambda c: c.estimation_c >= 0, "estimation.c must be nonnegative"),
    ("estimation.noise_std", lambda c: c.estimation_noise_std >= 0,
     "estimation.noise_std must be nonnegative"),
    ("policy.sscp_s", lambda c: c.policy.kind != "sscp" or c.policy.sscp_s <= c.s, lambda c:
     f"policy.sscp_s = {_shown(c.policy.sscp_s)} exceeds sim.s = {_shown(c.s)}"),
    ("sim.s", lambda c: c.policy.kind not in ("crdsap", "irsap") or c.s >= 2,
     lambda c: f"policy {_shown(c.policy.kind)} needs sim.s >= 2"),
)


def _shown(value: int | str) -> str:
    """An int or a text as an error line shows it, in at most 35 characters."""
    if isinstance(value, str):
        return repr(value if len(value) <= 32 else value[:29] + "...")
    return str(value) if abs(value) < 10**12 else f"{Decimal(value):.6g}"


def _parse_value(key: str, raw: Any) -> Any:
    kind, _default = CONFIG_SCHEMA[key]
    if isinstance(raw, kind) and not (kind is int and isinstance(raw, bool)):
        value = raw
    else:
        text = str(raw).strip()
        try:
            value = kind(text)
        except ValueError:
            raise ValueError(f"config key {key!r} expects {kind.__name__}, "
                             f"got {_shown(text)}") from None
    if kind is float and not math.isfinite(value):
        raise ValueError(f"config key {key!r} must be a finite number, got {value!r}")
    return value


def read_config_file(path: str | Path) -> dict[str, str]:
    """Read `key = value` lines; `#` starts a comment; blank lines are skipped."""
    items: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        items[key.strip()] = value.strip()
    return items


def resolve_config(
    file_items: dict[str, Any] | None = None,
    overrides: Iterable[str] = (),
) -> dict[str, Any]:
    """Merge defaults, file entries and `key=value` override strings.

    Returns the fully materialized flat mapping (every schema key present,
    values in their schema types) used both to build a ScenarioConfig and to
    record run manifests.
    """
    resolved: dict[str, Any] = {key: default for key, (_t, default) in CONFIG_SCHEMA.items()}
    for source in (file_items or {}).items(), _split_overrides(overrides):
        for key, value in source:
            if key not in CONFIG_SCHEMA:
                raise ValueError(f"unknown config key {_shown(key)}")
            resolved[key] = _parse_value(key, value)
    return resolved


def _split_overrides(overrides: Iterable[str]) -> list[tuple[str, str]]:
    pairs = []
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} must look like key=value")
        key, value = item.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return pairs


def build_config(resolved: dict[str, Any]) -> ScenarioConfig:
    """Construct a validated ScenarioConfig from a fully resolved flat mapping."""
    ris = RisGeometry(
        n_x=resolved["ris.n_x"],
        n_z=resolved["ris.n_z"],
        d_x_m=resolved["ris.d_x_m"],
        d_z_m=resolved["ris.d_z_m"],
        wavelength_m=resolved["radio.wavelength_m"],
    )
    ap = NodePlacement(
        distance_m=resolved["ap.distance_m"],
        antenna_gain=db_to_linear(resolved["ap.gain_db"]),
    )
    radio = RadioParams(
        mtd_tx_power_w=resolved["radio.mtd_tx_power_w"],
        noise_power_w=dbm_to_watts(resolved["radio.noise_power_dbm"]),
        snr_threshold=db_to_linear(resolved["radio.snr_threshold_db"]),
    )
    power = PowerParams(
        ap_pa_inverse_eff=resolved["power.ap_xi"],
        ap_tx_power_w=resolved["power.ap_tx_power_w"],
        ap_static_w=dbw_to_watts(resolved["power.ap_static_dbw"]),
        mtd_pa_inverse_eff=resolved["power.mtd_xi"],
        mtd_static_w=resolved["power.mtd_static_w"],
        phase_shifter_w=resolved["power.phase_shifter_mw"] * 1e-3,
    )
    timing = FrameTiming(
        access_slot_s=resolved["timing.t_as_s"],
        training_ratio=resolved["timing.r"],
        slots=resolved["sim.s"],
    )
    return ScenarioConfig(
        ris=ris,
        ap=ap,
        radio=radio,
        mtd_d_min_m=resolved["mtd.d_min_m"],
        mtd_d_max_m=resolved["mtd.d_max_m"],
        mtd_angle_min_rad=resolved["mtd.angle_min_rad"],
        mtd_angle_max_rad=resolved["mtd.angle_max_rad"],
        mtd_gain=db_to_linear(resolved["mtd.gain_db"]),
        policy=Policy(kind=resolved["policy.kind"], sscp_s=resolved["policy.sscp_s"]),
        estimation_c=resolved["estimation.c"],
        estimation_noise_std=resolved["estimation.noise_std"],
        power=power,
        timing=timing,
        k=resolved["sim.k"],
        trials=resolved["sim.trials"],
        seed=resolved["sim.seed"],
        workers=resolved["sim.workers"],
    )


# numpy's normals lie within ±13.7: its ziggurat's tail returns r - log1p(-u) / r,
# r = 3.6541528853610088, for a unit double u <= 1 - 2**-53
_NORMAL_MAX = 3.6541528853610088 - math.log(2.0**-53) / 3.6541528853610088


def _check_overflow(cfg: ScenarioConfig) -> None:
    """Reject a config with a count beyond a float, or whose largest possible SNR,
    quality, frame power, throughput or efficiency overflows.

    The largest SNR puts a device at d_min and angle_min in a slot where the
    array factor peaks, (n_x n_z)^2. The largest measured quality adds the
    largest normal numpy draws, times the noise std, to c times that SNR, and
    carp sums a device's qualities over the S slots. The largest frame power
    charges the training and has every device send in every slot; the largest throughput
    decodes every device without the training block. Over the trials, the CI
    of each sums up to `trials` squared deviations, each below its square, and
    the mean efficiency sums `trials` ratios, each below the largest throughput
    over the least frame power (no training, one replica per device).
    """
    ris, power = cfg.ris, cfg.power
    for key, value in (("ris.n_x", ris.n_x), ("ris.n_z", ris.n_z), ("sim.s", cfg.s), ("sim.k", cfg.k)):
        if value > sys.float_info.max:
            raise ValueError(f"config key {key!r} exceeds the largest float, {sys.float_info.max:.6g}")
    reach = ris.d_x_m * ris.d_z_m / (cfg.ap.distance_m * cfg.mtd_d_min_m)
    elements = float(ris.n_x) * ris.n_z  # inf past a float, which the SNR check refuses
    # in the order channel.snr_matrix multiplies: (P/N0 · β) · |AF|²
    beta = cfg.ap.antenna_gain * cfg.mtd_gain / (4 * math.pi) ** 2 * reach * reach
    beta *= math.cos(cfg.mtd_angle_min_rad) ** 2
    snr = cfg.radio.mtd_tx_power_w / cfg.radio.noise_power_w * beta * (elements * elements)
    if not math.isfinite(snr):
        raise ValueError("the largest possible SNR overflows a float: lower radio.mtd_tx_power_w "
                         "or ris.n_x * ris.n_z, or raise a distance or the noise power")
    quality = cfg.estimation_c * snr + cfg.estimation_noise_std * _NORMAL_MAX
    if not math.isfinite(cfg.s * quality):
        raise ValueError("the largest possible measured quality, summed over the slots, overflows "
                         "a float: lower estimation.c or estimation.noise_std")
    surface_w = ris_power(ris.n_elements, power.phase_shifter_w)
    replica_w = power.mtd_pa_inverse_eff * cfg.radio.mtd_tx_power_w
    frame_w = ap_power(power, cfg.s, True) + surface_w + cfg.k * (cfg.s * replica_w + power.mtd_static_w)
    pps = cfg.k / (cfg.s * cfg.timing.access_slot_s)
    ee = pps / (power.ap_static_w + surface_w + cfg.k * (replica_w + power.mtd_static_w))
    for name, value, unit, term, fix in (
        ("frame power", frame_w, "W", frame_w * frame_w, "lower the power keys"),
        ("throughput", pps, "packets/s", pps * pps, "raise timing.t_as_s"),
        ("efficiency", ee, "packets/J", ee, "raise timing.t_as_s or the power keys"),
    ):
        if not math.isfinite(term * cfg.trials):
            raise ValueError(f"the largest possible {name}, {value:.6g} {unit}, overflows a float "
                             f"over {cfg.trials} trials; {fix}")


def parse_config(
    path: str | Path | None = None, overrides: Iterable[str] = ()
) -> tuple[ScenarioConfig, dict[str, Any]]:
    """Parse a config file (optional) plus overrides into a validated config.

    Returns the ScenarioConfig and the resolved flat mapping recorded in run
    manifests.
    """
    file_items = read_config_file(path) if path is not None else None
    resolved = resolve_config(file_items, overrides)
    return build_config(resolved), resolved


def _axis_items(axis: str, value: Any) -> dict[str, Any]:
    if axis == "N":
        side = math.isqrt(value) if isinstance(value, int) and value > 0 else 0
        if side * side != value:
            raise ValueError(
                f"axis N value {value!r} is not a perfect square; the surface keeps n_x = n_z"
            )
        value = side
    return dict.fromkeys(SWEEP_AXES[axis], value)


def cell_configs(
    resolved: dict[str, Any], kinds: Iterable[str], axis: str | None = None, values: Iterable = ()
) -> list[ScenarioConfig]:
    """Every (policy, axis value) cell's config, each built from the resolved mapping
    `resolved` with only the keys it sets, policy.kind and the axis keys, parsed.

    Cells are sorted by (policy, value) with duplicates dropped; without an
    axis there is one cell per policy. Every cell is built and validated
    here, so a bad cell fails before any cell runs.
    """
    if axis is not None and axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {', '.join(SWEEP_AXES)}, got {axis!r}")
    items = [{}] if axis is None else [_axis_items(axis, v) for v in sorted(set(values))]
    cells = ({"policy.kind": kind, **item} for kind in sorted(set(kinds)) for item in items)
    cfgs = [build_config({**resolved, **{key: _parse_value(key, value) for key, value in cell.items()}})
            for cell in cells]
    if not cfgs:
        raise ValueError("a run needs at least one policy and one axis value")
    return cfgs
