"""Scenario configuration: flat key=value schema, defaults, validation.

Config files are plain text, one `key = value` per line, `#` comments allowed.
Keys are dotted and flat (no sections). Decibel-valued keys are converted to
linear exactly once here; everything downstream is linear. Unset keys take the
defaults below, which describe the baseline scenario used throughout the test
suite: a 10x10 surface with 0.1 m elements at 0.1 m wavelength, the AP at
20 m / 45 degrees with 5 dB gain, devices uniform over 25..100 m and the full
angle quadrant, 10 mW device transmit power, -94 dBm noise, 0 dB SIC
threshold, 20 slots, 10 contending devices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from .access import Policy
from .channel import (
    HALF_PI,
    NodePlacement,
    RadioParams,
    RisGeometry,
    db_to_linear,
    dbm_to_watts,
    dbw_to_watts,
)
from .power_metrics import FrameTiming, PowerParams

# key -> (python type, default). Booleans parse from true/false.
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
    "ap.angle_rad": (float, math.pi / 4),
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
    "power.always_charge_training": (bool, False),
    "timing.t_as_s": (float, 1.0),
    "timing.r": (float, 0.2),
    "sim.k": (int, 10),
    "sim.s": (int, 20),
    "sim.trials": (int, 1000),
    "sim.seed": (int, 1),
    "sim.workers": (int, 1),
}

# sweep axis -> the flat keys one axis value sets
SWEEP_AXES: dict[str, tuple[str, ...]] = {
    "K": ("sim.k",),
    "rho_mtd": ("radio.mtd_tx_power_w",),
    "N": ("ris.n_x", "ris.n_z"),
    "S": ("sim.s",),
}


@dataclass(slots=True)
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
    always_charge_training: bool

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("sim.k must be >= 1")
        if self.trials < 1:
            raise ValueError("sim.trials must be >= 1")
        if self.workers < 1:
            raise ValueError("sim.workers must be >= 1")
        if self.seed < 0:
            raise ValueError("sim.seed must be a nonnegative integer")
        if not (0 < self.mtd_d_min_m <= self.mtd_d_max_m):
            raise ValueError("mtd distance range must satisfy 0 < d_min <= d_max")
        if not (0 <= self.mtd_angle_min_rad <= self.mtd_angle_max_rad <= HALF_PI):
            raise ValueError("mtd angle range must be ordered within [0, pi/2]")
        if self.mtd_gain <= 0:
            raise ValueError("mtd gain must be positive")
        if self.estimation_noise_std < 0:
            raise ValueError("estimation.noise_std must be nonnegative")
        if self.policy.kind == "sscp" and self.policy.sscp_s > self.s:
            raise ValueError(
                f"policy.sscp_s = {self.policy.sscp_s} exceeds sim.s = {self.s}"
            )
        if self.policy.kind in ("crdsap", "irsap") and self.s < 2:
            raise ValueError(f"policy {self.policy.kind!r} needs sim.s >= 2")

    @property
    def s(self) -> int:
        return self.timing.slots

    @property
    def training_used(self) -> bool:
        return self.policy.requires_training or self.always_charge_training


def _parse_value(key: str, raw: Any) -> Any:
    kind, _default = CONFIG_SCHEMA[key]
    if isinstance(raw, kind) and not (kind is int and isinstance(raw, bool)):
        value = raw
    elif kind is bool:
        text = str(raw).strip().lower()
        if text in ("true", "1", "yes"):
            return True
        if text in ("false", "0", "no"):
            return False
        raise ValueError(f"config key {key!r} expects true/false, got {text!r}")
    else:
        text = str(raw).strip()
        try:
            value = kind(text)
        except ValueError:
            raise ValueError(f"config key {key!r} expects {kind.__name__}, got {text!r}") from None
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
                raise ValueError(f"unknown config key {key!r}")
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
        angle_rad=resolved["ap.angle_rad"],
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
        mtd_tx_power_w=resolved["radio.mtd_tx_power_w"],
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
        always_charge_training=resolved["power.always_charge_training"],
    )


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
    """Every (policy, axis value) cell's config, each built from `resolved`.

    Cells are sorted by (policy, value) with duplicates dropped; without an
    axis there is one cell per policy. Every cell is built and validated
    here, so a bad cell fails before any cell runs.
    """
    if axis is not None and axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {', '.join(SWEEP_AXES)}, got {axis!r}")
    items = [{}] if axis is None else [_axis_items(axis, v) for v in sorted(set(values))]
    cfgs = [
        build_config(resolve_config({**resolved, "policy.kind": kind, **item}))
        for kind in sorted(set(kinds))
        for item in items
    ]
    if not cfgs:
        raise ValueError("a run needs at least one policy and one axis value")
    return cfgs
