"""Monte Carlo link-level simulator for RIS-aided IoT random access.

Library layout:
  channel       surface geometry, placements, array factor, SNR
  access        quality measurement, per-trial access draws, the four policies
  receiver      singleton detection and SIC peeling
  power_metrics frame power model, throughput, energy efficiency
  config        flat key=value schema, defaults, validation, sweep cells
  engine        the batched frame pipeline over cell groups (one cell is a
                group of one, one frame a batch of one), Monte Carlo
                aggregation, the best-S choice
  cli           `risra` command-line front end
"""

__version__ = "0.1.0"

from .access import Policy
from .config import ScenarioConfig, parse_config
from .engine import AggregateResult, run_monte_carlo, simulate_frame

__all__ = [
    "__version__",
    "Policy",
    "ScenarioConfig",
    "parse_config",
    "AggregateResult",
    "run_monte_carlo",
    "simulate_frame",
]
