"""Workload instances, built from the ``section-iv-a`` preset.

Seed 0 gives the instances exactly as described in ``README.md``.  Any
other seed multiplies every tariff value by one factor drawn from
``1 +/- TARIFF_SPREAD`` (replay-fine excepted).  A common factor changes
costs but no decision, so every seed does the same work.
"""
from __future__ import annotations

import numpy as np

NAMES = ("solve-ns4", "replay-fine", "sweep-tight")

TARIFF_SPREAD = 0.1

SWEEP_CAPACITIES_WH = (0.0, 250.0)


def _base() -> dict:
    """Canonical-unit mapping of the published ``section-iv-a`` instance."""
    from paces.config import load_config, serialize
    return serialize(load_config("section-iv-a"))


def tariff_scale(seed: int) -> float:
    """Factor applied to every tariff value: 1 for seed 0."""
    if seed == 0:
        return 1.0
    rng = np.random.default_rng(seed)
    return float(1.0 + rng.uniform(-TARIFF_SPREAD, TARIFF_SPREAD))


def _scale_prices(raw: dict, seed: int) -> None:
    scale = tariff_scale(seed)
    raw["price"]["values"] = [p * scale for p in raw["price"]["values"]]


def ns4(seed: int) -> dict:
    """lambda=140 W plus two 10 W, 2-slot NS appliances in zone 1-12."""
    raw = _base()
    raw["name"] = "solve-ns4"
    raw["privacy"]["lambda"] = 140.0
    for i in range(3, 5):
        raw["ns_appliances"].append({"id": f"ns{i}", "power": 10.0,
                                     "runtime_slots": 2, "zone": [1, 12]})
    _scale_prices(raw, seed)
    return raw


def fine(seed: int) -> dict:
    """5 Wh battery grid: 151 levels x 60 remaining vectors.

    The seed only picks the replayed event scripts, so the table is the
    same for every seed."""
    raw = _base()
    raw["name"] = "replay-fine"
    raw["battery"]["grid_step"] = 5.0
    return raw


def tight(seed: int) -> dict:
    """The published instance, swept over SWEEP_CAPACITIES_WH."""
    raw = _base()
    raw["name"] = "sweep-tight"
    _scale_prices(raw, seed)
    return raw


#: workload name -> ``seed -> raw config mapping``
CONFIGS = {
    "solve-ns4": ns4,
    "replay-fine": fine,
    "sweep-tight": tight,
}
