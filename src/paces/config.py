"""Configuration files, CSV ingestion, presets, and random test instances.

Configs are strict JSON: unknown keys are rejected so a typo in a
parameter name fails loudly instead of silently falling back to a
default.  An optional ``units`` block lets files speak kW/kWh/per_kWh;
everything is normalized to W/Wh/per_Wh at ingestion and stays there.
"""
from __future__ import annotations

import copy
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from .errors import ConfigError, ModelError
from .model import (Battery, Instance, NonSchedulableAppliance, PriceSignal,
                    PrivacyPolicy, ReferenceSource, SchedulableAppliance,
                    TimeGrid)
from .scenarios import SOLVE_MODES, VIOLATION_METRICS, ScenarioSolveOptions
from .simulate import EventScript, ScriptedStart
from .table import DEFAULT_STATE_CAP, OBJECTIVE_MODES

POWER_FACTORS = {"W": 1.0, "kW": 1000.0}
ENERGY_FACTORS = {"Wh": 1.0, "kWh": 1000.0}
PRICE_FACTORS = {"per_Wh": 1.0, "per_kWh": 1e-3}

_GRID_SCHEMA = {
    "type": "object", "additionalProperties": False,
    "required": ["tau"],
    "properties": {
        "tau": {"type": "integer"},
        "slot_hours": {"type": "number"},
    },
}

_APPLIANCE_SCHEMA = {
    "type": "object", "additionalProperties": False,
    "required": ["id", "power", "workload"],
    "properties": {
        "id": {"type": "string", "minLength": 1},
        "power": {"type": "number"},
        "workload": {"type": "number"},
        "duration_slots": {"type": "integer"},
    },
}

_NS_APPLIANCE_SCHEMA = {
    "type": "object", "additionalProperties": False,
    "required": ["id", "power", "runtime_slots", "zone"],
    "properties": {
        "id": {"type": "string", "minLength": 1},
        "power": {"type": "number"},
        "runtime_slots": {"type": "integer"},
        "zone": {"type": "array", "items": {"type": "integer"},
                 "minItems": 2, "maxItems": 2},
        "start_prob": {"type": "array", "items": {"type": "number"},
                       "minItems": 1},
    },
}

_BATTERY_SCHEMA = {
    "type": "object", "additionalProperties": False,
    "required": ["capacity", "initial", "discharge_max", "charge_max",
                 "grid_step"],
    "properties": {
        "capacity": {"type": "number"},
        "initial": {"type": "number"},
        "discharge_max": {"type": "number"},
        "charge_max": {"type": "number"},
        "grid_step": {"type": "number"},
    },
}

_PRICE_SCHEMA = {
    "type": "object", "additionalProperties": False,
    "properties": {
        "values": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "csv": {"type": "string"},
        "constant": {"type": "number"},
    },
    "oneOf": [{"required": ["values"]}, {"required": ["csv"]},
              {"required": ["constant"]}],
}

_PRIVACY_SCHEMA = {
    "type": "object", "additionalProperties": False,
    "required": ["lambda"],
    "properties": {
        "lambda": {"type": "number"},
        "reference": {"type": "number"},
        "reference_csv": {"type": "string"},
        "reference_source": {"enum": ["config-constant", "historical-mean"]},
    },
    "oneOf": [{"required": ["reference"]}, {"required": ["reference_csv"]}],
}

_SOLVER_SCHEMA = {
    "type": "object", "additionalProperties": False,
    "properties": {
        "mode": {"enum": list(SOLVE_MODES)},
        "objective": {"enum": list(OBJECTIVE_MODES)},
        "metric": {"enum": list(VIOLATION_METRICS)},
        "include_inactive": {"type": "boolean"},
        "max_solves": {"type": ["integer", "null"]},
        "state_cap": {"type": "integer"},
    },
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object", "additionalProperties": False,
    "required": ["grid", "appliances", "ns_appliances", "battery", "price",
                 "privacy"],
    "properties": {
        "name": {"type": "string"},
        "units": {
            "type": "object", "additionalProperties": False,
            "properties": {
                "power": {"enum": sorted(POWER_FACTORS)},
                "energy": {"enum": sorted(ENERGY_FACTORS)},
                "price": {"enum": sorted(PRICE_FACTORS)},
            },
        },
        "grid": _GRID_SCHEMA,
        "appliances": {"type": "array", "items": _APPLIANCE_SCHEMA},
        "ns_appliances": {"type": "array", "items": _NS_APPLIANCE_SCHEMA},
        "battery": _BATTERY_SCHEMA,
        "price": _PRICE_SCHEMA,
        "privacy": _PRIVACY_SCHEMA,
        "solver": _SOLVER_SCHEMA,
        "seed": {"type": "integer"},
    },
}

_SCRIPT_SCHEMA = {
    "type": "object", "additionalProperties": False,
    "properties": {
        "events": {
            "type": "array",
            "items": {
                "type": "object", "additionalProperties": False,
                "required": ["appliance_id", "slot"],
                "properties": {
                    "appliance_id": {"type": "string", "minLength": 1},
                    "slot": {"type": "integer"},
                },
            },
        },
        "sample_seed": {"type": "integer"},
    },
    "oneOf": [{"required": ["events"]}, {"required": ["sample_seed"]}],
}


@dataclass(frozen=True)
class InstanceConfig:
    """Fully validated problem instance plus solver options and seed."""

    name: str
    instance: Instance
    options: ScenarioSolveOptions
    state_cap: int = DEFAULT_STATE_CAP
    seed: int = 0


def _check_schema(raw: object, schema: dict, what: str) -> None:
    err = best_match(Draft202012Validator(schema).iter_errors(raw))
    if err is not None:
        pointer = "/" + "/".join(str(p) for p in err.absolute_path)
        raise ConfigError(f"{what} schema violation at {pointer}: {err.message}")


def parse_config(raw: dict, base_dir: Union[str, Path] = ".",
                 default_name: str = "instance") -> InstanceConfig:
    """Validate and normalize an already-deserialized config mapping."""
    _check_schema(raw, CONFIG_SCHEMA, "config")
    base = Path(base_dir)
    units = raw.get("units", {})
    p_f = POWER_FACTORS[units.get("power", "W")]
    e_f = ENERGY_FACTORS[units.get("energy", "Wh")]
    c_f = PRICE_FACTORS[units.get("price", "per_Wh")]

    try:
        grid = TimeGrid(tau=raw["grid"]["tau"],
                        slot_hours=raw["grid"].get("slot_hours", 1.0))

        appliances = []
        for a in raw["appliances"]:
            if "duration_slots" in a:
                appliances.append(SchedulableAppliance(
                    id=a["id"], power_w=a["power"] * p_f,
                    workload_wh=a["workload"] * e_f,
                    duration_slots=a["duration_slots"]))
            else:
                appliances.append(SchedulableAppliance.from_workload(
                    id=a["id"], power_w=a["power"] * p_f,
                    workload_wh=a["workload"] * e_f,
                    slot_hours=grid.slot_hours))

        ns_appliances = []
        for a in raw["ns_appliances"]:
            ns_appliances.append(NonSchedulableAppliance(
                id=a["id"], power_w=a["power"] * p_f,
                runtime_slots=a["runtime_slots"],
                zone=(a["zone"][0], a["zone"][1]),
                start_prob=tuple(a["start_prob"]) if "start_prob" in a
                else None))

        b = raw["battery"]
        battery = Battery(b_max_wh=b["capacity"] * e_f,
                          b_init_wh=b["initial"] * e_f,
                          z_discharge_max_wh=b["discharge_max"] * e_f,
                          z_charge_max_wh=b["charge_max"] * e_f,
                          grid_step_wh=b["grid_step"] * e_f)

        p = raw["price"]
        if "values" in p:
            price = PriceSignal(tuple(v * c_f for v in p["values"]))
        elif "constant" in p:
            price = PriceSignal((p["constant"] * c_f,) * grid.tau)
        else:
            loaded = load_price_csv(base / p["csv"], grid.tau)
            price = PriceSignal(tuple(v * c_f for v in loaded.values))

        pv = raw["privacy"]
        if "reference" in pv:
            source = ReferenceSource(pv.get("reference_source",
                                            "config-constant"))
            policy = PrivacyPolicy(lambda_w=pv["lambda"] * p_f,
                                   l_bar_w=pv["reference"] * p_f,
                                   l_bar_source=source)
        else:
            policy = PrivacyPolicy(
                lambda_w=pv["lambda"] * p_f,
                l_bar_w=load_historical_load_csv(base / pv["reference_csv"]),
                l_bar_source=ReferenceSource.HISTORICAL)

        instance = Instance(grid=grid, appliances=tuple(appliances),
                            ns_appliances=tuple(ns_appliances),
                            battery=battery, price=price, policy=policy)

        s = raw.get("solver", {})
        options = ScenarioSolveOptions(
            mode=s.get("mode", "guaranteed"),
            include_inactive=s.get("include_inactive", False),
            metric=s.get("metric", "two-sided"),
            objective_mode=s.get("objective", "expected"),
            max_solves=s.get("max_solves"))
        state_cap = s.get("state_cap", DEFAULT_STATE_CAP)
    except (ModelError, OverflowError) as err:
        raise ConfigError(str(err)) from None

    return InstanceConfig(name=raw.get("name", default_name),
                          instance=instance, options=options,
                          state_cap=state_cap, seed=raw.get("seed", 0))


def load_config(source: Union[str, Path]) -> InstanceConfig:
    """Load a config from a preset name or a JSON file path."""
    if isinstance(source, str) and source in PRESETS:
        return parse_config(copy.deepcopy(PRESETS[source]),
                            default_name=source)
    path = Path(source)
    if not path.exists():
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(
            f"config {str(source)!r} is neither a file nor a preset "
            f"(presets: {known})")
    raw = read_json(path, "config")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return parse_config(raw, base_dir=path.parent, default_name=path.stem)


def serialize(config: InstanceConfig) -> dict:
    """Canonical-units mapping that parses back to an equal config."""
    inst = config.instance
    out: dict = {
        "name": config.name,
        "grid": {"tau": inst.grid.tau, "slot_hours": inst.grid.slot_hours},
        "appliances": [
            {"id": a.id, "power": a.power_w, "workload": a.workload_wh,
             "duration_slots": a.duration_slots}
            for a in inst.appliances
        ],
        "ns_appliances": [],
        "battery": {
            "capacity": inst.battery.b_max_wh,
            "initial": inst.battery.b_init_wh,
            "discharge_max": inst.battery.z_discharge_max_wh,
            "charge_max": inst.battery.z_charge_max_wh,
            "grid_step": inst.battery.grid_step_wh,
        },
        "price": {"values": list(inst.price.values)},
        "privacy": {
            "lambda": inst.policy.lambda_w,
            "reference": inst.policy.l_bar_w,
            "reference_source": inst.policy.l_bar_source.value,
        },
        "solver": {
            "mode": config.options.mode,
            "objective": config.options.objective_mode,
            "metric": config.options.metric,
            "include_inactive": config.options.include_inactive,
            "max_solves": config.options.max_solves,
            "state_cap": config.state_cap,
        },
        "seed": config.seed,
    }
    for a in inst.ns_appliances:
        entry = {"id": a.id, "power": a.power_w,
                 "runtime_slots": a.runtime_slots, "zone": list(a.zone)}
        if a.start_prob is not None:
            entry["start_prob"] = list(a.start_prob)
        out["ns_appliances"].append(entry)
    return out


def _read_text(path: Path, what: str) -> str:
    if not path.exists():
        raise ConfigError(f"{what} not found: {path}")
    return path.read_bytes().decode("utf-8")


def read_json(path: Union[str, Path], what: str) -> object:
    """Parse a UTF-8 JSON input file; any unreadable content is a ConfigError."""
    path = Path(path)
    try:
        return json.loads(_read_text(path, what))
    except (ValueError, RecursionError) as err:
        raise ConfigError(f"{path}: not valid JSON: {err}") from None


def read_csv_rows(path: Union[str, Path], header: list[str],
                  what: str) -> list[tuple[int, list[str]]]:
    """Non-empty data rows of a UTF-8 CSV file under ``header``, by line."""
    path = Path(path)
    try:
        rows = list(csv.reader(io.StringIO(_read_text(path, what),
                                           newline="")))
    except (ValueError, csv.Error) as err:
        raise ConfigError(f"{path}: not a readable CSV file: {err}") from None
    if not rows or rows[0] != header:
        raise ConfigError(f"{path}: expected header {','.join(header)!r}, "
                          f"got {rows[0] if rows else None!r}")
    out = [(line, row) for line, row in enumerate(rows[1:], start=2) if row]
    for line, row in out:
        if len(row) != len(header):
            raise ConfigError(f"{path} line {line}: expected {len(header)} "
                              f"columns, got {len(row)}")
    return out


def load_price_csv(path: Union[str, Path], tau: int) -> PriceSignal:
    """Read a per-slot tariff: header ``slot,price``, exactly tau rows."""
    path = Path(path)
    values: list[float] = []
    for line, row in read_csv_rows(path, ["slot", "price"], "price file"):
        try:
            slot = int(row[0])
            price = float(row[1])
        except ValueError:
            raise ConfigError(
                f"{path} line {line}: non-numeric row {row!r}") from None
        if slot != len(values) + 1:
            raise ConfigError(
                f"{path} line {line}: expected slot {len(values) + 1}, "
                f"got {slot}")
        if slot > tau:
            raise ConfigError(
                f"{path} line {line}: slot {slot} beyond the {tau}-slot "
                f"horizon")
        if price < 0:
            raise ConfigError(
                f"{path} line {line}: negative price {row[1]}")
        values.append(price)
    if len(values) != tau:
        raise ConfigError(
            f"{path}: expected {tau} data rows, file ends after {len(values)}")
    return PriceSignal(tuple(values))


def load_historical_load_csv(path: Union[str, Path]) -> float:
    """Arithmetic mean of a ``timestamp,load_w`` series, in W."""
    path = Path(path)
    loads: list[float] = []
    for line, row in read_csv_rows(path, ["timestamp", "load_w"],
                                   "historical load file"):
        try:
            loads.append(float(row[1]))
        except ValueError:
            raise ConfigError(
                f"{path} line {line}: non-numeric load {row[1]!r}") from None
    if not loads:
        raise ConfigError(f"{path}: no data rows")
    return sum(loads) / len(loads)


def load_event_script(path: Union[str, Path]) -> EventScript:
    """Read an event script: explicit starts or a sampling seed."""
    raw = read_json(path, "event script")
    _check_schema(raw, _SCRIPT_SCHEMA, "event script")
    if "events" in raw:
        return EventScript.scripted(
            [ScriptedStart(appliance_id=e["appliance_id"], slot=e["slot"])
             for e in raw["events"]])
    return EventScript.sampled(raw["sample_seed"])


# ---------------------------------------------------------------------------
# Built-in instances

PRESETS: dict[str, dict] = {
    "section-iv-a": {
        "name": "section-iv-a",
        "units": {"power": "W", "energy": "Wh", "price": "per_kWh"},
        "grid": {"tau": 12, "slot_hours": 1.0},
        "appliances": [
            {"id": "app1", "power": 35.38, "workload": 70.7},
            {"id": "app2", "power": 156.59, "workload": 313.2},
            {"id": "app3", "power": 76.73, "workload": 230.2},
        ],
        "ns_appliances": [
            {"id": "ns1", "power": 106.97, "runtime_slots": 1,
             "zone": [7, 12]},
            {"id": "ns2", "power": 33.73, "runtime_slots": 1,
             "zone": [1, 6]},
        ],
        "battery": {"capacity": 750, "initial": 0, "discharge_max": 250,
                    "charge_max": 250, "grid_step": 25},
        "price": {"values": [0.025, 0.023, 0.022, 0.021, 0.022, 0.024,
                             0.030, 0.036, 0.042, 0.046, 0.043, 0.037]},
        "privacy": {"lambda": 80, "reference": 85},
        "solver": {"mode": "guaranteed", "objective": "expected"},
        "seed": 0,
    },
    "motivating-example": {
        "name": "motivating-example",
        "units": {"power": "kW", "energy": "kWh", "price": "per_kWh"},
        "grid": {"tau": 4, "slot_hours": 1.0},
        "appliances": [
            {"id": "alpha1", "power": 40, "workload": 60},
            {"id": "alpha2", "power": 30, "workload": 80},
        ],
        "ns_appliances": [
            {"id": "beta", "power": 15, "runtime_slots": 1, "zone": [2, 3]},
        ],
        "battery": {"capacity": 20, "initial": 0, "discharge_max": 10,
                    "charge_max": 10, "grid_step": 10},
        "price": {"constant": 0.05},
        "privacy": {"lambda": 40, "reference": 35},
        "solver": {"mode": "guaranteed", "objective": "expected"},
        "seed": 0,
    },
}

# Same household as section-iv-a with the alternative storage parameters:
# a tight 200 Wh pack with faster relative rates.  Kept as published even
# though it disagrees with the section-iv-a battery.
PRESETS["table-ii"] = copy.deepcopy(PRESETS["section-iv-a"])
PRESETS["table-ii"]["name"] = "table-ii"
PRESETS["table-ii"]["battery"] = {"capacity": 200, "initial": 0,
                                  "discharge_max": 100, "charge_max": 100,
                                  "grid_step": 25}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def random_small_instance(seed: int,
                          ns_count: Optional[int] = None) -> Instance:
    """Seeded instance small enough for the exhaustive oracle.

    Sizes stay within tau <= 6, at most two schedulable and one
    non-schedulable appliance, and at most six battery levels.  The
    privacy bound is drawn wide enough that most seeds are feasible but
    narrow enough that it binds on many of them.
    """
    rng = np.random.default_rng(seed)
    tau = int(rng.integers(3, 7))
    h = 1.0

    appliances = []
    for i in range(int(rng.integers(1, 3))):
        dur = int(rng.integers(1, min(3, tau) + 1))
        power = float(np.round(rng.uniform(100.0, 400.0), 2))
        appliances.append(SchedulableAppliance(
            id=f"app{i + 1}", power_w=power, workload_wh=power * dur * h,
            duration_slots=dur))

    if ns_count is None:
        ns_count = int(rng.integers(0, 2))
    ns_appliances = []
    for j in range(ns_count):
        runtime = int(rng.integers(1, 3))
        lo = int(rng.integers(1, tau - runtime + 2))
        hi = int(rng.integers(lo + runtime - 1, tau + 1))
        power = float(np.round(rng.uniform(50.0, 200.0), 2))
        ns_appliances.append(NonSchedulableAppliance(
            id=f"ns{j + 1}", power_w=power, runtime_slots=runtime,
            zone=(lo, hi)))

    step = 50.0
    n_steps = int(rng.integers(1, 6))
    battery = Battery(
        b_max_wh=step * n_steps,
        b_init_wh=step * int(rng.integers(0, n_steps + 1)),
        z_discharge_max_wh=step * int(rng.integers(1, 3)),
        z_charge_max_wh=step * int(rng.integers(1, 3)),
        grid_step_wh=step)

    price = PriceSignal(tuple(
        float(np.round(v, 8)) for v in rng.uniform(1e-4, 5e-4, tau)))

    total_power = (sum(a.power_w for a in appliances)
                   + sum(a.power_w for a in ns_appliances))
    l_bar = float(np.round(rng.uniform(0.2, 0.6) * total_power, 2))
    rate_w = (battery.z_charge_max_wh + battery.z_discharge_max_wh) / h
    lam_safe = l_bar + total_power + rate_w
    lam = float(np.round(rng.uniform(0.3, 0.85) * lam_safe, 2))
    policy = PrivacyPolicy(lambda_w=lam, l_bar_w=l_bar)

    return Instance(grid=TimeGrid(tau=tau, slot_hours=h),
                    appliances=tuple(appliances),
                    ns_appliances=tuple(ns_appliances),
                    battery=battery, price=price, policy=policy)
